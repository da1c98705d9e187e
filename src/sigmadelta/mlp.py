"""Plain backprop training of a ReLU/softmax classifier.

Produces the pretrained weights the experiments discretize; nothing here
is event-driven.  Adam with early stopping on a held-out validation
split; optimizer details are incidental, only the final accuracy matters.
"""

from types import SimpleNamespace

import numpy as np

from .network import (LayerSpec, NetworkSpec, _check_frames, _passes,
                      dense_batch)

__all__ = ["train_mlp", "accuracy"]

_LEARNING_RATE = 1e-3  # Adam's step size
_VAL_FRACTION = 0.1  # share of the samples held out for validation
_TARGET_ACC = 0.978  # train_mlp's default validation accuracy to stop at
_BATCH_SIZE = 128  # train_mlp's minibatch, in samples


def accuracy(net, X, labels):
    """Fraction of samples whose argmax output matches the label."""
    a = dense_batch(net, X)
    return float(np.mean(np.argmax(a, axis=1) == np.asarray(labels)))


def train_mlp(images, labels, rng, dims=(784, 200, 200, 10), epochs=50,
              target_acc=_TARGET_ACC, verbose=False):
    """Train a classifier to at least target_acc validation accuracy.

    rng, a numpy Generator, draws the validation split, the initial
    weights and each epoch's order, so a seeded rng gives the same net.
    Adam steps minibatches of 128 samples (_BATCH_SIZE).
    Returns (net, history) where history lists per-epoch dicts with the
    cross-entropy and validation accuracy.  Stops early once the target
    is reached.  Before any training or draw from rng, ValueError refuses
    dims that are not at least two widths, each >= 1, images that are not
    finite (n, dims[0]) rows (network._check_frames), fewer than 2 images
    (one is held out, one trained on), and labels that are not n integers
    in [0, dims[-1]).
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if len(dims) < 2 or min(dims) < 1:
        raise ValueError(f"dims must be at least two widths, each >= 1, "
                         f"got {dims}")
    X = _check_frames(images, dims[0])
    n = X.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 images, one held out, got {n}")
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu" or labels.shape != (n,):
        raise ValueError(f"labels must be {n} integers, one per image")
    if not np.all((labels >= 0) & (labels < dims[-1])):
        raise ValueError(f"labels must lie in [0, {dims[-1]})")
    n_val = max(1, int(n * _VAL_FRACTION))
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    Xtr, ytr = X[train_idx], labels[train_idx]
    Xva, yva = X[val_idx], labels[val_idx]

    # the one home of the live W and b, as layers network._passes runs: a
    # LayerSpec's read-only copies could not be updated in place
    live = SimpleNamespace(layers=[SimpleNamespace(
        weights=rng.standard_normal((d_in, d_out)) * np.sqrt(2.0 / d_in),
        bias=np.zeros(d_out), activation="relu")
        for d_in, d_out in zip(dims, dims[1:])])
    live.layers[-1].activation = "softmax"

    def params():
        return (p for l in live.layers for p in (l.weights, l.bias))

    # per parameter, in W0, b0, W1, ... order: Adam's m and v, and two work
    # arrays, so a step allocates nothing W-sized
    adam = [(np.zeros_like(p), np.zeros_like(p), np.empty_like(p),
             np.empty_like(p)) for p in params()]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0

    def make_net():
        return NetworkSpec([LayerSpec(**vars(l)) for l in live.layers])

    history = []
    for epoch in range(epochs):
        order = rng.permutation(len(Xtr))
        total_loss = 0.0
        for lo in range(0, len(Xtr), _BATCH_SIZE):
            idx = order[lo:lo + _BATCH_SIZE]
            xb, yb = Xtr[idx], ytr[idx]
            B = len(idx)
            H = []  # each layer's input; the last output is the softmax P
            for _, s, P in _passes(live, xb, snap=False):
                H.append(s)
            total_loss += -np.log(
                np.maximum(P[np.arange(B), yb], 1e-12)).sum()
            dU = P.copy()
            dU[np.arange(B), yb] -= 1.0
            dU /= B
            t += 1
            grads = []  # in params() order
            for i in reversed(range(len(live.layers))):
                grads[:0] = H[i].T @ dU, dU.sum(axis=0)
                if i > 0:
                    dU = (dU @ live.layers[i].weights.T) * (H[i] > 0)
            for p, g, (m, v, num, den) in zip(params(), grads, adam):
                # Adam's operations in the usual order, lr * mhat before the
                # division, written into num and den: the same bits
                m *= beta1
                m += np.multiply(1 - beta1, g, out=num)
                v *= beta2
                np.multiply(1 - beta2, g, out=num)
                v += np.multiply(num, g, out=num)
                np.divide(m, 1 - beta1 ** t, out=num)
                np.multiply(_LEARNING_RATE, num, out=num)
                np.divide(v, 1 - beta2 ** t, out=den)
                np.sqrt(den, out=den)
                den += eps
                p -= np.divide(num, den, out=num)
        val_acc = accuracy(make_net(), Xva, yva)
        history.append({"epoch": epoch, "loss": total_loss / len(Xtr),
                        "val_acc": val_acc})
        if verbose:
            print(f"epoch {epoch}: loss {history[-1]['loss']:.4f} "
                  f"val_acc {val_acc:.4f}")
        if val_acc >= target_acc:
            break
    return make_net(), history
