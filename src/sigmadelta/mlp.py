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
    is reached.  Before any training, ValueError refuses images that are
    not finite (n, dims[0]) rows (network._check_frames), and labels that
    are not n integers in [0, dims[-1]).
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    X = _check_frames(images, dims[0])
    n = X.shape[0]
    y = np.asarray(labels)
    if y.dtype.kind not in "iu" or y.shape != (n,):
        raise ValueError(f"labels must be {n} integers, one per image")
    if not np.all((y >= 0) & (y < dims[-1])):
        raise ValueError(f"labels must lie in [0, {dims[-1]})")
    n_val = max(1, int(n * _VAL_FRACTION))
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    Xtr, ytr = X[train_idx], y[train_idx]
    Xva, yva = X[val_idx], y[val_idx]

    Ws = [rng.standard_normal((dims[i], dims[i + 1])) * np.sqrt(2.0 / dims[i])
          for i in range(len(dims) - 1)]
    bs = [np.zeros(d) for d in dims[1:]]
    mW = [np.zeros_like(W) for W in Ws]
    vW = [np.zeros_like(W) for W in Ws]
    mb = [np.zeros_like(b) for b in bs]
    vb = [np.zeros_like(b) for b in bs]
    # two work arrays per parameter, so a step allocates nothing W-sized
    workW = [(np.empty_like(W), np.empty_like(W)) for W in Ws]
    workb = [(np.empty_like(b), np.empty_like(b)) for b in bs]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0

    acts = ["relu"] * (len(Ws) - 1) + ["softmax"]
    # the layers network._passes runs, on the live arrays: a LayerSpec would
    # copy W and b into read-only arrays that the Adam step could not update
    live = SimpleNamespace(layers=[
        SimpleNamespace(weights=W, bias=b, activation=a)
        for W, b, a in zip(Ws, bs, acts)])

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
            for i in reversed(range(len(Ws))):
                dW = H[i].T @ dU
                db = dU.sum(axis=0)
                if i > 0:
                    dU = (dU @ Ws[i].T) * (H[i] > 0)
                for p, g, m, v, (x, y) in (
                        (Ws[i], dW, mW[i], vW[i], workW[i]),
                        (bs[i], db, mb[i], vb[i], workb[i])):
                    # Adam's operations in the usual order, lr * mhat before
                    # the division, written into x and y: the same bits
                    m *= beta1
                    m += np.multiply(1 - beta1, g, out=x)
                    v *= beta2
                    np.multiply(1 - beta2, g, out=x)
                    v += np.multiply(x, g, out=x)
                    np.divide(m, 1 - beta1 ** t, out=x)
                    np.multiply(_LEARNING_RATE, x, out=x)
                    np.divide(v, 1 - beta2 ** t, out=y)
                    np.sqrt(y, out=y)
                    y += eps
                    p -= np.divide(x, y, out=x)
        val_acc = accuracy(make_net(), Xva, yva)
        history.append({"epoch": epoch, "loss": total_loss / len(Xtr),
                        "val_acc": val_acc})
        if verbose:
            print(f"epoch {epoch}: loss {history[-1]['loss']:.4f} "
                  f"val_acc {val_acc:.4f}")
        if val_acc >= target_acc:
            break
    return make_net(), history
