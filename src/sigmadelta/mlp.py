"""Plain backprop training of a ReLU/softmax classifier.

Produces the pretrained weights the experiments discretize; nothing here
is event-driven.  Adam with early stopping on a held-out validation
split; optimizer details are incidental, only the final accuracy matters.
"""

import numpy as np

from .network import LayerSpec, NetworkSpec, dense_batch, relu, softmax

__all__ = ["train_mlp", "accuracy"]

_LEARNING_RATE = 1e-3  # Adam's step size
_VAL_FRACTION = 0.1  # share of the samples held out for validation


def _forward(Ws, bs, X):
    """The trainer's pass over its raw weight arrays, keeping every layer."""
    H = [X]
    for i, (W, b) in enumerate(zip(Ws, bs)):
        U = H[-1] @ W + b
        H.append(U if i == len(Ws) - 1 else relu(U))
    return H


def accuracy(net, X, labels):
    """Fraction of samples whose argmax output matches the label."""
    a = dense_batch(net, X)
    return float(np.mean(np.argmax(a, axis=1) == np.asarray(labels)))


def train_mlp(images, labels, rng, dims=(784, 200, 200, 10), epochs=50,
              batch_size=128, target_acc=0.978, verbose=False):
    """Train a classifier to at least target_acc validation accuracy.

    rng, a numpy Generator, draws the validation split, the initial
    weights and each epoch's order, so a seeded rng gives the same net.
    Returns (net, history) where history lists per-epoch dicts with the
    cross-entropy and validation accuracy.  Stops early once the target
    is reached.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    X = np.asarray(images, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] != dims[0]:
        raise ValueError(f"images must be (n, {dims[0]})")
    n = X.shape[0]
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
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0

    def make_net():
        acts = ["relu"] * (len(Ws) - 1) + ["softmax"]
        return NetworkSpec([LayerSpec(W, b, a)
                            for W, b, a in zip(Ws, bs, acts)])

    history = []
    for epoch in range(epochs):
        order = rng.permutation(len(Xtr))
        total_loss = 0.0
        for lo in range(0, len(Xtr), batch_size):
            idx = order[lo:lo + batch_size]
            xb, yb = Xtr[idx], ytr[idx]
            B = len(idx)
            H = _forward(Ws, bs, xb)
            P = softmax(H[-1])
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
                for p, g, m, v in ((Ws[i], dW, mW[i], vW[i]),
                                   (bs[i], db, mb[i], vb[i])):
                    m *= beta1
                    m += (1 - beta1) * g
                    v *= beta2
                    v += (1 - beta2) * g * g
                    mhat = m / (1 - beta1 ** t)
                    vhat = v / (1 - beta2 ** t)
                    p -= _LEARNING_RATE * mhat / (np.sqrt(vhat) + eps)
        val_acc = accuracy(make_net(), Xva, yva)
        history.append({"epoch": epoch, "loss": total_loss / len(Xtr),
                        "val_acc": val_acc})
        if verbose:
            print(f"epoch {epoch}: loss {history[-1]['loss']:.4f} "
                  f"val_acc {val_acc:.4f}")
        if val_acc >= target_acc:
            break
    return make_net(), history
