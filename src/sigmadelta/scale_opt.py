"""Tunes per-layer discretization scales to trade output error against additions.

Scales live in log-space (kappa = log k) so they stay positive and away
from the unstable near-zero region.  Gradients flow through the rounding
step as if it were the identity (straight-through); each scale's
computation pressure comes only from its own layer's event count times
fan-out, while the error term backpropagates through everything above it.

Two surrogates stand in for the non-differentiable rounding during
training: the rounded values themselves with a pass-through backward
("ste"), or additive uniform noise ("noise"), which makes the forward
genuinely differentiable and tends to stabilize aggressive
computation-reduction runs.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .network import apply_activation, dense_batch
from .quantizers import round_half_away

__all__ = [
    "TradeoffConfig",
    "TraceStep",
    "OptimizeResult",
    "DivergenceError",
    "error_loss",
    "scaled_forward",
    "grad_kappa",
    "update_scales",
    "optimize",
]

SURROGATES = ("ste", "noise", "identity")
_PROB_FLOOR = 1e-12
# optimize's divergence bound: this many times the first batch's error loss
_DIVERGENCE_FACTOR = 10.0


@dataclass
class TradeoffConfig:
    """Knobs for the error/computation tradeoff optimization.

    lam weighs additions against output error.
    """

    lam: float = 0.0
    eta: float = 0.01
    epochs: int = 1
    batch_size: int = 32
    surrogate: str = "ste"
    divergence_patience: int = 100

    def __post_init__(self):
        # written so that NaN fails each comparison
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be nonnegative and finite")
        if not 0 < self.eta < math.inf:
            raise ValueError("eta must be positive and finite")
        if not self.epochs >= 0:
            raise ValueError("epochs must be nonnegative")
        if not self.batch_size >= 1:
            raise ValueError("batch_size must be >= 1")
        if self.surrogate not in SURROGATES:
            raise ValueError(f"surrogate must be one of {SURROGATES}")
        if not self.divergence_patience >= 1:
            raise ValueError("divergence_patience must be >= 1")

    def resolve_distance(self, net):
        """The error distance: KL for softmax outputs, L2 otherwise."""
        return "kl" if net.layers[-1].activation == "softmax" else "l2"


def error_loss(y_round, y_true, distance):
    """Distance between quantized and reference outputs.

    'l2' is the Euclidean norm of the difference; 'kl' is KL(true||round)
    and requires both arguments to be probability vectors (rounded
    probabilities are floored at 1e-12 inside the log).  2-D inputs are
    treated as batches and averaged.
    """
    y_round = np.asarray(y_round, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.float64)
    if y_round.shape != y_true.shape:
        raise ValueError("outputs must have matching shapes")
    if distance == "kl":
        _check_probabilities(y_round, "y_round")
    return _distance(y_round, y_true, distance)


def _check_probabilities(y, name):
    if np.any(y < -1e-9) or np.any(np.abs(y.sum(axis=-1) - 1.0) > 1e-6):
        raise ValueError(f"KL requires probability vectors ({name})")


def _distance(y_round, y_true, distance):
    """error_loss for float64 arrays of one shape, checking y_true only:
    grad_kappa's y_round is a softmax of finite values."""
    if distance == "l2":
        return float(np.mean(np.linalg.norm(
            np.atleast_2d(y_round - y_true), axis=-1)))
    if distance == "kl":
        _check_probabilities(y_true, "y_true")
        t = np.atleast_2d(y_true)
        q = np.maximum(np.atleast_2d(y_round), _PROB_FLOOR)
        terms = np.where(t > 0, t * (np.log(np.maximum(t, _PROB_FLOOR)) - np.log(q)), 0.0)
        return float(np.mean(terms.sum(axis=-1)))
    raise ValueError(f"unknown distance {distance!r}")


def _as_batch(net, x):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(
            f"input shape {x.shape} does not match network width {net.input_dim}")
    return x, single


def _forward_trace(net, X, kappas, surrogate, rng):
    """Run the scaled quantized forward on a batch, keeping everything the
    backward pass needs.  A, Z, S and R have one entry per layer input (S
    is the surrogate's stand-in for round(z), R is S/k).  Pre-activations
    are not kept: the activations' backward passes need only their
    outputs.

    This keeps its own loop rather than network._passes: k changes every
    step, so it divides the batch, (s/k) @ W.  Installing the new scales in
    the network for its cached W/k rebuilds W/k on every call, and made
    this forward ~50% slower (~660 -> ~1010 us on a 32-frame batch of a
    784-200-200-10 net, one BLAS thread, 2 vCPUs)."""
    if surrogate == "noise" and rng is None:
        raise ValueError("the noise surrogate needs an rng")
    A, Z, S, R = [X], [], [], []
    a = X
    with np.errstate(over="ignore", invalid="ignore"):  # finiteness checked below
        for layer, kappa in zip(net.layers, kappas):
            k = np.exp(kappa)
            z = a * k
            if surrogate == "ste":
                s = round_half_away(z)
            elif surrogate == "noise":
                s = z + rng.uniform(-0.5, 0.5, size=z.shape)
            else:  # identity: quantization disabled
                s = z
            r = s / k
            a = r @ layer.weights
            a += layer.bias
            if layer.activation == "relu":
                np.maximum(a, 0.0, out=a)
            else:
                a = apply_activation(layer.activation, a)
            Z.append(z)
            S.append(s)
            R.append(r)
            A.append(a)
    if not np.all(np.isfinite(A[-1])):
        with np.errstate(over="ignore"):
            scales = [float(np.max(np.exp(np.asarray(k)))) for k in kappas]
        raise ValueError(
            f"non-finite activations in scaled forward (max scales {scales})")
    return A, Z, S, R


def scaled_forward(net, x, kappas, surrogate="ste", rng=None):
    """Output of the quantized network at the given log-scales.

    With surrogate='ste' this is exactly the rounding network's output;
    'noise' replaces rounding with additive uniform noise; 'identity'
    disables quantization entirely.
    """
    X, single = _as_batch(net, x)
    A = _forward_trace(net, X, kappas, surrogate, rng)[0]
    return A[-1][0] if single else A[-1]


def _loss_gradient(distance, last_activation, Y, T):
    """dL/dU for the final layer, L averaged over the batch."""
    n = Y.shape[0]
    if distance == "kl":
        # resolve_distance picks KL only for a softmax output: the fused
        # gradient (the 1e-12 floor only guards the loss value)
        return (Y - T) / n
    # l2: gradient of the norm, zero at exact agreement
    diff = Y - T
    norms = np.linalg.norm(diff, axis=1, keepdims=True)
    g = np.where(norms > 1e-30, diff / np.maximum(norms, 1e-30), 0.0) / n
    return _through_activation(last_activation, g, Y)


def _through_activation(name, g, a):
    # relu or identity: NetworkSpec allows softmax only on the output, and
    # _loss_gradient takes that through the fused KL gradient
    if name == "relu":
        # a = max(u, 0), so a > 0 exactly where u > 0
        return g * (a > 0)
    return g


def grad_kappa(net, x, kappas, cfg, rng=None, y_true=None):
    """Gradient of the tradeoff objective with respect to each layer's kappa.

    Returns (grads, info).  The error term backpropagates through all
    higher layers with pass-through rounding; the computation term for a
    scale is its own layer's straight-through |k*a| times fan-out, weighted
    by cfg.lam.  Each layer's gradient has the shape of its kappa: a
    float (layerwise), or a vector over the layer's inputs (unitwise).
    info carries the batch losses and actual (rounded) event counts so
    callers can trace training without a second pass.
    """
    if len(kappas) != len(net.layers):
        raise ValueError("need one kappa per layer")
    X, _ = _as_batch(net, x)
    n = X.shape[0]
    if y_true is None:
        y_true = dense_batch(net, X)
    T = np.atleast_2d(np.asarray(y_true, dtype=np.float64))
    dims = net.dims
    if T.shape != (n, dims[-1]):
        raise ValueError("outputs must have matching shapes")
    distance = cfg.resolve_distance(net)

    A, Z, S, R = _forward_trace(net, X, kappas, cfg.surrogate, rng)
    Y = A[-1]

    grads = []
    g = None
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        if i == len(net.layers) - 1:
            dU = _loss_gradient(distance, layer.activation, Y, T)
        else:
            dU = _through_activation(layer.activation, g, A[i + 1])
        dR = dU @ layer.weights.T
        # R[i] is not needed again: it becomes the error term
        err_term = np.subtract(A[i], R[i], out=R[i])
        err_term *= dR
        comp_term = np.abs(Z[i])
        comp_term *= cfg.lam * dims[i + 1]
        comp_term /= n
        if np.ndim(kappas[i]):  # unitwise: one gradient per input
            gk = err_term.sum(axis=0) + comp_term.sum(axis=0)
        else:
            gk = float(err_term.sum() + comp_term.sum())
        if not np.all(np.isfinite(gk)):
            raise ValueError(f"non-finite gradient at layer {i}")
        grads.append(gk)
        g = dR
    grads.reverse()

    # the ste forward already rounded z; the other surrogates did not
    s_actual = (S if cfg.surrogate == "ste"
                else [round_half_away(z) for z in Z])
    l1_mean = [float(np.abs(s).sum() / n) for s in s_actual]
    # every layer's events times fan-out: what the computation term prices
    comp = sum(l1 * dims[i + 1] for i, l1 in enumerate(l1_mean))
    info = {
        "error_loss": _distance(Y, T, distance),
        "comp_loss": comp,
        "round_flops": comp + sum(dims[1:]),
        "l1_mean": l1_mean,
    }
    return grads, info


def update_scales(kappas, grads, eta):
    """Plain gradient step in log-space: kappa <- kappa - eta * grad.

    Returns the new list of log-scales; the arguments are not modified."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if len(kappas) != len(grads):
        raise ValueError("one gradient per layer required")
    new = [k - eta * g for k, g in zip(kappas, grads)]
    for i, k in enumerate(new):
        if not np.all(np.isfinite(k)):
            raise ValueError(f"non-finite kappa at layer {i} after update")
    return new


@dataclass
class TraceStep:
    step: int
    epoch: int
    error_loss: float
    comp_loss: float
    round_flops: float
    scales: list
    diverging: bool = False


@dataclass
class OptimizeResult:
    scales: list
    trace: list = field(default_factory=list)


def _log_scales(net, init):
    """kappa = log k for optimize's init, refusing what no net could use."""
    if len(init) != len(net.layers):
        raise ValueError(f"init needs one scale per layer ({len(net.layers)}), "
                         f"got {len(init)}")
    kappas = []
    for i, (k, layer) in enumerate(zip(init, net.layers)):
        k = np.asarray(k, dtype=np.float64)
        if k.ndim and k.shape != (layer.d_in,):
            raise ValueError(f"init scale at layer {i} must be a float or a "
                             f"vector of its {layer.d_in} inputs")
        if not np.all(np.isfinite(k) & (k > 0)):
            raise ValueError(f"init scale at layer {i} must be positive and finite")
        kappas.append(np.log(k) if k.ndim else float(np.log(k)))
    return kappas


class DivergenceError(RuntimeError):
    """Raised when the error loss stays blown up for too many steps."""

    def __init__(self, step, trace):
        super().__init__(
            f"error loss exceeded its divergence bound for "
            f"{trace[-1].step - step + 1} consecutive steps (at step {trace[-1].step})")
        self.step = step
        self.trace = trace


def optimize(net, frames, cfg, rng, init=None):
    """Minibatch-optimize the layer scales on a set of input frames.

    The reference output for every sample comes from the original dense
    network.  Scales start at k=1, a float per layer, or at init: positive
    scales, one per layer, each a float or (unitwise) a vector over its
    layer's inputs.  Returns the final scales k in that same form, ready
    for net.with_scales or a later init, and a per-step trace of (error,
    computation).  Raises DivergenceError if the error loss exceeds 10x
    (_DIVERGENCE_FACTOR) its initial value for divergence_patience
    consecutive steps.
    """
    X = np.asarray(getattr(frames, "frames", frames), dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("frames must be a nonempty (n, d) array")
    kappas = [0.0] * len(net.layers) if init is None else _log_scales(net, init)

    y_true = dense_batch(net, X)

    trace = []
    step = 0
    initial_error = None
    streak_start = None
    for epoch in range(cfg.epochs):
        order = rng.permutation(X.shape[0])
        for lo in range(0, X.shape[0], cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            grads, info = grad_kappa(net, X[idx], kappas, cfg, rng=rng,
                                     y_true=y_true[idx])
            kappas = update_scales(kappas, grads, cfg.eta)
            if initial_error is None:
                initial_error = max(info["error_loss"], 1e-30)
            diverging = info["error_loss"] > _DIVERGENCE_FACTOR * initial_error
            trace.append(TraceStep(
                step=step, epoch=epoch,
                error_loss=info["error_loss"],
                comp_loss=info["comp_loss"],
                round_flops=info["round_flops"],
                scales=[float(np.mean(np.exp(np.asarray(k)))) for k in kappas],
                diverging=diverging))
            if diverging:
                if streak_start is None:
                    streak_start = step
                if step - streak_start + 1 >= cfg.divergence_patience:
                    raise DivergenceError(streak_start, trace)
            else:
                streak_start = None
            step += 1
    scales = [np.exp(k) if np.ndim(k) else float(np.exp(k)) for k in kappas]
    return OptimizeResult(scales=scales, trace=trace)
