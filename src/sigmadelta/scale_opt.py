"""Tunes per-layer discretization scales to trade output error against additions.

Scales live in log-space (kappa = log k) so they stay positive and away
from the unstable near-zero region.  Gradients flow through the rounding
step as if it were the identity (straight-through); each scale's
computation pressure comes only from its own layer's event count times
fan-out, while the error term backpropagates through everything above it.

Three surrogates stand in for the non-differentiable rounding during
training: the rounded values themselves with a pass-through backward
("ste"); additive uniform noise ("noise"), which makes the forward
genuinely differentiable and tends to stabilize aggressive
computation-reduction runs; or no quantization at all ("identity").
"""

import math
import statistics
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
# optimize's divergence bound: this many times the median of the first
# _BASELINE_STEPS positive batch error losses, for _DIVERGENCE_PATIENCE
# consecutive steps
_DIVERGENCE_FACTOR = 10.0
_BASELINE_STEPS = 5
_DIVERGENCE_PATIENCE = 100


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
    backward pass needs.  kappas holds one number, log k, per layer;
    anything else is refused with ValueError.  A, Z, S and R have one
    entry per layer input (S is the surrogate's stand-in for round(z), R
    is S/k).  Pre-activations are not kept: the activations' backward
    passes need only their outputs.  The last value is R0 W0, the first layer's product before
    its bias, which grad_kappa's first-layer error term reuses.

    This keeps its own loop rather than network._passes: k changes every
    step, so it divides the batch, (s/k) @ W.  Installing the new scales in
    the network (with_scales, then rounding_batch) rebuilds and snaps W/k
    to the grid on every call: ~1.9 ms against this loop's ~0.6 ms on a
    32-frame batch of a 784-200-200-10 net at scales (8, 4, 4), one BLAS
    thread, 2 vCPUs."""
    if len(kappas) != len(net.layers) or any(np.ndim(k) for k in kappas):
        raise ValueError("need one number, log k, per layer")
    if surrogate == "noise" and rng is None:
        raise ValueError("the noise surrogate needs an rng")
    A, Z, S, R = [X], [], [], []
    a, rw0 = X, None
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
            rw = r @ layer.weights
            if rw0 is None:  # R0 W0, before the bias: grad_kappa's first layer
                rw0 = rw
            a = rw + layer.bias
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
            scales = [float(np.exp(k)) for k in kappas]
        raise ValueError(
            f"non-finite activations in scaled forward (scales {scales})")
    return A, Z, S, R, rw0


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


def grad_kappa(net, x, kappas, cfg, rng=None, y_true=None, xw0=None):
    """Gradient of the tradeoff objective with respect to each layer's kappa.

    Returns (grads, info).  The error term backpropagates through all
    higher layers with pass-through rounding; the computation term for a
    scale is its own layer's straight-through |k*a| times fan-out, weighted
    by cfg.lam.  kappas holds one number per layer (anything else is
    refused with ValueError), and each layer's gradient is a float.  info
    carries the batch losses and actual (rounded) event counts so callers
    can trace training without a second pass.

    No layer lies below the first, so the first kappa takes its error term
    without the backward product dU0 W0^T: every surrogate gives
    dR/dkappa = A - R, and sum((X - R0) * (dU0 W0^T)) equals
    sum(dU0 * (X W0 - R0 W0)), where the forward already formed R0 W0.
    xw0 is X W0, x @ net.layers[0].weights, as y_true is the reference
    output: data a caller that steps the same frames many times computes
    once (optimize does).  Left out, it is computed here, at the cost of
    the product it saves.
    """
    X, _ = _as_batch(net, x)
    n = X.shape[0]
    if y_true is None:
        y_true = dense_batch(net, X)
    T = np.atleast_2d(np.asarray(y_true, dtype=np.float64))
    dims = net.dims
    if T.shape != (n, dims[-1]):
        raise ValueError("outputs must have matching shapes")
    if xw0 is not None:
        xw0 = np.atleast_2d(np.asarray(xw0, dtype=np.float64))
        if xw0.shape != (n, dims[1]):
            raise ValueError("xw0 must have one row of the first layer's "
                             "outputs per frame")
    distance = cfg.resolve_distance(net)

    A, Z, S, R, rw0 = _forward_trace(net, X, kappas, cfg.surrogate, rng)
    Y = A[-1]

    grads = []
    g = None
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        if i == len(net.layers) - 1:
            dU = _loss_gradient(distance, layer.activation, Y, T)
        else:
            dU = _through_activation(layer.activation, g, A[i + 1])
        if i:
            g = dU @ layer.weights.T
            # R[i] is not needed again: it becomes the error term
            err_term = np.subtract(A[i], R[i], out=R[i])
            err_term *= g
        else:
            if xw0 is None:
                xw0 = X @ layer.weights
            err_term = np.subtract(xw0, rw0, out=rw0)
            err_term *= dU
        comp = np.abs(Z[i]).sum() * (cfg.lam * dims[i + 1] / n)
        gk = float(err_term.sum() + comp)
        if not math.isfinite(gk):
            raise ValueError(f"non-finite gradient at layer {i}")
        grads.append(gk)
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


class DivergenceError(RuntimeError):
    """Raised when the error loss stays blown up for too many steps."""

    def __init__(self, step, trace):
        super().__init__(
            f"error loss exceeded its divergence bound for "
            f"{trace[-1].step - step + 1} consecutive steps (at step {trace[-1].step})")
        self.step = step
        self.trace = trace


def optimize(net, frames, cfg, rng):
    """Minibatch-optimize the layer scales on a set of input frames.

    The reference output for every sample comes from the original dense
    network.  Scales start at the net's own, net.scales; to resume a run,
    pass net.with_scales(result.scales).  Returns the final scales k, a
    float per layer, ready for net.with_scales, and a per-step trace of
    (error, computation).  Raises DivergenceError if the error loss
    exceeds 10x (_DIVERGENCE_FACTOR) its baseline for 100
    (_DIVERGENCE_PATIENCE) consecutive steps.  The baseline is the median
    of the first five (_BASELINE_STEPS) positive batch errors, so one
    lucky first batch does not set it; a batch error of exactly 0 neither
    sets it nor diverges.

    Besides the reference outputs, it keeps X W0, the frames times the
    first layer's weights, for grad_kappa's xw0: one (n, d1) array, about
    a quarter of the frames' size for a 784-200 first layer.
    """
    X = np.asarray(getattr(frames, "frames", frames), dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("frames must be a nonempty (n, d) array")
    kappas = [math.log(k) for k in net.scales]

    y_true = dense_batch(net, X)
    xw0 = X @ net.layers[0].weights  # grad_kappa's first-layer product, once

    trace = []
    step = 0
    baseline = []  # the first positive batch errors, see _BASELINE_STEPS
    streak_start = None
    for epoch in range(cfg.epochs):
        order = rng.permutation(X.shape[0])
        for lo in range(0, X.shape[0], cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            grads, info = grad_kappa(net, X[idx], kappas, cfg, rng=rng,
                                     y_true=y_true[idx], xw0=xw0[idx])
            kappas = update_scales(kappas, grads, cfg.eta)
            error = info["error_loss"]
            # an error of exactly 0 (frames already on the grid) gives no
            # scale to measure a blow-up against
            if error > 0 and len(baseline) < _BASELINE_STEPS:
                baseline.append(error)
            diverging = (bool(baseline) and
                         error > _DIVERGENCE_FACTOR * statistics.median(baseline))
            trace.append(TraceStep(
                step=step, epoch=epoch,
                error_loss=error,
                comp_loss=info["comp_loss"],
                round_flops=info["round_flops"],
                scales=[float(np.exp(k)) for k in kappas],
                diverging=diverging))
            if diverging:
                if streak_start is None:
                    streak_start = step
                if step - streak_start + 1 >= _DIVERGENCE_PATIENCE:
                    raise DivergenceError(streak_start, trace)
            else:
                streak_start = None
            step += 1
    return OptimizeResult(scales=[float(np.exp(k)) for k in kappas],
                          trace=trace)
