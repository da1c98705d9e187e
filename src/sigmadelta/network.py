"""Network specification and the four ways of executing it.

A NetworkSpec is a frozen stack of affine layers with activations and a
per-layer input-discretization scale k.  Four executors compute (nearly)
the same function at very different costs:

  forward_original     dense pass, the reference function
  TemporalDiffRuntime  streams undiscretized changes; exactly the original
  forward_rounding     quantizes each layer input to the 1/k grid, stateless
  SigmaDeltaRuntime    herds the *change* in quantized input; same function
                       as forward_rounding, but repeated inputs cost nothing

The last two communicate integer events between layers, so their cost is
events-times-fanout additions instead of dense multiply-accumulates.
dense_batch and rounding_batch evaluate the first and third over the rows
of a batch, through the same layer loop; SigmaDeltaRuntime.run, and
sigma_delta_stream from a fresh runtime, run the last over a window of
frames as that rounding loop, with the step's bits, counts and end state.

The per-frame passes count nothing: a dense frame costs the constant
flops_dense(net.dims).  dense_batch, rounding_batch and the sigma-delta
step and run record a call's per-layer totals in a LayerActivity, once
per call (and the last two charge an OpLedger from them, if given one).

The rounding and sigma-delta executors compute on each layer's grid (see
GRID_BITS), where every sum below the layer's limit is exact.  The
sigma-delta executors refuse a frame whose sums could pass it, so the
sigma-delta network equals the rounding network bit for bit.  The dense
executors use the weights as given.

Each layer owns its weights, its bias and its grid's W/k as read-only
copies at a 64-byte boundary, taken when it is built, with_scale included.
So every executor multiplies aligned matrices, and no caller's array can
move a layer's parameters after it is built.
"""

import base64
import json
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# not called here: the benchmark's tracer patches these module globals
from .kernels import sparse_accumulate, to_events  # noqa: F401
from .quantizers import round_half_away

__all__ = [
    "ACTIVATIONS",
    "LayerSpec",
    "NetworkSpec",
    "relu",
    "softmax",
    "forward_original",
    "forward_rounding",
    "dense_batch",
    "rounding_batch",
    "TemporalDiffRuntime",
    "SigmaDeltaRuntime",
    "sigma_delta_stream",
    "GRID_BITS",
    "bake_scales",
    "save_network",
    "load_network",
]

ACTIVATIONS = ("relu", "identity", "softmax")


def _const(v):
    """v as a read-only 0-d float64 array: a ufunc takes it as it is, where
    a Python float would be converted on every call."""
    c = np.full((), v, dtype=np.float64)
    c.flags.writeable = False
    return c


_ZERO = _const(0.0)


def relu(u):
    """max(u, 0) as a new array.  The zero is a _const, so under NumPy 2 a
    float32 u comes back as float64."""
    return np.maximum(u, _ZERO)


def softmax(u):
    """Softmax over the last axis, as a new array.  A frame (1-D) skips a
    batch's keepdims shapes and the ndarray method wrappers, with the same
    bits (the same max and pairwise sum)."""
    u = np.asarray(u)
    if u.ndim == 1:
        e = np.exp(u - np.maximum.reduce(u))
        e /= np.add.reduce(e)
        return e
    e = np.exp(u - np.max(u, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


_ACT_FNS = {"relu": relu, "identity": lambda u: u, "softmax": softmax}


def apply_activation(name, u):
    return _ACT_FNS[name](u)


# copysign(1/2, x) as bits: (x & _SIGN_BIT) | _HALF_BITS, the sign bit being
# the bits of -0.0
_SIGN_BIT, _HALF_BITS = (_const(v).view(np.int64) for v in (-0.0, 0.5))


def _round_rows(s):
    """round_half_away(s), to the bit.  A single frame (1-D) is rounded in
    one call, into a new array.  A batch (2-D) is rounded in place, 64 rows
    at a time, through one 64-row scratch: copysign(1/2, x) is formed there
    by integer ufuncs on x's bits (copysign is defined on those bits, so
    -0.0 and NaN keep their signs), the rows are added in, and the sum is
    truncated straight back into s.  The integer form costs about one add
    per element, where np.copysign costs two to three."""
    if s.ndim == 1:
        return round_half_away(s)
    h = np.empty((min(64, len(s)), s.shape[1]))
    for i in range(0, len(s), 64):
        blk = s[i:i + 64]
        hb = h[:len(blk)]
        bits = hb.view(np.int64)
        np.bitwise_and(blk.view(np.int64), _SIGN_BIT, out=bits)
        bits |= _HALF_BITS
        hb += blk  # the operands of round_half_away's y += x, in its order
        np.trunc(hb, out=blk)
    return s


def _max_abs(a):
    """max|a| without an |a| copy; 0 for an empty array."""
    return max(float(a.max(initial=0.0)), -float(a.min(initial=0.0)))


# Each layer's rounding and sigma-delta arithmetic runs on a grid of step
# 2**(ceil(log2 m) - GRID_BITS), m = max(max|W/k|, max|b|): W/k and the bias
# are rounded to multiples of the step once, which moves them by at most
# 2**-GRID_BITS of m.  An integer event times a weight, and every partial
# sum of such products plus the bias, is then a multiple of the step too,
# and float64 adds those exactly below 2**53 steps, the layer's limit.
# Exact sums do not depend on summation order, so the gather and dense
# kernels, a per-frame GEMV and a batched GEMM give the same bits.  At 36
# bits the snapping stays far below the 1e-9 the rounding tests hold
# against unsnapped arithmetic (32 bits did not), and a layer input may
# still carry ~2**17 unit events at the largest weight before its sums
# reach the limit (40 bits left too little for the tests' large frames).
GRID_BITS = 36


# LayerSpec.grid: W/k and the bias on the grid, its step, and the headroom
# (max|W/k|, max|b|, limit) of _check_events, limit = 2**53 steps
_Grid = namedtuple("_Grid", "weights bias step headroom")


def _aligned(shape):
    """An uninitialized float64 C array whose data starts at a 64-byte
    boundary.  numpy's allocations are only 16-byte aligned, and a GEMV
    v @ W on a 784x200 W off a 64-byte boundary took about twice as long
    (one OpenBLAS thread), so a pass's time followed where the heap put W.
    """
    n = math.prod(shape) * 8
    buf = np.empty(n + 64, dtype=np.uint8)
    lo = -buf.ctypes.data % 64
    return buf[lo:lo + n].view(np.float64).reshape(shape)


def _owned(a):
    """A fresh read-only, 64-byte-aligned copy of the float64 array a, which
    no caller holds a view of."""
    out = _aligned(a.shape)
    np.copyto(out, a)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LayerSpec:
    """One affine layer: weights (d_in, d_out), bias (d_out,), activation,
    and the scale k at which this layer's *input* is discretized: one
    positive number, kept as a Python float.

    weights and bias are the layer's own read-only, 64-byte-aligned float64
    copies (_owned), taken by every layer.
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "relu"
    scale: float = 1.0

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if W.ndim != 2 or b.ndim != 1 or b.shape[0] != W.shape[1]:
            raise ValueError(
                f"bad layer shapes: weights {W.shape}, bias {b.shape}")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise ValueError("layer parameters must be finite")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        k = np.asarray(self.scale)
        if k.dtype.kind not in "iuf":  # a bool, a string or an object
            raise ValueError(f"scale must be numeric, got {self.scale!r}")
        if k.ndim:
            raise ValueError(f"scale must be one number, got shape {k.shape}")
        if not 0 < k < math.inf:  # false for NaN too
            raise ValueError("scale must be positive and finite")
        object.__setattr__(self, "weights", _owned(W))
        object.__setattr__(self, "bias", _owned(b))
        object.__setattr__(self, "scale", float(k))

    @property
    def d_in(self):
        return self.weights.shape[0]

    @property
    def d_out(self):
        return self.weights.shape[1]

    @cached_property
    def grid(self):
        """The layer on its grid (GRID_BITS), built on first use and kept:
        W/k, what an integer event of this layer multiplies into, and the
        bias, both read-only multiples of the step, and the headroom the
        sigma-delta executors refuse frames by (_check_events)."""
        wk = np.divide(self.weights, self.scale,
                       out=_aligned(self.weights.shape))
        m = max(_max_abs(wk), _max_abs(self.bias))
        # at least the smallest float, 2**-1074, or it would underflow
        step = math.ldexp(1.0, max(
            (math.ceil(math.log2(m)) if m else 0) - GRID_BITS, -1074))
        # in place: one more W/k-sized array grew the heap, and a benchmark
        # run's peak RSS by up to 9 MB on the 784-200-200-10 net
        wk /= step
        _round_rows(wk)
        wk *= step
        b = round_half_away(self.bias / step) * step
        wk.flags.writeable = b.flags.writeable = False
        # the weight bound is at least one step: a frame whose event L1 n
        # has n * bound >= limit is refused, so n also stays an exact count
        # (below 2**53) when a layer's weights are all zero
        return _Grid(wk, b, step, (max(_max_abs(wk), step), _max_abs(b),
                                   2.0 ** 53 * step))

    def scaled_weights(self):
        """weights / k on the layer's grid: grid.weights.  No executor
        calls it; it stays only as a target the benchmark's tracer wraps,
        until that tracer stops pinning it (ROADMAP items A2 and B)."""
        return self.grid.weights

    def with_scale(self, k):
        """This layer at scale k, with its own copies of W and b."""
        return LayerSpec(self.weights, self.bias, self.activation, k)


class NetworkSpec:
    """An immutable stack of layers with chained dimensions.

    Softmax is only allowed on the final layer; hidden layers are relu or
    identity so that scales can be folded into the parameters.
    """

    def __init__(self, layers):
        layers = tuple(layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.d_out != b.d_in:
                raise ValueError(
                    f"layer widths do not chain: {a.d_out} -> {b.d_in}")
        for lay in layers[:-1]:
            if lay.activation == "softmax":
                raise ValueError("softmax is only allowed on the final layer")
        self.layers = layers

    @property
    def dims(self):
        return (self.layers[0].d_in,) + tuple(l.d_out for l in self.layers)

    @property
    def input_dim(self):
        return self.layers[0].d_in

    @property
    def output_dim(self):
        return self.layers[-1].d_out

    @property
    def scales(self):
        return [l.scale for l in self.layers]

    def with_scales(self, scales):
        if len(scales) != len(self.layers):
            raise ValueError("need one scale per layer")
        return NetworkSpec([l.with_scale(k) for l, k in zip(self.layers, scales)])

    def __repr__(self):
        acts = ",".join(l.activation for l in self.layers)
        return f"NetworkSpec(dims={self.dims}, activations=[{acts}])"


def _check_shape(net, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise ValueError(
            f"input has shape {x.shape}, network expects ({net.input_dim},)")
    return x


def _check_input(net, x):
    x = _check_shape(net, x)
    if not np.isfinite(x).all():
        raise ValueError("input frame must be finite")
    return x


def _check_frames(X, width):
    """The package's one rule for frames as rows, checked before any work:
    X as a float64 (n, width) array of finite values, or ValueError."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != width:
        raise ValueError(f"frames have shape {X.shape}, expected (n, {width})")
    if not np.isfinite(X).all():
        raise ValueError("input frames must be finite")
    return X


def _passes(net, X, snap):
    """X (one frame, or frames as rows) through the layers: the one loop of
    the stateless executors and of train_mlp.  Yields (layer, s, a) per
    layer: s is what multiplied the weights, a the layer's output.

    Dense (snap false): s is the layer input a, times W.  Rounding (snap
    true): s is round(k*a), the input's integer grid values, times the
    layer's cached W/k, plus its bias, both on the layer's grid.

    A layer holds one s-sized array: k*a is rounded where it lies
    (_round_rows), and the bias and a ReLU are applied in place to the
    product u, which no caller holds yet.  The bits are those of the
    out-of-place expressions.  A caller may overwrite a rounded s; one that
    drops it before the next layer, as the loop does, frees it before the
    next k*a is formed.  The first layer scales X into a new s; a hidden
    layer's a, which the pass owns, is scaled in place and becomes the next
    layer's s, so a caller that keeps a hidden a of a rounding pass sees it
    overwritten.
    """
    a = X
    for layer in net.layers:
        if snap:
            s = _round_rows(np.multiply(a, layer.scale,
                                        out=None if a is X else a))
            u = s @ layer.grid.weights
            u += layer.grid.bias
        else:
            s = a
            u = a @ layer.weights
            u += layer.bias
        if layer.activation == "relu":
            a = np.maximum(u, 0.0, out=u)
        else:
            a = apply_activation(layer.activation, u)
        yield layer, s, a
        del s


def forward_original(net, x):
    """Reference dense pass: one multiply and one add per weight, so
    flops_dense(net.dims) ops per frame."""
    for _, _, a in _passes(net, _check_input(net, x), snap=False):
        pass
    return a


def forward_rounding(net, x):
    """Stateless quantized pass: each layer input is snapped to its 1/k grid.

    Computes round(k*a) @ (W/k) + b densely, with W/k and b on the
    layer's grid (GRID_BITS).  The integer part round(k*a)
    stands for |s|_L1 unit events into weights/k, so a layer costs
    |s|_L1 * d_out event additions plus d_out bias additions: what
    rounding_batch records for the same frames, and flops_rounding prices.
    """
    for _, _, a in _passes(net, _check_input(net, x), snap=True):
        pass
    return a


def dense_batch(net, X, activity=None):
    """Vectorized forward_original over the rows of X."""
    nonzero = []
    for _, s, a in _passes(net, _check_frames(X, net.input_dim), snap=False):
        if activity is not None:
            nonzero.append(int(np.count_nonzero(s)))
    if activity is not None:
        activity._add("nonzero", nonzero, len(a))
    return a


def rounding_batch(net, X, activity=None):
    """Vectorized forward_rounding over the rows of X: the same products,
    and the same bits wherever the sums stay below the layers' limits
    (GRID_BITS).  A row whose event count is past int64 raises before any
    is recorded."""
    l1s = []
    for _, s, a in _passes(net, _check_frames(X, net.input_dim), snap=True):
        if activity is not None:
            l1 = np.abs(s, out=s).sum(axis=1)
            if not np.all(l1 < 2.0 ** 63):  # false for inf and NaN too
                raise ValueError("input rows must have event counts that "
                                 "fit int64")
            # Python ints: an int64 sum over rows could wrap
            l1s.append(l1.astype(np.int64).sum(dtype=object))
        del s
    if activity is not None:
        activity._add("l1", l1s, len(a))
    return a


class TemporalDiffRuntime:
    """Streaming state for the temporal-difference executor.

    Each layer keeps the last input seen and an integrated pre-activation
    that starts at the bias, so the bias is added once per sequence.  step
    communicates raw (undiscretized) changes and re-integrates after each
    linear map, so every frame's output equals forward_original on that
    frame regardless of history.
    """

    def __init__(self, net):
        self.net = net
        self.reset()

    def reset(self):
        self._prev = [np.zeros(l.d_in) for l in self.net.layers]
        self._u = [l.bias for l in self.net.layers]  # read-only: u is replaced

    def step(self, x):
        # a copy: the frame is kept as the first layer's previous input
        a = _check_input(self.net, x).copy()
        for i, layer in enumerate(self.net.layers):
            # u is replaced, not updated in place: an identity activation
            # returns u itself, which is kept as the next layer's input
            u = self._u[i] + (a - self._prev[i]) @ layer.weights
            self._prev[i], self._u[i] = a, u
            a = apply_activation(layer.activation, u)
        return a.copy()


# A layer adds the full delta product d @ W/k when more than this share of
# its input rows changed, and otherwise gathers the changed rows of W/k
# first.  Both are exact on the layer's grid; this only picks the faster.
# Gather + product against the dense product, in us, on the 64-byte-aligned
# W/k (LayerSpec.grid), warm in cache, with one BLAS thread (OpenBLAS
# 0.3.31, 2 vCPUs), at 10% / 20% / 1/4 / 1/3 / 50% / 100% of rows:
#   784x200  6.5 / 12.5 / 14 / 18 / 28 / 95   dense ~13
#   200x200  3.1 /  5.3 /  6 /  8 /  9 / 17   dense ~4.5
#   200x10   1.7 /  1.8 /1.8 /1.9 /2.2 /3.3   dense ~1.4
# Cold, with an 8 MB pass between calls, the 784x200 gather crossed the
# dense product (~60 us) near 1/4.  The gather wins on the two wide layers
# below ~1/5; on 200x10 the dense product wins at every share, by under
# 1 us.  (Before W/k was aligned, the dense product on 784x200 took ~30 us
# and the share was 3/8.)
DENSE_DELTA_SHARE = 1 / 5


def _layer_consts(net):
    """What the sigma-delta step reads of each layer: k (a _const), W/k,
    the activation, the changed-row count past which the dense delta
    product runs, and the headroom of the layer's grid."""
    return [(_const(l.scale), l.grid.weights, l.activation,
             DENSE_DELTA_SHARE * l.d_in, l.grid.headroom) for l in net.layers]


def _check_events(l1, s_l1, headroom):
    """Refuse, with ValueError, a layer's frame or frames: l1 is the
    (largest) event L1 and s_l1 the (largest) L1 of the rounded input
    s = round(k*a).

    With the headroom (max|W/k|, max|b|, limit) of the layer's grid
    (LayerSpec.grid, computed once per layer), both
    s_l1 * max|W/k| + max|b| and l1 * max|W/k| must stay below the limit.
    That keeps every integral exact, by induction over frames: u starts at
    the bias, exact.  If u is exact before a frame, every partial sum of
    the frame's delta product is a grid multiple below l1 * max|W/k|, so
    exact, and the new integral, exactly s @ W/k + b, is a grid multiple
    below s_l1 * max|W/k| + max|b|, so the one addition that forms it is
    exact too.  The same two bounds cover every partial sum of the
    stateless s @ W/k + b, and keep the event counts themselves exact
    integers below 2**53.  A NaN or infinite L1 fails the test too.
    """
    w, b, limit = headroom
    if not (s_l1 * w + b < limit and l1 * w < limit):
        raise ValueError("frames would take a layer's sums past its grid's "
                         "limit, where they stop being exact")


# Frames per chunk of SigmaDeltaRuntime.run: bounds the (frames, width)
# arrays a window holds at once.
STREAM_CHUNK = 1000


class SigmaDeltaRuntime:
    """Streaming state for the event-driven executor.

    Per layer: the previous rounded input round(k*a) and an integrated
    pre-activation u seeded with the bias.  Each frame sends the change in
    the rounded input as integer events, so activation(u) is what
    forward_rounding computes on the current frame alone, and an unchanged
    input costs zero additions at the layers it leaves unchanged.  step
    takes one frame; run takes a window from the same state.

    A layer whose changed rows exceed DENSE_DELTA_SHARE of its inputs adds
    the dense delta product; otherwise it gathers only the changed rows of
    W/k, and the event L1 is summed over the gathered changes alone.  Every
    sum is exact on the layer's grid, and the L1 is a sum of integers,
    exact in any order, so both kernels give forward_rounding's bits, and
    event counts, ledger charges and LayerActivity do not depend on which
    ran.  step returns an array of the caller's own: writing into it
    cannot reach the runtime's state.

    A frame is refused (_check_events) unless, per layer,
    L1(round(k*a)) * max|W/k| + max|b| and L1(change) * max|W/k| stay below
    the layer's limit; these bounds are the layer's grid (LayerSpec.grid).
    step and run are all-or-nothing: misshapen frames are rejected before
    any work, and a call that raises (a refused or non-finite frame, or an
    activity that cannot record the frames) leaves the state, frame count,
    ledger and activity as they were.
    """

    def __init__(self, net):
        self.net = net
        self._consts = _layer_consts(net)
        self._fanouts = net.dims[1:]
        self.reset()

    def reset(self):
        self._prev = [np.zeros(l.d_in) for l in self.net.layers]
        self._u = [l.grid.bias for l in self.net.layers]
        # per layer, an upper bound on L1(previous rounded input)
        self._bounds = [0.0] * len(self.net.layers)
        self.frames = 0

    def step(self, x, ledger=None, activity=None):
        # no finiteness check: a NaN or inf frame has a NaN or inf L1
        a = _check_shape(self.net, x)
        # the new state is built aside and committed once nothing can raise
        prevs, us, bounds, l1s = [], [], [], []
        for (k, wk, act, dense_rows, headroom), prev, u, bound in zip(
                self._consts, self._prev, self._u, self._bounds):
            r = round_half_away(a * k)
            d = r - prev
            # NaN != 0, so a NaN or inf change is among the changed rows
            idx = (d != 0).nonzero()[0]
            gather = idx.size <= dense_rows
            if gather:
                d = d[idx]
            # |d| holds integers: summed in any order, exactly below 2**53,
            # and to at least 2**53 past it, where _check_events refuses
            l1 = float(np.add.reduce(np.abs(d)))
            # L1(r) <= L1(prev) + l1, so the rule holds for L1(r) if it
            # holds for that bound; r's own L1 is summed only if it does not
            bound += l1
            w, b, limit = headroom
            if not bound * w + b < limit:
                bound = float(np.add.reduce(np.abs(r)))
            _check_events(l1, bound, headroom)
            p = d @ wk.take(idx, axis=0) if gather else d @ wk
            p += u  # a new integral: u, kept as stored, is never written
            l1s.append(int(l1))
            prevs.append(r)
            us.append(p)
            bounds.append(bound)
            a = apply_activation(act, p)
        self._record(l1s, 1, ledger, activity)
        self._prev, self._u, self._bounds = prevs, us, bounds
        self.frames += 1
        # relu and softmax return new arrays; identity returns the stored
        # integral, which the caller must not be handed
        return a.copy() if a is p else a

    def run(self, frames, ledger=None, activity=None):
        """step over the rows of frames, in order, from this runtime's state;
        returns the per-frame outputs.

        The step's integral is exactly the rounding pre-activation
        s @ W/k + b, s = round(k*a), so a window is the rounding pass over
        chunks of STREAM_CHUNK frames.  A frame's event L1 is the row sum of
        |diff(s)| along time, from the state's s, then from a copy of the
        chunk before's last row; these row L1s, and L1(s)'s, are taken 64
        rows at a time in one scratch array for the window.  Outputs,
        ledger, activity and state are the step's to the bit; the state
        follows from the last row alone: prev = s, u = s @ W/k + b, and
        the bound L1(s), exact where the step's may be larger.  A window
        with a frame the step would refuse raises ValueError before
        anything is charged or committed.
        """
        X = _check_frames(frames, self.net.input_dim)
        out = np.empty((X.shape[0], self.net.output_dim))
        if not len(X):
            return out
        l1 = np.empty((X.shape[0], len(self.net.layers)), dtype=np.int64)
        prev, bounds = list(self._prev), list(self._bounds)
        scratch = np.empty(64 * max(self.net.dims[:-1]))
        for lo in range(0, X.shape[0], STREAM_CHUNK):
            rows = slice(lo, lo + STREAM_CHUNK)
            for i, (layer, s, a) in enumerate(_passes(self.net, X[rows], True)):
                for j in range(0, len(s), 64):
                    blk = s[j:j + 64]
                    d = scratch[:blk.size].reshape(blk.shape)
                    # diff(s, prepend=prev[i]) on this block's rows
                    np.subtract(blk[0], s[j - 1] if j else prev[i], out=d[0])
                    np.subtract(blk[1:], blk[:-1], out=d[1:])
                    n = np.abs(d, out=d).sum(axis=1)
                    s_l1 = np.abs(blk, out=d).sum(axis=1)
                    _check_events(n.max(), s_l1.max(), layer.grid.headroom)
                    l1[lo + j:lo + j + len(blk), i] = n
                prev[i], bounds[i] = s[-1].copy(), float(s_l1[-1])
                del s, blk
            out[rows] = a
        # Python ints, as the step's: int64 sums over frames could wrap
        self._record(l1.sum(axis=0, dtype=object), len(X), ledger, activity)
        self._prev, self._bounds = prev, bounds
        self._u = [p @ l.grid.weights + l.grid.bias
                   for p, l in zip(prev, self.net.layers)]
        self.frames += len(X)
        return out

    def _record(self, l1s, frames, ledger, activity):
        """Record frames' event L1s, one Python int per layer and exact by
        construction, in the activity, which may refuse them, and only then
        charge the ledger one add per event per fan-out."""
        if activity is not None:
            activity._add("l1", l1s, frames)
        if ledger is not None:
            ledger.int_adds += sum(map(operator.mul, l1s, self._fanouts))


def sigma_delta_stream(net, frames, ledger=None, activity=None):
    """SigmaDeltaRuntime.run on a fresh runtime: the per-frame outputs."""
    return SigmaDeltaRuntime(net).run(frames, ledger=ledger, activity=activity)


def bake_scales(net):
    """Fold discretization scales into weights and biases.

    Returns a network whose hidden scales are all 1 and whose quantized
    function is the original's to within its grids' snapping.  The first
    layer's scale is kept as-is: it fixes the grid the raw input is
    snapped to, which cannot be moved into the parameters without changing
    the function.  NetworkSpec guarantees the homogeneous hidden
    activations this needs (relu or identity); a final softmax is
    untouched since nothing is folded past it.

    Each baked layer snaps its folded weights on its own grid, moving each
    by up to half a step, so where a hidden input carries very many events
    (~1e7 or more) the next layer's pre-activation can move far enough to
    round an entry of its input one unit away.  tests/test_search.py pins
    the drawn nets where this happens (BAKE_FLIPS).
    """
    baked = []
    n = len(net.layers)
    for i, layer in enumerate(net.layers):
        k_next = net.layers[i + 1].scale if i + 1 < n else 1.0
        w = layer.grid.weights * k_next  # rows / k_i, columns * k_{i+1}
        b = layer.bias * k_next
        if i == 0:
            baked.append(LayerSpec(w * layer.scale, b,
                                   layer.activation, layer.scale))
        else:
            baked.append(LayerSpec(w, b, layer.activation, 1.0))
    return NetworkSpec(baked)


# ---------------------------------------------------------------------------
# Serialization: versioned JSON container, schema documented in the README.
# Arrays are little-endian float64, C (row-major) order, base64-encoded.

_FORMAT_NAME = "sigmadelta-network"
_FORMAT_VERSION = 1
_LAYER_KEYS = ("d_in", "d_out", "activation", "scale", "weights", "bias")


def _encode_array(a):
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def _decode_array(s, shape):
    # type, not isinstance: a JSON true is a bool, and bool subclasses int
    if not isinstance(s, str) or not all(type(n) is int for n in shape):
        raise ValueError("an array is a base64 string with integer dimensions")
    a = np.frombuffer(base64.b64decode(s), dtype="<f8").astype(np.float64)
    if a.size != int(np.prod(shape)):
        raise ValueError("array payload does not match declared shape")
    return a.reshape(shape)


def save_network(net, path):
    doc = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "dims": list(net.dims),
        "layers": [],
    }
    for layer in net.layers:
        doc["layers"].append({
            "d_in": layer.d_in,
            "d_out": layer.d_out,
            "activation": layer.activation,
            "scale": layer.scale,
            "weights": _encode_array(layer.weights),
            "bias": _encode_array(layer.bias),
        })
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")


def load_network(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT_NAME:
        raise ValueError(f"not a {_FORMAT_NAME} file: {path}")
    if doc.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported container version {doc.get('version')}")
    if not isinstance(doc.get("layers"), list):
        raise ValueError(f"{path}: 'layers' must be a list")
    layers = []
    for i, ld in enumerate(doc["layers"]):
        if not isinstance(ld, dict) or not all(key in ld for key in _LAYER_KEYS):
            raise ValueError(f"{path}: layer {i} needs the keys {_LAYER_KEYS}")
        w = _decode_array(ld["weights"], (ld["d_in"], ld["d_out"]))
        b = _decode_array(ld["bias"], (ld["d_out"],))
        k = ld["scale"]
        if type(k) not in (int, float):  # not a list, nor a JSON true
            raise ValueError(f"{path}: layer {i} scale must be a number")
        layers.append(LayerSpec(w, b, ld["activation"], k))
    return NetworkSpec(layers)
