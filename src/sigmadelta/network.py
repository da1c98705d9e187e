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
of a batch, through the same layer loop; sigma_delta_stream runs the last
over an ordered set of frames as that rounding loop over chunks of frames,
and gets the per-frame executor's outputs and op counts to the bit.

The per-frame passes count nothing: a dense frame costs the constant
flops_dense(net.dims), and rounding_batch records in a LayerActivity what
forward_rounding's frames cost.  The sigma-delta step and stream record
their events in a LayerActivity (and an OpLedger, if given one).

The rounding and sigma-delta executors compute on each layer's grid (see
GRID_BITS), where every sum below the layer's limit is exact.  The
sigma-delta executors refuse a frame whose sums could pass it, so the
sigma-delta network equals the rounding network bit for bit.  The dense
executors use the weights as given.

Each layer holds its weights, its bias and its grid's W/k as read-only
copies at a 64-byte boundary, one weight-sized copy per layer built from a
caller's arrays; a layer that only changes the scale shares them.  So
every executor multiplies aligned matrices, and no caller's array can move
a layer's parameters after it is built.
"""

import base64
import json
import math
import weakref
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


def relu(u):
    return np.maximum(u, 0.0)


def softmax(u):
    e = np.exp(u - np.max(u, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


_ACT_FNS = {"relu": relu, "identity": lambda u: u, "softmax": softmax}


def apply_activation(name, u):
    return _ACT_FNS[name](u)


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


# the arrays _owned made, held weakly by id: a layer built from one shares it.
# It decides only whether memory is shared, never what a layer computes.
_OWNED = weakref.WeakValueDictionary()


def _owned(a):
    """A read-only, 64-byte-aligned copy of the float64 array a, or a itself
    if it is already one: no caller holds a writable view of it."""
    if _OWNED.get(id(a)) is a:
        return a
    out = _aligned(a.shape)
    np.copyto(out, a)
    out.flags.writeable = False
    _OWNED[id(out)] = out
    return out


@dataclass(frozen=True)
class LayerSpec:
    """One affine layer: weights (d_in, d_out), bias (d_out,), activation,
    and the scale k at which this layer's *input* is discretized: one
    positive number, kept as a Python float.

    weights and bias are the layer's own read-only, 64-byte-aligned float64
    copies (_owned), which with_scale shares.
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
        # in place, and rounded in blocks of rows: one more W/k-sized
        # array grew the heap, and a benchmark run's peak RSS by up to
        # 9 MB on the 784-200-200-10 net
        wk /= step
        for i in range(0, len(wk), 64):
            wk[i:i + 64] = round_half_away(wk[i:i + 64])
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
        """This layer at scale k; it shares the weights and bias."""
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

    def __len__(self):
        return len(self.layers)

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


def _check_frames(net, X):
    """The entry check of the executors that take frames as rows."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ValueError(f"frames have shape {X.shape}, network expects "
                         f"(n, {net.input_dim})")
    if not np.isfinite(X).all():
        raise ValueError("input frames must be finite")
    return X


def _passes(net, X, snap):
    """X (one frame, or frames as rows) through the layers: the one loop of
    the stateless executors.  Yields (layer, s, a) per layer, where s is
    what multiplied the weights and a is the layer's output.

    Dense (snap false): s is the layer input a, times W.  Rounding (snap
    true): s is round(k*a), the input's integer grid values, times the
    layer's cached W/k, plus its bias, both on the layer's grid.
    """
    a = X
    for layer in net.layers:
        if snap:
            s = round_half_away(a * layer.scale)
            u = s @ layer.grid.weights + layer.grid.bias
        else:
            s = a
            u = a @ layer.weights + layer.bias
        a = apply_activation(layer.activation, u)
        yield layer, s, a


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
    for _, s, a in _passes(net, _check_frames(net, X), snap=False):
        if activity is not None:
            nonzero.append(np.count_nonzero(s, axis=1))
    if activity is not None:
        activity.record_frames(nonzero=np.stack(nonzero, axis=1))
    return a


def rounding_batch(net, X, activity=None):
    """Vectorized forward_rounding over the rows of X: the same products,
    and the same bits wherever the sums stay below the layers' limits
    (GRID_BITS).  A row whose event count is past int64 raises before any
    is recorded."""
    l1s = []
    for _, s, a in _passes(net, _check_frames(net, X), snap=True):
        if activity is not None:
            l1 = np.abs(s).sum(axis=1)
            if not np.all(l1 < 2.0 ** 63):  # false for inf and NaN too
                raise ValueError("input rows must have event counts that "
                                 "fit int64")
            l1s.append(l1.astype(np.int64))
    if activity is not None:
        activity.record_frames(l1=np.stack(l1s, axis=1))
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
    """What the sigma-delta step reads of each layer: k, W/k, the
    activation, d_out, the changed-row count past which the dense delta
    product runs, and the headroom of the layer's grid."""
    return [(l.scale, l.grid.weights, l.activation, l.d_out,
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


class SigmaDeltaRuntime:
    """Streaming state for the event-driven executor.

    Per layer: the previous rounded input round(k*a) and an integrated
    pre-activation u seeded with the bias.  Each frame sends the change in
    the rounded input as integer events, so activation(u) is what
    forward_rounding computes on the current frame alone, and an unchanged
    input costs zero additions at the layers it leaves unchanged.

    A layer whose changed rows exceed DENSE_DELTA_SHARE of its inputs adds
    the dense delta product; otherwise it gathers only the changed rows of
    W/k.  Every sum is exact on the layer's grid, so both kernels give
    forward_rounding's bits, and event counts, ledger charges and
    LayerActivity do not depend on which ran.

    A frame is refused (_check_events) unless, per layer,
    L1(round(k*a)) * max|W/k| + max|b| and L1(change) * max|W/k| stay below
    the layer's limit, the rule sigma_delta_stream applies; W/k, the bias
    and these bounds are the layer's grid (LayerSpec.grid), read once at
    construction.  A step is all-or-nothing: a misshapen frame is rejected
    before any work, a non-finite one fails the first layer's check, and a
    step that raises (a refused frame, or an activity that cannot record
    the frame) leaves the state, frame count, ledger and activity as they
    were.
    """

    def __init__(self, net):
        self.net = net
        self._consts = _layer_consts(net)
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
        prevs, us, bounds, l1s, adds = [], [], [], [], 0
        for (k, wk, act, d_out, dense_rows, headroom), prev, u, bound in zip(
                self._consts, self._prev, self._u, self._bounds):
            r = round_half_away(a * k)
            d = r - prev
            l1 = float(np.abs(d).sum())
            # L1(r) <= L1(prev) + l1, so the rule holds for L1(r) if it
            # holds for that bound; r's own L1 is summed only if it does not
            bound += l1
            w, b, limit = headroom
            if not bound * w + b < limit:
                bound = float(np.abs(r).sum())
            _check_events(l1, bound, headroom)
            idx = d.nonzero()[0]
            if idx.size > dense_rows:
                u = u + d @ wk
            else:
                u = u + d[idx] @ wk.take(idx, axis=0)
            n = int(l1)
            l1s.append(n)
            adds += n * d_out
            prevs.append(r)
            us.append(u)
            bounds.append(bound)
            a = apply_activation(act, u)
        if activity is not None:
            activity.record_frame(l1=l1s)
        if ledger is not None:
            ledger.int_adds += adds
        self._prev, self._u, self._bounds = prevs, us, bounds
        self.frames += 1
        return a.copy()


# Frames per chunk of sigma_delta_stream: bounds the (frames, width) arrays
# it holds at once.
STREAM_CHUNK = 1000


def sigma_delta_stream(net, frames, ledger=None, activity=None):
    """Run the event-driven network over an ordered set of frames, from a
    fresh runtime.  Returns the per-frame outputs.

    The step's integral is exactly the rounding pre-activation
    s @ W/k + b, s = round(k*a), so the stream is the rounding pass over
    chunks of STREAM_CHUNK frames.  Per layer it takes the change
    d = diff(s) along time, from the last s of the chunk before; a
    frame's event L1 is the row sum of |d|.  Outputs, ledger and activity
    are the step's to the bit.

    A window is all-or-nothing: it is checked whole (_check_frames), and a
    window with a frame the step would refuse (_check_events, against the
    bounds each layer's grid computed once) raises ValueError before
    anything is charged.
    """
    X = _check_frames(net, getattr(frames, "frames", frames))
    out = np.empty((X.shape[0], net.output_dim))
    l1 = np.empty((X.shape[0], len(net.layers)), dtype=np.int64)
    prev = [np.zeros(l.d_in) for l in net.layers]
    for lo in range(0, X.shape[0], STREAM_CHUNK):
        rows = slice(lo, lo + STREAM_CHUNK)
        for i, (layer, s, a) in enumerate(_passes(net, X[rows], snap=True)):
            # diff(s, prepend=prev[i]) without np.diff's concatenated copy;
            # only its row L1s are needed, so |d| and then |s| reuse it
            d = np.empty_like(s)
            np.subtract(s[0], prev[i], out=d[0])
            np.subtract(s[1:], s[:-1], out=d[1:])
            n = np.abs(d, out=d).sum(axis=1)
            s_l1 = np.abs(s, out=d).sum(axis=1).max()
            _check_events(n.max(), s_l1, layer.grid.headroom)
            l1[rows, i] = n
            prev[i] = s[-1]
        out[rows] = a
    if activity is not None:
        activity.record_frames(l1=l1)
    if ledger is not None:
        # Python ints, as the step adds them: int64 sums could wrap
        ledger.int_adds += sum(n * d for n, d in
                               zip(l1.sum(axis=0, dtype=object), net.dims[1:]))
    return out


def bake_scales(net):
    """Fold discretization scales into weights and biases.

    Returns a network computing the identical quantized function whose
    hidden scales are all 1.  The first layer's scale is kept as-is: it
    fixes the grid the raw input is snapped to, which cannot be moved into
    the parameters without changing the function.  NetworkSpec guarantees
    the homogeneous hidden activations this needs (relu or identity); a
    final softmax is untouched since nothing is folded past it.
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
