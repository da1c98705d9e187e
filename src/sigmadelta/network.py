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
over an ordered set of frames, one layer at a time over chunks of frames,
and gets the per-frame executor's outputs and op counts to the bit.

The per-frame passes count nothing: a dense frame costs the constant
flops_dense(net.dims), and rounding_batch records in a LayerActivity what
forward_rounding's frames cost.  The sigma-delta step and stream record
their events in a LayerActivity (and an OpLedger, if given one).

snap_to_grid puts a network on an exact grid, where the sigma-delta
network equals the rounding network bit for bit.
"""

import base64
import json
from dataclasses import dataclass

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
    "GRID_FRAC_BITS",
    "snap_to_grid",
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


@dataclass(frozen=True)
class LayerSpec:
    """One affine layer: weights (d_in, d_out), bias (d_out,), activation,
    and the scale k at which this layer's *input* is discretized.

    k may be a positive scalar (layerwise) or a positive vector of length
    d_in (unitwise).
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "relu"
    scale: object = 1.0

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
        k = np.asarray(self.scale, dtype=np.float64)
        if k.ndim not in (0, 1) or (k.ndim == 1 and k.shape[0] != W.shape[0]):
            raise ValueError("scale must be a scalar or a vector of length d_in")
        if not np.all(np.isfinite(k)) or np.any(k <= 0):
            raise ValueError("scale must be positive and finite")
        object.__setattr__(self, "weights", W)
        object.__setattr__(self, "bias", b)
        object.__setattr__(self, "scale", float(k) if k.ndim == 0 else k)

    @property
    def d_in(self):
        return self.weights.shape[0]

    @property
    def d_out(self):
        return self.weights.shape[1]

    def scale_column(self):
        """Scale broadcastable over the input axis (for row-scaling weights)."""
        k = np.asarray(self.scale, dtype=np.float64)
        return k if k.ndim == 0 else k[:, None]

    def scaled_weights(self):
        """weights / k: what an integer event of this layer multiplies into.
        Computed on first use and kept, read-only, on the layer."""
        if "_wk" not in self.__dict__:
            object.__setattr__(self, "_wk", self.weights / self.scale_column())
            self._wk.flags.writeable = False
        return self._wk

    def with_scale(self, k):
        return LayerSpec(self.weights, self.bias, self.activation, k)


class NetworkSpec:
    """An immutable stack of layers with chained dimensions.

    Softmax is only allowed on the final layer; hidden layers are relu or
    identity so that scales can be folded into the parameters.  on_grid is
    true only for the networks snap_to_grid returns.
    """

    on_grid = False

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


# Grid mode.  snap_to_grid rounds each layer's W/k and bias to multiples of
# GRID_STEP = 2**-GRID_FRAC_BITS.  Every integer event times a weight, and
# every partial sum of such products, is then a multiple of GRID_STEP too,
# and float64 adds them exactly while they stay below GRID_LIMIT = 2**53
# grid steps in magnitude.  Exact sums do not depend on summation order, so
# the gather and dense kernels, a per-frame GEMV and a batched GEMM all give
# the same bits.
GRID_FRAC_BITS = 24
GRID_STEP = 2.0 ** -GRID_FRAC_BITS
GRID_LIMIT = 2.0 ** 53 * GRID_STEP


def _to_grid(a):
    return round_half_away(a / GRID_STEP) * GRID_STEP


def snap_to_grid(net):
    """The network with each layer's W/k and bias rounded to the nearest
    multiple of GRID_STEP, marked on_grid.

    scaled_weights() of a returned layer is exactly the rounded W/k; its
    weights are that times k, to the nearest float.  On such a network
    the sigma-delta executors compute exactly what forward_rounding and
    rounding_batch compute, and refuse a frame that would take a sum past
    GRID_LIMIT.  with_scales returns an unmarked network.
    """
    layers = []
    for l in net.layers:
        wk = _to_grid(l.scaled_weights())
        wk.flags.writeable = False
        layer = LayerSpec(wk * l.scale_column(), _to_grid(l.bias),
                          l.activation, l.scale)
        # the snapped W/k itself: weights / k can be an ulp off the grid
        object.__setattr__(layer, "_wk", wk)
        layers.append(layer)
    grid = NetworkSpec(layers)
    grid.on_grid = True
    return grid


def _grid_weight_bound(layer):
    """max|W/k| of a grid layer, but at least GRID_STEP: a frame whose event
    L1 n has n * bound >= GRID_LIMIT is refused, so n also stays an exact
    count when a layer's weights are all zero."""
    return max(float(np.abs(layer.scaled_weights()).max()), GRID_STEP)


def _check_input(net, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise ValueError(
            f"input has shape {x.shape}, network expects ({net.input_dim},)")
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
    layer's cached W/k.
    """
    a = X
    for layer in net.layers:
        if snap:
            s = round_half_away(a * layer.scale)
            u = s @ layer.scaled_weights() + layer.bias
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

    Computes round(k*a) @ (W/k) + b densely.  The integer part round(k*a)
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
    so only the float summation order differs from the event-driven
    executor (integer grid values times weights/k).  A row whose event
    count is past int64 raises before any is recorded."""
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
        self._u = [l.bias.copy() for l in self.net.layers]

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
# first.  Gather + product against the dense product, in us, with one BLAS
# thread (OpenBLAS 0.3.31, 2 vCPUs), at 10% / 1/3 / 3/8 / 50% / 100% of rows:
#   784x200   12 / 25 / 26 / 38 / 108   dense ~32
#   200x200    5 /  9 / 10 / 12 /  21   dense ~6
#   200x10   3.6 /3.9 /3.8 /4.0 / 5.0   dense ~3
# The gather wins on the wide first layer up to ~45% and the dense product
# on the 200-row layers from ~15%, by at most a few us there.  3/8 keeps the
# first layer of a smooth stream (~32% of rows changed, ~35% at the 90th
# percentile of frames) on the gather; at 1/4 it went dense and the step
# slowed ~7%.
DENSE_DELTA_SHARE = 3 / 8


def _layer_consts(net):
    """What the sigma-delta executors read of each layer: k, W/k, the
    activation, d_out, the changed-row count past which the dense delta
    product runs, and the grid headroom (max|W/k|, max|b|), None off the
    grid."""
    return [(l.scale, l.scaled_weights(), l.activation, l.d_out,
             DENSE_DELTA_SHARE * l.d_in,
             (_grid_weight_bound(l), float(np.abs(l.bias).max()))
             if net.on_grid else None)
            for l in net.layers]


def _check_events(l1, s, headroom):
    """Refuse, with ValueError, a layer's frame (s its rounded input round(k*a),
    l1 its event L1) or frames (s as rows, l1 their largest event L1).

    Off the grid (headroom None) the event L1 must fit int64, where
    sigma_delta_stream holds a frame's count.  On the grid, with headroom
    (max|W/k|, max|b|), both L1(s) * max|W/k| + max|b| and l1 * max|W/k|
    must stay below GRID_LIMIT.  That keeps every integral exact, by
    induction over frames: u starts at the bias, exact.  If u is exact
    before a frame, every partial sum of the frame's delta product is a
    grid multiple below l1 * max|W/k|, so exact, and the new integral,
    exactly s @ W/k + b, is a grid multiple below
    L1(s) * max|W/k| + max|b|, so the one addition that forms it is
    exact too.  The same two bounds cover every partial sum of the
    stateless s @ W/k + b, and keep the event counts themselves exact.
    """
    if headroom is None:
        if not l1 < 2.0 ** 63:  # false for inf and NaN too
            raise ValueError("a layer's event count would not fit int64")
        return
    w, b = headroom
    if not (np.abs(s).sum(axis=-1).max() * w + b < GRID_LIMIT
            and l1 * w < GRID_LIMIT):
        raise ValueError("frames would take a grid layer's sums past "
                         "GRID_LIMIT, where they stop being exact")


class SigmaDeltaRuntime:
    """Streaming state for the event-driven executor.

    Per layer: the previous rounded input round(k*a) and an integrated
    pre-activation u seeded with the bias.  Each frame sends the change in
    the rounded input as integer events, so activation(u) matches what
    forward_rounding computes on the current frame alone (up to float
    accumulation drift), and an unchanged input costs zero additions at
    the layers it leaves unchanged.

    A layer whose changed rows exceed DENSE_DELTA_SHARE of its inputs adds
    the dense delta product; otherwise it gathers only the changed rows of
    W/k.  The two kernels differ only in float summation order: event
    counts, ledger charges and LayerActivity are the same whichever ran.

    A frame is refused (_check_events) when a layer's event L1 would not
    fit int64.  On a grid net (snap_to_grid) every sum is exact, so the
    step matches forward_rounding bit for bit; there a frame is also
    refused unless, per layer, L1(round(k*a)) * max|W/k| + max|b| and
    L1(change) * max|W/k| stay below GRID_LIMIT, the rule
    sigma_delta_stream applies.

    A step is all-or-nothing: a non-finite or misshapen frame is rejected
    before any work, and a step that raises later (a refused frame, or an
    activity that cannot record the frame) leaves the state, frame count,
    ledger and activity as they were.
    """

    def __init__(self, net):
        self.net = net
        self._consts = _layer_consts(net)
        self.reset()

    def reset(self):
        self._prev = [np.zeros(l.d_in) for l in self.net.layers]
        self._u = [l.bias.copy() for l in self.net.layers]
        self.frames = 0

    def step(self, x, ledger=None, activity=None):
        a = _check_input(self.net, x)
        # the new state is built aside and committed once nothing can raise
        prevs, us, l1s, adds = [], [], [], 0
        for (k, wk, act, d_out, dense_rows, headroom), prev, u in zip(
                self._consts, self._prev, self._u):
            r = round_half_away(a * k)
            d = r - prev
            l1 = np.abs(d).sum()
            _check_events(l1, r, headroom)
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
            a = apply_activation(act, u)
        if activity is not None:
            activity.record_frame(l1=l1s)
        if ledger is not None:
            ledger.int_adds += adds
        self._prev, self._u = prevs, us
        self.frames += 1
        return a.copy()

    def resync(self, x):
        """reset() then step(x), keeping the frame count: rebuilds the
        integrals from a fresh rounding pass, clearing accumulated float
        drift on very long streams.  Returns the frame output.  A frame the
        step refuses leaves the state as it was."""
        frames, state = self.frames, (self._prev, self._u)
        self.reset()
        try:
            y = self.step(x)
        except ValueError:
            (self._prev, self._u), self.frames = state, frames
            raise
        self.frames = frames + 1
        return y


# Frames per chunk of sigma_delta_stream: bounds the (frames, width) arrays
# it holds at once.
STREAM_CHUNK = 1000


def _integrate(u, d, wk, dense_rows):
    """The integrals after each row of d, from u: row by row, the delta
    product SigmaDeltaRuntime.step chooses for those events, added in the
    step's order by one cumsum along time."""
    z = np.zeros((d.shape[0] + 1, wk.shape[1]))
    z[0] = u
    for t, c in enumerate(np.count_nonzero(d, axis=1).tolist()):
        row = d[t]
        if c > dense_rows:
            np.matmul(row, wk, out=z[t + 1])
        elif c:  # no events add zeros, the row as it is
            idx = row.nonzero()[0]
            np.matmul(row[idx], wk.take(idx, axis=0), out=z[t + 1])
    return np.cumsum(z, axis=0, out=z)[1:]


def sigma_delta_stream(net, frames, ledger=None, activity=None):
    """Run the event-driven network over an ordered set of frames, from a
    fresh runtime.  Returns the per-frame outputs.

    One layer loop over chunks of STREAM_CHUNK frames.  Per layer it rounds
    the chunk's inputs to s = round(k*a) and takes their change d = diff(s)
    along time, from the last s of the chunk before; a frame's event L1 is
    the row sum of |d|.  On a grid net (snap_to_grid) the step's integral
    is exactly the rounding pre-activation s @ W/k + b, so that is what
    the stream computes.  On a float net each frame's delta product is the
    one the step makes, and one cumsum along time adds them to the carried
    integral in the step's order.  Either way outputs, ledger and activity
    are the step's to the bit.

    A window is all-or-nothing: it is checked whole (_check_frames), and a
    window with a frame the step would refuse (_check_events) raises
    ValueError before anything is charged.
    """
    X = _check_frames(net, getattr(frames, "frames", frames))
    out = np.empty((X.shape[0], net.output_dim))
    l1 = np.empty((X.shape[0], len(net.layers)), dtype=np.int64)
    consts = _layer_consts(net)
    prev = [np.zeros(l.d_in) for l in net.layers]
    u = [l.bias for l in net.layers]
    for lo in range(0, X.shape[0], STREAM_CHUNK):
        rows = slice(lo, lo + STREAM_CHUNK)
        a = X[rows]
        for i, (k, wk, act, _, dense_rows, headroom) in enumerate(consts):
            s = round_half_away(a * k)
            # diff(s, prepend=prev[i]) without np.diff's concatenated copy
            d = np.empty_like(s)
            np.subtract(s[0], prev[i], out=d[0])
            np.subtract(s[1:], s[:-1], out=d[1:])
            n = np.abs(d).sum(axis=1)
            _check_events(n.max(), s, headroom)
            if net.on_grid:
                z = s @ wk + net.layers[i].bias
            else:
                z = _integrate(u[i], d, wk, dense_rows)
                u[i] = z[-1]
            l1[rows, i] = n
            prev[i] = s[-1]
            a = apply_activation(act, z)
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
    the parameters without changing the function.  Requires homogeneous
    hidden activations (relu or identity); a final softmax is untouched
    since nothing is folded past it.
    """
    for layer in net.layers[:-1]:
        if layer.activation not in ("relu", "identity"):
            raise ValueError(
                "baking requires homogeneous hidden activations, got "
                f"{layer.activation!r}")
    baked = []
    n = len(net.layers)
    for i, layer in enumerate(net.layers):
        k_next = np.asarray(net.layers[i + 1].scale) if i + 1 < n else 1.0
        w = layer.scaled_weights() * k_next  # rows / k_i, columns * k_{i+1}
        b = layer.bias * k_next
        if i == 0:
            k0 = np.asarray(layer.scale)
            baked.append(LayerSpec(w * layer.scale_column(), b,
                                   layer.activation,
                                   float(k0) if k0.ndim == 0 else k0))
        else:
            baked.append(LayerSpec(w, b, layer.activation, 1.0))
    return NetworkSpec(baked)


# ---------------------------------------------------------------------------
# Serialization: versioned JSON container, schema documented in the README.
# Arrays are little-endian float64, C (row-major) order, base64-encoded.

_FORMAT_NAME = "sigmadelta-network"
_FORMAT_VERSION = 1


def _encode_array(a):
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def _decode_array(s, shape):
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
        k = np.asarray(layer.scale)
        doc["layers"].append({
            "d_in": layer.d_in,
            "d_out": layer.d_out,
            "activation": layer.activation,
            "scale": float(k) if k.ndim == 0 else [float(v) for v in k],
            "weights": _encode_array(layer.weights),
            "bias": _encode_array(layer.bias),
        })
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")


def load_network(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != _FORMAT_NAME:
        raise ValueError(f"not a {_FORMAT_NAME} file: {path}")
    if doc.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported container version {doc.get('version')}")
    layers = []
    for ld in doc["layers"]:
        w = _decode_array(ld["weights"], (ld["d_in"], ld["d_out"]))
        b = _decode_array(ld["bias"], (ld["d_out"],))
        k = ld["scale"]
        layers.append(LayerSpec(w, b, ld["activation"],
                                np.asarray(k) if isinstance(k, list) else k))
    return NetworkSpec(layers)
