"""Dataset plumbing: IDX container IO, temporal reshuffling, random fixtures.

The IDX format is the classic big-endian container used for digit images
(magic 0x00000803 for ubyte image cubes, 0x00000801 for ubyte label
vectors).  Gzipped files are detected and handled transparently.
"""

import gzip
import struct
from dataclasses import dataclass

import numpy as np

from .network import LayerSpec, NetworkSpec

__all__ = [
    "FrameDataset",
    "load_idx",
    "save_idx",
    "temporal_reshuffle",
    "gen_random_network",
    "gen_random_stream",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


@dataclass
class FrameDataset:
    """An ordered set of equal-width frames with optional integer labels."""

    frames: np.ndarray
    labels: np.ndarray = None

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ValueError("frames must be a 2-D (n, width) array")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.frames.shape[0],):
                raise ValueError("labels must align 1:1 with frames")

    def __len__(self):
        return self.frames.shape[0]

    @property
    def width(self):
        return self.frames.shape[1]


def _open_maybe_gz(path):
    with open(path, "rb") as f:
        head = f.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(f, n, path):
    data = f.read(n)
    if len(data) != n:
        raise ValueError(f"truncated IDX file: {path}")
    return data


def load_idx(image_path, label_path=None):
    """Load an IDX image file (plus optional labels) as a FrameDataset.

    Pixels come out as float64 in [0, 1]; images are flattened row-major
    to width rows*cols.
    """
    with _open_maybe_gz(image_path) as f:
        magic, count, rows, cols = struct.unpack(
            ">IIII", _read_exact(f, 16, image_path))
        if magic != IMAGE_MAGIC:
            raise ValueError(
                f"bad image magic 0x{magic:08x} in {image_path} "
                f"(expected 0x{IMAGE_MAGIC:08x})")
        raw = _read_exact(f, count * rows * cols, image_path)
    frames = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    frames = frames.reshape(count, rows * cols)

    labels = None
    if label_path is not None:
        with _open_maybe_gz(label_path) as f:
            magic, n = struct.unpack(">II", _read_exact(f, 8, label_path))
            if magic != LABEL_MAGIC:
                raise ValueError(
                    f"bad label magic 0x{magic:08x} in {label_path} "
                    f"(expected 0x{LABEL_MAGIC:08x})")
            if n != count:
                raise ValueError(
                    f"label count {n} does not match image count {count}")
            labels = np.frombuffer(_read_exact(f, n, label_path),
                                   dtype=np.uint8).astype(np.int64)
    return FrameDataset(frames, labels)


def save_idx(ds, image_path, label_path=None):
    """Write a FrameDataset back to IDX containers, as square images.

    Frames must lie in [0, 1]; they are stored as ubyte (value * 255,
    rounded), so only data on the 1/255 grid round-trips exactly.  A frame
    width that is not a perfect square raises ValueError.
    """
    frames = ds.frames
    # written so that NaN fails it
    if frames.size and not (frames.min() >= 0 and frames.max() <= 1):
        raise ValueError("IDX export requires frame values in [0, 1]")
    side = int(round(frames.shape[1] ** 0.5))
    if side * side != frames.shape[1]:
        raise ValueError("frames are not square")
    pixels = np.round(frames * 255.0).astype(np.uint8)
    with open(image_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, len(ds), side, side))
        f.write(pixels.tobytes())
    if label_path is not None:
        if ds.labels is None:
            raise ValueError("dataset has no labels to write")
        if ds.labels.size and (ds.labels.min() < 0 or ds.labels.max() > 255):
            raise ValueError("IDX labels must fit in a ubyte")
        with open(label_path, "wb") as f:
            f.write(struct.pack(">II", LABEL_MAGIC, len(ds)))
            f.write(ds.labels.astype(np.uint8).tobytes())


def temporal_reshuffle(ds, buffer_size, rng):
    """Reorder frames so consecutive ones are similar, like video.

    The frames are first put in random order, then greedily re-sequenced:
    a fixed-size buffer of candidates is kept, the candidate closest (L2)
    to the current frame becomes the next frame, and its slot is refilled
    from the unseen pool; once the pool is empty the last slot moves into
    the gap.  The result is a permutation of the input.

    "Closest" means the smallest ``((c - x) ** 2).sum()``, the first in
    buffer order among equals, and the order is the one a direct scan of
    the whole buffer gives; but that sum is only computed for a narrow
    band of candidates.  Every candidate c is first scored in one GEMV per
    frame as ``|c|^2 - 2 c.x + |x|^2``, with the squared norms computed
    once per call.  With M the largest frame norm (floored at 2**-511) and

        delta = (d + 8) * 2**-52 * (2M)**2,

    the expansion and the direct sum each lie within delta of the exact
    squared distance D, in any summation order: the direct sum is within
    about (d + 2) * 2**-53 * D, D <= (2M)^2, and the three d-term sums of
    the expansion within d * 2**-53 * M^2 each (the dot product's counts
    twice), plus two roundings of values below (2M)^2.  The floor makes
    delta cover the absolute error of subnormal products too.  So a
    candidate whose expansion is more than 4 * delta above the smallest
    has a direct sum strictly larger than the best candidate's.  Only the
    candidates within 4 * delta are measured directly; every minimiser of
    the direct sums is among them, and the first in buffer order wins as
    in a full scan.  numpy sums each row of a C-ordered array on its own,
    so a row's sum does not depend on which other rows are measured with
    it.

    Raises ValueError, before drawing from rng, for an empty dataset or
    any frame that is not finite or whose squared norm is not.
    """
    if len(ds) == 0:
        raise ValueError("cannot reshuffle an empty dataset")
    if buffer_size < 1:
        raise ValueError("buffer_size must be >= 1")
    frames = ds.frames
    sq = np.einsum("ij,ij->i", frames, frames)
    if not np.all(np.isfinite(sq)):
        raise ValueError("cannot reshuffle frames that are not finite "
                         "or whose squared norm is not")
    n, d = frames.shape
    order = rng.permutation(n)
    # 4 * delta; infinite when (2M)^2 overflows, so every row is measured
    band = 4 * (d + 8) * 2.0**-52 * (4.0 * max(sq.max(), 2.0**-1022))

    seq = np.empty(n, dtype=np.int64)
    seq[0] = order[0]
    # buffer slot i holds frame idx[i]: row cand[i], squared norm cand_sq[i]
    idx = order[1:1 + buffer_size].copy()
    cand = frames[idx]
    cand_sq = sq[idx]
    m = len(idx)
    pool = iter(order[1 + buffer_size:])
    for pos in range(1, n):
        cur = seq[pos - 1]
        current = frames[cur]
        e = cand_sq[:m] - 2.0 * (cand[:m] @ current) + sq[cur]
        # "not above" keeps every row when the threshold is NaN or infinite
        near = np.flatnonzero(~(e > e.min() + band))
        d2 = ((frames[idx[near]] - current) ** 2).sum(axis=1)
        w = near[np.argmin(d2)]
        seq[pos] = idx[w]
        nxt = next(pool, None)
        if nxt is not None:
            idx[w], cand[w], cand_sq[w] = nxt, frames[nxt], sq[nxt]
        else:
            m -= 1
            idx[w], cand[w], cand_sq[w] = idx[m], cand[m], cand_sq[m]
    labels = None if ds.labels is None else ds.labels[seq]
    return FrameDataset(frames[seq], labels)


def glorot_uniform(rng, d_in, d_out):
    limit = np.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-limit, limit, size=(d_in, d_out))


def gen_random_network(rng, dims=(100, 100, 100, 100), factors=(0.5, 8.0, 0.25)):
    """The random-net fixture: Glorot-initialized ReLU stack whose weight
    matrices are rescaled by the given factors.

    The default factors multiply out to 1 through the homogeneous hidden
    layers, so the function is unchanged while the intermediate signal
    ranges become badly matched to unit-grid discretization (first layer
    too coarse, second too fine).  Biases are zero; all scales start at 1.
    """
    if len(factors) != len(dims) - 1:
        raise ValueError("need one rescaling factor per weight matrix")
    layers = []
    for i, f in enumerate(factors):
        act = "relu" if i < len(factors) - 1 else "identity"
        W = glorot_uniform(rng, dims[i], dims[i + 1]) * f
        layers.append(LayerSpec(W, np.zeros(dims[i + 1]), act, 1.0))
    return NetworkSpec(layers)


def gen_random_stream(rng, n_frames, width, smoothness=0.0):
    """Gaussian frames with tunable temporal redundancy.

    smoothness=0 gives i.i.d. frames; as it approaches 1 each frame blends
    into its predecessor until the stream is constant at 1.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if not 0.0 <= smoothness <= 1.0:
        raise ValueError("smoothness must lie in [0, 1]")
    raw = rng.standard_normal((n_frames, width))
    if smoothness == 0.0:
        return FrameDataset(raw)
    frames = np.empty_like(raw)
    frames[0] = raw[0]
    for t in range(1, n_frames):
        frames[t] = smoothness * frames[t - 1] + (1.0 - smoothness) * raw[t]
    return FrameDataset(frames)
