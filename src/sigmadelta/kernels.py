"""Event-driven numeric kernels and exact operation counting.

Everything works on plain float64 numpy arrays.  The event-driven path
communicates integer activation changes as (index, signed count) pairs:
pushing N unit events into a width-m layer costs N*m additions and no
multiplications, which is where all downstream savings come from.
"""

import numpy as np

__all__ = [
    "OpLedger",
    "SparseEvents",
    "to_events",
    "sparse_accumulate",
]


class OpLedger:
    """Exact arithmetic-operation counts, split by numeric class.

    Counters are plain Python ints and only ever grow.  The split records
    which path produced an operation (dense float kernels vs integer-event
    accumulation); how a count is priced is the cost model's business, not
    the ledger's.
    """

    __slots__ = ("float_adds", "float_mults", "int_adds", "int_mults")

    def __init__(self, float_adds=0, float_mults=0, int_adds=0, int_mults=0):
        for name, v in (("float_adds", float_adds), ("float_mults", float_mults),
                        ("int_adds", int_adds), ("int_mults", int_mults)):
            if v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")
        self.float_adds = int(float_adds)
        self.float_mults = int(float_mults)
        self.int_adds = int(int_adds)
        self.int_mults = int(int_mults)

    @property
    def total_adds(self):
        return self.float_adds + self.int_adds

    @property
    def total_mults(self):
        return self.float_mults + self.int_mults

    @property
    def total_ops(self):
        return self.total_adds + self.total_mults

    def copy(self):
        return OpLedger(self.float_adds, self.float_mults,
                        self.int_adds, self.int_mults)

    def __eq__(self, other):
        if not isinstance(other, OpLedger):
            return NotImplemented
        return (self.float_adds == other.float_adds
                and self.float_mults == other.float_mults
                and self.int_adds == other.int_adds
                and self.int_mults == other.int_mults)

    def __repr__(self):
        return (f"OpLedger(float_adds={self.float_adds}, "
                f"float_mults={self.float_mults}, int_adds={self.int_adds}, "
                f"int_mults={self.int_mults})")


class SparseEvents:
    """Signed integer activation changes in compressed (index, count) form.

    An entry with count c stands for |c| unit events of sign(c) at that
    index; the unit events are never materialized.  The event count N is
    the L1 norm of the reconstructed integer vector.
    """

    __slots__ = ("indices", "counts", "length")

    def __init__(self, indices, counts, length):
        indices = np.asarray(indices, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if indices.ndim != 1 or counts.ndim != 1 or indices.shape != counts.shape:
            raise ValueError("indices and counts must be 1-D and equal length")
        if length < 0:
            raise ValueError("length must be nonnegative")
        if indices.size and (indices.min() < 0 or indices.max() >= length):
            raise ValueError(f"event index out of range [0, {length})")
        if indices.size > 1 and not (indices[1:] > indices[:-1]).all():
            # unsorted or repeated indices: normalize to one signed count per
            # index, so the event count equals the reconstructed L1 norm
            indices, inverse = np.unique(indices, return_inverse=True)
            summed = np.zeros(indices.size, dtype=np.int64)
            np.add.at(summed, inverse, counts)
            counts = summed
        keep = counts != 0
        self.indices = indices[keep]
        self.counts = counts[keep]
        self.length = int(length)

    @classmethod
    def empty(cls, length):
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), length)

    @property
    def num_events(self):
        """Total unit-event count N = L1 norm of the reconstructed vector."""
        return int(np.abs(self.counts).sum())

    def reconstruct(self):
        """Rebuild the integer vector the events encode. Exact."""
        v = np.zeros(self.length, dtype=np.int64)
        np.add.at(v, self.indices, self.counts)
        return v

    def __repr__(self):
        return (f"SparseEvents(n={self.indices.size} entries, "
                f"N={self.num_events}, length={self.length})")


def to_events(v):
    """Decompose an integer-valued vector into signed unit events.

    Raises ValueError if any entry is not an integer.  Reconstructing the
    result gives back v exactly, and the event count equals |v|_L1.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)) or not np.all(v == np.trunc(v)):
        raise ValueError("to_events requires finite integer-valued entries")
    idx = np.flatnonzero(v)
    return SparseEvents(idx, v[idx].astype(np.int64), v.size)


def sparse_accumulate(events, W, u, ledger=None):
    """Accumulate weight rows selected by events into u.

    Returns u + sum_n sign_n * W[i_n, :], costing N * d_out additions and
    no multiplications (N = events.num_events).  u itself is not modified.
    """
    W = np.asarray(W, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if W.ndim != 2 or u.ndim != 1:
        raise ValueError("sparse_accumulate expects matrix W and vector u")
    d_in, d_out = W.shape
    if u.shape[0] != d_out:
        raise ValueError(f"u has length {u.shape[0]}, expected {d_out}")
    if events.length != d_in:
        raise ValueError(
            f"events cover {events.length} units but W has {d_in} rows")
    if ledger is not None:
        ledger.int_adds += events.num_events * d_out
    if events.indices.size == 0:
        return u.copy()
    return u + events.counts.astype(np.float64) @ W[events.indices]
