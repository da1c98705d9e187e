"""Operation-count formulas and the energy model they feed.

Only matrix-product work is counted; activation functions are free here.
Four closed forms cover the four executors:

  dense        2 * sum_l d_l * d_{l+1}
  sparse       2 * sum_l nnz(a_l) * d_{l+1}       (dense pass, zeros skipped)
  rounding     sum_l |s_l|_L1 * d_{l+1} + d_{l+1} (events plus a bias add)
  sigma-delta  sum_l |s_l|_L1 * d_{l+1}           (bias amortized at reset)

energy prices every op at the paper's 45 nm int32 rates (INT_ADD_PJ,
INT_MULT_PJ).
"""

import csv

import numpy as np

__all__ = [
    "INT_ADD_PJ",
    "INT_MULT_PJ",
    "LayerActivity",
    "flops_dense",
    "flops_sparse",
    "flops_rounding",
    "flops_sigma_delta",
    "energy",
    "REPORT_COLUMNS",
    "write_report_csv",
]


# 45 nm int32 energy per op in picojoules (Horowitz, "Computing's energy
# problem", ISSCC 2014)
INT_ADD_PJ = 0.1
INT_MULT_PJ = 3.1


class LayerActivity:
    """Per-layer activity totals accumulated over recorded frames.

    One object records one kind of pass: either dense nonzero counts (from
    the original network) or discrete L1 magnitudes (from the rounding or
    sigma-delta networks).  Totals are sums over all recorded frames;
    divide by .frames for per-frame means.  They are Python ints in object
    arrays, so they stay exact where int64 sums would wrap.

    Every record goes through _add.  record_frame and record_frames check
    the counts first; SigmaDeltaRuntime.step calls _add itself, as its
    counts are int() of finite, non-negative L1s.
    """

    def __init__(self, fanouts):
        fanouts = tuple(int(d) for d in fanouts)
        if not fanouts or any(d < 1 for d in fanouts):
            raise ValueError("fanouts must be positive layer widths")
        self.fanouts = fanouts
        self.nonzero = np.zeros(len(fanouts), dtype=object)
        self.l1 = np.zeros(len(fanouts), dtype=object)
        self.frames = 0
        self._kind = None

    @classmethod
    def for_network(cls, net):
        return cls(net.dims[1:])

    def _add(self, kind, counts, frames):
        """Add counts, one non-negative Python int per layer, as the totals
        of that many frames of kind; the other kind or the wrong number of
        layers raises ValueError, with nothing recorded."""
        if self._kind not in (None, kind):
            raise ValueError(
                f"this activity records {self._kind} frames, got {kind}")
        if len(counts) != len(self.fanouts):
            raise ValueError(
                f"expected {len(self.fanouts)} per-layer values, got {len(counts)}")
        self._kind = kind
        totals = self.l1 if kind == "l1" else self.nonzero
        for i, n in enumerate(counts):
            totals[i] += n
        self.frames += frames

    def record_frame(self, nonzero=None, l1=None):
        """Add one frame's per-layer counts, which must be non-negative
        integers (ValueError otherwise, with nothing recorded)."""
        if (nonzero is None) == (l1 is None):
            raise ValueError("record exactly one of nonzero= or l1= per frame")
        values = list(nonzero if nonzero is not None else l1)
        try:
            # int(), not int64: adding a numpy integer would make a total int64
            counts = [int(v) for v in values]
        except (TypeError, ValueError, OverflowError):
            counts = None
        if counts != values or min(counts, default=0) < 0:
            raise ValueError(f"counts must be non-negative integers, got {values}")
        self._add("nonzero" if nonzero is not None else "l1", counts, 1)

    def record_frames(self, nonzero=None, l1=None):
        """record_frame for each row of a (frames, layers) array.  Totals
        are sums over frames, so this adds the column sums once and counts
        them as all the frames.  Every entry must be a non-negative
        integer.  No rows record nothing, and leave the kind as it was."""
        if (nonzero is None) == (l1 is None):
            raise ValueError("record exactly one of nonzero= or l1=")
        values = np.asarray(nonzero if nonzero is not None else l1)
        if values.ndim != 2 or values.shape[1] != len(self.fanouts):
            raise ValueError(f"expected a (frames, {len(self.fanouts)}) array, "
                             f"got shape {values.shape}")
        # entry by entry: a column sum could hide a fractional or negative one
        if not np.all((values >= 0) & (values < np.inf)
                      & (values == np.trunc(values))):
            raise ValueError("counts must be non-negative integers")
        if len(values):
            self._add("nonzero" if nonzero is not None else "l1",
                      [int(v) for v in values.sum(axis=0, dtype=object)],
                      len(values))

    def __repr__(self):
        return (f"LayerActivity(frames={self.frames}, kind={self._kind}, "
                f"fanouts={self.fanouts})")


def flops_dense(dims):
    """Ops for a dense pass through the given layer widths (input first)."""
    dims = [int(d) for d in dims]
    if len(dims) < 2:
        raise ValueError("need at least input and output widths")
    return 2 * sum(a * b for a, b in zip(dims, dims[1:]))


def flops_sparse(activity):
    """Dense-pass ops when rows of zero activation are skipped entirely."""
    return int(2 * (activity.nonzero * activity.fanouts).sum())


def flops_rounding(activity):
    """Event additions plus one bias add per layer per frame."""
    return int((activity.l1 * activity.fanouts).sum()
               + activity.frames * sum(activity.fanouts))


def flops_sigma_delta(activity):
    """Event additions only; the bias is integrated once at stream reset."""
    return int((activity.l1 * activity.fanouts).sum())


def energy(ledger):
    """Energy in joules for a ledger's ops, every op priced by its role
    (multiply vs add) at the int32 rates, whatever path produced it."""
    return (ledger.total_adds * INT_ADD_PJ
            + ledger.total_mults * INT_MULT_PJ) * 1e-12


REPORT_COLUMNS = [
    "setting",
    "net_type",
    "dataset",
    "kflops_dense",
    "kflops_sparse",
    "kflops",
    "class_error_train",
    "class_error_test",
    "energy_nj",
]


def write_report_csv(path, rows):
    """Write result rows using the fixed report schema.

    Rows are dicts keyed by REPORT_COLUMNS; missing entries are left blank.
    Floats are written at full precision (shortest round-trip repr).
    """
    _write_csv(path, REPORT_COLUMNS,
               ([row.get(c) for c in REPORT_COLUMNS] for row in rows))


def _write_csv(path, header, rows):
    """The package's one CSV writer: None is written blank, floats (numpy
    float64 too) as plain-float repr, and other values through str()."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v
                        for v in row])
