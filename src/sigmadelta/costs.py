"""Operation-count formulas and the energy model they feed.

Only matrix-product work is counted; activation functions are free here.
Four closed forms cover the four executors:

  dense        2 * sum_l d_l * d_{l+1}
  sparse       2 * sum_l nnz(a_l) * d_{l+1}       (dense pass, zeros skipped)
  rounding     sum_l |s_l|_L1 * d_{l+1} + d_{l+1} (events plus a bias add)
  sigma-delta  sum_l |s_l|_L1 * d_{l+1}           (bias amortized at reset)

The per-layer totals come from a LayerActivity, which the executors fill
once per call: nonzero counts for the sparse form, L1s for the other two.
Layer widths must be positive integers.

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

    dense_batch, rounding_batch and SigmaDeltaRuntime.step and run record
    through _add, once per call, with the per-layer totals they built; the
    flops functions refuse an activity of the kind they do not price.
    """

    def __init__(self, fanouts):
        fanouts = _widths(fanouts)
        if not fanouts:
            raise ValueError("need at least one layer width")
        self.fanouts = fanouts
        self.nonzero = np.zeros(len(fanouts), dtype=object)
        self.l1 = np.zeros(len(fanouts), dtype=object)
        self.frames = 0
        self._kind = None

    @classmethod
    def for_network(cls, net):
        return cls(net.dims[1:])

    def _totals(self, kind):
        """The totals of kind ("nonzero" or "l1"); ValueError if this
        activity records the other kind."""
        if self._kind not in (None, kind):
            raise ValueError(
                f"this activity records {self._kind} frames, not {kind}")
        return self.l1 if kind == "l1" else self.nonzero

    def _add(self, kind, counts, frames):
        """Add counts, the caller's exact per-layer totals as non-negative
        Python ints (not checked here), as that many frames of kind.  The
        wrong number of layers, or the other kind, raises ValueError with
        nothing recorded.  No frames record nothing and leave the kind."""
        if len(counts) != len(self.fanouts):
            raise ValueError(
                f"expected {len(self.fanouts)} per-layer values, got {len(counts)}")
        if not frames:
            return
        totals = self._totals(kind)
        self._kind = kind
        for i, n in enumerate(counts):
            totals[i] += n
        self.frames += frames

    def __repr__(self):
        return (f"LayerActivity(frames={self.frames}, kind={self._kind}, "
                f"fanouts={self.fanouts})")


def _count(value, name, low):
    """value as a Python int; ValueError unless it is an integral value
    (not 2.7, NaN or inf, which int() would truncate or fail on) of at
    least low."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n != value or n < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return n


def _widths(dims):
    """dims as a tuple of Python ints, each a _count of at least 1."""
    return tuple(_count(d, "a layer width", 1) for d in dims)


def flops_dense(dims):
    """Ops for a dense pass through the given layer widths (input first)."""
    dims = _widths(dims)
    if len(dims) < 2:
        raise ValueError("need at least input and output widths")
    return 2 * sum(a * b for a, b in zip(dims, dims[1:]))


def flops_sparse(activity):
    """Dense-pass ops when rows of zero activation are skipped entirely."""
    return int(2 * (activity._totals("nonzero") * activity.fanouts).sum())


def flops_rounding(activity):
    """Event additions plus one bias add per layer per frame."""
    return int((activity._totals("l1") * activity.fanouts).sum()
               + activity.frames * sum(activity.fanouts))


def flops_sigma_delta(activity):
    """Event additions only; the bias is integrated once at stream reset."""
    return int((activity._totals("l1") * activity.fanouts).sum())


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
