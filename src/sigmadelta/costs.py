"""Operation-count formulas and the energy model they feed.

Only matrix-product work is counted; activation functions are free here.
Four closed forms cover the four executors:

  dense        2 * sum_l d_l * d_{l+1}
  sparse       2 * sum_l nnz(a_l) * d_{l+1}       (dense pass, zeros skipped)
  rounding     sum_l |s_l|_L1 * d_{l+1} + d_{l+1} (events plus a bias add)
  sigma-delta  sum_l |s_l|_L1 * d_{l+1}           (bias amortized at reset)

Per-op energies default to 45nm-process estimates and are configuration
data, so other process nodes can be modeled by swapping the table.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EnergyTable",
    "DEFAULT_ENERGY_TABLE",
    "LayerActivity",
    "flops_dense",
    "flops_sparse",
    "flops_rounding",
    "flops_sigma_delta",
    "energy",
    "REPORT_COLUMNS",
    "write_report_csv",
]


@dataclass(frozen=True)
class EnergyTable:
    """Energy per operation class, in picojoules."""

    float_mult: float = 3.7
    float_add: float = 0.9
    int_mult: float = 3.1
    int_add: float = 0.1

    def __post_init__(self):
        for name in ("float_mult", "float_add", "int_mult", "int_add"):
            if not 0 < getattr(self, name) < math.inf:  # false for NaN too
                raise ValueError(f"{name} must be positive and finite")


DEFAULT_ENERGY_TABLE = EnergyTable()


class LayerActivity:
    """Per-layer activity totals accumulated over recorded frames.

    One object records one kind of pass: either dense nonzero counts (from
    the original network) or discrete L1 magnitudes (from the rounding or
    sigma-delta networks).  Totals are sums over all recorded frames;
    divide by .frames for per-frame means.  They are Python ints in object
    arrays, so they stay exact where int64 sums would wrap.
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

    def record_frame(self, nonzero=None, l1=None):
        """Add one frame's per-layer counts, which must be non-negative
        integers (ValueError otherwise, with nothing recorded)."""
        if (nonzero is None) == (l1 is None):
            raise ValueError("record exactly one of nonzero= or l1= per frame")
        kind = "nonzero" if nonzero is not None else "l1"
        if self._kind is not None and self._kind != kind:
            raise ValueError(
                f"this activity records {self._kind} frames, got {kind}")
        values = list(nonzero if nonzero is not None else l1)
        if len(values) != len(self.fanouts):
            raise ValueError(
                f"expected {len(self.fanouts)} per-layer values, got {len(values)}")
        try:
            # int(), not int64: adding a numpy integer would make a total int64
            counts = [int(v) for v in values]
        except (TypeError, ValueError, OverflowError):
            counts = None
        if counts != values or min(counts) < 0:
            raise ValueError(f"counts must be non-negative integers, got {values}")
        self._kind = kind  # only once a frame is valid
        target = self.nonzero if nonzero is not None else self.l1
        for i, v in enumerate(counts):
            target[i] += v
        self.frames += 1

    def record_frames(self, nonzero=None, l1=None):
        """record_frame for each row of a (frames, layers) array.  Totals
        are sums over frames, so this records the column sums as one frame
        and counts it as all of them.  Every entry must be a non-negative
        integer."""
        if (nonzero is None) == (l1 is None):
            raise ValueError("record exactly one of nonzero= or l1=")
        kind = "nonzero" if nonzero is not None else "l1"
        values = np.asarray(nonzero if nonzero is not None else l1)
        if values.ndim != 2:
            raise ValueError(
                f"expected a (frames, layers) array, got shape {values.shape}")
        # entry by entry: a column sum could hide a fractional or negative one
        if not np.all((values >= 0) & (values == np.trunc(values))):
            raise ValueError("counts must be non-negative integers")
        self.record_frame(**{kind: values.sum(axis=0, dtype=object)})
        self.frames += values.shape[0] - 1

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


def energy(ledger, table=DEFAULT_ENERGY_TABLE, mode="int32"):
    """Energy in joules for a ledger's ops under int32 or float32 arithmetic.

    The mode chooses the price column for every op by its role (multiply
    vs add), modeling the whole network stored at that precision.
    """
    if mode == "int32":
        add_pj, mult_pj = table.int_add, table.int_mult
    elif mode == "float32":
        add_pj, mult_pj = table.float_add, table.float_mult
    else:
        raise ValueError(f"mode must be 'int32' or 'float32', got {mode!r}")
    return (ledger.total_adds * add_pj + ledger.total_mults * mult_pj) * 1e-12


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
