"""Event-driven execution of feed-forward networks.

Layers exchange discretized *changes* in activation instead of dense
activations, so per-frame cost scales with how much the input moved, not
with network size.  The library provides the streaming quantizers, the
four network executors (dense, temporal-difference, rounding,
sigma-delta), exact operation/energy accounting, and an optimizer for the
per-layer discretization scales that trade error against computation.
"""

__version__ = "0.1.0"

from .kernels import OpLedger, SparseEvents, sparse_accumulate, to_events
from .quantizers import (DeltaHerder, Herder, TemporalDifference,
                         TemporalIntegrator, noisy_round_surrogate,
                         round_half_away, scaled_round)
from .network import (LayerSpec, NetworkSpec, SigmaDeltaRuntime,
                      TemporalDiffRuntime, bake_scales, forward_original,
                      forward_rounding, load_network, save_network,
                      snap_to_grid)
from .costs import (DEFAULT_ENERGY_TABLE, EnergyTable, LayerActivity, energy,
                    flops_dense, flops_rounding, flops_sigma_delta,
                    flops_sparse, write_report_csv)
from .scale_opt import (DivergenceError, LogScales, TradeoffConfig, comp_loss,
                        error_loss, grad_kappa, optimize, scaled_forward,
                        update_scales)
from .data import (FrameDataset, gen_random_network, gen_random_stream,
                   load_idx, save_idx, temporal_reshuffle)
from .mlp import accuracy, train_mlp

__all__ = [
    "OpLedger", "SparseEvents", "sparse_accumulate", "to_events",
    "DeltaHerder", "Herder", "TemporalDifference", "TemporalIntegrator",
    "noisy_round_surrogate", "round_half_away", "scaled_round",
    "LayerSpec", "NetworkSpec", "SigmaDeltaRuntime", "TemporalDiffRuntime",
    "bake_scales", "forward_original", "forward_rounding", "load_network",
    "save_network", "snap_to_grid",
    "DEFAULT_ENERGY_TABLE", "EnergyTable", "LayerActivity", "energy",
    "flops_dense", "flops_rounding", "flops_sigma_delta", "flops_sparse",
    "write_report_csv",
    "DivergenceError", "LogScales", "TradeoffConfig", "comp_loss",
    "error_loss", "grad_kappa", "optimize", "scaled_forward", "update_scales",
    "FrameDataset", "gen_random_network", "gen_random_stream", "load_idx",
    "save_idx", "temporal_reshuffle",
    "accuracy", "train_mlp",
]
