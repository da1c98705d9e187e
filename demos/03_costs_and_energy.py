#!/usr/bin/env python3
"""Count operations four ways and convert them to energy.

Uses the classifier shape (784-200-200-10) so the numbers are easy to
compare: a dense pass always costs 397,600 ops, while the event-driven
passes cost whatever the data makes them cost.
"""

import numpy as np

from sigmadelta import (LayerActivity, OpLedger, energy, flops_dense,
                        flops_rounding, flops_sigma_delta, flops_sparse,
                        gen_random_stream)
from sigmadelta.costs import INT_ADD_PJ, INT_MULT_PJ
from sigmadelta.experiments import dense_batch, rounding_batch, sigma_delta_stream
from sigmadelta.network import LayerSpec, NetworkSpec

rng = np.random.default_rng(1)
dims = (784, 200, 200, 10)
net = NetworkSpec([
    LayerSpec(rng.standard_normal((dims[i], dims[i + 1])) / np.sqrt(dims[i]),
              np.zeros(dims[i + 1]),
              "relu" if i < 2 else "identity")
    for i in range(3)
])

# sparse nonnegative inputs, stepwise-redundant like a slow video
frames = np.clip(gen_random_stream(rng, 200, 784, smoothness=0.95).frames, 0, None)
frames[frames < 0.8] = 0.0

print(f"dense pass through {dims}: {flops_dense(dims):,} ops, always\n")

act_dense = LayerActivity.for_network(net)
dense_batch(net, frames, activity=act_dense)
act_round = LayerActivity.for_network(net)
rounding_batch(net, frames, activity=act_round)
act_sd = LayerActivity.for_network(net)
sigma_delta_stream(net, frames, activity=act_sd)

n = len(frames)
rows = [
    ("dense", flops_dense(dims) * n),
    ("dense, zeros skipped", flops_sparse(act_dense)),
    ("rounding (events)", flops_rounding(act_round)),
    ("sigma-delta (events)", flops_sigma_delta(act_sd)),
]
print(f"{'pass':>22} {'ops/frame':>12} {'int32 energy/frame':>20}")
for name, total in rows:
    dense_like = name.startswith("dense")
    half = total // 2
    led = (OpLedger(float_adds=total - half, float_mults=half) if dense_like
           else OpLedger(int_adds=total))
    nj = energy(led) / n * 1e9
    print(f"{name:>22} {total / n:>12,.0f} {nj:>17.2f} nJ")

print()
print(f"int32 per-op prices (pJ): add {INT_ADD_PJ}, multiply {INT_MULT_PJ}")
print()
print("the rounding pass pays one bias add per layer per frame; the")
print("sigma-delta pass integrates the bias once at reset, so the gap is")
print(f"exactly sum of layer widths = {sum(dims[1:])} adds/frame:")
print(f"  rounding - sigma-delta = "
      f"{(flops_rounding(act_round) - flops_sigma_delta(act_round)) / n:.0f}")
