#!/usr/bin/env python3
"""Run the same network four ways and compare outputs and operation counts.

The temporal-difference executor reproduces the dense pass exactly; the
sigma-delta executor reproduces the rounding pass; and on a temporally
redundant stream the sigma-delta executor does a fraction of the work.
"""

import numpy as np

from sigmadelta import (LayerActivity, SigmaDeltaRuntime, TemporalDiffRuntime,
                        flops_dense, flops_rounding, flops_sigma_delta,
                        forward_original, forward_rounding,
                        gen_random_network, gen_random_stream)
from sigmadelta.experiments import rounding_batch

rng = np.random.default_rng(7)
net = gen_random_network(rng, dims=(32, 48, 48, 24), factors=(1.0, 1.0, 1.0))
net = net.with_scales([2.0, 1.0, 1.0])
frames = gen_random_stream(rng, 300, 32, smoothness=0.9).frames

td_rt, sd_rt = TemporalDiffRuntime(net), SigmaDeltaRuntime(net)
act_sd = LayerActivity.for_network(net)

dev_td, dev_sd = 0.0, 0.0
for x in frames:
    y0 = forward_original(net, x)
    yt = td_rt.step(x)
    yr = forward_rounding(net, x)
    ys = sd_rt.step(x, activity=act_sd)
    dev_td = max(dev_td, np.max(np.abs(yt - y0)))
    dev_sd = max(dev_sd, np.max(np.abs(ys - yr)))

print(f"network {net.dims}, {len(frames)} frames, smoothness 0.9\n")
print(f"temporal-diff vs original, worst frame:  {dev_td:.2e}  (exact function)")
print(f"sigma-delta  vs rounding, worst frame:   {dev_sd:.2e}  (exact function)\n")

# a dense pass is one multiply and one add per weight; the event passes
# only add: the rounding pass's events are those rounding_batch records
act_round = LayerActivity.for_network(net)
rounding_batch(net, frames, activity=act_round)
dense_half = len(frames) * flops_dense(net.dims) // 2
counts = {"original": (dense_half, dense_half),
          "rounding": (flops_rounding(act_round), 0),
          "sigma-delta": (flops_sigma_delta(act_sd), 0)}

print(f"{'executor':>12} {'adds':>12} {'mults':>12} {'ops/frame':>10}")
for name, (adds, mults) in counts.items():
    print(f"{name:>12} {adds:>12,} {mults:>12,} "
          f"{(adds + mults) / len(frames):>10,.0f}")

print()
print("=== an unchanged input costs nothing ===")
act = LayerActivity.for_network(net)
x = frames[-1]
sd_rt.step(x, activity=act)  # same frame again
print(f"repeat of the last frame: {flops_sigma_delta(act)} ops")

print()
print("=== resync clears accumulated float drift ===")
y = sd_rt.resync(x)
print(f"after resync, output still matches rounding: "
      f"{np.max(np.abs(y - forward_rounding(net, x))):.2e}")
