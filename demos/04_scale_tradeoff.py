#!/usr/bin/env python3
"""Trade output fidelity against additions by tuning discretization scales.

A Glorot-initialized network whose weight matrices were rescaled by
(1/2, 8, 1/4) computes the same function as the unscaled one, but its
signal ranges are badly matched to a unit rounding grid: the first layer
rounds too coarsely (error), the second too finely (wasted work).
Gradient steps on the log-scales fix both, and the tradeoff weight picks
the operating point.
"""

import numpy as np

from sigmadelta import (LayerActivity, TradeoffConfig, error_loss,
                        flops_rounding, gen_random_network, gen_random_stream,
                        optimize)
from sigmadelta.experiments import dense_batch, rounding_batch

seed = 0
rng = np.random.default_rng(seed)
net = gen_random_network(rng)  # the (1/2, 8, 1/4) fixture
train = gen_random_stream(rng, 2048, 100).frames
evalX = gen_random_stream(rng, 512, 100).frames
y_true = dense_batch(net, evalX)


def measure(scales):
    act = LayerActivity.for_network(net)
    y = rounding_batch(net.with_scales(scales), evalX, activity=act)
    return (error_loss(y, y_true, "l2"),
            flops_rounding(act) / act.frames / 1000.0)


err, kf = measure([1.0, 1.0, 1.0])
print(f"unit scales:   error {err:6.3f}   {kf:7.2f} kflops/frame")
print()
print(f"{'lambda':>8} {'k1':>7} {'k2':>7} {'k3':>7} {'error':>8} {'kflops':>8}")
for i, lam in enumerate((1e-8, 1e-7, 1e-6, 1e-5)):
    cfg = TradeoffConfig(lam=lam, eta=0.02, epochs=6)
    result = optimize(net, train, cfg, rng=np.random.default_rng([seed, i]))
    k = result.scales
    err, kf = measure(k)
    print(f"{lam:8.0e} {k[0]:7.2f} {k[1]:7.2f} {k[2]:7.2f} {err:8.3f} {kf:8.2f}")

print()
print("small lambda buys fidelity with extra additions; large lambda")
print("sacrifices fidelity to shed them.  note k2 always comes out far")
print("above k1/k3: the optimizer undoes the (1/2, 8, 1/4) mismatch.")
print()
print("compare against random rescalings (is the frontier real?):")
rng2 = np.random.default_rng(123)
cloud = [measure(list(np.exp(rng2.uniform(-3, 3, 3)))) for _ in range(200)]
cfg = TradeoffConfig(lam=1e-6, eta=0.02, epochs=6)
res = optimize(net, train, cfg, rng=np.random.default_rng([seed, 2]))
err, kf = measure(res.scales)
dominated = sum(1 for e, c in cloud
                if e <= err and c <= kf and (e < err or c < kf))
print(f"optimized point (error {err:.3f}, {kf:.1f} kflops) is dominated by "
      f"{dominated}/200 random rescalings")
