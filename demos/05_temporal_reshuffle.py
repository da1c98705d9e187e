#!/usr/bin/env python3
"""Manufacture temporal redundancy by reordering a dataset, then cash it in.

Greedy nearest-neighbor buffering rearranges independent frames so that
consecutive ones are similar, emulating video.  The sigma-delta executor's
cost tracks exactly that similarity; its outputs do not change at all,
because they never depend on frame order.
"""

import numpy as np

from sigmadelta import (FrameDataset, LayerActivity, flops_sigma_delta,
                        temporal_reshuffle)
from sigmadelta.experiments import sigma_delta_stream
from sigmadelta.mlp import train_mlp

rng = np.random.default_rng(0)

# a small labeled image-like dataset: 10 classes of blobby 8x8 frames
classes, width, n = 10, 64, 800
centers = rng.uniform(0.1, 0.9, (classes, width))
labels = rng.integers(0, classes, n)
frames = np.clip(centers[labels] + rng.normal(0, 0.06, (n, width)), 0, 1)
ds = FrameDataset(frames, labels)

net, _ = train_mlp(ds.frames, ds.labels, dims=(width, 24, classes), rng=rng,
                   epochs=40, target_acc=0.97)

shuffled = temporal_reshuffle(ds, buffer_size=1, rng=np.random.default_rng(1))
temporal = temporal_reshuffle(ds, buffer_size=100, rng=np.random.default_rng(1))

adj = lambda f: np.linalg.norm(np.diff(f, axis=0), axis=1).mean()
print(f"mean adjacent-frame L2:  random order {adj(shuffled.frames):.3f}   "
      f"reshuffled {adj(temporal.frames):.3f}")

print()
print(f"{'ordering':>12} {'events/frame':>13} {'kflops/frame':>13} {'error %':>8}")
for name, d in (("random", shuffled), ("temporal", temporal)):
    act = LayerActivity.for_network(net)
    out = sigma_delta_stream(net, d.frames, activity=act)
    err = 100.0 * np.mean(np.argmax(out, axis=1) != d.labels)
    print(f"{name:>12} {act.l1.sum() / act.frames:>13.1f} "
          f"{flops_sigma_delta(act) / act.frames / 1000:>13.2f} {err:>8.2f}")

print()
print("same frames, same predictions, same error; only the order changed,")
print("and with it the number of change events the layers exchange.")
