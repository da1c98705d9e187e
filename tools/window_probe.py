"""Time SigmaDeltaRuntime.run on windows of frames against the step, and
the rounding pass it is built on.

    python tools/window_probe.py

runs the source tree this script sits in (its src/) on the 784-200-200-10
random net (gen_random_network, rng 0) at scales (8, 4, 4), over one
2400-frame stream per smoothness 0, 0.95 and 0.999 (gen_random_stream,
rng 1).  Each variant feeds the whole stream to one fresh runtime: step
frame by frame, or run over consecutive windows of 1, 4, 16, 64 and 256
frames, and records its events in a LayerActivity; rounding_batch takes
the whole stream in one call, recording its own.  Before timing, it
asserts that every window variant's outputs, end state (previous rounded
inputs, integrals and frame count) and LayerActivity.l1 are array_equal
to the step's, and that rounding_batch's outputs are.  It prints a
Markdown table of microseconds per frame, each the minimum of 5 rounds;
the variants run in turn, in reverse order on every other round.  BLAS
runs on one thread.
"""

import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy is imported

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from sigmadelta.costs import LayerActivity  # noqa: E402
from sigmadelta.data import gen_random_network, gen_random_stream  # noqa: E402
from sigmadelta.network import SigmaDeltaRuntime, rounding_batch  # noqa: E402

FRAMES = 2400
SMOOTHNESS = (0.0, 0.95, 0.999)
WINDOWS = (1, 4, 16, 64, 256)
ROUNDS = 5


def stepped(net, X):
    rt, act = SigmaDeltaRuntime(net), LayerActivity.for_network(net)
    return np.array([rt.step(x, activity=act) for x in X]), rt, act


def windowed(w):
    def run(net, X):
        rt, act = SigmaDeltaRuntime(net), LayerActivity.for_network(net)
        return np.concatenate([rt.run(X[lo:lo + w], activity=act)
                               for lo in range(0, len(X), w)]), rt, act
    return run


def batch(net, X):
    return rounding_batch(net, X, LayerActivity.for_network(net))


def same_end(got, want):
    (y, rt, act), (y_want, ref, ref_act) = got, want
    return (np.array_equal(y, y_want) and rt.frames == ref.frames
            and all(np.array_equal(a, b) for a, b in zip(rt._prev, ref._prev))
            and all(np.array_equal(a, b) for a, b in zip(rt._u, ref._u))
            and np.array_equal(act.l1, ref_act.l1))


def main():
    net = gen_random_network(np.random.default_rng(0),
                             dims=(784, 200, 200, 10)).with_scales(
        [8.0, 4.0, 4.0])
    variants = [("step", stepped)] + [(f"run w={w}", windowed(w))
                                      for w in WINDOWS] + [
        ("rounding_batch", batch)]
    print(f"µs/frame, min of {ROUNDS} rounds, {FRAMES} frames, net "
          f"{net.dims}, scales {tuple(net.scales)}")
    print()
    print("| smoothness | " + " | ".join(n for n, _ in variants) + " |")
    print("| --- " * (len(variants) + 1) + "|")
    for smoothness in SMOOTHNESS:
        X = gen_random_stream(np.random.default_rng(1), FRAMES, net.input_dim,
                              smoothness).frames
        want = stepped(net, X)
        for name, fn in variants[1:-1]:
            assert same_end(fn(net, X), want), name
        assert np.array_equal(batch(net, X), want[0]), "rounding_batch"
        best = dict.fromkeys((n for n, _ in variants), float("inf"))
        for r in range(ROUNDS):
            for name, fn in (variants if r % 2 == 0 else variants[::-1]):
                t = time.perf_counter()
                fn(net, X)
                best[name] = min(best[name], time.perf_counter() - t)
        print(f"| {smoothness} | " + " | ".join(
            f"{best[n] / FRAMES * 1e6:.1f}" for n, _ in variants) + " |")


if __name__ == "__main__":
    main()
