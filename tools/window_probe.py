"""Time SigmaDeltaRuntime.run on windows of frames against the step, and
the rounding pass it is built on.

    python tools/window_probe.py

runs the source tree this script sits in (its src/) on the 784-200-200-10
random net (gen_random_network, rng 0) at scales (8, 4, 4), over one
2400-frame stream per smoothness 0, 0.95, 0.99 and 0.999
(gen_random_stream, rng 1), and one of the smoothness-0.95 stream's first
240 frames, each held for 10 frames.  Each variant feeds the whole stream
to one fresh runtime: step frame by frame, or run over consecutive
windows of 1, 4, 16, 64 and 256 frames, and records its events in a
LayerActivity; rounding_batch takes the whole stream in one call,
recording its own.  Before timing, it asserts that every window
variant's outputs, end state (previous rounded inputs, integrals and
frame count) and LayerActivity.l1 are array_equal to the step's, and
that rounding_batch's outputs are.  It prints a Markdown table of
microseconds per frame, each the minimum of 5 rounds; the variants run
in turn, in reverse order on every other round.  A second table gives,
per stream and layer, the share of the step's frames whose event L1 is
at most DENSE_DELTA_SHARE of the layer's inputs, so that the step
gathers the changed rows of W/k (an unchanged input included) rather
than adding the dense delta product.  BLAS runs on one thread.
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
from sigmadelta.network import DENSE_DELTA_SHARE  # noqa: E402
from sigmadelta.network import SigmaDeltaRuntime, rounding_batch  # noqa: E402

FRAMES = 2400
SMOOTHNESS = (0.0, 0.95, 0.99, 0.999)
HELD = 10  # the held stream repeats each of its frames this many times
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


def gather_shares(net, X):
    """Per layer, the share of X's frames on which the step gathers."""
    rt, gathered = SigmaDeltaRuntime(net), np.zeros(len(net.layers))
    for x in X:
        before = rt._prev
        rt.step(x)
        gathered += [np.abs(new - old).sum() <= DENSE_DELTA_SHARE * old.size
                     for new, old in zip(rt._prev, before)]
    return gathered / len(X)


def streams(d):
    """(label, frames) for each stream the probe runs."""
    for smoothness in SMOOTHNESS:
        yield str(smoothness), gen_random_stream(
            np.random.default_rng(1), FRAMES, d, smoothness).frames
    X = gen_random_stream(np.random.default_rng(1), FRAMES, d, 0.95).frames
    yield f"0.95 held ×{HELD}", np.repeat(X[:FRAMES // HELD], HELD, axis=0)


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
    print("| stream | " + " | ".join(n for n, _ in variants) + " |")
    print("| --- " * (len(variants) + 1) + "|")
    shares = []
    for label, X in streams(net.input_dim):
        shares.append((label, gather_shares(net, X)))
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
        print(f"| {label} | " + " | ".join(
            f"{best[n] / FRAMES * 1e6:.1f}" for n, _ in variants) + " |")
    print()
    print(f"% of the step's frames that gather (event L1 <= "
          f"{DENSE_DELTA_SHARE:g} x inputs)")
    print()
    print("| stream | " + " | ".join(
        f"L{i + 1} ({l.d_in} in)" for i, l in enumerate(net.layers)) + " |")
    print("| --- " * (len(net.layers) + 1) + "|")
    for label, share in shares:
        print(f"| {label} | " + " | ".join(f"{100 * s:.1f}" for s in share)
              + " |")


if __name__ == "__main__":
    main()
