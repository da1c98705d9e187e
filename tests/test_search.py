"""A seeded search over random nets and streams for the exact executors.

Each case draws a net of 1-3 layers of width 1-8, with parameter
magnitudes from 1e-8 to 1e8 (a fifth of the layers with integer weights;
biases times 0, 1 or 100), relu or identity hidden layers and any output
activation, one scale per layer from 1e-3 to 1e3, and a stream of 1-40
frames with held frames and half-integer ties at the first layer.

Where the step takes every frame, the step, sigma_delta_stream,
forward_rounding and rounding_batch give the same bits, and the step and
the stream the same LayerActivity.  Where the step refuses a frame, the
stream refuses the window, and the step's later outputs are those of a
fresh runtime fed only the frames it took.  Every fifth net also goes
through save_network and load_network, bit for bit.  On the frames the
step takes, the rounding pass of bake_scales(net) stays within 1e-9 of
the net's (the bound of test_network's test_function_preserved_exactly),
except on the drawn nets in BAKE_FLIPS.

Each stream also goes through one runtime in random run windows and step
calls (split by a generator of its own, so the nets and streams drawn do
not depend on it).  A call raises exactly when it holds a frame the step
refused, leaving the runtime and its activity as they were; the frames of
a refused window are then stepped one by one.  The outputs and the
LayerActivity are step_all's.
"""

import numpy as np

from sigmadelta.costs import LayerActivity
from sigmadelta.network import (ACTIVATIONS, LayerSpec, NetworkSpec,
                                SigmaDeltaRuntime, bake_scales,
                                forward_rounding, load_network,
                                rounding_batch, save_network,
                                sigma_delta_stream)

CASES = 1500

# The cases whose baked net breaks the 1e-9 bound: a known defect, not a
# tolerance.  In each, a hidden layer's input carries ~1e7 to 1e11 unit
# events, and the baked layer before it, snapped on its own grid, moves
# the pre-activation by a few hundredths of a unit, enough to round one
# entry to the neighbouring integer (outputs 0.005 to 0.08 apart).
BAKE_FLIPS = [278, 569, 856, 1192]


def draw_net(rng):
    n_layers = int(rng.integers(1, 4))
    dims = rng.integers(1, 9, n_layers + 1)
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        mag = 10.0 ** rng.uniform(-8, 8)
        if rng.random() < 0.2:
            W = rng.integers(-3, 4, (d_in, d_out)).astype(np.float64)
        else:
            W = rng.standard_normal((d_in, d_out)) * mag
        b = rng.standard_normal(d_out) * mag * rng.choice([0.0, 1.0, 100.0])
        last = i == n_layers - 1
        act = rng.choice(ACTIVATIONS if last else ("relu", "identity"))
        layers.append(LayerSpec(W, b, str(act), 10.0 ** rng.uniform(-3, 3)))
    return NetworkSpec(layers)


def draw_frames(rng, net):
    n, width = int(rng.integers(1, 41)), net.input_dim
    X = rng.standard_normal((n, width)) * 10.0 ** rng.uniform(-3, 3)
    ties = rng.random(n) < 0.3  # k*x on a half-integer, where it rounds
    X[ties] = (rng.integers(-5, 5, (ties.sum(), width)) + 0.5) \
        / net.layers[0].scale
    held = np.flatnonzero(rng.random(n) < 0.3)
    for t in held[held > 0]:
        X[t] = X[t - 1]
    return X


def step_all(net, X):
    """Each frame through one runtime, refused ones skipped: (outputs of the
    frames it took, their indices, its activity)."""
    rt, act = SigmaDeltaRuntime(net), LayerActivity.for_network(net)
    outs, taken = [], []
    for t, x in enumerate(X):
        try:
            outs.append(rt.step(x, activity=act))
        except ValueError:
            continue
        taken.append(t)
    return outs, taken, act


def snapshot(rt, act):
    return ([p.tobytes() for p in rt._prev], [u.tobytes() for u in rt._u],
            list(rt._bounds), rt.frames, list(act.l1), act.frames)


def split_run(net, X, refused, rng):
    """X through one runtime in run windows of 1-10 frames and step calls,
    at random: (outputs of the frames it took, its activity)."""
    rt, act = SigmaDeltaRuntime(net), LayerActivity.for_network(net)
    outs, lo = [], 0
    while lo < len(X):
        by_step = rng.random() < 0.2
        hi = min(len(X), lo + (1 if by_step else int(rng.integers(1, 21))))
        before = snapshot(rt, act)
        try:
            if by_step:
                got = [rt.step(X[lo], activity=act)]
            else:
                got = list(rt.run(X[lo:hi], activity=act))
        except ValueError:
            assert not refused.isdisjoint(range(lo, hi))
            assert snapshot(rt, act) == before
            for t in range(lo, hi):
                try:
                    outs.append(rt.step(X[t], activity=act))
                except ValueError:
                    assert t in refused
        else:
            assert refused.isdisjoint(range(lo, hi))
            outs += got
        lo = hi
    return outs, act


def test_seeded_search(tmp_path):
    rng = np.random.default_rng(2024)
    split_rng = np.random.default_rng(2025)
    accepted = refused = 0
    bake_breaks = []
    for case in range(CASES):
        net = draw_net(rng)
        X = draw_frames(rng, net)
        outs, taken, act = step_all(net, X)

        split_outs, split_act = split_run(
            net, X, set(range(len(X))) - set(taken), split_rng)
        assert len(split_outs) == len(outs)
        assert all(np.array_equal(a, b) for a, b in zip(split_outs, outs))
        assert list(split_act.l1) == list(act.l1)
        assert split_act.frames == act.frames == len(taken)

        if case % 5 == 0:  # a file each: the round trip is the slow part
            save_network(net, tmp_path / "net.json")
            loaded = load_network(tmp_path / "net.json")
            for a, b in zip(net.layers, loaded.layers):
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.bias, b.bias)
                assert (a.activation, a.scale) == (b.activation, b.scale)

        # the step's outputs are forward_rounding's on the frames it took,
        # and rounding_batch is forward_rounding over rows
        if taken:
            baked = rounding_batch(bake_scales(net), X[taken])
            if not np.max(np.abs(baked - np.stack(outs))) < 1e-9:
                bake_breaks.append(case)

        if len(taken) == len(X):
            accepted += 1
            outs = np.stack(outs)
            stream_act = LayerActivity.for_network(net)
            assert np.array_equal(
                sigma_delta_stream(net, X, activity=stream_act), outs)
            assert list(stream_act.l1) == list(act.l1)
            assert np.array_equal(
                np.stack([forward_rounding(net, x) for x in X]), outs)
            assert np.array_equal(rounding_batch(net, X), outs)
            continue

        refused += 1
        stream_act = LayerActivity.for_network(net)
        try:
            sigma_delta_stream(net, X, activity=stream_act)
        except ValueError:
            pass
        else:
            raise AssertionError("the stream took a window the step refused")
        assert stream_act.frames == 0
        fresh_outs, fresh_taken, fresh_act = step_all(net, X[taken])
        assert fresh_taken == list(range(len(taken)))
        assert all(np.array_equal(a, b) for a, b in zip(outs, fresh_outs))
        assert list(fresh_act.l1) == list(act.l1)
    # the search reaches both sides of the limit
    assert accepted > CASES // 4 and refused > CASES // 10
    assert bake_breaks == BAKE_FLIPS
