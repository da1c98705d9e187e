"""sigma_delta_stream is the step: its outputs, ledger and LayerActivity
to the bit, whatever the kernel share or network, and a window it refuses
charges nothing.  SigmaDeltaRuntime.run, which it calls on a fresh
runtime, resumes from the runtime's state: windows and steps interleaved
on one runtime are the step alone, state included."""

import numpy as np
import pytest

import sigmadelta.network as network
from sigmadelta.costs import LayerActivity
from sigmadelta.data import gen_random_network
from sigmadelta.kernels import OpLedger
from sigmadelta.network import (LayerSpec, NetworkSpec, SigmaDeltaRuntime,
                                dense_batch, sigma_delta_stream)
from tests.test_grid import (assert_same, same_state, state, stepped, stream,
                             stream_nets, streamed)
from tests.test_network import random_net


def frames(rng, net, n=150):
    """A smooth stream, then an i.i.d. one, with three repeats of frame 9
    that send no events at all."""
    X = np.concatenate([stream(rng, n, net.input_dim, 0.95),
                        stream(rng, n, net.input_dim, 0.0)])
    X[10:13] = X[9]
    return X


class TestStreamIsTheStep:
    @pytest.mark.parametrize("share", [0.0, 1.0, network.DENSE_DELTA_SHARE],
                             ids=["dense", "gather", "adaptive"])
    def test_any_kernel(self, monkeypatch, share):
        # share 0 sends every frame with events down the dense delta product,
        # share 1 every frame down the row gather
        monkeypatch.setattr(network, "DENSE_DELTA_SHARE", share)
        rng = np.random.default_rng(20)
        for net in stream_nets(rng):
            X = frames(rng, net)
            assert_same(streamed(net, X), stepped(net, X))

    def test_window_ledger_past_int64(self):
        # frames whose events pass a layer's exact range are refused
        W = np.random.default_rng(26).standard_normal((20, 5))
        net = NetworkSpec([LayerSpec(W, np.zeros(5), "identity", 1.0)])
        x = np.zeros(20)
        x[3] = 2e18
        X = np.stack([x, -x, x])
        with pytest.raises(ValueError):
            stepped(net, X)
        with pytest.raises(ValueError):
            streamed(net, X)
        # but a window's count can still pass int64, where every frame's
        # fits: zero weights count events up to 2**53 a frame, and the
        # ledger counts in Python ints, as the step does
        net = NetworkSpec([LayerSpec(np.zeros((20, 5)), np.ones(5),
                                     "identity", 1.0)])
        x[3] = 2.0 ** 51
        X = np.stack([x, -x] * 250)
        got, want = streamed(net, X), stepped(net, X)
        assert want[1].int_adds == 5 * (2 ** 51 + 499 * 2 ** 52) > 2 ** 63
        assert_same(got, want)

    def test_benchmark_sized_net(self):
        rng = np.random.default_rng(22)
        net = gen_random_network(rng, dims=(784, 200, 200, 10)).with_scales(
            [8.0, 4.0, 4.0])
        X = frames(rng, net, 60)
        assert_same(streamed(net, X), stepped(net, X))


def past_int64_net():
    return gen_random_network(np.random.default_rng(13), dims=(20, 10, 5),
                              factors=(1.0, 1.0))


class TestWholeWindow:
    def test_non_finite_frame_charges_nothing(self):
        rng = np.random.default_rng(23)
        net = random_net(rng, [6, 5, 4])
        X = rng.standard_normal((5, 6))
        X[3, 2] = np.nan  # the fourth of five frames
        led, act = OpLedger(), LayerActivity.for_network(net)
        with pytest.raises(ValueError):
            sigma_delta_stream(net, X, ledger=led, activity=act)
        assert led == OpLedger()
        assert act.frames == 0 and not act.l1.any()

    def test_events_past_int64_charge_nothing(self):
        # a finite frame whose event count does not fit int64, where the
        # ledger and LayerActivity count it
        net = past_int64_net()
        X = stream(np.random.default_rng(24), 5, 20, 0.9)
        X[3] = 1e306
        led, act = OpLedger(), LayerActivity.for_network(net)
        with pytest.raises(ValueError):
            sigma_delta_stream(net, X, ledger=led, activity=act)
        assert led == OpLedger()
        assert act.frames == 0 and not act.l1.any()

    def test_step_refuses_events_past_int64(self):
        net = past_int64_net()
        X = stream(np.random.default_rng(25), 8, 20, 0.9)
        clean, hit = SigmaDeltaRuntime(net), SigmaDeltaRuntime(net)
        for t, x in enumerate(X):
            if t == 3:
                with pytest.raises(ValueError):
                    hit.step(np.full(20, 1e306))
            assert np.array_equal(hit.step(x), clean.step(x))
        assert hit.frames == clean.frames == 8


def bench_net(rng):
    return gen_random_network(rng, dims=(784, 200, 200, 10)).with_scales(
        [8.0, 4.0, 4.0])


def l1_bounds_hold(rt, exact):
    """Each layer's bound is at least L1 of its previous rounded input, and
    that L1 itself where the last call was a window."""
    l1s = [float(np.abs(p).sum()) for p in rt._prev]
    return all((b == n) if exact else (b >= n)
               for b, n in zip(rt._bounds, l1s))


def charges(rt, led, act):
    return state(rt), list(rt._bounds), led.copy(), act.l1.copy(), act.frames


def same_charges(a, b):
    return (same_state(a[0], b[0]) and a[1:3] == b[1:3]
            and np.array_equal(a[3], b[3]) and a[4] == b[4])


class TestRunResumesTheState:
    @pytest.mark.parametrize("chunk", [network.STREAM_CHUNK, 7])
    @pytest.mark.parametrize("smoothness", [0.0, 0.95])
    def test_windows_and_steps_are_the_step(self, monkeypatch, smoothness,
                                            chunk):
        # chunk 7 splits most windows, and the refused one after its first
        # chunk has run
        monkeypatch.setattr(network, "STREAM_CHUNK", chunk)
        rng = np.random.default_rng(27)
        net = bench_net(rng)
        X = stream(rng, 240, net.input_dim, smoothness)
        X[50:53] = X[49]  # held frames: no events
        ref = SigmaDeltaRuntime(net)
        ref_led, ref_act = OpLedger(), LayerActivity.for_network(net)
        rt = SigmaDeltaRuntime(net)
        led, act = OpLedger(), LayerActivity.for_network(net)
        lo = refusals = 0
        while lo < len(X):
            if lo > len(X) // 2 and not refusals:
                bad = X[lo:lo + 12].copy()
                bad[10, 100] = 1e306  # past the first layer's limit
                before = charges(rt, led, act)
                with pytest.raises(ValueError):
                    rt.run(bad, ledger=led, activity=act)
                with pytest.raises(ValueError):
                    ref.step(bad[10], ledger=ref_led, activity=ref_act)
                assert same_charges(charges(rt, led, act), before)
                refusals += 1
            by_step = rng.random() < 0.3
            hi = min(len(X), lo + (1 if by_step else int(rng.integers(1, 50))))
            want = [ref.step(x, ledger=ref_led, activity=ref_act)
                     for x in X[lo:hi]]
            if by_step:
                got = [rt.step(X[lo], ledger=led, activity=act)]
            else:
                got = rt.run(X[lo:hi], ledger=led, activity=act)
            assert np.array_equal(got, want)
            assert same_state(state(rt), state(ref))
            assert l1_bounds_hold(rt, exact=not by_step)
            lo = hi
        assert refusals == 1 and rt.frames == len(X)
        assert led == ref_led
        assert np.array_equal(act.l1, ref_act.l1)
        assert act.frames == ref_act.frames == len(X)

    @pytest.mark.parametrize("bad", [1e306, np.nan])
    def test_refused_window_changes_nothing(self, monkeypatch, bad):
        monkeypatch.setattr(network, "STREAM_CHUNK", 4)
        rng = np.random.default_rng(28)
        net = random_net(rng, [12, 9, 7, 4], scale_range=(0.5, 4.0))
        X = stream(rng, 40, net.input_dim, 0.9)
        rt, clean = SigmaDeltaRuntime(net), SigmaDeltaRuntime(net)
        led, act = OpLedger(int_adds=5), LayerActivity.for_network(net)
        rt.run(X[:10], ledger=led, activity=act)
        clean.run(X[:10])
        rt.step(X[10], ledger=led, activity=act)
        clean.step(X[10])
        before = charges(rt, led, act)
        window = X[11:30].copy()
        window[13, 2] = bad  # in the fourth chunk
        with pytest.raises(ValueError):
            rt.run(window, ledger=led, activity=act)
        assert same_charges(charges(rt, led, act), before)
        assert np.array_equal(rt.run(X[11:]), clean.run(X[11:]))
        assert same_state(state(rt), state(clean))

    def test_empty_window_changes_nothing(self):
        rng = np.random.default_rng(29)
        net = random_net(rng, [12, 9, 7, 4], scale_range=(0.5, 4.0))
        rt = SigmaDeltaRuntime(net)
        led, act = OpLedger(), LayerActivity.for_network(net)
        rt.run(stream(rng, 5, net.input_dim, 0.9), ledger=led, activity=act)
        before = charges(rt, led, act)
        # an activity of the other kind: recording anything would raise
        dense = LayerActivity.for_network(net)
        dense_batch(net, np.ones((1, net.input_dim)), activity=dense)
        nonzero = list(dense.nonzero)
        for activity in (act, dense):
            out = rt.run(np.zeros((0, net.input_dim)), ledger=led,
                         activity=activity)
            assert out.shape == (0, net.output_dim)
            assert same_charges(charges(rt, led, act), before)
        assert list(dense.nonzero) == nonzero and dense.frames == 1
        out = sigma_delta_stream(net, np.zeros((0, net.input_dim)))
        assert out.shape == (0, net.output_dim)
