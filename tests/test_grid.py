"""Grid mode: on a snap_to_grid network every executor that rounds its
layer inputs computes the same bits, whatever kernel, batch shape, chunking
or history, and a frame past the grid's headroom is refused."""

import numpy as np
import pytest

import sigmadelta.experiments as experiments
import sigmadelta.network as network
from sigmadelta.costs import LayerActivity
from sigmadelta.data import gen_random_stream
from sigmadelta.kernels import OpLedger
from sigmadelta.network import (GRID_FRAC_BITS, LayerSpec, NetworkSpec,
                                SigmaDeltaRuntime, forward_rounding,
                                rounding_batch, snap_to_grid)
from tests.test_network import random_net

UNIT = 2.0 ** GRID_FRAC_BITS


def stream_nets(rng):
    """A layerwise relu/identity net and a unitwise net ending in softmax."""
    layerwise = random_net(rng, [12, 9, 7, 4], scale_range=(0.5, 4.0))
    unitwise = random_net(rng, [10, 8, 6], acts=["relu", "softmax"])
    unitwise = unitwise.with_scales([rng.uniform(0.5, 4.0, 10),
                                     rng.uniform(0.5, 4.0, 8)])
    return [layerwise, unitwise]


def grid_nets(rng):
    return [snap_to_grid(net) for net in stream_nets(rng)]


def stream(rng, n, d, smoothness):
    return gen_random_stream(rng, n, d, smoothness).frames


def state(rt):
    return ([p.copy() for p in rt._prev], [u.copy() for u in rt._u],
            rt.frames)


def same_state(a, b):
    return (all(np.array_equal(x, y) for x, y in zip(a[0], b[0]))
            and all(np.array_equal(x, y) for x, y in zip(a[1], b[1]))
            and a[2] == b[2])


class TestSnapToGrid:
    def test_scaled_weights_and_bias_on_the_grid(self):
        for net in grid_nets(np.random.default_rng(0)):
            assert net.on_grid
            for layer in net.layers:
                wk = layer.scaled_weights() * UNIT
                assert np.array_equal(wk, np.round(wk))
                assert np.array_equal(layer.bias * UNIT,
                                      np.round(layer.bias * UNIT))
                assert not layer.scaled_weights().flags.writeable

    def test_snapping_is_nearest_and_idempotent(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, [6, 5, 3])
        grid = snap_to_grid(net)
        for raw, snapped in zip(net.layers, grid.layers):
            assert (np.max(np.abs(snapped.scaled_weights()
                                  - raw.scaled_weights())) <= 0.5 / UNIT)
            assert snapped.scale == raw.scale
        again = snap_to_grid(grid)
        for a, b in zip(grid.layers, again.layers):
            assert np.array_equal(a.scaled_weights(), b.scaled_weights())
            assert np.array_equal(a.bias, b.bias)

    def test_with_scales_drops_the_mark(self):
        net = random_net(np.random.default_rng(2), [6, 5, 3])
        assert not net.on_grid
        grid = snap_to_grid(net)
        assert grid.on_grid
        assert not grid.with_scales([1.0, 1.0]).on_grid
        assert not grid.with_scales(grid.scales).on_grid
        assert not network.bake_scales(grid).on_grid


class TestBitIdentity:
    @pytest.mark.parametrize("share", [0.0, 1.0, network.DENSE_DELTA_SHARE],
                             ids=["dense", "gather", "adaptive"])
    def test_step_stream_and_rounding_agree(self, monkeypatch, share):
        # share 0 sends every frame with events down the dense delta product,
        # share 1 every frame down the row gather
        monkeypatch.setattr(network, "DENSE_DELTA_SHARE", share)
        rng = np.random.default_rng(3)
        for net in grid_nets(rng):
            X = np.concatenate([stream(rng, 150, net.input_dim, 0.95),
                                stream(rng, 150, net.input_dim, 0.0)])
            X[::7, :3] = 0.0
            rt = SigmaDeltaRuntime(net)
            stepped = np.array([rt.step(x) for x in X])
            want = rounding_batch(net, X)
            assert np.array_equal(stepped, want)
            assert np.array_equal(experiments.sigma_delta_stream(net, X), want)
            assert np.array_equal(
                np.array([forward_rounding(net, x) for x in X]), want)

    def test_20k_frames_with_resets_and_resyncs(self):
        rng = np.random.default_rng(4)
        net = grid_nets(rng)[0]
        X = stream(rng, 20000, net.input_dim, 0.9)
        want = rounding_batch(net, X)
        assert np.array_equal(experiments.sigma_delta_stream(net, X), want)
        rt = SigmaDeltaRuntime(net)
        got = np.empty_like(want)
        for t, x in enumerate(X):
            if t % 5000 == 2500:
                rt.reset()
            got[t] = rt.resync(x) if t % 5000 == 4000 else rt.step(x)
        assert np.array_equal(got, want)

    def test_stream_charges_what_the_step_charges(self):
        rng = np.random.default_rng(5)
        for net in grid_nets(rng):
            X = stream(rng, 80, net.input_dim, 0.9)
            rt = SigmaDeltaRuntime(net)
            led_step, act_step = OpLedger(), LayerActivity.for_network(net)
            for x in X:
                rt.step(x, ledger=led_step, activity=act_step)
            led, act = OpLedger(), LayerActivity.for_network(net)
            experiments.sigma_delta_stream(net, X, ledger=led, activity=act)
            assert led == led_step
            assert np.array_equal(act.l1, act_step.l1)
            assert act.frames == act_step.frames == 80

    @pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 14, 15, 30])
    def test_chunk_boundaries(self, monkeypatch, n):
        rng = np.random.default_rng(6)
        net = grid_nets(rng)[1]
        X = stream(rng, 30, net.input_dim, 0.8)[:n]
        led_one, act_one = OpLedger(), LayerActivity.for_network(net)
        one = experiments.sigma_delta_stream(net, X, ledger=led_one,
                                             activity=act_one)
        monkeypatch.setattr(network, "STREAM_CHUNK", 7)
        led, act = OpLedger(), LayerActivity.for_network(net)
        got = experiments.sigma_delta_stream(net, X, ledger=led, activity=act)
        assert got.shape == (n, net.output_dim)
        assert np.array_equal(got, one)
        assert np.array_equal(got, rounding_batch(net, X))
        assert led == led_one
        assert np.array_equal(act.l1, act_one.l1)
        assert act.frames == n


def huge_frame_net():
    rng = np.random.default_rng(7)
    return snap_to_grid(NetworkSpec([
        LayerSpec(rng.standard_normal((20, 10)) / 4, rng.standard_normal(10),
                  "relu", 2.0),
        LayerSpec(rng.standard_normal((10, 5)) / 3, rng.standard_normal(5),
                  "identity", 1.0),
    ]))


def hidden_overflow_net(where):
    """A grid net whose second layer alone runs out of headroom on a frame
    1000 times the stream's amplitude: through a weight of 2**20, or a bias
    within 2**8 of GRID_LIMIT."""
    rng = np.random.default_rng(11)
    w2, b2 = rng.standard_normal((10, 5)) / 3, rng.standard_normal(5)
    if where == "weights":
        w2[0, 0] = 2.0 ** 20
    else:
        b2[0] = network.GRID_LIMIT - 2.0 ** 8
    return snap_to_grid(NetworkSpec([
        LayerSpec(rng.standard_normal((20, 10)) / 4, rng.standard_normal(10),
                  "relu", 2.0),
        LayerSpec(w2, b2, "identity", 1.0),
    ]))


class TestHeadroom:
    @pytest.mark.parametrize("bad", [1e17, np.nan])
    def test_step_refuses_and_keeps_state(self, bad):
        net = huge_frame_net()
        rng = np.random.default_rng(8)
        X = stream(rng, 20, 20, 0.9)
        rt = SigmaDeltaRuntime(net)
        led, act = OpLedger(), LayerActivity.for_network(net)
        for x in X[:10]:
            rt.step(x, ledger=led, activity=act)
        before = state(rt)
        led_before, l1_before = led.copy(), act.l1.copy()
        x_bad = X[10].copy()
        x_bad[3] = bad
        with pytest.raises(ValueError):
            rt.step(x_bad, ledger=led, activity=act)
        with pytest.raises(ValueError):
            rt.resync(x_bad)
        assert same_state(state(rt), before)
        assert led == led_before
        assert np.array_equal(act.l1, l1_before) and act.frames == 10
        # the runtime goes on as if the frame had never come
        got = np.array([rt.step(x) for x in X[10:]])
        assert np.array_equal(got, rounding_batch(net, X[10:]))

    @pytest.mark.parametrize("bad", [1e17, np.nan])
    def test_stream_refuses_and_charges_nothing(self, monkeypatch, bad):
        monkeypatch.setattr(network, "STREAM_CHUNK", 4)
        net = huge_frame_net()
        X = stream(np.random.default_rng(9), 20, 20, 0.9)
        X[13, 3] = bad  # in the fourth chunk
        led, act = OpLedger(int_adds=5), LayerActivity.for_network(net)
        experiments.sigma_delta_stream(net, X[:3], ledger=led, activity=act)
        led_before, l1_before = led.copy(), act.l1.copy()
        with pytest.raises(ValueError):
            experiments.sigma_delta_stream(net, X, ledger=led, activity=act)
        assert led == led_before
        assert np.array_equal(act.l1, l1_before) and act.frames == 3

    @pytest.mark.parametrize("where", ["weights", "bias"])
    def test_hidden_layer_refuses(self, monkeypatch, where):
        monkeypatch.setattr(network, "STREAM_CHUNK", 4)
        net = hidden_overflow_net(where)
        X = stream(np.random.default_rng(12), 20, 20, 0.9)
        x_bad = X[10] * 1000
        # the first layer alone takes the frame
        first = snap_to_grid(NetworkSpec(net.layers[:1]))
        SigmaDeltaRuntime(first).step(x_bad)
        network.sigma_delta_stream(first, x_bad[None])
        rt = SigmaDeltaRuntime(net)
        led, act = OpLedger(), LayerActivity.for_network(net)
        for x in X[:10]:
            rt.step(x, ledger=led, activity=act)
        before, led_before, l1_before = state(rt), led.copy(), act.l1.copy()
        with pytest.raises(ValueError):
            rt.step(x_bad, ledger=led, activity=act)
        with pytest.raises(ValueError):
            rt.resync(x_bad)
        assert same_state(state(rt), before)
        stream_led, stream_act = OpLedger(), LayerActivity.for_network(net)
        X[13] = x_bad  # in the fourth chunk
        with pytest.raises(ValueError):
            network.sigma_delta_stream(net, X, ledger=stream_led,
                                       activity=stream_act)
        assert stream_led == OpLedger() and stream_act.frames == 0
        assert led == led_before
        assert np.array_equal(act.l1, l1_before) and act.frames == 10
        got = np.array([rt.step(x) for x in X[10:13]])
        assert np.array_equal(got, rounding_batch(net, X[10:13]))
        assert np.array_equal(network.sigma_delta_stream(net, X[:13]),
                              rounding_batch(net, X[:13]))

    def test_sign_flip_past_headroom_is_refused(self):
        # each frame fits alone, but the change between them is twice
        # either frame's events: only the event-count bound sees it
        net = snap_to_grid(NetworkSpec(huge_frame_net().layers[:1]))
        x = np.zeros(20)
        x[3] = 0.3 * network.GRID_LIMIT / network._grid_weight_bound(
            net.layers[0])
        for frame in (x, -x):
            assert np.array_equal(network.sigma_delta_stream(net, frame[None]),
                                  forward_rounding(net, frame)[None])
        with pytest.raises(ValueError):
            network.sigma_delta_stream(net, np.stack([x, -x]))
        rt = SigmaDeltaRuntime(net)
        rt.step(x)
        with pytest.raises(ValueError):
            rt.step(-x)

    def test_step_and_stream_accept_the_same_windows(self):
        # x then -x: each frame's sums, and the change between them, stay
        # below GRID_LIMIT, though max|u| after x plus the change's bound
        # does not
        net = snap_to_grid(NetworkSpec(huge_frame_net().layers[:1]))
        x = np.zeros(20)
        x[3] = 0.2 * network.GRID_LIMIT / network._grid_weight_bound(
            net.layers[0])
        X = np.stack([x, -x])
        want = rounding_batch(net, X)
        rt = SigmaDeltaRuntime(net)
        assert np.array_equal(np.array([rt.step(f) for f in X]), want)
        assert np.array_equal(network.sigma_delta_stream(net, X), want)

    def test_frame_below_headroom_is_kept(self):
        # a large frame the grid can still add exactly is not refused
        net = huge_frame_net()
        x = np.full(20, 1e4)
        y = SigmaDeltaRuntime(net).step(x)
        assert np.array_equal(y, forward_rounding(net, x))
        assert np.array_equal(experiments.sigma_delta_stream(net, x[None]),
                              y[None])

    def test_float_net_is_not_checked(self):
        # off the grid the step keeps its old behaviour: no headroom check
        net = random_net(np.random.default_rng(10), [20, 10, 5])
        x = np.zeros(20)
        x[3] = 1e17
        SigmaDeltaRuntime(net).step(x)
