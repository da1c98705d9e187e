"""Every layer computes on its own grid (network.GRID_BITS): every executor
that rounds its layer inputs computes the same bits, whatever kernel, batch
shape, chunking or history, and a frame past a layer's headroom is
refused."""

import numpy as np
import pytest

import sigmadelta.experiments as experiments
import sigmadelta.network as network
from sigmadelta.costs import LayerActivity
from sigmadelta.data import gen_random_stream
from sigmadelta.kernels import OpLedger
from sigmadelta.network import (GRID_BITS, LayerSpec, NetworkSpec,
                                SigmaDeltaRuntime, forward_rounding,
                                rounding_batch)
from tests.test_network import random_net


def stream_nets(rng):
    """A relu/identity net and a net ending in softmax, each with its own
    scale per layer."""
    return [random_net(rng, [12, 9, 7, 4], scale_range=(0.5, 4.0)),
            random_net(rng, [10, 8, 6], acts=["relu", "softmax"],
                       scale_range=(0.5, 4.0))]


def stream(rng, n, d, smoothness):
    return gen_random_stream(rng, n, d, smoothness).frames


def stepped(net, X):
    """The reference: frame by frame through SigmaDeltaRuntime.step."""
    rt = SigmaDeltaRuntime(net)
    led, act = OpLedger(), LayerActivity.for_network(net)
    out = np.empty((len(X), net.output_dim))
    for t, x in enumerate(X):
        out[t] = rt.step(x, ledger=led, activity=act)
    return out, led, act


def streamed(net, X):
    led, act = OpLedger(), LayerActivity.for_network(net)
    return (experiments.sigma_delta_stream(net, X, ledger=led, activity=act),
            led, act)


def assert_same(got, want):
    (y, led, act), (y_want, led_want, act_want) = got, want
    assert np.array_equal(y, y_want)
    assert led == led_want
    assert np.array_equal(act.l1, act_want.l1)
    assert act.frames == act_want.frames == len(y)


def state(rt):
    return ([p.copy() for p in rt._prev], [u.copy() for u in rt._u],
            rt.frames)


def same_state(a, b):
    return (all(np.array_equal(x, y) for x, y in zip(a[0], b[0]))
            and all(np.array_equal(x, y) for x, y in zip(a[1], b[1]))
            and a[2] == b[2])


class TestGridSnapping:
    def test_scaled_weights_and_bias_on_the_grid(self):
        for net in stream_nets(np.random.default_rng(0)):
            for layer in net.layers:
                m = max(np.abs(layer.weights / layer.scale).max(),
                        np.abs(layer.bias).max())
                step = layer.grid.step
                assert step == 2.0 ** (np.ceil(np.log2(m)) - GRID_BITS)
                for a in (layer.scaled_weights(), layer.grid.bias):
                    assert np.array_equal(a / step, np.round(a / step))
                    assert not a.flags.writeable

    def test_snapping_is_nearest_and_idempotent(self):
        rng = np.random.default_rng(1)
        for layer in random_net(rng, [6, 5, 3]).layers:
            step = layer.grid.step
            assert (np.max(np.abs(layer.scaled_weights()
                                  - layer.weights / layer.scale))
                    <= step / 2)
            assert np.max(np.abs(layer.grid.bias - layer.bias)) <= step / 2
            again = LayerSpec(layer.scaled_weights() * layer.scale,
                              layer.grid.bias, layer.activation, layer.scale)
            assert np.array_equal(again.scaled_weights(), layer.scaled_weights())
            assert np.array_equal(again.grid.bias, layer.grid.bias)

    def test_tiny_parameters_keep_a_positive_step(self):
        # 2**(ceil(log2 m) - GRID_BITS) would underflow to 0 here
        layer = LayerSpec(np.full((3, 2), 1e-320), np.zeros(2), "identity")
        assert layer.grid.step == 2.0 ** -1074
        assert np.array_equal(layer.scaled_weights(), layer.weights)
        net = NetworkSpec([layer])
        X = np.array([[1.0, 2.0, 3.0], [4.0, 0.0, 1.0]])
        want = rounding_batch(net, X)
        assert want[0, 0] == 6 * layer.weights[0, 0] > 0
        assert np.array_equal(stepped(net, X)[0], want)

    def test_layer_without_inputs(self):
        # its bias is its output, as it was before layers snapped
        net = NetworkSpec([LayerSpec(np.zeros((0, 3)), np.ones(3), "identity")])
        assert np.array_equal(forward_rounding(net, np.zeros(0)), np.ones(3))
        assert np.array_equal(SigmaDeltaRuntime(net).step(np.zeros(0)),
                              np.ones(3))

    def test_with_scales_snaps_on_its_own_grid(self):
        # a finer scale shrinks W/k, and the step with it
        net = random_net(np.random.default_rng(2), [6, 5, 3],
                         scale_range=(1.0, 1.0))
        rescaled = net.with_scales([2.0 ** 10, 1.0])
        assert (rescaled.layers[0].grid.step
                < net.layers[0].grid.step)
        for raw, layer in zip(net.layers, rescaled.layers):
            assert layer.scaled_weights() is not raw.scaled_weights()
            assert (np.max(np.abs(layer.scaled_weights()
                                  - layer.weights / layer.scale))
                    <= layer.grid.step / 2)


class TestGridRecord:
    """LayerSpec.grid is built once per layer; the executors read its
    headroom instead of scanning W/k and the bias again."""

    def test_headroom_is_a_fresh_scan_of_the_snapped_arrays(self):
        layers = [l for net in stream_nets(np.random.default_rng(0))
                  for l in net.layers]
        layers += [LayerSpec(np.zeros((3, 2)), np.zeros(2), "identity"),
                   LayerSpec(np.full((3, 2), 1e-320), np.zeros(2), "identity"),
                   LayerSpec(np.zeros((0, 3)), np.ones(3), "identity")]
        assert layers[-3].grid.step == 2.0 ** -GRID_BITS
        assert layers[-2].grid.step == 2.0 ** -1074
        for layer in layers:
            grid = layer.grid
            assert layer.grid is grid
            assert grid.weights is layer.scaled_weights()
            # the weight bound is floored at one step
            assert grid.headroom == (
                max(np.abs(grid.weights).max(initial=0.0), grid.step),
                np.abs(grid.bias).max(initial=0.0), 2.0 ** 53 * grid.step)

    def test_second_stream_computes_no_bounds(self, monkeypatch):
        net = stream_nets(np.random.default_rng(3))[0]
        X = stream(np.random.default_rng(4), 30, net.input_dim, 0.9)
        want = experiments.sigma_delta_stream(net, X)
        calls, max_abs = [], network._max_abs

        def counted(a):
            calls.append(a.shape)
            return max_abs(a)

        monkeypatch.setattr(network, "_max_abs", counted)
        assert np.array_equal(experiments.sigma_delta_stream(net, X), want)
        assert np.array_equal(SigmaDeltaRuntime(net).step(X[0]), want[0])
        assert calls == []


class TestBitIdentity:
    @pytest.mark.parametrize("share", [0.0, 1.0, network.DENSE_DELTA_SHARE],
                             ids=["dense", "gather", "adaptive"])
    def test_step_stream_and_rounding_agree(self, monkeypatch, share):
        # share 0 sends every frame with events down the dense delta product,
        # share 1 every frame down the row gather
        monkeypatch.setattr(network, "DENSE_DELTA_SHARE", share)
        rng = np.random.default_rng(3)
        for net in stream_nets(rng):
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

    def test_20k_frames_with_resets(self):
        rng = np.random.default_rng(4)
        net = stream_nets(rng)[0]
        X = stream(rng, 20000, net.input_dim, 0.9)
        want = rounding_batch(net, X)
        assert np.array_equal(experiments.sigma_delta_stream(net, X), want)
        rt = SigmaDeltaRuntime(net)
        got = np.empty_like(want)
        for t, x in enumerate(X):
            if t % 5000 == 2500:
                rt.reset()
            got[t] = rt.step(x)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 14, 15, 30])
    def test_chunk_boundaries(self, monkeypatch, n):
        # chunks of 7 frames: outputs, ledger and activity are the step's
        monkeypatch.setattr(network, "STREAM_CHUNK", 7)
        rng = np.random.default_rng(6)
        for net in stream_nets(rng):
            X = stream(rng, 30, net.input_dim, 0.8)[:n]
            got = streamed(net, X)
            assert got[0].shape == (n, net.output_dim)
            assert_same(got, stepped(net, X))
            assert np.array_equal(got[0], rounding_batch(net, X))


def huge_frame_net():
    rng = np.random.default_rng(7)
    return NetworkSpec([
        LayerSpec(rng.standard_normal((20, 10)) / 4, rng.standard_normal(10),
                  "relu", 2.0),
        LayerSpec(rng.standard_normal((10, 5)) / 3, rng.standard_normal(5),
                  "identity", 1.0),
    ])


def hidden_overflow(where, x):
    """A net whose second layer alone runs out of headroom on a frame made
    from the stream frame x, and that frame.

    weights: 1000 * x, whose events at the second layer (scale 256) times
    its largest weight (2**20 / 256, which sets its grid) pass the layer's
    limit, 2**17 such weights.  bias: on an integer net, a frame whose
    second-layer input has 2**17 - 1 unit events at unit weight, which
    the layer's unit bias takes to its limit, 2**17."""
    rng = np.random.default_rng(11)
    w2, b2 = rng.standard_normal((10, 5)) / 3, rng.standard_normal(5)
    if where == "weights":
        w2[0, 0] = 2.0 ** 20
        first = LayerSpec(rng.standard_normal((20, 10)) / 4,
                          rng.standard_normal(10), "relu", 2.0)
        return NetworkSpec([first, LayerSpec(w2, b2, "identity", 256.0)]), \
            1000 * x
    w2, b2 = np.clip(w2, -0.9, 0.9), np.clip(b2, -0.9, 0.9)
    w2[0, 0] = b2[0] = 1.0
    # the first layer passes x[:10] on, plus 2 at unit 9; that bias sets
    # its grid, so it takes 2**18 unit events
    b1 = np.zeros(10)
    b1[9] = 2.0
    first = LayerSpec(np.eye(20)[:, :10], b1, "relu", 1.0)
    x_bad = np.zeros(20)
    x_bad[:10] = 13106.0
    x_bad[0] += 2 ** 17 - 3 - 10 * 13106
    return NetworkSpec([first, LayerSpec(w2, b2, "identity", 1.0)]), x_bad


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
        assert same_state(state(rt), before)
        assert led == led_before
        assert np.array_equal(act.l1, l1_before) and act.frames == 10
        # the runtime goes on as if the frame had never come
        got = np.array([rt.step(x) for x in X[10:]])
        assert np.array_equal(got, rounding_batch(net, X[10:]))

    def test_stateless_passes_take_a_frame_past_the_limit(self):
        # new coverage, pinning today's behaviour: the step refuses this
        # frame, the stateless rounding passes refuse no finite frame and
        # return finite outputs, whose sums are no longer exact
        net = huge_frame_net()
        x = stream(np.random.default_rng(8), 20, 20, 0.9)[10].copy()
        x[3] = 1e17
        w, b, limit = net.layers[0].grid.headroom
        s = np.abs(np.round(net.layers[0].scale * x)).sum()
        assert s * w + b >= limit  # past the first layer's limit
        with pytest.raises(ValueError):
            SigmaDeltaRuntime(net).step(x)
        assert np.all(np.isfinite(forward_rounding(net, x)))
        assert np.all(np.isfinite(rounding_batch(net, x[None])))

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
        X = stream(np.random.default_rng(12), 20, 20, 0.9)
        net, x_bad = hidden_overflow(where, X[10])
        # the first layer alone takes the frame
        first = NetworkSpec(net.layers[:1])
        SigmaDeltaRuntime(first).step(x_bad)
        network.sigma_delta_stream(first, x_bad[None])
        if where == "bias":
            # one event fewer fits: the bias is what the frame cannot take
            x_less = x_bad.copy()
            x_less[0] -= 1
            SigmaDeltaRuntime(net).step(x_less)
            network.sigma_delta_stream(net, x_less[None])
        rt = SigmaDeltaRuntime(net)
        led, act = OpLedger(), LayerActivity.for_network(net)
        for x in X[:10]:
            rt.step(x, ledger=led, activity=act)
        before, led_before, l1_before = state(rt), led.copy(), act.l1.copy()
        with pytest.raises(ValueError):
            rt.step(x_bad, ledger=led, activity=act)
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
        net = NetworkSpec(huge_frame_net().layers[:1])
        w, _, limit = net.layers[0].grid.headroom
        x = np.zeros(20)
        x[3] = 0.3 * limit / w
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
        # below the layer's limit, though max|u| after x plus the change's
        # bound does not
        net = NetworkSpec(huge_frame_net().layers[:1])
        w, _, limit = net.layers[0].grid.headroom
        x = np.zeros(20)
        x[3] = 0.2 * limit / w
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

    @pytest.mark.parametrize("bad", [1e17, 1e306])
    def test_float_constructed_net_refuses_huge_frames(self, monkeypatch, bad):
        # a net built from float parameters, snapped by nobody but its
        # layers: a finite huge frame is refused, not absorbed into the
        # integrals, where it would spoil every later frame
        monkeypatch.setattr(network, "STREAM_CHUNK", 4)
        net = random_net(np.random.default_rng(10), [20, 10, 5])
        X = stream(np.random.default_rng(13), 20, 20, 0.9)
        rt = SigmaDeltaRuntime(net)
        led, act = OpLedger(), LayerActivity.for_network(net)
        for x in X[:10]:
            rt.step(x, ledger=led, activity=act)
        before, led_before, l1_before = state(rt), led.copy(), act.l1.copy()
        x_bad = X[10].copy()
        x_bad[3] = bad
        with pytest.raises(ValueError):
            rt.step(x_bad, ledger=led, activity=act)
        window = X.copy()
        window[13] = x_bad  # in the fourth chunk
        with pytest.raises(ValueError):
            network.sigma_delta_stream(net, window, ledger=led, activity=act)
        assert same_state(state(rt), before)
        assert led == led_before
        assert np.array_equal(act.l1, l1_before) and act.frames == 10
        got = np.array([rt.step(x) for x in X[10:]])
        assert np.array_equal(got, rounding_batch(net, X[10:]))
