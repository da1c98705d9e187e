import json

import numpy as np
import pytest

from sigmadelta.costs import LayerActivity, flops_sigma_delta
from sigmadelta.kernels import OpLedger
from sigmadelta.data import gen_random_network
from sigmadelta.mlp import train_mlp
from sigmadelta.network import (DENSE_DELTA_SHARE, LayerSpec, NetworkSpec,
                                SigmaDeltaRuntime, TemporalDiffRuntime,
                                bake_scales, dense_batch, forward_original,
                                forward_rounding, load_network, rounding_batch,
                                save_network, softmax)
from sigmadelta.quantizers import round_half_away


def random_net(rng, dims, acts=None, scale_range=(0.5, 2.0)):
    acts = acts or ["relu"] * (len(dims) - 2) + ["identity"]
    layers = []
    for i, act in enumerate(acts):
        W = rng.standard_normal((dims[i], dims[i + 1])) / np.sqrt(dims[i])
        b = rng.standard_normal(dims[i + 1]) * 0.1
        k = float(rng.uniform(*scale_range))
        layers.append(LayerSpec(W, b, act, k))
    return NetworkSpec(layers)


class TestSpecValidation:
    def test_dims_must_chain(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            NetworkSpec([
                LayerSpec(rng.standard_normal((3, 4)), np.zeros(4)),
                LayerSpec(rng.standard_normal((5, 2)), np.zeros(2)),
            ])

    def test_softmax_only_last(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            NetworkSpec([
                LayerSpec(rng.standard_normal((3, 4)), np.zeros(4), "softmax"),
                LayerSpec(rng.standard_normal((4, 2)), np.zeros(2)),
            ])

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            LayerSpec(np.eye(2), np.zeros(2), "relu", 0.0)
        with pytest.raises(ValueError):
            LayerSpec(np.eye(2), np.zeros(2), "relu", -1.0)
        with pytest.raises(ValueError):
            LayerSpec(np.eye(2), np.zeros(2), "relu", np.nan)
        with pytest.raises(ValueError):
            LayerSpec(np.eye(2), np.zeros(2), "relu", np.inf)

    @pytest.mark.parametrize("scale", [{}, object()], ids=["dict", "object"])
    def test_unreadable_scale_refused(self, scale):
        with pytest.raises(ValueError):
            LayerSpec(np.eye(2), np.zeros(2), "relu", scale)

    @pytest.mark.parametrize("scale", [np.ones(2), [1.0, 2.0], np.ones(3),
                                       np.ones(1), np.ones((1, 1))],
                             ids=["d_in", "list", "wrong-length", "one",
                                  "2-d"])
    def test_vector_scale_refused(self, scale):
        # one scale per layer: a vector over the inputs is not one
        with pytest.raises(ValueError, match="one number"):
            LayerSpec(np.eye(2), np.zeros(2), "relu", scale)

    @pytest.mark.parametrize("scale", [True, np.bool_(False), np.array(True),
                                       "2.5", np.str_("2.5"), b"2"],
                             ids=["bool", "np-bool", "0-d-bool", "str",
                                  "np-str", "bytes"])
    def test_bool_or_string_scale_refused(self, scale):
        # as load_network refuses them in a file
        with pytest.raises(ValueError, match="numeric"):
            LayerSpec(np.eye(2), np.zeros(2), "relu", scale)

    @pytest.mark.parametrize("scale", [2, np.float64(0.75), np.array(1.5),
                                       np.float32(0.5)],
                             ids=["int", "float64", "0-d", "float32"])
    def test_scale_is_a_python_float(self, scale):
        layer = LayerSpec(np.eye(2), np.zeros(2), "relu", scale)
        assert type(layer.scale) is float and layer.scale == float(scale)
        assert type(layer.with_scale(scale).scale) is float

    def test_scaled_weights_computed_once_read_only(self):
        rng = np.random.default_rng(2)
        layer = LayerSpec(rng.standard_normal((4, 3)), np.zeros(3), "relu",
                          float(rng.uniform(0.5, 2.0)))
        wk = layer.scaled_weights()
        assert layer.scaled_weights() is wk
        # W/k rounded to the nearest multiple of the layer's grid step
        step = layer.grid.step
        assert np.array_equal(
            wk, round_half_away(layer.weights / layer.scale / step) * step)
        assert not wk.flags.writeable
        with pytest.raises(ValueError):
            wk[0, 0] = 1.0
        rescaled = layer.with_scale(2.0)
        assert rescaled.scaled_weights() is not wk
        step = rescaled.grid.step
        assert np.array_equal(rescaled.scaled_weights(),
                              round_half_away(layer.weights / 2.0 / step) * step)

    def test_dims_property(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, [5, 4, 3])
        assert net.dims == (5, 4, 3)


def misaligned(a, offset):
    """A writable copy of a whose data sits offset bytes past a 64-byte
    boundary."""
    buf = np.empty(a.nbytes + 128, dtype=np.uint8)
    lo = -buf.ctypes.data % 64 + offset
    out = buf[lo:lo + a.nbytes].view(np.float64).reshape(a.shape)
    out[...] = a
    return out


def on_misaligned_arrays(net, offset):
    """net with each layer's weights and grid W/k moved offset bytes off a
    64-byte boundary, past what LayerSpec's own copy allows."""
    layers = []
    for layer in net.layers:
        moved = layer.with_scale(layer.scale)
        object.__setattr__(moved, "weights", misaligned(layer.weights, offset))
        moved.__dict__["grid"] = layer.grid._replace(
            weights=misaligned(layer.grid.weights, offset))
        layers.append(moved)
    return NetworkSpec(layers)


def assert_owned(a):
    assert a.dtype == np.float64 and a.flags.c_contiguous
    assert a.ctypes.data % 64 == 0
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a.flat[0] = 1.0


class TestOwnedParameters:
    def test_caller_edits_reach_no_layer(self):
        # the stale grid: a layer that kept a caller's float64 arrays
        # uncopied let the dense pass read a later edit, and a grid built
        # after the edit round it
        W, b = np.eye(2), np.zeros(2)
        net = NetworkSpec([LayerSpec(W, b, "identity", 1.0)])
        W[:] = 3 * np.eye(2)
        b[:] = 1.0
        x = [1.2, 0.9]
        assert np.array_equal(forward_original(net, x), [1.2, 0.9])
        assert np.array_equal(forward_rounding(net, x), [1.0, 1.0])
        layer = net.layers[0]
        assert np.array_equal(layer.weights, np.eye(2))
        assert np.array_equal(layer.bias, np.zeros(2))
        for a in (layer.weights, layer.bias):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 5.0

    def test_every_constructor_aligns(self, tmp_path):
        rng = np.random.default_rng(40)
        net = random_net(rng, [7, 6, 5, 3])
        save_network(net, tmp_path / "net.json")
        X = rng.standard_normal((60, 7))
        trained, _ = train_mlp(X, rng.integers(0, 3, 60), dims=(7, 6, 3),
                               rng=rng, epochs=1, target_acc=0.0)
        for built in (net, net.with_scales([0.5, 2.0, 3.0]), bake_scales(net),
                      load_network(tmp_path / "net.json"),
                      gen_random_network(rng, dims=(9, 8, 4, 2)), trained):
            for layer in built.layers:
                for a in (layer.weights, layer.bias, layer.grid.weights):
                    assert_owned(a)

    def test_with_scales_shares_the_parameters(self):
        net = random_net(np.random.default_rng(41), [6, 5, 4])
        rescaled = net.with_scales([3.0, 0.25])
        for a, b in zip(net.layers, rescaled.layers):
            assert b.weights is a.weights and b.bias is a.bias
            assert np.shares_memory(b.weights, a.weights)
            assert np.shares_memory(b.bias, a.bias)
            # its own grid, at its own scale
            assert not np.shares_memory(b.grid.weights, a.grid.weights)

    @pytest.mark.parametrize("scales", [[], [2.0], [2.0, 1.0, 0.5]],
                             ids=["none", "short", "long"])
    def test_with_scales_refuses_a_wrong_count(self, scales):
        net = random_net(np.random.default_rng(41), [6, 5, 4])
        with pytest.raises(ValueError, match="one scale per layer"):
            net.with_scales(scales)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, np.ones(6)],
                             ids=["zero", "negative", "nan", "inf",
                                  "vector-over-inputs"])
    def test_with_scales_refuses_a_bad_scale(self, bad):
        # what a warm start of the optimizer goes through: a scale that is
        # not one positive finite number is refused, not started from
        net = random_net(np.random.default_rng(41), [6, 5, 4])
        with pytest.raises(ValueError, match="scale must be"):
            net.with_scales([bad, 1.0])

    def test_a_callers_array_is_never_shared(self):
        W = np.eye(3)
        layer = LayerSpec(W, np.zeros(3), "relu", 1.0).with_scale(2.0)
        assert not np.shares_memory(layer.weights, W)

    @pytest.mark.parametrize("offset", [16, 32, 48])
    def test_outputs_do_not_depend_on_alignment(self, offset):
        # BLAS may take another code path on an unaligned matrix; every
        # executor must still give the aligned layers' bits
        rng = np.random.default_rng(42)
        net = gen_random_network(rng, dims=(784, 200, 200, 10)).with_scales(
            [8.0, 4.0, 4.0])
        moved = on_misaligned_arrays(net, offset)
        for a, b in zip(net.layers, moved.layers):
            assert b.weights.ctypes.data % 64 == offset
            assert b.grid.weights.ctypes.data % 64 == offset
            assert np.array_equal(a.weights, b.weights)
        X = np.cumsum(0.3 * rng.standard_normal((30, 784)), axis=0)
        X[5:8] = X[4]
        for batch in (dense_batch, rounding_batch):
            assert np.array_equal(batch(moved, X), batch(net, X))
        for forward in (forward_original, forward_rounding):
            assert np.array_equal(
                np.array([forward(moved, x) for x in X]),
                np.array([forward(net, x) for x in X]))
        for runtime in (TemporalDiffRuntime, SigmaDeltaRuntime):
            got, want = runtime(moved), runtime(net)
            assert np.array_equal(np.array([got.step(x) for x in X]),
                                  np.array([want.step(x) for x in X]))


class TestForwardOriginal:
    def test_zero_net_gives_zero(self):
        net = NetworkSpec([LayerSpec(np.zeros((3, 2)), np.zeros(2), "relu")])
        assert np.array_equal(forward_original(net, [1.0, -1.0, 2.0]), [0, 0])

    def test_hand_computed_two_layer(self):
        net = NetworkSpec([
            LayerSpec(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, -1.0]),
                      "relu"),
            LayerSpec(np.array([[2.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5]),
                      "identity"),
        ])
        # layer 1: relu([2, 3] + [0, -1]) = [2, 2]; layer 2: [4+2, 2] + 0.5
        out = forward_original(net, [2.0, 3.0])
        assert np.allclose(out, [6.5, 2.5])

    def test_shape_error(self):
        rng = np.random.default_rng(2)
        net = random_net(rng, [4, 3])
        with pytest.raises(ValueError):
            forward_original(net, np.zeros(5))


class TestForwardRounding:
    def test_rejects_non_finite_frame(self):
        rng = np.random.default_rng(4)
        net = random_net(rng, [4, 3])
        for bad in ([np.nan, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, np.inf]):
            # the dense pass rejects the same frames
            for forward in (forward_rounding, forward_original):
                with pytest.raises(ValueError):
                    forward(net, np.array(bad))

    def test_fine_quantization_approaches_original(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, [10, 8, 6], scale_range=(1.0, 1.0))
        x = rng.standard_normal(10)
        want = forward_original(net, x)
        fine = net.with_scales([1e6] * 2)
        got = forward_rounding(fine, x)
        assert np.max(np.abs(got - want)) < 1e-3

    def test_lossless_on_integers(self):
        rng = np.random.default_rng(4)
        W1 = rng.integers(-3, 4, size=(5, 4)).astype(float)
        W2 = rng.integers(-3, 4, size=(4, 3)).astype(float)
        net = NetworkSpec([
            LayerSpec(W1, np.zeros(4), "identity", 1.0),
            LayerSpec(W2, np.zeros(3), "identity", 1.0),
        ])
        x = rng.integers(-5, 6, size=5).astype(float)
        assert np.array_equal(forward_rounding(net, x),
                              forward_original(net, x))

    def test_matches_event_free_reference(self):
        # same math both ways: events into weights/k vs dense (s/k) @ W
        rng = np.random.default_rng(6)
        for _ in range(20):
            net = random_net(rng, [7, 9, 5], scale_range=(0.3, 3.0))
            x = rng.standard_normal(7) * 3
            a = x
            for layer in net.layers:
                k = np.asarray(layer.scale)
                s = np.sign(a * k) * np.floor(np.abs(a * k) + 0.5)
                u = (s / k) @ layer.weights + layer.bias
                a = np.maximum(u, 0) if layer.activation == "relu" else u
            assert np.max(np.abs(forward_rounding(net, x) - a)) < 1e-9


class TestTemporalDiffNet:
    def test_single_frame_equals_original(self):
        rng = np.random.default_rng(7)
        net = random_net(rng, [12, 10, 8])
        rt = TemporalDiffRuntime(net)
        x = rng.standard_normal(12)
        assert np.max(np.abs(rt.step(x) - forward_original(net, x))) < 1e-9

    def test_stream_equals_original_per_frame(self):
        rng = np.random.default_rng(8)
        # identity hidden layers hand a layer's own integral to the next
        # layer as its input; the runtime must not alias the two
        for dims, acts in (([12, 10, 8], None),
                           ([12, 10, 9, 8], ["relu", "identity", "identity"])):
            net = random_net(rng, dims, acts)
            rt = TemporalDiffRuntime(net)
            for _ in range(100):
                x = rng.standard_normal(12)
                assert np.max(np.abs(rt.step(x)
                                     - forward_original(net, x))) < 1e-6

    def test_caller_may_reuse_frame_buffer(self):
        rng = np.random.default_rng(27)
        net = random_net(rng, [6, 5, 4])
        rt = TemporalDiffRuntime(net)
        x = np.empty(6)
        for _ in range(20):
            x[:] = rng.standard_normal(6)
            assert np.max(np.abs(rt.step(x) - forward_original(net, x))) < 1e-6

    def test_constant_stream_zero_deltas(self):
        rng = np.random.default_rng(9)
        net = random_net(rng, [5, 4])
        rt = TemporalDiffRuntime(net)
        x = rng.standard_normal(5)
        rt.step(x)
        u_after_first = [u.copy() for u in rt._u]
        rt.step(x)
        for a, b in zip(u_after_first, rt._u):
            assert np.array_equal(a, b)


class TestSigmaDeltaNet:
    def test_first_frame_equals_rounding(self):
        rng = np.random.default_rng(11)
        net = random_net(rng, [9, 7, 5], scale_range=(0.5, 2.0))
        rt = SigmaDeltaRuntime(net)
        x = rng.standard_normal(9)
        assert np.max(np.abs(rt.step(x) - forward_rounding(net, x))) < 1e-9

    def test_repeated_frame_costs_nothing(self):
        rng = np.random.default_rng(12)
        net = random_net(rng, [9, 7, 5])
        rt = SigmaDeltaRuntime(net)
        x = rng.standard_normal(9)
        rt.step(x)
        led = OpLedger()
        act = LayerActivity.for_network(net)
        y2 = rt.step(x, ledger=led, activity=act)
        assert act.l1[0] == 0  # no input-layer events on an unchanged frame
        assert led.int_adds == 0  # unchanged input -> unchanged everything
        assert np.max(np.abs(y2 - forward_rounding(net, x))) < 1e-9

    def test_stream_equals_rounding_per_frame(self):
        rng = np.random.default_rng(13)
        net = random_net(rng, [16, 12, 8], scale_range=(0.3, 3.0))
        rt = SigmaDeltaRuntime(net)
        x = np.zeros(16)
        for _ in range(300):
            x = 0.7 * x + rng.standard_normal(16)
            ys = rt.step(x)
            yr = forward_rounding(net, x)
            rel = np.max(np.abs(ys - yr)) / (np.max(np.abs(yr)) + 1e-12)
            assert rel < 1e-6

    def test_history_independence(self):
        rng = np.random.default_rng(14)
        net = random_net(rng, [10, 8, 6])
        frames = rng.standard_normal((50, 10))
        rt = SigmaDeltaRuntime(net)
        out1 = np.array([rt.step(x) for x in frames])
        perm = rng.permutation(50)
        rt2 = SigmaDeltaRuntime(net)
        out2 = np.array([rt2.step(x) for x in frames[perm]])
        ref = np.array([forward_rounding(net, x) for x in frames])
        assert np.max(np.abs(out1 - ref)) < 1e-6
        assert np.max(np.abs(out2 - ref[perm])) < 1e-6

    def test_exact_for_integer_weights_unit_scale(self):
        rng = np.random.default_rng(15)
        W1 = rng.integers(-2, 3, size=(8, 6)).astype(float)
        W2 = rng.integers(-2, 3, size=(6, 4)).astype(float)
        net = NetworkSpec([
            LayerSpec(W1, rng.integers(-2, 3, size=6).astype(float), "relu", 1.0),
            LayerSpec(W2, rng.integers(-2, 3, size=4).astype(float), "identity", 1.0),
        ])
        rt = SigmaDeltaRuntime(net)
        x = np.zeros(8)
        for t in range(200):
            # i.i.d. frames change most rows (dense delta product); the
            # frames after them change one input or none (row gather)
            if t % 3 == 0:
                x = rng.integers(-4, 5, size=8).astype(float)
            elif t % 3 == 1:
                x = x.copy()
                x[rng.integers(8)] += 1.0
            y = rt.step(x)
            assert np.array_equal(y, forward_rounding(net, x))
        assert rt.frames == 200

    def test_softmax_output_layer(self):
        rng = np.random.default_rng(16)
        net = random_net(rng, [8, 6, 4], acts=["relu", "softmax"])
        rt = SigmaDeltaRuntime(net)
        for _ in range(20):
            x = rng.standard_normal(8)
            ys = rt.step(x)
            assert abs(ys.sum() - 1.0) < 1e-12
            assert np.max(np.abs(ys - forward_rounding(net, x))) < 1e-9

    def test_event_counts_are_rounded_input_changes(self):
        # layer-0 events are exactly |round(k x_t) - round(k x_{t-1})|_1,
        # with the previous rounded input cleared by reset() and set by an
        # uncounted step
        rng = np.random.default_rng(23)
        net = random_net(rng, [12, 9, 5], scale_range=(0.5, 4.0))
        k = net.layers[0].scale
        rt = SigmaDeltaRuntime(net)
        led, act = OpLedger(), LayerActivity.for_network(net)
        prev, want = np.zeros(12), 0
        x = np.zeros(12)
        for t in range(300):
            x = 0.9 * x + 0.5 * rng.standard_normal(12)
            r = round_half_away(k * x)
            if t == 100:
                rt.reset()
                prev = np.zeros(12)
            if t == 200:
                rt.reset()
                rt.step(x)
            else:
                rt.step(x, ledger=led, activity=act)
                want += int(np.abs(r - prev).sum())
            prev = r
        assert act.l1[0] == want
        assert led.int_adds == flops_sigma_delta(act)
        assert led.float_adds == led.float_mults == led.int_mults == 0

    def test_both_kernels_match_rounding(self):
        # i.i.d. jumps, nudges of a few inputs and held frames, so that
        # every layer adds both the dense delta product and the row gather
        rng = np.random.default_rng(26)
        net = random_net(rng, [24, 16, 12])
        k = net.layers[0].scale
        rt = SigmaDeltaRuntime(net)
        led, act = OpLedger(), LayerActivity.for_network(net)
        prev, want = np.zeros(24), 0
        kernels = np.zeros((2, 2), dtype=int)  # layer x (gather, dense)
        for t in range(240):
            if t % 4 == 0:
                x = rng.standard_normal(24)
            elif t % 4 == 1:
                x = x.copy()
                x[rng.integers(24, size=3)] += rng.standard_normal(3)
            before = list(rt._prev)
            ys = rt.step(x, ledger=led, activity=act)
            yr = forward_rounding(net, x)
            assert np.max(np.abs(ys - yr)) / (np.max(np.abs(yr)) + 1e-12) < 1e-6
            r = round_half_away(k * x)
            want += int(np.abs(r - prev).sum())
            prev = r
            for i, (new, old) in enumerate(zip(rt._prev, before)):
                rows = np.count_nonzero(new - old)
                if rows:
                    kernels[i, int(rows > DENSE_DELTA_SHARE * old.size)] += 1
        assert np.all(kernels > 0)
        assert act.l1[0] == want
        assert led.int_adds == flops_sigma_delta(act)

    def test_reset_reloads_bias(self):
        rng = np.random.default_rng(18)
        net = random_net(rng, [5, 4])
        rt = SigmaDeltaRuntime(net)
        rt.step(rng.standard_normal(5))
        rt.reset()
        assert np.array_equal(rt._u[0], net.layers[0].grid.bias)
        assert rt.frames == 0


class TestBakeScales:
    def test_unit_scales_unchanged(self):
        rng = np.random.default_rng(20)
        net = random_net(rng, [6, 5, 4], scale_range=(1.0, 1.0))
        baked = bake_scales(net)
        for a, b in zip(net.layers, baked.layers):
            assert np.allclose(a.weights, b.weights)
            assert np.allclose(a.bias, b.bias)
            assert np.asarray(b.scale) == 1.0

    def test_hidden_scales_fold_to_one(self):
        rng = np.random.default_rng(21)
        net = random_net(rng, [6, 5, 4, 3], scale_range=(0.25, 4.0))
        baked = bake_scales(net)
        assert np.asarray(baked.layers[0].scale) == np.asarray(net.layers[0].scale)
        for layer in baked.layers[1:]:
            assert np.asarray(layer.scale) == 1.0

    def test_function_preserved_exactly(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            net = random_net(rng, [7, 6, 5, 4], scale_range=(0.25, 4.0))
            baked = bake_scales(net)
            for _ in range(10):
                x = rng.standard_normal(7) * 2
                got = forward_rounding(baked, x)
                want = forward_rounding(net, x)
                assert np.max(np.abs(got - want)) < 1e-9

    def test_sigma_delta_agrees_after_baking(self):
        rng = np.random.default_rng(23)
        net = random_net(rng, [6, 5, 4], scale_range=(0.5, 3.0))
        baked = bake_scales(net)
        rt_a, rt_b = SigmaDeltaRuntime(net), SigmaDeltaRuntime(baked)
        for _ in range(50):
            x = rng.standard_normal(6)
            ya = rt_a.step(x)
            yb = rt_b.step(x)
            assert np.max(np.abs(ya - yb)) < 1e-6

    def test_softmax_output_allowed(self):
        rng = np.random.default_rng(25)
        net = random_net(rng, [6, 5, 4], acts=["relu", "softmax"],
                         scale_range=(0.5, 2.0))
        baked = bake_scales(net)
        x = rng.standard_normal(6)
        assert np.max(np.abs(forward_rounding(baked, x)
                             - forward_rounding(net, x))) < 1e-12

    def test_softmax_hidden_rejected_by_spec(self):
        rng = np.random.default_rng(26)
        with pytest.raises(ValueError):
            NetworkSpec([
                LayerSpec(rng.standard_normal((4, 3)), np.zeros(3), "softmax"),
                LayerSpec(rng.standard_normal((3, 2)), np.zeros(2)),
            ])


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(27)
        net = random_net(rng, [6, 5, 4], acts=["relu", "softmax"],
                         scale_range=(0.5, 2.0))
        path = tmp_path / "net.json"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.dims == net.dims
        for a, b in zip(net.layers, loaded.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
            assert a.activation == b.activation
            assert type(b.scale) is float and b.scale == a.scale
            # the same grid, so the same rounding bits
            assert np.array_equal(a.grid.weights, b.grid.weights)
            assert np.array_equal(a.grid.bias, b.grid.bias)
        x = rng.standard_normal(6)
        assert np.array_equal(forward_original(net, x),
                              forward_original(loaded, x))
        assert np.array_equal(forward_rounding(net, x),
                              forward_rounding(loaded, x))

    def test_integer_scale_loads_as_a_float(self, tmp_path):
        path = tmp_path / "net.json"
        save_network(random_net(np.random.default_rng(28), [3, 2]), path)
        doc = json.loads(path.read_text())
        doc["layers"][0]["scale"] = 3
        path.write_text(json.dumps(doc))
        scale = load_network(path).layers[0].scale
        assert type(scale) is float and scale == 3.0

    def test_bad_file_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ValueError):
            load_network(p)

    @pytest.mark.parametrize("edit", [
        lambda doc: [1, 2],
        lambda doc: {k: v for k, v in doc.items() if k != "layers"},
        lambda doc: dict(doc, layers={"0": doc["layers"][0]}),
        lambda doc: dict(doc, layers=[5]),
        lambda doc: dict(doc, layers=[{k: v for k, v in doc["layers"][0].items()
                                       if k != "weights"}]),
        lambda doc: dict(doc, layers=[{k: v for k, v in doc["layers"][0].items()
                                       if k != "scale"}]),
        lambda doc: dict(doc, layers=[dict(doc["layers"][0], weights=5)]),
        lambda doc: dict(doc, layers=[dict(doc["layers"][0], d_in="3")]),
        lambda doc: dict(doc, layers=[dict(doc["layers"][0], scale={})]),
        lambda doc: dict(doc, layers=[dict(doc["layers"][0], scale="1.5")]),
        lambda doc: dict(doc, layers=[dict(doc["layers"][0], scale=True)]),
        lambda doc: dict(doc, layers=[dict(doc["layers"][0], scale=[1, "2", 3])]),
        lambda doc: dict(doc, layers=[dict(doc["layers"][0],
                                           scale=[1.5] * doc["layers"][0]["d_in"])]),
        # the bias's 2 floats fill a 1x2 weight matrix: only the type is wrong
        lambda doc: dict(doc, layers=[dict(doc["layers"][0], d_in=True,
                                           weights=doc["layers"][0]["bias"])])],
        ids=["json-list", "no-layers", "layers-not-a-list", "layer-not-a-dict",
             "layer-without-weights", "layer-without-scale", "weights-not-a-string",
             "d_in-not-an-int", "scale-an-object", "scale-a-string",
             "scale-a-boolean", "scale-list-with-a-string", "scale-a-list",
             "d_in-a-boolean"])
    def test_malformed_document_rejected(self, tmp_path, edit):
        path = tmp_path / "net.json"
        save_network(random_net(np.random.default_rng(29), [3, 2]), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError):
            load_network(path)


def test_softmax_is_stable_and_normalized():
    u = np.array([1000.0, 1000.0, 999.0])
    p = softmax(u)
    assert np.isfinite(p).all()
    assert abs(p.sum() - 1) < 1e-12


BAD_FRAMES = [pytest.param(np.array([np.nan] + [0.0] * 7), id="nan"),
              pytest.param(np.array([0.0] * 7 + [np.inf]), id="inf"),
              pytest.param(np.zeros(7), id="short"),
              pytest.param(np.zeros((1, 8)), id="2d")]


class TestRejectedFrame:
    """A bad frame is rejected before any state changes, so the stream
    continues as if it had never been sent."""

    @pytest.mark.parametrize("bad", BAD_FRAMES)
    @pytest.mark.parametrize("runtime", [TemporalDiffRuntime, SigmaDeltaRuntime])
    def test_step(self, runtime, bad):
        rng = np.random.default_rng(24)
        net = random_net(rng, [8, 6, 4])
        clean, hit = runtime(net), runtime(net)
        for t, x in enumerate(rng.standard_normal((12, 8))):
            if t == 5:
                with pytest.raises(ValueError):
                    hit.step(bad)
            assert np.array_equal(hit.step(x), clean.step(x))

    @pytest.mark.parametrize("case", ["overflow", "wrong_activity_kind"])
    def test_sigma_delta_unrecordable_frame(self, case):
        # a frame the ledger and activity could not count: an event count
        # past int64, refused before the layer adds it, or an activity that
        # already holds dense nonzero counts, which raises after every layer
        # has been computed
        rng = np.random.default_rng(27)
        net = gen_random_network(rng, dims=(20, 10, 5), factors=(1.0, 1.0))
        clean, hit = SigmaDeltaRuntime(net), SigmaDeltaRuntime(net)
        led, act = OpLedger(), LayerActivity.for_network(net)
        if case == "overflow":
            bad = np.full(20, 1e19)
        else:
            act.record_frame(nonzero=[20, 10])
            bad = rng.standard_normal(20)
        for t, x in enumerate(rng.standard_normal((12, 20))):
            if t == 5:
                ops, l1, nonzero = led.total_ops, act.l1.copy(), act.nonzero.copy()
                with pytest.raises(ValueError):
                    hit.step(bad, ledger=led, activity=act)
                assert hit.frames == clean.frames == 5
                assert led.total_ops == ops
                assert np.array_equal(act.l1, l1)
                assert np.array_equal(act.nonzero, nonzero)
                assert act.frames == (0 if case == "overflow" else 1)
            assert np.array_equal(hit.step(x, ledger=led), clean.step(x))
        assert hit.frames == clean.frames == 12
