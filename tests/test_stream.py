"""sigma_delta_stream is the step: its outputs, ledger and LayerActivity
to the bit, whatever the kernel share or network, and a window it refuses
charges nothing."""

import numpy as np
import pytest

import sigmadelta.network as network
from sigmadelta.costs import LayerActivity
from sigmadelta.data import gen_random_network
from sigmadelta.kernels import OpLedger
from sigmadelta.network import (LayerSpec, NetworkSpec, SigmaDeltaRuntime,
                                sigma_delta_stream)
from tests.test_grid import (assert_same, stepped, stream, stream_nets,
                             streamed)
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
