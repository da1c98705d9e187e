import numpy as np
import pytest

import sigmadelta.scale_opt as scale_opt
from sigmadelta.costs import LayerActivity, flops_rounding, flops_sigma_delta
from sigmadelta.data import gen_random_network, gen_random_stream
from sigmadelta.experiments import dense_batch, rounding_batch
from sigmadelta.network import LayerSpec, NetworkSpec
from sigmadelta.scale_opt import (DivergenceError, TradeoffConfig, error_loss,
                                  grad_kappa, optimize, scaled_forward,
                                  update_scales)
from tests.test_network import random_net


class TestErrorLoss:
    def test_zero_at_equality(self):
        y = np.array([0.2, 0.8])
        assert error_loss(y, y, "l2") == 0.0
        assert error_loss(y, y, "kl") == 0.0

    def test_l2_unit_difference(self):
        assert error_loss([1.0, 0.0], [0.0, 0.0], "l2") == 1.0

    def test_kl_uniform_vs_uniform(self):
        u = np.full(4, 0.25)
        assert error_loss(u, u, "kl") == 0.0

    def test_kl_requires_probabilities(self):
        with pytest.raises(ValueError):
            error_loss([1.0, 1.0], [0.5, 0.5], "kl")

    def test_kl_positive_when_different(self):
        assert error_loss([0.9, 0.1], [0.5, 0.5], "kl") > 0

    def test_kl_flooring_keeps_loss_finite(self):
        # a rounded probability of exactly zero is floored inside the log
        v = error_loss([1.0, 0.0], [0.5, 0.5], "kl")
        assert np.isfinite(v)
        assert v > 0

    def test_batch_mean(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.zeros((2, 2))
        assert error_loss(a, b, "l2") == 0.5

    @pytest.mark.parametrize("shape", [(0, 3), (0,)], ids=["batch", "vector"])
    @pytest.mark.parametrize("distance", ["l2", "kl"])
    def test_empty_outputs_refused(self, shape, distance):
        # the mean over no rows was NaN, with a "Mean of empty slice" warning
        with pytest.raises(ValueError, match="nonempty"):
            error_loss(np.zeros(shape), np.zeros(shape), distance)


class TestUpdateScales:
    def test_zero_gradient_is_identity(self):
        ks = update_scales([0.3, -0.2], [0.0, 0.0], 0.1)
        assert ks == [0.3, -0.2]

    def test_plain_step(self):
        kappas = [0.0]
        ks = update_scales(kappas, [1.0], 0.1)
        assert ks == [pytest.approx(-0.1)]
        assert kappas == [0.0]  # a new list; the argument is not modified

    def test_non_finite_result_rejected(self):
        with pytest.raises(ValueError):
            update_scales([0.0], [np.nan], 0.1)

    def test_eta_positive(self):
        with pytest.raises(ValueError):
            update_scales([0.0], [1.0], 0.0)


class TestTradeoffConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(lam=-1e-6), dict(eta=0.0), dict(epochs=-1),
        dict(surrogate="nope"), dict(lam=float("nan")),
        dict(lam=float("inf")), dict(eta=float("nan")), dict(eta=float("inf"))],
        ids=str)
    def test_refuses(self, kwargs):
        with pytest.raises(ValueError):
            TradeoffConfig(**kwargs)

    def test_zero_epochs_is_allowed(self):
        # no optimization step: the scales stay at their start
        rng = np.random.default_rng(0)
        net = random_net(rng, [4, 3], scale_range=(1.0, 1.0))
        res = optimize(net, rng.standard_normal((8, 4)),
                       TradeoffConfig(epochs=0), rng=rng)
        assert res.trace == [] and res.scales == [1.0]


def _fd_gradient(net, x, kappas, cfg, noise_seed, h=1e-5):
    """Central finite differences of the error loss, replaying the noise."""
    y_true = dense_batch(net, np.atleast_2d(x))
    dist = cfg.resolve_distance(net)

    def loss(ks):
        y = scaled_forward(net, x, ks, cfg.surrogate,
                           np.random.default_rng(noise_seed))
        return error_loss(np.atleast_2d(y), y_true, dist)

    fd = []
    for i in range(len(kappas)):
        up = [k + (h if j == i else 0.0) for j, k in enumerate(kappas)]
        dn = [k - (h if j == i else 0.0) for j, k in enumerate(kappas)]
        fd.append((loss(up) - loss(dn)) / (2 * h))
    return np.array(fd)


class TestGradKappa:
    def test_matches_finite_differences_l2(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            net = random_net(rng, [5, 6, 4], scale_range=(1.0, 1.0))
            x = rng.standard_normal((3, 5))
            kappas = list(rng.uniform(-0.5, 0.5, 2))
            cfg = TradeoffConfig(lam=0.0, surrogate="noise")
            g, _ = grad_kappa(net, x, kappas, cfg,
                              rng=np.random.default_rng(100 + trial))
            fd = _fd_gradient(net, x, kappas, cfg, 100 + trial)
            rel = np.abs(np.array(g) - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() < 1e-4

    def test_matches_finite_differences_kl(self):
        rng = np.random.default_rng(2)
        for trial in range(3):
            net = random_net(rng, [5, 6, 4], acts=["relu", "softmax"],
                             scale_range=(1.0, 1.0))
            x = rng.standard_normal((4, 5))
            kappas = list(rng.uniform(-0.5, 0.5, 2))
            cfg = TradeoffConfig(lam=0.0, surrogate="noise")
            g, _ = grad_kappa(net, x, kappas, cfg,
                              rng=np.random.default_rng(200 + trial))
            fd = _fd_gradient(net, x, kappas, cfg, 200 + trial)
            rel = np.abs(np.array(g) - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() < 1e-4

    def test_identity_surrogate_scale_free(self):
        # with quantization disabled the function does not depend on k at all
        rng = np.random.default_rng(3)
        net = random_net(rng, [5, 4, 3], scale_range=(1.0, 1.0))
        x = rng.standard_normal((2, 5))
        cfg = TradeoffConfig(lam=0.0, surrogate="identity")
        g, _ = grad_kappa(net, x, [0.2, -0.3], cfg)
        assert np.max(np.abs(g)) < 1e-12

    def test_zero_activations_zero_comp_gradient(self):
        rng = np.random.default_rng(4)
        net = random_net(rng, [4, 3], scale_range=(1.0, 1.0))
        cfg = TradeoffConfig(lam=5.0, surrogate="ste")
        g, info = grad_kappa(net, np.zeros((2, 4)), [0.0], cfg)
        # error term is zero too (output equals reference), so all-zero grads
        assert info["comp_loss"] == 0.0
        assert np.max(np.abs(g)) == 0.0

    def test_strong_comp_pressure_reduces_events(self):
        rng = np.random.default_rng(5)
        net = gen_random_network(rng)
        xb = gen_random_stream(rng, 64, 100).frames
        cfg = TradeoffConfig(lam=1.0, eta=0.05)
        kappas = [0.0] * len(net.layers)
        g, before = grad_kappa(net, xb, kappas, cfg)
        stepped = update_scales(kappas, g, cfg.eta)
        _, after = grad_kappa(net, xb, stepped, cfg)
        assert after["comp_loss"] < before["comp_loss"]

    @pytest.mark.parametrize("last", ["identity", "softmax"],
                             ids=["l2", "kl"])
    def test_empty_batch_refused(self, last):
        # the computation term divides by the batch size
        net = random_net(np.random.default_rng(7), [4, 3, 2],
                         acts=["relu", last], scale_range=(1.0, 1.0))
        with pytest.raises(ValueError, match="nonempty"):
            grad_kappa(net, np.zeros((0, 4)), [0.0, 0.0], TradeoffConfig())

    def test_non_finite_forward_raises(self):
        rng = np.random.default_rng(6)
        net = random_net(rng, [4, 3], scale_range=(1.0, 1.0))
        cfg = TradeoffConfig()
        with pytest.raises(ValueError):
            grad_kappa(net, rng.standard_normal((1, 4)), [800.0], cfg)

    @pytest.mark.parametrize("kappas", [
        [np.zeros(5), 0.0], [0.0, np.zeros(4)], [np.zeros(1), 0.0],
        [np.zeros((1, 1)), 0.0], [0.0], [0.0, 0.0, 0.0]],
        ids=["vector-over-inputs", "second-layer-vector", "length-1",
             "2-d", "short", "long"])
    @pytest.mark.parametrize("call", ["grad_kappa", "scaled_forward"])
    def test_refuses_anything_but_one_number_per_layer(self, kappas, call):
        # a vector kappa would broadcast through the forward, and its
        # gradient sum into one float, wrong for every entry
        rng = np.random.default_rng(7)
        net = random_net(rng, [5, 4, 3], scale_range=(1.0, 1.0))
        x = rng.standard_normal((3, 5))
        with pytest.raises(ValueError, match="one number"):
            if call == "grad_kappa":
                grad_kappa(net, x, kappas, TradeoffConfig(lam=1e-4))
            else:
                scaled_forward(net, x, kappas)

    @pytest.mark.parametrize("call", ["grad_kappa", "scaled_forward"])
    def test_refuses_a_single_frame(self, call):
        # frames are (n, d) rows everywhere (network._check_frames); a
        # single frame is one row
        rng = np.random.default_rng(7)
        net = random_net(rng, [5, 4, 3], scale_range=(1.0, 1.0))
        with pytest.raises(ValueError, match="frames have shape"):
            if call == "grad_kappa":
                grad_kappa(net, rng.standard_normal(5), [0.0, 0.0],
                           TradeoffConfig())
            else:
                scaled_forward(net, rng.standard_normal(5), [0.0, 0.0])

    def test_gradients_are_floats(self):
        rng = np.random.default_rng(7)
        net = random_net(rng, [5, 4, 3], scale_range=(1.0, 1.0))
        kappas = [np.float64(0.1), np.array(-0.2)]
        g, _ = grad_kappa(net, rng.standard_normal((3, 5)), kappas,
                          TradeoffConfig(lam=1e-4))
        assert [type(v) for v in g] == [float, float]


def _full_backward(net, X, kappas, cfg, rng=None):
    """grad_kappa's gradients with the backward product dU W^T formed at
    every layer, the first included: the form its first-layer shortcut
    rewrites as sum(dU0 * (X W0 - R0 W0))."""
    T = dense_batch(net, X)
    A, Z, _, R, _ = scale_opt._forward_trace(net, X, kappas, cfg.surrogate, rng)
    n, dims, g, grads = X.shape[0], net.dims, None, []
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        if i == len(net.layers) - 1:
            dU = scale_opt._loss_gradient(cfg.resolve_distance(net),
                                          layer.activation, A[-1], T)
        else:
            dU = scale_opt._through_activation(layer.activation, g, A[i + 1])
        g = dU @ layer.weights.T
        err_term = (A[i] - R[i]) * g
        comp_term = np.abs(Z[i]) * (cfg.lam * dims[i + 1]) / n
        grads.append(err_term.sum() + comp_term.sum())
    return grads[::-1]


class TestFirstLayerShortcut:
    """The first layer's error term without its backward product, given
    X W0 (xw0) or not, is the full-backward gradient."""

    @pytest.mark.parametrize("surrogate", scale_opt.SURROGATES)
    @pytest.mark.parametrize("output", ["identity", "softmax"])  # L2, KL
    def test_equals_full_backward(self, surrogate, output):
        rng = np.random.default_rng(16)
        net = random_net(rng, [6, 5, 4], acts=["relu", output],
                         scale_range=(1.0, 1.0))
        X = 3.0 * rng.standard_normal((20, 6))
        kappas = [float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5))]
        cfg = TradeoffConfig(lam=1e-2, surrogate=surrogate)
        want = _full_backward(net, X, kappas, cfg, np.random.default_rng(7))
        for xw0 in (None, X @ net.layers[0].weights):
            got, _ = grad_kappa(net, X, kappas, cfg,
                                rng=np.random.default_rng(7), xw0=xw0)
            assert all(type(g) is float for g in got)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-12)

    def test_refuses_misshapen_xw0(self):
        rng = np.random.default_rng(16)
        net = random_net(rng, [6, 5, 4], scale_range=(1.0, 1.0))
        X = rng.standard_normal((4, 6))
        with pytest.raises(ValueError, match="xw0"):
            grad_kappa(net, X, [0.0, 0.0], TradeoffConfig(),
                       xw0=(X @ net.layers[0].weights)[:3])

    @pytest.mark.parametrize("surrogate", ["ste", "noise"])
    def test_optimize_equals_a_hand_loop(self, surrogate):
        # optimize's precomputed X W0 rows give the public grad_kappa's steps
        rng = np.random.default_rng(17)
        net = random_net(rng, [6, 5, 4], scale_range=(1.0, 1.0))
        X = rng.standard_normal((40, 6))
        cfg = TradeoffConfig(lam=1e-3, eta=0.05, epochs=3,
                             surrogate=surrogate)
        res = optimize(net, X, cfg, rng=np.random.default_rng(3))
        rng = np.random.default_rng(3)
        kappas = [0.0, 0.0]
        for _ in range(cfg.epochs):
            order = rng.permutation(len(X))
            for lo in range(0, len(X), scale_opt._BATCH_SIZE):
                idx = order[lo:lo + scale_opt._BATCH_SIZE]
                grads, _ = grad_kappa(net, X[idx], kappas, cfg, rng=rng)
                kappas = update_scales(kappas, grads, cfg.eta)
        assert res.scales == pytest.approx([float(np.exp(k)) for k in kappas],
                                           rel=1e-12)


class TestTracedCompLoss:
    """info["comp_loss"]: the rounded events of every layer, the first
    included, times that layer's fan-out, per frame of the batch: the sum
    whose straight-through form grad_kappa's computation term prices."""

    def net(self):
        # the hidden activation is the bias alone: (2.4, -1.0, 1.6)
        return NetworkSpec([
            LayerSpec(np.zeros((2, 3)), [2.4, -1.0, 1.6], "identity"),
            LayerSpec(np.zeros((3, 2)), np.zeros(2), "identity")])

    def test_hand_computed(self):
        x = np.array([[3.0, -4.0], [1.0, 0.0]])  # input events 7 and 1
        _, info = grad_kappa(self.net(), x, [0.0, 0.0], TradeoffConfig())
        assert info["l1_mean"] == [4.0, 5.0]  # round(2.4, -1, 1.6) = (2, -1, 2)
        assert info["comp_loss"] == 4.0 * 3 + 5.0 * 2 == 22.0
        assert info["round_flops"] == 4.0 * 3 + 5.0 * 2 + (3 + 2)

    def test_follows_the_layer_scale(self):
        x = np.array([[3.0, -4.0]])
        _, info = grad_kappa(self.net(), x, [0.0, np.log(2.0)], TradeoffConfig())
        # input events 7; round(4.8, -2, 3.2) = (5, -2, 3)
        assert info["comp_loss"] == 7.0 * 3 + 10.0 * 2 == 41.0

    def test_matches_sigma_delta_formula_past_input(self):
        # the same events as the rounding executor's record, per frame
        rng = np.random.default_rng(15)
        net = random_net(rng, [6, 5, 4, 3], scale_range=(1.0, 1.0))
        X = 3.0 * rng.standard_normal((20, 6))
        kappas = list(rng.uniform(-0.5, 0.5, 3))
        _, info = grad_kappa(net, X, kappas, TradeoffConfig())
        act = LayerActivity.for_network(net)
        rounding_batch(net.with_scales([float(np.exp(k)) for k in kappas]), X,
                       activity=act)
        assert info["l1_mean"] == [l1 / 20 for l1 in act.l1]
        assert info["comp_loss"] == pytest.approx(flops_sigma_delta(act) / 20,
                                                  rel=1e-12)
        assert info["round_flops"] == pytest.approx(flops_rounding(act) / 20,
                                                    rel=1e-12)


class TestScaledForward:
    def test_ste_equals_rounding_executor(self):
        from sigmadelta.network import forward_rounding
        rng = np.random.default_rng(8)
        net = random_net(rng, [6, 5, 4], scale_range=(1.0, 1.0))
        kappas = list(rng.uniform(-1, 1, 2))
        scaled = net.with_scales([float(np.exp(k)) for k in kappas])
        X = rng.standard_normal((10, 6))
        got = scaled_forward(net, X, kappas, "ste")
        want = np.stack([forward_rounding(scaled, x) for x in X])
        assert np.max(np.abs(got - want)) < 1e-9


class TestOptimize:
    def test_error_decreases_with_zero_lambda(self):
        rng = np.random.default_rng(9)
        net = gen_random_network(rng)
        train = gen_random_stream(rng, 512, 100).frames
        cfg = TradeoffConfig(lam=0.0, eta=0.02, epochs=4)
        res = optimize(net, train, cfg, rng=np.random.default_rng(1))
        first = np.mean([s.error_loss for s in res.trace[:8]])
        last = np.mean([s.error_loss for s in res.trace[-8:]])
        assert last < 0.5 * first

    def test_scales_stay_positive(self):
        rng = np.random.default_rng(10)
        net = gen_random_network(rng)
        train = gen_random_stream(rng, 256, 100).frames
        cfg = TradeoffConfig(lam=1e-4, eta=0.05, epochs=2)
        res = optimize(net, train, cfg, rng=np.random.default_rng(2))
        for step in res.trace:
            assert all(s > 0 for s in step.scales)

    def test_monotone_tradeoff_across_lambda(self):
        rng = np.random.default_rng(11)
        net = gen_random_network(rng)
        train = gen_random_stream(rng, 1024, 100).frames
        evalX = gen_random_stream(rng, 256, 100).frames
        y_true = dense_batch(net, evalX)
        costs = []
        for i, lam in enumerate(np.logspace(-8, -4, 5)):
            cfg = TradeoffConfig(lam=float(lam), eta=0.02, epochs=4)
            res = optimize(net, train, cfg, rng=np.random.default_rng([11, i]))
            act = LayerActivity.for_network(net)
            rounding_batch(net.with_scales(res.scales), evalX, activity=act)
            costs.append(flops_sigma_delta(act) / act.frames)
        inversions = sum(1 for a, b in zip(costs, costs[1:]) if b > a)
        assert inversions <= 1, costs

    def test_divergence_detected(self):
        rng = np.random.default_rng(12)
        net = gen_random_network(rng)
        train = gen_random_stream(rng, 512, 100).frames
        # start fine (low error, at the net's own fine scales), then let a
        # huge comp weight collapse the scales: the error loss blows past
        # 10x its baseline and stays there
        cfg = TradeoffConfig(lam=1e-5, eta=0.05, epochs=50)
        with pytest.raises(DivergenceError) as exc:
            optimize(net.with_scales([100.0] * 3), train, cfg,
                     rng=np.random.default_rng(3))
        trace = exc.value.trace
        patience = scale_opt._DIVERGENCE_PATIENCE
        # raised on the patience-th diverging step in a row, not later
        assert len(trace) - exc.value.step == patience
        assert all(s.diverging for s in trace[-patience:])
        assert not trace[exc.value.step - 1].diverging

    def test_zero_first_error_sets_no_baseline(self):
        # k = 1 puts integer frames on the grid, so the first batch's error
        # is exactly 0; the steps after it move k off 1 and raise the error
        # to ~0.007, which is the tradeoff at work, not divergence
        rng = np.random.default_rng(0)
        net = NetworkSpec([LayerSpec(np.eye(3), np.zeros(3), "identity")])
        X = rng.integers(-3, 4, (64, 3)).astype(np.float64)
        cfg = TradeoffConfig(lam=1e-3, eta=0.05, epochs=2)
        res = optimize(net, X, cfg, rng=np.random.default_rng(0))
        assert res.trace[0].error_loss == 0.0
        assert len(res.trace) == 4  # 2 epochs of 64 frames, 32 a step
        assert not any(step.diverging for step in res.trace)

    def test_trace_records_losses_and_scales(self):
        rng = np.random.default_rng(13)
        net = gen_random_network(rng)
        train = gen_random_stream(rng, 128, 100).frames
        cfg = TradeoffConfig(lam=1e-6, eta=0.02, epochs=1)
        res = optimize(net, train, cfg, rng=np.random.default_rng(4))
        assert len(res.trace) == 4
        for step in res.trace:
            assert step.error_loss >= 0
            assert step.comp_loss >= 0
            assert len(step.scales) == 3


class TestOptimizeContract:
    """optimize starts from the net's own scales and returns scales k, a
    float per layer, in the form net.with_scales takes."""

    def problem(self, epochs=1):
        rng = np.random.default_rng(14)
        net = random_net(rng, [6, 5, 4], scale_range=(1.0, 1.0))
        X = rng.standard_normal((64, 6))
        cfg = TradeoffConfig(lam=1e-3, eta=0.05, epochs=epochs)
        return net, X, cfg

    def test_scales_feed_with_scales(self):
        net, X, cfg = self.problem()
        res = optimize(net, X, cfg, rng=np.random.default_rng(0))
        assert all(type(k) is float for k in res.scales)
        # the trace's last scales are the same exp(kappa)
        assert res.scales == res.trace[-1].scales
        scaled = net.with_scales(res.scales)
        assert [l.scale for l in scaled.layers] == res.scales
        # a run resumes from the scales of the net it is given
        again = optimize(scaled, X, TradeoffConfig(epochs=0),
                         rng=np.random.default_rng(0))
        assert again.scales == pytest.approx(res.scales, rel=1e-15)
        resumed = optimize(scaled, X, cfg, rng=np.random.default_rng(1))
        assert len(resumed.trace) == len(res.trace)
        assert resumed.trace[0].scales != res.trace[0].scales
