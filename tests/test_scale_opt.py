import numpy as np
import pytest

from sigmadelta.costs import LayerActivity, flops_sigma_delta
from sigmadelta.data import gen_random_network, gen_random_stream
from sigmadelta.experiments import dense_batch, rounding_batch
from sigmadelta.scale_opt import (DivergenceError, LogScales, TradeoffConfig,
                                  comp_loss, error_loss, grad_kappa, optimize,
                                  scaled_forward, update_scales)
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


class TestCompLoss:
    def test_zero_events(self):
        act = LayerActivity([5, 3])
        act.record_frame(l1=[0, 0])
        assert comp_loss(act) == 0

    def test_single_hidden_layer(self):
        act = LayerActivity([5, 3])  # fanouts d_1=5, d_2=3
        act.record_frame(l1=[7, 2])  # |s_0|=7 (input, excluded), |s_1|=2
        assert comp_loss(act) == 6

    def test_matches_sigma_delta_formula_past_input(self):
        act = LayerActivity([5, 3])
        act.record_frame(l1=[0, 4])
        assert comp_loss(act) == flops_sigma_delta(act)


class TestLogScales:
    def test_zeros_give_unit_scales(self):
        rng = np.random.default_rng(0)
        net = random_net(rng, [4, 3, 2])
        ks = LogScales.zeros(net)
        assert ks.scales() == [1.0, 1.0]

    def test_scales_always_positive(self):
        ks = LogScales([-20.0, 0.0, 35.0])
        assert all(np.all(np.asarray(s) > 0) for s in ks.scales())

    def test_unitwise_shapes(self):
        rng = np.random.default_rng(0)
        net = random_net(rng, [4, 3, 2])
        ks = LogScales.zeros(net, unitwise=True)
        assert [np.shape(k) for k in ks.kappas] == [(4,), (3,)]

    def test_apply_installs_scales(self):
        rng = np.random.default_rng(0)
        net = random_net(rng, [4, 3], scale_range=(1.0, 1.0))
        scaled = LogScales([np.log(2.0)]).apply(net)
        assert np.asarray(scaled.layers[0].scale) == pytest.approx(2.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LogScales([np.inf])


class TestUpdateScales:
    def test_zero_gradient_is_identity(self):
        ks = update_scales(LogScales([0.3, -0.2]), [0.0, 0.0], 0.1)
        assert ks.kappas == [0.3, -0.2]

    def test_plain_step(self):
        ks = update_scales(LogScales([0.0]), [1.0], 0.1)
        assert ks.kappas[0] == pytest.approx(-0.1)
        assert ks.scales()[0] == pytest.approx(np.exp(-0.1))

    def test_non_finite_result_rejected(self):
        with pytest.raises(ValueError):
            update_scales(LogScales([0.0]), [np.nan], 0.1)

    def test_eta_positive(self):
        with pytest.raises(ValueError):
            update_scales(LogScales([0.0]), [1.0], 0.0)


class TestTradeoffConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(lam=-1e-6), dict(eta=0.0), dict(epochs=-1), dict(batch_size=0),
        dict(batch_size=-3), dict(surrogate="nope")], ids=str)
    def test_refuses(self, kwargs):
        with pytest.raises(ValueError):
            TradeoffConfig(**kwargs)

    def test_zero_epochs_is_allowed(self):
        # no optimization step: the scales stay at their start
        rng = np.random.default_rng(0)
        net = random_net(rng, [4, 3], scale_range=(1.0, 1.0))
        res = optimize(net, rng.standard_normal((8, 4)),
                       TradeoffConfig(epochs=0), rng=rng)
        assert res.trace == [] and res.scales.scales() == [1.0]


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
        kappas = LogScales.zeros(net)
        g, before = grad_kappa(net, xb, kappas, cfg)
        stepped = update_scales(kappas, g, cfg.eta)
        _, after = grad_kappa(net, xb, stepped, cfg)
        assert after["comp_loss"] < before["comp_loss"]

    def test_non_finite_forward_raises(self):
        rng = np.random.default_rng(6)
        net = random_net(rng, [4, 3], scale_range=(1.0, 1.0))
        cfg = TradeoffConfig()
        with pytest.raises(ValueError):
            grad_kappa(net, rng.standard_normal((1, 4)), [800.0], cfg)

    def test_unitwise_gradient_shapes(self):
        rng = np.random.default_rng(7)
        net = random_net(rng, [5, 4, 3], scale_range=(1.0, 1.0))
        cfg = TradeoffConfig(lam=1e-4, unitwise=True)
        kappas = LogScales.zeros(net, unitwise=True)
        g, _ = grad_kappa(net, rng.standard_normal((3, 5)), kappas, cfg)
        assert [np.shape(v) for v in g] == [(5,), (4,)]

    def test_unitwise_matches_finite_differences(self):
        rng = np.random.default_rng(55)
        net = random_net(rng, [4, 5, 3], scale_range=(1.0, 1.0))
        x = rng.standard_normal((3, 4))
        kappas = [rng.uniform(-0.4, 0.4, 4), rng.uniform(-0.4, 0.4, 5)]
        cfg = TradeoffConfig(lam=0.0, surrogate="noise", unitwise=True)
        seed = 999
        g, _ = grad_kappa(net, x, kappas, cfg, rng=np.random.default_rng(seed))
        y_true = dense_batch(net, x)

        def loss(ks):
            y = scaled_forward(net, x, ks, "noise", np.random.default_rng(seed))
            return error_loss(np.atleast_2d(y), y_true, "l2")

        h = 1e-5
        for li in range(2):
            for j in range(len(kappas[li])):
                up = [k.copy() for k in kappas]
                dn = [k.copy() for k in kappas]
                up[li][j] += h
                dn[li][j] -= h
                fd = (loss(up) - loss(dn)) / (2 * h)
                assert abs(g[li][j] - fd) / max(abs(fd), 1e-8) < 1e-4


class TestScaledForward:
    def test_ste_equals_rounding_executor(self):
        from sigmadelta.network import forward_rounding
        rng = np.random.default_rng(8)
        net = random_net(rng, [6, 5, 4], scale_range=(1.0, 1.0))
        kappas = list(rng.uniform(-1, 1, 2))
        scaled = LogScales(kappas).apply(net)
        for _ in range(10):
            x = rng.standard_normal(6)
            got = scaled_forward(net, x, kappas, "ste")
            want = forward_rounding(scaled, x)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_accepts_logscales_object(self):
        rng = np.random.default_rng(9)
        net = random_net(rng, [4, 3], scale_range=(1.0, 1.0))
        x = rng.standard_normal(4)
        ks = LogScales([0.5])
        assert np.array_equal(scaled_forward(net, x, ks, "ste"),
                              scaled_forward(net, x, [0.5], "ste"))


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
            rounding_batch(res.scales.apply(net), evalX, activity=act)
            costs.append(flops_sigma_delta(act) / act.frames)
        inversions = sum(1 for a, b in zip(costs, costs[1:]) if b > a)
        assert inversions <= 1, costs

    def test_divergence_detected(self):
        rng = np.random.default_rng(12)
        net = gen_random_network(rng)
        train = gen_random_stream(rng, 512, 100).frames
        # start fine (low error), then let a huge comp weight collapse the
        # scales: the error loss blows past 10x its initial value
        init = LogScales.from_scales([100.0, 100.0, 100.0])
        cfg = TradeoffConfig(lam=1e-5, eta=0.05, epochs=50,
                             divergence_patience=10)
        with pytest.raises(DivergenceError) as exc:
            optimize(net, train, cfg, rng=np.random.default_rng(3), init=init)
        assert len(exc.value.trace) >= 10
        assert exc.value.trace[-1].diverging

    def test_trace_records_losses_and_scales(self):
        rng = np.random.default_rng(13)
        net = gen_random_network(rng)
        train = gen_random_stream(rng, 128, 100).frames
        cfg = TradeoffConfig(lam=1e-6, eta=0.02, epochs=1, batch_size=32)
        res = optimize(net, train, cfg, rng=np.random.default_rng(4))
        assert len(res.trace) == 4
        for step in res.trace:
            assert step.error_loss >= 0
            assert step.comp_loss >= 0
            assert len(step.scales) == 3
