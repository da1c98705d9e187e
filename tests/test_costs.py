import csv

import numpy as np
import pytest

from sigmadelta.costs import (LayerActivity, energy, flops_dense,
                              flops_rounding, flops_sigma_delta, flops_sparse,
                              write_report_csv)
from sigmadelta.kernels import OpLedger
from sigmadelta.network import (LayerSpec, NetworkSpec, SigmaDeltaRuntime,
                                dense_batch, rounding_batch,
                                sigma_delta_stream)
from tests.test_network import random_net


class TestFlopsDense:
    def test_mnist_dims(self):
        assert flops_dense([784, 200, 200, 10]) == 397_600

    def test_single_weight(self):
        assert flops_dense([1, 1]) == 2

    def test_hundreds(self):
        assert flops_dense([100, 100, 100]) == 40_000

    def test_needs_two_dims(self):
        with pytest.raises(ValueError):
            flops_dense([784])


class TestFlopsSparse:
    def test_all_zero(self):
        act = LayerActivity([10, 5])
        act._add("nonzero", [0, 0], 1)
        assert flops_sparse(act) == 0

    def test_one_nonzero_into_width_ten(self):
        act = LayerActivity([10])
        act._add("nonzero", [1], 1)
        assert flops_sparse(act) == 20

    def test_accumulates_over_frames(self):
        act = LayerActivity([10])
        act._add("nonzero", [1], 1)
        act._add("nonzero", [3], 1)
        assert flops_sparse(act) == 2 * 4 * 10


class TestFlopsRoundingAndSigmaDelta:
    def test_zero_events_is_bias_only(self):
        act = LayerActivity([200, 10])
        act._add("l1", [0, 0], 1)
        assert flops_rounding(act) == 210
        assert flops_sigma_delta(act) == 0

    def test_hand_counts(self):
        act = LayerActivity([10])
        act._add("l1", [5], 1)
        assert flops_rounding(act) == 60
        act2 = LayerActivity([4])
        act2._add("l1", [3], 1)
        assert flops_sigma_delta(act2) == 12

    def test_difference_is_bias_amortization(self):
        rng = np.random.default_rng(0)
        act = LayerActivity([7, 3])
        frames = 5
        for _ in range(frames):
            act._add("l1", [int(n) for n in rng.integers(0, 20, 2)], 1)
        assert (flops_rounding(act) - flops_sigma_delta(act)
                == frames * (7 + 3))

    def test_ledger_formula_agreement(self):
        # the executor's ledger equals the closed form on its own activity
        rng = np.random.default_rng(1)
        for _ in range(10):
            net = random_net(rng, [9, 8, 7], scale_range=(0.4, 2.5))
            rt = SigmaDeltaRuntime(net)
            led = OpLedger()
            act = LayerActivity.for_network(net)
            x = np.zeros(9)
            for _ in range(30):
                x = 0.8 * x + rng.standard_normal(9)
                rt.step(x, ledger=led, activity=act)
            assert led.int_adds == flops_sigma_delta(act)
            assert led.total_mults == 0


class TestFlopsRefuseTheOtherKind:
    def test_dense_counts_are_not_events(self):
        # one dense-pass frame; the event forms would price it as no events
        act = LayerActivity([3, 2])
        act._add("nonzero", [4, 1], 1)
        assert flops_sparse(act) == 2 * (4 * 3 + 1 * 2)
        for flops in (flops_rounding, flops_sigma_delta):
            with pytest.raises(ValueError):
                flops(act)

    def test_events_are_not_dense_counts(self):
        act = LayerActivity([3, 2])
        act._add("l1", [4, 1], 1)
        assert flops_sigma_delta(act) == 14
        with pytest.raises(ValueError):
            flops_sparse(act)

    def test_executors_activities(self):
        net = random_net(np.random.default_rng(3), [6, 4, 2])
        X = np.random.default_rng(4).random((5, 6))
        dense, events = (LayerActivity.for_network(net),
                         LayerActivity.for_network(net))
        dense_batch(net, X, dense)
        rounding_batch(net, X, events)
        for flops, wrong in ((flops_sparse, events),
                             (flops_rounding, dense),
                             (flops_sigma_delta, dense)):
            with pytest.raises(ValueError):
                flops(wrong)

    def test_a_fresh_activity_prices_at_zero(self):
        act = LayerActivity([3, 2])
        assert flops_sparse(act) == flops_rounding(act) == 0
        assert flops_sigma_delta(act) == 0


class TestWidths:
    @pytest.mark.parametrize("bad", [2.7, np.float64(1.2), np.nan, np.inf])
    def test_refuses_widths_that_are_not_integers(self, bad):
        with pytest.raises(ValueError):
            LayerActivity([4, bad])
        with pytest.raises(ValueError):
            flops_dense([4, bad])

    @pytest.mark.parametrize("dims", [[4, -2], [0, 5], [3, 0, 2]])
    def test_refuses_widths_below_one(self, dims):
        # flops_dense([4, -2]) read -16 ops and flops_dense([0, 5]) 0
        with pytest.raises(ValueError):
            flops_dense(dims)
        with pytest.raises(ValueError):
            LayerActivity(dims)

    def test_integral_widths_of_any_kind_accepted(self):
        act = LayerActivity([2.0, np.int64(3), 4])
        assert act.fanouts == (2, 3, 4)
        assert all(type(d) is int for d in act.fanouts)
        assert flops_dense(np.array([2.0, 3.0])) == 12


class TestActivity:
    def test_kinds_cannot_mix(self):
        act = LayerActivity([4])
        act._add("l1", [2], 1)
        with pytest.raises(ValueError):
            act._add("nonzero", [1], 1)

    def test_layer_count_checked(self):
        act = LayerActivity([4, 2])
        with pytest.raises(ValueError):
            act._add("l1", [1], 1)

    def test_refused_frame_does_not_fix_the_kind(self):
        act = LayerActivity([4, 2])
        with pytest.raises(ValueError):
            act._add("l1", [1], 1)
        act._add("nonzero", [1, 1], 1)
        assert act.frames == 1 and list(act.nonzero) == [1, 1]

    def test_totals_are_exact_past_int64(self):
        # every frame's event L1 fits int64; their sum over frames does not
        net = NetworkSpec([LayerSpec(np.eye(20)[:, :5], np.zeros(5),
                                     "identity")])
        x = np.zeros(20)
        x[3] = 2e18
        X = np.stack([x, -x, x])
        # past the layer's exact range: the sigma-delta executors refuse
        with pytest.raises(ValueError):
            SigmaDeltaRuntime(net).step(x)
        with pytest.raises(ValueError):
            sigma_delta_stream(net, X)
        act = LayerActivity.for_network(net)
        for n in (2 * 10 ** 18, 4 * 10 ** 18, 4 * 10 ** 18):
            act._add("l1", [n], 1)
        assert list(act.l1) == [10 ** 19]
        assert flops_sigma_delta(act) == 5 * 10 ** 19
        # rounding_batch counts rows below 2**53 events; 2048 of them pass
        # int64 in their total (an even count rounds to itself)
        n = 2 ** 53 - 2
        rows = np.zeros((2048, 20))
        rows[:, 3] = n
        act_round = LayerActivity.for_network(net)
        rounding_batch(net, rows, activity=act_round)
        assert list(act_round.l1) == [2048 * n]
        assert act_round.l1[0] > 2 ** 63
        assert flops_rounding(act_round) == 5 * (2048 * n + 2048)

    def test_rounding_batch_refuses_a_count_float64_cannot_hold(self):
        # 2**53 + 1 + 1 sums to 2**53 in float64: two events would be lost
        net = NetworkSpec([LayerSpec(np.eye(3), np.zeros(3), "identity")])
        act = LayerActivity.for_network(net)
        with pytest.raises(ValueError, match=r"2\*\*53"):
            rounding_batch(net, np.array([[2.0 ** 53, 1.0, 1.0]]),
                           activity=act)
        assert act.frames == 0 and list(act.l1) == [0]
        # two events below the bound are counted exactly
        rounding_batch(net, np.array([[2.0 ** 53 - 4, 1.0, 1.0]]),
                       activity=act)
        assert act.frames == 1 and list(act.l1) == [2 ** 53 - 2]

    def test_no_frames_record_nothing(self):
        act = LayerActivity([4, 2])
        with pytest.raises(ValueError):  # no frames, but the wrong width
            act._add("l1", [0, 0, 0], 0)
        act._add("nonzero", [0, 0], 0)  # records no kind
        act._add("l1", [1, 1], 1)
        with pytest.raises(ValueError):
            act._add("nonzero", [1, 1], 1)
        act._add("nonzero", [0, 0], 0)  # nor refuses the other kind
        assert list(act.l1) == [1, 1] and act.frames == 1

    def test_empty_batch_records_nothing(self):
        # an empty batch leaves the kind as it was, as an empty run window
        # does: it neither fixes a fresh activity's kind nor refuses the
        # other kind
        net = random_net(np.random.default_rng(6), [6, 4, 2])
        empty, X = np.zeros((0, 6)), np.random.default_rng(7).random((5, 6))
        for batch, other in ((rounding_batch, dense_batch),
                             (dense_batch, rounding_batch)):
            act = LayerActivity.for_network(net)
            assert batch(net, empty, act).shape == (0, 2)
            other(net, X, act)
            l1, nonzero = act.l1.copy(), act.nonzero.copy()
            assert batch(net, empty, act).shape == (0, 2)
            assert act.frames == 5
            assert np.array_equal(act.l1, l1)
            assert np.array_equal(act.nonzero, nonzero)
            with pytest.raises(ValueError):
                batch(net, X, act)


class TestEnergy:
    def test_dense_mnist_pass_int32(self):
        led = OpLedger(float_adds=198_800, float_mults=198_800)
        e = energy(led)
        assert e == pytest.approx(636.16e-9, rel=1e-12)
        assert e == pytest.approx(636e-9, rel=0.005)

    def test_event_pass_int32(self):
        led = OpLedger(int_adds=24_000)
        assert energy(led) == pytest.approx(2.4e-9, rel=1e-12)

    def test_empty_ledger(self):
        assert energy(OpLedger()) == 0.0

    def test_linear_in_counts(self):
        rng = np.random.default_rng(2)
        a = OpLedger(*rng.integers(0, 1000, 4))
        b = OpLedger(*rng.integers(0, 1000, 4))
        both = OpLedger(a.float_adds + b.float_adds,
                        a.float_mults + b.float_mults,
                        a.int_adds + b.int_adds, a.int_mults + b.int_mults)
        assert energy(both) == pytest.approx(energy(a) + energy(b))


def test_report_csv_schema(tmp_path):
    path = tmp_path / "report.csv"
    write_report_csv(path, [
        {"setting": "unoptimized", "net_type": "round", "dataset": "mnist",
         "kflops": 44.0, "class_error_test": 4.21, "energy_nj": 4.42},
    ])
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["setting", "net_type", "dataset", "kflops_dense",
                       "kflops_sparse", "kflops", "class_error_train",
                       "class_error_test", "energy_nj"]
    assert rows[1][0] == "unoptimized"
    assert rows[1][3] == ""  # missing columns stay blank
    assert float(rows[1][5]) == 44.0
