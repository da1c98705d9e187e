import csv

import numpy as np
import pytest

from sigmadelta.costs import (DEFAULT_ENERGY_TABLE, EnergyTable, LayerActivity,
                              energy, flops_dense, flops_rounding,
                              flops_sigma_delta, flops_sparse,
                              write_report_csv)
from sigmadelta.kernels import OpLedger
from sigmadelta.network import (LayerSpec, NetworkSpec, SigmaDeltaRuntime,
                                rounding_batch, sigma_delta_stream)
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
        act.record_frame(nonzero=[0, 0])
        assert flops_sparse(act) == 0

    def test_one_nonzero_into_width_ten(self):
        act = LayerActivity([10])
        act.record_frame(nonzero=[1])
        assert flops_sparse(act) == 20

    def test_accumulates_over_frames(self):
        act = LayerActivity([10])
        act.record_frame(nonzero=[1])
        act.record_frame(nonzero=[3])
        assert flops_sparse(act) == 2 * 4 * 10


class TestFlopsRoundingAndSigmaDelta:
    def test_zero_events_is_bias_only(self):
        act = LayerActivity([200, 10])
        act.record_frame(l1=[0, 0])
        assert flops_rounding(act) == 210
        assert flops_sigma_delta(act) == 0

    def test_hand_counts(self):
        act = LayerActivity([10])
        act.record_frame(l1=[5])
        assert flops_rounding(act) == 60
        act2 = LayerActivity([4])
        act2.record_frame(l1=[3])
        assert flops_sigma_delta(act2) == 12

    def test_difference_is_bias_amortization(self):
        rng = np.random.default_rng(0)
        act = LayerActivity([7, 3])
        frames = 5
        for _ in range(frames):
            act.record_frame(l1=list(rng.integers(0, 20, 2)))
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


class TestActivity:
    def test_kinds_cannot_mix(self):
        act = LayerActivity([4])
        act.record_frame(l1=[2])
        with pytest.raises(ValueError):
            act.record_frame(nonzero=[1])

    def test_exactly_one_kind_per_frame(self):
        act = LayerActivity([4])
        with pytest.raises(ValueError):
            act.record_frame()
        with pytest.raises(ValueError):
            act.record_frame(nonzero=[1], l1=[1])

    def test_layer_count_checked(self):
        act = LayerActivity([4, 2])
        with pytest.raises(ValueError):
            act.record_frame(l1=[1])

    def test_refused_frame_does_not_fix_the_kind(self):
        act = LayerActivity([4, 2])
        with pytest.raises(ValueError):
            act.record_frame(l1=[1])
        act.record_frame(nonzero=[1, 1])
        assert act.frames == 1 and list(act.nonzero) == [1, 1]

    def test_record_frames_is_record_frame_per_row(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 50, (9, 3))
        for kind in ("l1", "nonzero"):
            batch, rows = LayerActivity([5, 4, 3]), LayerActivity([5, 4, 3])
            batch.record_frames(**{kind: counts})
            for row in counts:
                rows.record_frame(**{kind: row})
            assert np.array_equal(batch.l1, rows.l1)
            assert np.array_equal(batch.nonzero, rows.nonzero)
            assert batch.frames == rows.frames == 9
            assert flops_rounding(batch) == flops_rounding(rows)

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
            act.record_frame(l1=[n])
        assert list(act.l1) == [10 ** 19]
        assert flops_sigma_delta(act) == 5 * 10 ** 19
        act_round = LayerActivity.for_network(net)
        rounding_batch(net, 2 * np.abs(X), activity=act_round)
        assert flops_rounding(act_round) == 5 * (12 * 10 ** 18 + 3)

    @pytest.mark.parametrize("bad", [[2.7], [-3], [np.nan], [np.inf]])
    def test_refuses_counts_that_are_not_non_negative_integers(self, bad):
        act = LayerActivity([4])
        act.record_frame(l1=[5])
        for record in (lambda: act.record_frame(l1=bad),
                       lambda: act.record_frames(l1=[bad])):
            with pytest.raises(ValueError):
                record()
            assert list(act.l1) == [5] and act.frames == 1
        # a column sum would hide these: each entry is checked
        for rows in ([[2.5], [0.5]], [[-1], [4]]):
            with pytest.raises(ValueError):
                act.record_frames(l1=rows)
        assert list(act.l1) == [5] and act.frames == 1
        act.record_frame(l1=[2.0])
        act.record_frames(l1=[[1.0], [3]])
        assert list(act.l1) == [11] and act.frames == 4

    def test_record_frames_checks_shape_and_kind(self):
        act = LayerActivity([4, 2])
        for bad in ([1, 2], [[1, 2, 3]], np.zeros((2, 2, 2))):
            with pytest.raises(ValueError):
                act.record_frames(l1=bad)
        act.record_frames(l1=np.zeros((0, 2)))
        assert act.frames == 0
        with pytest.raises(ValueError):
            act.record_frames(nonzero=[[1, 1]])
        with pytest.raises(ValueError):
            act.record_frames()


class TestEnergy:
    def test_dense_mnist_pass_int32(self):
        led = OpLedger(float_adds=198_800, float_mults=198_800)
        e = energy(led, DEFAULT_ENERGY_TABLE, "int32")
        assert e == pytest.approx(636.16e-9, rel=1e-12)
        assert e == pytest.approx(636e-9, rel=0.005)

    def test_event_pass_int32(self):
        led = OpLedger(int_adds=24_000)
        assert energy(led, mode="int32") == pytest.approx(2.4e-9, rel=1e-12)

    def test_empty_ledger(self):
        assert energy(OpLedger()) == 0.0

    def test_float32_mode(self):
        led = OpLedger(float_adds=1000, float_mults=1000)
        assert energy(led, mode="float32") == pytest.approx(
            (1000 * 0.9 + 1000 * 3.7) * 1e-12)

    def test_linear_in_counts(self):
        rng = np.random.default_rng(2)
        a = OpLedger(*rng.integers(0, 1000, 4))
        b = OpLedger(*rng.integers(0, 1000, 4))
        both = OpLedger(a.float_adds + b.float_adds,
                        a.float_mults + b.float_mults,
                        a.int_adds + b.int_adds, a.int_mults + b.int_mults)
        assert energy(both) == pytest.approx(energy(a) + energy(b))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            energy(OpLedger(), mode="int8")

    def test_table_validation(self):
        with pytest.raises(ValueError):
            EnergyTable(int_add=0.0)

    @pytest.mark.parametrize("price", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["float_mult", "float_add", "int_mult",
                                      "int_add"])
    def test_non_finite_price_refused(self, name, price):
        with pytest.raises(ValueError, match=name):
            EnergyTable(**{name: price})


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
