import numpy as np
import pytest

from sigmadelta.network import _round_rows
from sigmadelta.quantizers import (DeltaHerder, Herder, TemporalDifference,
                                   TemporalIntegrator, round_half_away)


def test_round_half_away_ties():
    x = np.array([0.5, -0.5, 1.5, -1.5, 2.5, 0.49, -0.49, 0.0])
    assert np.array_equal(round_half_away(x),
                          [1, -1, 2, -2, 3, 0, -0.0, 0])


def test_round_half_away_matches_sign_floor_form():
    # the value of sign(x) * floor(|x| + 1/2); the result keeps the sign
    # of x, zeros included, as C's round() does
    rng = np.random.default_rng(3)
    x = np.concatenate([
        rng.standard_normal(5000) * 10.0 ** rng.integers(-3, 17, 5000),
        np.arange(-40, 41) / 4.0,
        [0.0, -0.0, 0.49999999999999994, -0.49999999999999994,
         2.0 ** 52 - 0.5, -(2.0 ** 52 - 0.5), 2.0 ** 53 + 2, 1e308, -1e308,
         5e-324, np.inf, -np.inf]])
    want = np.sign(x) * np.floor(np.abs(x) + 0.5)
    got = round_half_away(x)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(x))
    assert np.isnan(round_half_away(np.nan))
    assert round_half_away(2.5) == 3.0 and round_half_away([[-2.5]]).shape == (1, 1)


EDGES = [0.0, 0.5, 1.5, 2.5, 0.49999999999999994, 2.0 ** 52 - 0.5,
         2.0 ** 52 + 1, 5e-324, np.inf, np.nan]


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 129])
def test_batch_rounding_kernel_has_round_half_away_bits(rows):
    # network._round_rows forms copysign(1/2, x) from x's bits, in place,
    # 64 rows at a time: every row carries both signs of each edge, the
    # zeros and NaNs included
    edges = EDGES + [-e for e in EDGES] + [2.0 ** 53]
    rng = np.random.default_rng(rows)
    X = rng.standard_normal((rows, 40)) * 10.0 ** rng.integers(-3, 17,
                                                                (rows, 40))
    X[:, :len(edges)] = edges
    got = _round_rows(X.copy()).view(np.int64)
    assert np.array_equal(got, round_half_away(X).view(np.int64))


def test_round_half_away_is_trunc_of_x_plus_signed_half():
    # trunc(x + copysign(1/2, x)) in float64: x + 1/2 itself rounds, so the
    # largest double below 1/2 goes to 1, and an odd integer in [2**52,
    # 2**53), where doubles are one apart, to the next even one
    x = np.array([0.49999999999999994, 2.0 ** 52 + 1, 2.0 ** 53 - 1])
    assert np.array_equal(round_half_away(x), [1.0, 2.0 ** 52 + 2, 2.0 ** 53])
    assert np.array_equal(round_half_away(-x), -round_half_away(x))


class TestTemporalDifference:
    def test_first_input_passes_through(self):
        td = TemporalDifference(3)
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(td.step(x), x)

    def test_constant_sequence(self):
        td = TemporalDifference(1)
        assert td.step([3.0])[0] == 3.0
        assert td.step([3.0])[0] == 0.0

    def test_hand_trace(self):
        td = TemporalDifference(1)
        out = [td.step([v])[0] for v in (1.0, 4.0, 2.0)]
        assert out == [1.0, 3.0, -2.0]

    def test_state_tracks_last_input(self):
        td = TemporalDifference(2)
        td.step([1.0, 2.0])
        td.step([5.0, -1.0])
        assert np.array_equal(td.x_last, [5.0, -1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            TemporalDifference(2).step([1.0])


class TestTemporalIntegrator:
    def test_running_sum(self):
        ti = TemporalIntegrator(1)
        assert [ti.step([1.0])[0] for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_zero_forever(self):
        ti = TemporalIntegrator(2)
        for _ in range(5):
            assert np.array_equal(ti.step([0.0, 0.0]), [0.0, 0.0])

    def test_integrate_undoes_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = rng.integers(1, 8)
            seq = rng.uniform(-10, 10, size=(rng.integers(1, 50), d))
            td, ti = TemporalDifference(d), TemporalIntegrator(d)
            for x in seq:
                assert np.max(np.abs(ti.step(td.step(x)) - x)) < 1e-9


class TestHerder:
    def test_hand_trace_point_six(self):
        h = Herder(1)
        assert h.step([0.6])[0] == 1.0
        assert abs(h.phi[0] - (-0.4)) < 1e-12
        assert h.step([0.6])[0] == 0.0
        assert abs(h.phi[0] - 0.2) < 1e-12

    def test_integer_input_passes_through(self):
        h = Herder(3)
        v = np.array([2.0, -1.0, 0.0])
        assert np.array_equal(h.step(v), v)
        assert np.array_equal(h.phi, [0.0, 0.0, 0.0])

    def test_hand_trace_point_three(self):
        # emissions lag the input; their running sum tracks round(sum inputs)
        h = Herder(1)
        out = [h.step([0.3])[0] for _ in range(4)]
        assert out == [0.0, 1.0, 0.0, 0.0]
        sums = np.cumsum(out)
        want = [round_half_away(0.3 * t) for t in range(1, 5)]
        assert np.array_equal(sums, want)

    def test_residual_bound_and_integer_outputs(self):
        rng = np.random.default_rng(5)
        h = Herder(16)
        for _ in range(500):
            s = h.step(rng.uniform(-10, 10, 16))
            assert np.array_equal(s, np.trunc(s))
            assert np.max(np.abs(h.phi)) <= 0.5 + 1e-12

    def test_sum_tracking(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = rng.integers(1, 10)
            h = Herder(d)
            total_in = np.zeros(d)
            total_out = np.zeros(d)
            for _ in range(100):
                x = rng.uniform(-3, 3, d)
                total_in += x
                total_out += h.step(x)
                assert np.array_equal(total_out, round_half_away(total_in))

    def test_reset(self):
        h = Herder(1)
        h.step([0.4])
        h.reset()
        assert h.phi[0] == 0.0


class TestDeltaHerder:
    def test_constant_stream(self):
        dh = DeltaHerder(1)
        assert dh.step([0.6])[0] == 1.0
        assert dh.step([0.6])[0] == 0.0
        assert dh.step([0.6])[0] == 0.0

    def test_closed_form_values(self):
        dh = DeltaHerder(1)
        assert dh.step([0.6])[0] == 1.0
        assert dh.step([1.2])[0] == 0.0  # round(1.2)=1, unchanged

    def test_matches_herd_of_difference(self):
        # the central equivalence, on a quick random sample
        rng = np.random.default_rng(12)
        for _ in range(200):
            d = rng.integers(1, 17)
            n = rng.integers(1, 201)
            stream = rng.uniform(-10, 10, size=(n, d))
            td, h, dh = TemporalDifference(d), Herder(d), DeltaHerder(d)
            for x in stream:
                assert np.array_equal(h.step(td.step(x)), dh.step(x))
