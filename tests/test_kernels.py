import numpy as np
import pytest

from sigmadelta.kernels import (OpLedger, SparseEvents, sparse_accumulate,
                                to_events)


class TestOpLedger:
    def test_starts_at_zero(self):
        led = OpLedger()
        assert led.total_ops == 0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            OpLedger(float_adds=-1)

    def test_totals(self):
        led = OpLedger(1, 2, 3, 4)
        assert led.total_adds == 4
        assert led.total_mults == 6
        assert led.total_ops == 10


class TestToEvents:
    def test_zero_vector_gives_empty_list(self):
        ev = to_events([0, 0, 0])
        assert ev.num_events == 0
        assert list(ev.reconstruct()) == [0, 0, 0]

    def test_direct_decomposition(self):
        ev = to_events([2, 0, -1])
        assert ev.num_events == 3
        assert list(ev.indices) == [0, 2]
        assert list(ev.counts) == [2, -1]

    def test_negative_only(self):
        ev = to_events([-3])
        assert ev.num_events == 3
        assert list(ev.reconstruct()) == [-3]

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            to_events([0.5, 1.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            to_events([np.nan])

    def test_round_trip_random_integer_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = rng.integers(1, 40)
            v = rng.integers(-9, 10, size=d)
            assert np.array_equal(to_events(v).reconstruct(), v)
            assert to_events(v).num_events == np.abs(v).sum()

    def test_duplicate_indices_coalesce(self):
        # event count must always equal the reconstructed L1 norm
        ev = SparseEvents([0, 0, 2], [1, -1, 3], 3)
        assert ev.num_events == 3
        assert list(ev.reconstruct()) == [0, 0, 3]
        ev2 = SparseEvents([1, 1], [2, 1], 4)
        assert ev2.num_events == 3
        assert list(ev2.indices) == [1]

    def test_unsorted_indices_normalize(self):
        ev = SparseEvents([3, 0, 3, 1], [2, -1, 1, 0], 4)
        assert list(ev.indices) == [0, 3]
        assert list(ev.counts) == [-1, 3]
        assert ev.num_events == 4


class TestSparseAccumulate:
    def test_empty_events_leave_u_unchanged(self):
        led = OpLedger()
        u = np.array([1.0, 2.0])
        out = sparse_accumulate(SparseEvents.empty(3), np.ones((3, 2)), u, led)
        assert np.array_equal(out, u)
        assert out is not u
        assert led.total_ops == 0

    def test_matches_dense_for_integer_vectors(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d_in = rng.integers(1, 33)
            d_out = rng.integers(1, 33)
            v = rng.integers(-10, 11, size=d_in)
            while np.abs(v).sum() > 100:
                v = rng.integers(-10, 11, size=d_in)
            W = rng.standard_normal((d_in, d_out))
            got = sparse_accumulate(to_events(v), W, np.zeros(d_out))
            want = v @ W
            assert np.max(np.abs(got - want)) < 1e-9

    def test_ledger_add_count_is_exact(self):
        rng = np.random.default_rng(3)
        d_out = 4
        W = rng.standard_normal((6, d_out))
        led = OpLedger()
        total_n = 0
        u = np.zeros(d_out)
        for _ in range(10):
            v = rng.integers(-5, 6, size=6)
            ev = to_events(v)
            total_n += ev.num_events
            u = sparse_accumulate(ev, W, u, led)
        assert led.int_adds == d_out * total_n
        assert led.total_mults == 0

    def test_three_events_width_four_costs_twelve(self):
        led = OpLedger()
        sparse_accumulate(to_events([1, -1, 1]), np.ones((3, 4)),
                          np.zeros(4), led)
        assert led.int_adds == 12

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            SparseEvents([5], [1], 3)
        ev = to_events([0, 0, 1])
        with pytest.raises(ValueError):
            sparse_accumulate(ev, np.ones((2, 4)), np.zeros(4))

    def test_u_length_checked(self):
        with pytest.raises(ValueError):
            sparse_accumulate(to_events([1]), np.ones((1, 4)), np.zeros(3))
