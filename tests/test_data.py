import gzip
import shutil

import numpy as np
import pytest

from sigmadelta.data import (FrameDataset, gen_random_network,
                             gen_random_stream, load_idx, save_idx,
                             temporal_reshuffle)
from sigmadelta.network import forward_original


def blob_dataset(rng, n=64, width=16, classes=4):
    labels = rng.integers(0, classes, n)
    centers = rng.uniform(0.2, 0.8, (classes, width))
    frames = np.clip(centers[labels] + rng.normal(0, 0.05, (n, width)), 0, 1)
    # keep everything on the 1/255 grid so IDX round-trips exactly
    frames = np.round(frames * 255) / 255
    return FrameDataset(frames, labels)


class TestIdxIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = blob_dataset(rng)
        save_idx(ds, tmp_path / "imgs", tmp_path / "labels")
        loaded = load_idx(tmp_path / "imgs", tmp_path / "labels")
        assert np.array_equal(loaded.frames, ds.frames)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_gzip_transparent(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = blob_dataset(rng, n=10)
        save_idx(ds, tmp_path / "imgs", tmp_path / "labels")
        for name in ("imgs", "labels"):
            with open(tmp_path / name, "rb") as f_in, \
                    gzip.open(tmp_path / f"{name}.gz", "wb") as f_out:
                shutil.copyfileobj(f_in, f_out)
        loaded = load_idx(tmp_path / "imgs.gz", tmp_path / "labels.gz")
        assert np.array_equal(loaded.frames, ds.frames)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad").write_bytes(b"\x00\x00\x08\x04" + b"\x00" * 12)
        with pytest.raises(ValueError, match="magic"):
            load_idx(tmp_path / "bad")

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = blob_dataset(rng, n=10)
        save_idx(ds, tmp_path / "imgs")
        data = (tmp_path / "imgs").read_bytes()
        (tmp_path / "short").write_bytes(data[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_idx(tmp_path / "short")

    def test_label_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = blob_dataset(rng, n=10)
        save_idx(ds, tmp_path / "imgs")
        short = FrameDataset(ds.frames[:5], ds.labels[:5])
        save_idx(short, tmp_path / "imgs5", tmp_path / "labels5")
        with pytest.raises(ValueError, match="count"):
            load_idx(tmp_path / "imgs", tmp_path / "labels5")

    def test_non_square_frames_refused_on_save(self, tmp_path):
        with pytest.raises(ValueError, match="square"):
            save_idx(FrameDataset(np.zeros((2, 12))), tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_range_checked_on_save(self, tmp_path):
        with pytest.raises(ValueError):
            save_idx(FrameDataset(np.full((2, 4), 2.0)), tmp_path / "x")

    def test_label_range_checked_on_save(self, tmp_path):
        ds = FrameDataset(np.zeros((2, 4)), labels=[0, 300])
        with pytest.raises(ValueError, match="ubyte"):
            save_idx(ds, tmp_path / "imgs", tmp_path / "labels")


class TestTemporalReshuffle:
    def test_output_is_permutation(self):
        rng = np.random.default_rng(4)
        ds = blob_dataset(rng, n=100)
        out = temporal_reshuffle(ds, buffer_size=16,
                                 rng=np.random.default_rng(1))
        key = lambda frames: sorted(map(tuple, frames))
        assert key(out.frames) == key(ds.frames)
        assert sorted(out.labels) == sorted(ds.labels)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(5)
        ds = blob_dataset(rng, n=60)
        a = temporal_reshuffle(ds, 8, np.random.default_rng(9))
        b = temporal_reshuffle(ds, 8, np.random.default_rng(9))
        assert np.array_equal(a.frames, b.frames)

    def test_adjacency_improves(self):
        rng = np.random.default_rng(6)
        ds = FrameDataset(rng.standard_normal((200, 16)))
        seed_rng = np.random.default_rng(2)
        shuffled = ds.frames[np.random.default_rng(2).permutation(len(ds))]
        out = temporal_reshuffle(ds, buffer_size=50, rng=seed_rng)
        before = np.linalg.norm(np.diff(shuffled, axis=0), axis=1).mean()
        after = np.linalg.norm(np.diff(out.frames, axis=0), axis=1).mean()
        assert after < before

    def test_buffer_one_keeps_drawn_order(self):
        rng = np.random.default_rng(7)
        ds = blob_dataset(rng, n=30)
        out = temporal_reshuffle(ds, buffer_size=1, rng=np.random.default_rng(3))
        perm = np.random.default_rng(3).permutation(len(ds))
        assert np.array_equal(out.frames, ds.frames[perm])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            temporal_reshuffle(FrameDataset(np.empty((0, 4))), 4,
                               np.random.default_rng(0))

    def test_labels_follow_frames(self):
        rng = np.random.default_rng(8)
        ds = blob_dataset(rng, n=40)
        lookup = {tuple(f): l for f, l in zip(ds.frames, ds.labels)}
        out = temporal_reshuffle(ds, 8, np.random.default_rng(4))
        for f, l in zip(out.frames, out.labels):
            assert lookup[tuple(f)] == l


def reference_reshuffle(ds, buffer_size, rng):
    """The greedy loop as first written: every candidate measured directly,
    once per output frame.  Returns the order as indices into ds."""
    n = len(ds)
    order = rng.permutation(n)
    frames = ds.frames

    seq = np.empty(n, dtype=np.int64)
    seq[0] = order[0]
    buf = list(order[1:1 + buffer_size])
    pool = iter(order[1 + buffer_size:])
    current = frames[seq[0]]
    pos = 1
    while buf:
        cand = frames[buf]
        d2 = ((cand - current) ** 2).sum(axis=1)
        w = int(np.argmin(d2))
        seq[pos] = buf[w]
        current = frames[buf[w]]
        pos += 1
        nxt = next(pool, None)
        if nxt is not None:
            buf[w] = nxt
        else:
            buf[w] = buf[-1]
            buf.pop()
    return seq


def digit_like(rng, n, side=28):
    """Stroke-ish 28x28 frames on the 1/255 grid: a few blurred random
    templates, shifted, scaled and noised."""
    templates = (rng.uniform(size=(4, side, side)) > 0.85).astype(float)
    templates = (templates + np.roll(templates, 1, 1) + np.roll(templates, 1, 2)) / 2
    pick = rng.integers(0, len(templates), n)
    shifts = rng.integers(-2, 3, (n, 2))
    frames = np.stack([np.roll(templates[p], tuple(s), (0, 1))
                       for p, s in zip(pick, shifts)])
    frames = frames * rng.uniform(0.7, 1.0, (n, 1, 1))
    frames += rng.normal(0, 0.08, frames.shape)
    return np.round(np.clip(frames, 0, 1).reshape(n, -1) * 255) / 255


def near_ties(rng, n, width=64):
    """Copies of one frame, each moved a few ulps in one of a few pixels:
    distances the norm expansion cannot tell apart."""
    base = np.round(rng.uniform(size=width) * 255) / 255
    frames = np.tile(base, (n, 1))
    for i in range(n):
        p = rng.integers(0, 4)
        for _ in range(rng.integers(0, 3)):
            frames[i, p] = np.nextafter(frames[i, p], 2.0)
    return frames


ORACLE_CASES = {
    # name: (frames from an rng, buffer size)
    "digits": (lambda rng: digit_like(rng, 150), 40),
    "gaussian": (lambda rng: rng.standard_normal((200, 48)), 30),
    "duplicates": (lambda rng: np.repeat(digit_like(rng, 20), 4, axis=0), 16),
    "near-ties": (lambda rng: near_ties(rng, 80), 25),
    # squares of these are subnormal, their rounding error absolute
    "subnormal": (lambda rng: digit_like(rng, 60) * 2.0**-535, 10),
    "buffer-1": (lambda rng: digit_like(rng, 30), 1),
    "buffer-n": (lambda rng: rng.standard_normal((40, 8)), 40),
    "buffer-past-n": (lambda rng: digit_like(rng, 25), 100),
    "n-1": (lambda rng: rng.standard_normal((1, 8)), 5),
    "n-2": (lambda rng: rng.standard_normal((2, 8)), 5),
}


class TestReshuffleOracle:
    """temporal_reshuffle picks the frames the direct loop picks."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_order_as_direct_loop(self, case, seed):
        make, buffer_size = ORACLE_CASES[case]
        frames = make(np.random.default_rng(100 + seed))
        ds = FrameDataset(frames, np.arange(len(frames)))
        want = reference_reshuffle(ds, buffer_size, np.random.default_rng(seed))
        out = temporal_reshuffle(ds, buffer_size, np.random.default_rng(seed))
        assert np.array_equal(out.labels, want)
        assert np.array_equal(out.frames, frames[want])

    def test_same_order_when_distances_overflow(self):
        # squared norms up to 1e308 are finite, but (2 * max norm)^2 and,
        # for a duplicated frame, 2 c.x overflow: every candidate is
        # measured directly
        frames = np.random.default_rng(7).standard_normal((15, 8))
        frames = np.repeat(frames * 1e154 / np.linalg.norm(frames, axis=1).max(),
                           2, axis=0)
        ds = FrameDataset(frames, np.arange(30))
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_reshuffle(ds, 6, np.random.default_rng(3))
            out = temporal_reshuffle(ds, 6, np.random.default_rng(3))
        assert np.array_equal(out.labels, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_frames_refused_before_drawing(self, bad):
        frames = np.random.default_rng(8).standard_normal((10, 4))
        frames[6, 2] = bad
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="finite"):
            temporal_reshuffle(FrameDataset(frames), 4, rng)
        assert rng.bit_generator.state == state


class TestRandomNetwork:
    def test_same_seed_same_net(self):
        a = gen_random_network(np.random.default_rng(10))
        b = gen_random_network(np.random.default_rng(10))
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_rescaling_does_not_change_function(self):
        # the factors multiply out to 1 through the homogeneous layers
        scaled = gen_random_network(np.random.default_rng(11))
        plain = gen_random_network(np.random.default_rng(11),
                                   factors=(1.0, 1.0, 1.0))
        rng = np.random.default_rng(12)
        for _ in range(10):
            x = rng.standard_normal(100)
            assert np.max(np.abs(forward_original(scaled, x)
                                 - forward_original(plain, x))) < 1e-9

    def test_weight_variance_matches_initialization(self):
        net = gen_random_network(np.random.default_rng(13))
        for layer, factor in zip(net.layers, (0.5, 8.0, 0.25)):
            want = 2.0 / (layer.d_in + layer.d_out) * factor ** 2
            assert np.var(layer.weights) == pytest.approx(want, rel=0.10)

    def test_zero_biases_unit_scales(self):
        net = gen_random_network(np.random.default_rng(14))
        for layer in net.layers:
            assert np.all(layer.bias == 0)
            assert np.asarray(layer.scale) == 1.0

    def test_factor_count_checked(self):
        with pytest.raises(ValueError):
            gen_random_network(np.random.default_rng(0), dims=(4, 4),
                               factors=(1.0, 2.0))


class TestRandomStream:
    def test_iid_at_zero_smoothness(self):
        ds = gen_random_stream(np.random.default_rng(15), 100, 8, 0.0)
        assert ds.frames.shape == (100, 8)
        c = np.corrcoef(ds.frames[:-1].ravel(), ds.frames[1:].ravel())[0, 1]
        assert abs(c) < 0.1

    def test_constant_at_full_smoothness(self):
        ds = gen_random_stream(np.random.default_rng(16), 10, 4, 1.0)
        assert np.array_equal(ds.frames, np.tile(ds.frames[0], (10, 1)))

    def test_smoothness_reduces_frame_distance(self):
        smooth = gen_random_stream(np.random.default_rng(17), 200, 8, 0.9)
        rough = gen_random_stream(np.random.default_rng(17), 200, 8, 0.0)
        d = lambda f: np.linalg.norm(np.diff(f, axis=0), axis=1).mean()
        assert d(smooth.frames) < d(rough.frames)

    def test_validation(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError):
            gen_random_stream(rng, 0, 4)
        with pytest.raises(ValueError):
            gen_random_stream(rng, 5, 4, smoothness=1.5)
