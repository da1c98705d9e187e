import csv
import inspect
import json

import numpy as np
import pytest

import sigmadelta.experiments as experiments
from sigmadelta.costs import (LayerActivity, flops_dense, flops_rounding,
                              flops_sigma_delta)
from sigmadelta.data import FrameDataset, gen_random_network, gen_random_stream, save_idx
from sigmadelta.experiments import (classification_error, dense_batch,
                                    equivalence_check, find_mnist_files,
                                    mnist_experiment, random_net_experiment,
                                    rounding_batch, sigma_delta_stream,
                                    worker_count)
from sigmadelta.mlp import train_mlp
from sigmadelta.network import (SigmaDeltaRuntime, forward_original,
                                forward_rounding, load_network, save_network)
from sigmadelta.quantizers import round_half_away
from sigmadelta.scale_opt import DivergenceError
from tests.test_network import random_net


class TestBatchEvaluators:
    def test_dense_batch_matches_per_frame(self):
        rng = np.random.default_rng(0)
        net = random_net(rng, [8, 6, 4])
        X = rng.standard_normal((20, 8))
        X[X < -0.5] = 0.0  # some zero inputs, so nonzero counts are < 8
        act = LayerActivity.for_network(net)
        got = dense_batch(net, X, activity=act)
        want = np.array([forward_original(net, x) for x in X])
        assert np.max(np.abs(got - want)) < 1e-12
        # nonzero inputs per layer, counted over every frame
        a, nonzero = X, []
        for layer in net.layers:
            nonzero.append(np.count_nonzero(a))
            a = np.maximum(a @ layer.weights + layer.bias, 0.0)
        assert list(act.nonzero) == nonzero
        assert act.frames == 20
        assert act.nonzero[0] < 20 * 8

    def test_rounding_batch_matches_per_frame(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, [8, 6, 4], scale_range=(0.4, 2.5))
        X = rng.standard_normal((20, 8))
        act = LayerActivity.for_network(net)
        got = rounding_batch(net, X, activity=act)
        want = np.array([forward_rounding(net, x) for x in X])
        assert np.max(np.abs(got - want)) < 1e-9
        # |round(k*a)|_1 per layer, over every frame
        a, l1 = X, []
        for layer in net.layers:
            s = round_half_away(a * layer.scale)
            l1.append(int(np.abs(s).sum()))
            a = np.maximum(s @ layer.scaled_weights() + layer.bias, 0.0)
        assert list(act.l1) == l1
        assert act.frames == 20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e30])
    def test_rounding_batch_rejects_uncountable_row(self, bad):
        # one bad row must not leave garbage int64 counts in the activity
        rng = np.random.default_rng(5)
        net = random_net(rng, [6, 5, 4])
        act = LayerActivity.for_network(net)
        rounding_batch(net, rng.standard_normal((2, 6)), activity=act)
        frames, l1 = act.frames, act.l1.copy()
        X = rng.standard_normal((3, 6))
        X[1, 2] = bad
        with pytest.raises(ValueError):
            rounding_batch(net, X, activity=act)
        assert act.frames == frames == 2
        assert np.array_equal(act.l1, l1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("batch", [dense_batch, rounding_batch])
    def test_batch_rejects_non_finite_row(self, batch, bad):
        # without an activity, no event count would catch the row
        rng = np.random.default_rng(5)
        net = random_net(rng, [6, 5, 4])
        X = rng.standard_normal((3, 6))
        X[1, 2] = bad
        with pytest.raises(ValueError):
            batch(net, X)

    @pytest.mark.parametrize("shape", [(6,), (1, 3, 6)], ids=["vector", "3-d"])
    @pytest.mark.parametrize("batch", [dense_batch, rounding_batch])
    def test_batch_rejects_misshapen_frames(self, batch, shape):
        net = random_net(np.random.default_rng(5), [6, 5, 4])
        with pytest.raises(ValueError):
            batch(net, np.zeros(shape))

    def test_sigma_delta_stream_matches_per_frame(self):
        rng = np.random.default_rng(2)
        net = random_net(rng, [8, 6, 4])
        X = rng.standard_normal((30, 8))
        got = sigma_delta_stream(net, X)
        rt = SigmaDeltaRuntime(net)
        want = np.array([rt.step(x) for x in X])
        assert np.array_equal(got, want)

    def test_classification_error_percent(self):
        out = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        assert classification_error(out, [0, 1, 1, 1]) == 25.0


class TestEquivalenceCheck:
    def test_default_net_passes(self):
        report = equivalence_check(seed=0, n_frames=200)
        assert report["passed"]
        assert report["max_sigma_delta_vs_rounding_rel"] < 1e-4
        assert report["max_temporal_diff_vs_original_abs"] < 1e-6

    def test_smooth_stream_is_cheaper_than_dense(self):
        report = equivalence_check(seed=1, n_frames=200, smoothness=0.9)
        assert report["ops_sigma_delta"] < report["ops_original"]

    @pytest.mark.parametrize("seed, n_frames, smoothness, ops", [
        (0, 500, 0.5, (2_304_000, 479_360, 471_712)),
        (1, 200, 0.9, (921_600, 72_544, 32_800))])
    def test_op_counts(self, seed, n_frames, smoothness, ops):
        report = equivalence_check(seed=seed, n_frames=n_frames,
                                   smoothness=smoothness)
        assert (report["ops_original"], report["ops_rounding"],
                report["ops_sigma_delta"]) == ops

    def test_op_counts_are_the_closed_forms(self):
        # the sigma-delta count from the stream, where the check runs the step
        rng = np.random.default_rng(4)
        net = random_net(rng, [10, 8, 6], scale_range=(0.5, 3.0))
        X = gen_random_stream(rng, 40, 10, 0.8).frames
        report = equivalence_check(net=net, frames=X)
        act_round = LayerActivity.for_network(net)
        rounding_batch(net, X, activity=act_round)
        act_sd = LayerActivity.for_network(net)
        sigma_delta_stream(net, X, activity=act_sd)
        assert report["ops_original"] == 40 * flops_dense(net.dims)
        assert report["ops_rounding"] == flops_rounding(act_round)
        assert report["ops_sigma_delta"] == flops_sigma_delta(act_sd)

    def test_impossible_tolerance_fails(self):
        # sigma-delta equals rounding exactly: only the temporal-difference
        # executor's float dust can breach a tolerance
        report = equivalence_check(seed=0, n_frames=50, td_tol=1e-30)
        assert not report["passed"]
        assert report["max_sigma_delta_vs_rounding_rel"] == 0.0

    @pytest.mark.parametrize("tol", [dict(sd_tol=-1e-9), dict(td_tol=-1.0),
                                     dict(sd_tol=np.nan), dict(td_tol=np.nan)],
                             ids=str)
    def test_unmeetable_tolerance_refused_before_any_frame(self, tol, monkeypatch):
        def no_frame(*args, **kwargs):
            raise AssertionError("a frame ran")

        monkeypatch.setattr(experiments, "forward_original", no_frame)
        with pytest.raises(ValueError, match="tol"):
            equivalence_check(seed=0, n_frames=20, **tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_frame_refused_before_any_executor(self, bad,
                                                           monkeypatch):
        # the whole window is checked first, so no executor sees the frames
        # before the bad one
        calls = []

        def counting(fn):
            def run(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return run

        for name in ("forward_original", "forward_rounding", "rounding_batch"):
            monkeypatch.setattr(experiments, name,
                                counting(getattr(experiments, name)))
        for runtime in (experiments.TemporalDiffRuntime,
                        experiments.SigmaDeltaRuntime):
            monkeypatch.setattr(runtime, "step", counting(runtime.step))
        rng = np.random.default_rng(3)
        net = random_net(rng, [6, 5, 4])
        frames = rng.standard_normal((9, 6))
        frames[4, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            equivalence_check(net=net, frames=frames)
        assert calls == []


class TestWorkerCount:
    def test_env_caps_requested(self, monkeypatch):
        monkeypatch.setenv("SIGDEL_THREADS", "2")
        assert worker_count(8, requested=8) == 2

    def test_capped_by_tasks(self, monkeypatch):
        monkeypatch.delenv("SIGDEL_THREADS", raising=False)
        assert worker_count(1, requested=16) == 1

    def test_at_least_one(self, monkeypatch):
        monkeypatch.setenv("SIGDEL_THREADS", "0")
        assert worker_count(4, requested=4) == 1

    @pytest.mark.parametrize("env", ["abc", "2.5", "1e3"])
    def test_non_integer_env_names_the_variable(self, monkeypatch, env):
        monkeypatch.setenv("SIGDEL_THREADS", env)
        with pytest.raises(ValueError, match=f"SIGDEL_THREADS={env!r}"):
            worker_count(4, requested=4)


def diverge_at(monkeypatch, lam):
    """Make the drivers' optimize raise DivergenceError for one lambda,
    carrying the first two steps of that run's real trace."""
    real = experiments.optimize

    def optimize(net, frames, cfg, *args, **kwargs):
        result = real(net, frames, cfg, *args, **kwargs)
        if cfg.lam == lam:
            raise DivergenceError(1, result.trace[:2])
        return result

    monkeypatch.setattr(experiments, "optimize", optimize)


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestRandomNetExperiment:
    @pytest.mark.parametrize("kwargs", [
        dict(n_random=0), dict(n_random=-2), dict(eta=0.0),
        dict(lambdas=(1e-6, -1e-6)), dict(epochs=-1), dict(surrogate="nope"),
        dict(train_frames=0), dict(eval_frames=0),
        dict(eta=float("nan")), dict(eta=float("inf")),
        dict(lambdas=(float("nan"),)), dict(lambdas=(float("inf"),)),
        dict(env="abc")], ids=str)
    def test_refused_value_writes_nothing(self, tmp_path, monkeypatch, kwargs):
        # every argument is checked before cloud.csv, the first output
        kwargs = dict(kwargs)
        monkeypatch.setenv("SIGDEL_THREADS", kwargs.pop("env", "1"))
        small = dict(n_random=5, train_frames=32, eval_frames=16, epochs=1)
        with pytest.raises(ValueError):
            random_net_experiment(str(tmp_path / "rn"), **{**small, **kwargs})
        assert list(tmp_path.iterdir()) == []

    def test_outputs_and_dominance(self, tmp_path):
        out = tmp_path / "rn"
        res = random_net_experiment(
            str(out), seed=0, lambdas=(1e-6, 1e-5), n_random=100,
            train_frames=512, eval_frames=128, epochs=2)
        for name in ("cloud.csv", "trajectories.csv", "endpoints.csv",
                     "manifest.json"):
            assert (out / name).exists()
        assert res["cloud"].shape == (100, 2)
        for ep in res["endpoints"]:
            assert not ep["diverged"]
            assert ep["dominated_fraction"] <= 0.05
        with open(out / "trajectories.csv") as f:
            header = next(csv.reader(f))
        assert header == ["lambda", "step", "error", "kflops"]

    def test_byte_identical_under_seed(self, tmp_path, monkeypatch):
        # same seed, same bytes: across reruns and across sweep thread counts
        monkeypatch.delenv("SIGDEL_THREADS", raising=False)
        kwargs = dict(seed=7, n_random=20, train_frames=128, eval_frames=64,
                      epochs=1)
        random_net_experiment(str(tmp_path / "a"), lambdas=(1e-6,), **kwargs)
        random_net_experiment(str(tmp_path / "b"), lambdas=(1e-6,), **kwargs)
        lams = (1e-6, 1e-5)
        random_net_experiment(str(tmp_path / "t1"), lambdas=lams, threads=1,
                              **kwargs)
        random_net_experiment(str(tmp_path / "t2"), lambdas=lams, threads=2,
                              **kwargs)
        for name in ("cloud.csv", "trajectories.csv", "endpoints.csv"):
            for a, b in (("a", "b"), ("t1", "t2")):
                assert ((tmp_path / a / name).read_bytes()
                        == (tmp_path / b / name).read_bytes())


    def test_diverged_lambda_is_reported(self, tmp_path, monkeypatch):
        kwargs = dict(seed=7, lambdas=(1e-6, 1e-5), n_random=20,
                      train_frames=128, eval_frames=64, epochs=1)
        random_net_experiment(str(tmp_path / "ok"), **kwargs)
        diverge_at(monkeypatch, 1e-6)
        res = random_net_experiment(str(tmp_path / "div"), **kwargs)
        ok = {n: read_rows(tmp_path / "ok" / n)
              for n in ("cloud.csv", "trajectories.csv", "endpoints.csv")}
        div = {n: read_rows(tmp_path / "div" / n) for n in ok}
        assert div["cloud.csv"] == ok["cloud.csv"]
        # the diverged run's row says so; the other lambda's is unchanged
        header, bad, good = div["endpoints.csv"]
        assert header == ok["endpoints.csv"][0]
        assert bad[:4] == ["1e-06", "", "", "diverged"]
        assert bad[4:] == [""] * (len(header) - 4)
        assert good == ok["endpoints.csv"][2]
        # only finished runs have trajectories
        assert div["trajectories.csv"] == [
            r for r in ok["trajectories.csv"] if r[0] != "1e-06"]
        assert len(div["trajectories.csv"]) > 1
        assert res["endpoints"][0] == {"lambda": 1e-6, "diverged": True}
        assert not res["endpoints"][1]["diverged"]


def make_digit_fixture(tmp_path, rng, width=64, classes=10, n_train=192,
                       n_test=96):
    """A small labeled image dataset in IDX files plus a trained classifier."""
    centers = rng.uniform(0.1, 0.9, (classes, width))

    def split(n):
        labels = rng.integers(0, classes, n)
        frames = np.clip(centers[labels] + rng.normal(0, 0.06, (n, width)), 0, 1)
        return FrameDataset(np.round(frames * 255) / 255, labels)

    train, test = split(n_train), split(n_test)
    ddir = tmp_path / "digits"
    ddir.mkdir()
    save_idx(train, ddir / "train-images-idx3-ubyte",
             ddir / "train-labels-idx1-ubyte")
    save_idx(test, ddir / "t10k-images-idx3-ubyte",
             ddir / "t10k-labels-idx1-ubyte")
    net, _ = train_mlp(train.frames, train.labels, dims=(width, 24, classes),
                       rng=rng, epochs=40, target_acc=0.97)
    net_path = tmp_path / "net.json"
    save_network(net, net_path)
    return ddir, net_path


@pytest.fixture(scope="module")
def digits(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("digits")
    return make_digit_fixture(tmp, np.random.default_rng(6), n_train=96,
                              n_test=48)


class TestMnistExperiment:
    @pytest.mark.parametrize("kwargs", [
        dict(opt_frames=0), dict(opt_frames=-1),
        dict(eta=0.0), dict(lambdas=[-1e-6]), dict(epochs=-1),
        dict(buffer_size=0), dict(env="abc")], ids=str)
    def test_refused_value_writes_nothing(self, digits, tmp_path, monkeypatch,
                                          kwargs):
        # the data, the net and every argument are checked before out_dir
        # is made; a zero cap is refused, not read as "no cap"
        kwargs = dict(kwargs)
        monkeypatch.setenv("SIGDEL_THREADS", kwargs.pop("env", "1"))
        ddir, net_path = digits
        with pytest.raises(ValueError):
            mnist_experiment(str(ddir), str(net_path), str(tmp_path / "o"),
                             **{"lambdas": [1e-6], "epochs": 1, **kwargs})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad_net", ["missing", "malformed", "width"])
    def test_bad_net_writes_nothing(self, digits, tmp_path, bad_net):
        ddir, _ = digits
        net_path = tmp_path / "net.json"
        if bad_net == "malformed":
            net_path.write_text("not json")
        elif bad_net == "width":
            save_network(random_net(np.random.default_rng(0), [5, 3]), net_path)
        with pytest.raises((ValueError, FileNotFoundError)):
            mnist_experiment(str(ddir), str(net_path), str(tmp_path / "o"))
        assert not (tmp_path / "o").exists()

    def test_full_pipeline_on_synthetic_digits(self, tmp_path):
        rng = np.random.default_rng(3)
        ddir, net_path = make_digit_fixture(tmp_path, rng)
        out = tmp_path / "report"
        res = mnist_experiment(str(ddir), str(net_path), str(out), seed=0,
                               lambdas=[1e-6], epochs=1, buffer_size=16,
                               opt_frames=96)
        assert (out / "report.csv").exists()
        assert (out / "manifest.json").exists()
        with open(out / "report.csv") as f:
            rows = list(csv.DictReader(f))
        # 2 settings x 2 datasets x 3 net types
        assert len(rows) == 12
        # energy_nj prices the op counts: events are adds at 0.1 pJ, and the
        # original pass is half adds and half multiplies, (0.1 + 3.1) / 2 pJ
        for r in rows:
            nj = (float(r["kflops_dense"]) * 1.6 if r["net_type"] == "original"
                  else float(r["kflops"]) * 0.1)
            assert float(r["energy_nj"]) == pytest.approx(nj, rel=1e-12)
        by_key = {(r["setting"], r["net_type"], r["dataset"]): r for r in rows}
        for setting in ("unoptimized", "lambda=1e-06"):
            for ds in ("mnist", "temporal_mnist"):
                rnd = by_key[(setting, "round", ds)]
                sd = by_key[(setting, "sigma_delta", ds)]
                # quantization never changes the prediction order-dependence
                assert rnd["class_error_test"] == sd["class_error_test"]
                assert rnd["class_error_train"] == sd["class_error_train"]
            # the rounding network is stateless: identical across orderings
            assert (by_key[(setting, "round", "mnist")]["kflops"]
                    == by_key[(setting, "round", "temporal_mnist")]["kflops"])
        # sigma-delta beats rounding once the bias amortizes, and temporal
        # ordering cuts it further on this blobby data
        for setting in ("unoptimized",):
            sd_plain = float(by_key[(setting, "sigma_delta", "mnist")]["kflops"])
            sd_temp = float(by_key[(setting, "sigma_delta",
                                    "temporal_mnist")]["kflops"])
            assert sd_temp < sd_plain

    def test_diverged_lambda_is_reported(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(6)
        ddir, net_path = make_digit_fixture(tmp_path, rng, n_train=96,
                                            n_test=48)
        kwargs = dict(seed=0, lambdas=[1e-7, 1e-6], epochs=1, buffer_size=8,
                      opt_frames=96)
        mnist_experiment(str(ddir), str(net_path), str(tmp_path / "ok"),
                         **kwargs)
        diverge_at(monkeypatch, 1e-6)
        res = mnist_experiment(str(ddir), str(net_path),
                               str(tmp_path / "div"), **kwargs)
        ok = read_rows(tmp_path / "ok" / "report.csv")
        div = read_rows(tmp_path / "div" / "report.csv")
        failed = [r for r in div if r[0] == "lambda=1e-06"]
        assert [(r[1], r[2]) for r in failed] == [
            ("diverged", "mnist"), ("diverged", "temporal_mnist")]
        assert all(v == "" for r in failed for v in r[3:])
        assert [r for r in div if r[0] != "lambda=1e-06"] == [
            r for r in ok if r[0] != "lambda=1e-06"]
        # the diverged run's trace CSV holds its partial trace
        trace = "trace_lambda_1e-06.csv"
        assert read_rows(tmp_path / "div" / trace) == \
            read_rows(tmp_path / "ok" / trace)[:3]
        assert len(read_rows(tmp_path / "ok" / trace)) > 3
        other = "trace_lambda_1e-07.csv"
        assert ((tmp_path / "div" / other).read_bytes()
                == (tmp_path / "ok" / other).read_bytes())
        assert res["summary"][2] == {"setting": "lambda=1e-06",
                                     "diverged": True}

    def test_byte_identical_across_thread_counts(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SIGDEL_THREADS", raising=False)
        rng = np.random.default_rng(7)
        ddir, net_path = make_digit_fixture(tmp_path, rng, n_train=96,
                                            n_test=48)
        for threads in (1, 2):
            mnist_experiment(str(ddir), str(net_path),
                             str(tmp_path / f"t{threads}"), seed=0,
                             lambdas=[1e-7, 1e-6], epochs=1, buffer_size=8,
                             opt_frames=96, threads=threads)
        names = sorted(p.name for p in (tmp_path / "t1").glob("*.csv"))
        assert names == sorted(p.name for p in (tmp_path / "t2").glob("*.csv"))
        assert names == ["report.csv", "trace_lambda_1e-06.csv",
                         "trace_lambda_1e-07.csv"]
        for name in names:
            assert ((tmp_path / "t1" / name).read_bytes()
                    == (tmp_path / "t2" / name).read_bytes())

    def test_close_lambdas_get_distinct_names(self, tmp_path):
        rng = np.random.default_rng(6)
        ddir, net_path = make_digit_fixture(tmp_path, rng, n_train=96,
                                            n_test=48)
        out = tmp_path / "close"
        res = mnist_experiment(str(ddir), str(net_path), str(out), seed=0,
                               lambdas=[1e-7, 1.0001e-7], epochs=1,
                               buffer_size=8, opt_frames=48)
        assert sorted(p.name for p in out.glob("trace_*.csv")) == [
            "trace_lambda_1.0001e-07.csv", "trace_lambda_1e-07.csv"]
        assert [e["setting"] for e in res["summary"]] == [
            "unoptimized", "lambda=1e-07", "lambda=1.0001e-07"]
        for name, lam in (("1e-07", "1e-07"), ("1.0001e-07", "1.0001e-07")):
            rows = read_rows(out / f"trace_lambda_{name}.csv")
            assert {r[0] for r in rows[1:]} == {lam}

    def test_default_lambdas_get_exact_names(self, tmp_path):
        rng = np.random.default_rng(6)
        ddir, net_path = make_digit_fixture(tmp_path, rng, n_train=48,
                                            n_test=24)
        res = mnist_experiment(str(ddir), str(net_path), str(tmp_path / "d"),
                               seed=0, epochs=1, buffer_size=8, opt_frames=16)
        names = [e["setting"] for e in res["summary"]]
        assert len(names) == 11
        assert names[1] == "lambda=1e-10" and names[-1] == "lambda=1e-05"
        assert (tmp_path / "d" / "trace_lambda_1e-05.csv").exists()

    def test_optimization_starts_from_the_nets_own_scales(self, digits,
                                                          tmp_path):
        # with no step taken, every setting is the network file's scales
        ddir, net_path = digits
        scaled_path = tmp_path / "scaled.json"
        save_network(load_network(net_path).with_scales([2.0, 0.5]),
                     scaled_path)
        res = mnist_experiment(str(ddir), str(scaled_path), str(tmp_path / "o"),
                               seed=0, lambdas=[1e-7, 1e-6], epochs=0,
                               buffer_size=8, threads=1)
        assert [e["setting"] for e in res["summary"]] == [
            "unoptimized", "lambda=1e-07", "lambda=1e-06"]
        for entry in res["summary"]:
            assert entry["scales"] == [2.0, 0.5]

    def test_missing_files_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            find_mnist_files(str(tmp_path), "train")

    def test_numpy_scalar_lambdas_write_plain_csv(self, tmp_path):
        rng = np.random.default_rng(6)
        ddir, net_path = make_digit_fixture(tmp_path, rng, n_train=96,
                                            n_test=48)
        out = tmp_path / "np-lam"
        mnist_experiment(str(ddir), str(net_path), str(out), seed=0,
                         lambdas=list(np.logspace(-7, -6, 2)), epochs=1,
                         buffer_size=8, opt_frames=48)
        for f in out.glob("*.csv"):
            assert "np.float64" not in f.read_text()
        # a numpy scalar is named as the plain float it holds
        assert sorted(p.name for p in out.glob("trace_*.csv")) == [
            "trace_lambda_1e-06.csv", "trace_lambda_1e-07.csv"]


def manifest_config(path):
    with open(path / "manifest.json") as f:
        return json.load(f)["config"]


def driver_keywords(driver):
    # what a manifest echoes: every keyword but where and how fast it ran
    params = set(inspect.signature(driver).parameters) - {"out_dir", "threads"}
    return params | {"experiment"}


def test_manifests_echo_exactly_the_drivers_keywords(digits, tmp_path):
    # a manifest key cannot outlive the option it records, nor an option
    # go unrecorded
    random_net_experiment(str(tmp_path / "rn"), lambdas=(1e-6,), n_random=5,
                          train_frames=32, eval_frames=16, epochs=1,
                          threads=1)
    assert (set(manifest_config(tmp_path / "rn"))
            == driver_keywords(random_net_experiment))
    ddir, net_path = digits
    mnist_experiment(str(ddir), str(net_path), str(tmp_path / "mn"),
                     lambdas=[1e-6], epochs=1, buffer_size=8, threads=1)
    assert (set(manifest_config(tmp_path / "mn"))
            == driver_keywords(mnist_experiment))


def test_smoothness_lowers_sigma_delta_cost():
    # property-level stand-in for video redundancy: smoother streams
    # produce fewer input-layer events on the same network
    rng = np.random.default_rng(4)
    net = gen_random_network(rng)
    smooth = gen_random_stream(np.random.default_rng(5), 150, 100, 0.9)
    rough = gen_random_stream(np.random.default_rng(5), 150, 100, 0.0)
    costs = {}
    for name, ds in (("smooth", smooth), ("rough", rough)):
        act = LayerActivity.for_network(net)
        sigma_delta_stream(net, ds.frames, activity=act)
        costs[name] = act.l1[0]
    assert costs["smooth"] < costs["rough"]
