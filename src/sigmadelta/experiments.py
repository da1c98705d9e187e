"""Batch evaluation helpers and the experiment drivers behind the CLI.

The per-frame executors in .network are the reference semantics; the batch
evaluators (dense_batch, rounding_batch and sigma_delta_stream, defined in
.network and importable from here) compute the same quantities over many
frames at once so that whole test sets stay cheap.  Drivers write plain CSV
plus a JSON manifest and return their results for in-process use.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .costs import (DEFAULT_ENERGY_TABLE, LayerActivity, _write_csv, energy,
                    flops_dense, flops_rounding, flops_sigma_delta,
                    flops_sparse, write_report_csv)
from .data import gen_random_network, gen_random_stream, load_idx, temporal_reshuffle
from .kernels import OpLedger
from .network import (SigmaDeltaRuntime, TemporalDiffRuntime, dense_batch,
                      forward_original, forward_rounding, load_network,
                      rounding_batch, sigma_delta_stream)
from .scale_opt import DivergenceError, TradeoffConfig, error_loss, optimize

__all__ = [
    "dense_batch",
    "rounding_batch",
    "sigma_delta_stream",
    "classification_error",
    "equivalence_check",
    "random_net_experiment",
    "mnist_experiment",
    "find_mnist_files",
    "worker_count",
]


def worker_count(n_tasks, requested=None):
    """Worker count for sweep parallelism; SIGDEL_THREADS is a hard cap."""
    cap = requested if requested is not None else (os.cpu_count() or 1)
    env = os.environ.get("SIGDEL_THREADS")
    if env:
        try:
            limit = int(env)
        except ValueError:
            raise ValueError(f"SIGDEL_THREADS={env!r} is not an integer") from None
        cap = min(int(cap), limit)
    return max(1, min(int(cap), n_tasks))


def classification_error(outputs, labels):
    """Percent of frames whose argmax disagrees with the label."""
    preds = np.argmax(outputs, axis=1)
    return 100.0 * float(np.mean(preds != np.asarray(labels)))


def _write_manifest(out_dir, config):
    doc = {"config": config, "version": __version__,
           "numpy": np.__version__}
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(doc, f, sort_keys=True, indent=2, default=str)
        f.write("\n")


def _optimize_sweep(net, frames, configs, seed, first, workers):
    """optimize at configs[i] for each i on a pool of `workers` threads,
    seeded [seed, first + i] whatever the worker count.  Each run gives
    its OptimizeResult or the DivergenceError it raised."""
    def run(i):
        try:
            return optimize(net, frames, configs[i],
                            rng=np.random.default_rng([seed, first + i]))
        except DivergenceError as e:
            return e

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(run, range(len(configs))))


# ---------------------------------------------------------------------------
# Equivalence check

def equivalence_check(net=None, frames=None, seed=0, n_frames=500,
                      smoothness=0.5, sd_tol=1e-4, td_tol=1e-6):
    """Run all four executors over one stream and compare them frame by frame.

    Reports the worst deviation of the sigma-delta network from the
    rounding network (relative), of the temporal-difference network from
    the original (absolute), and the op totals of each executor: the
    dense count per frame, and the closed forms on the events that
    rounding_batch and the sigma-delta step record.
    """
    for name, tol in (("sd_tol", sd_tol), ("td_tol", td_tol)):
        if not tol >= 0:  # NaN too: no run meets it
            raise ValueError(f"{name} must be >= 0, got {tol}")
    rng = np.random.default_rng(seed)
    if net is None:
        net = gen_random_network(rng, dims=(24, 32, 32, 16),
                                 factors=(1.0, 1.0, 1.0))
        net = net.with_scales([2.0, 1.0, 0.5])
    if frames is None:
        frames = gen_random_stream(rng, n_frames, net.input_dim,
                                   smoothness).frames
    frames = np.asarray(getattr(frames, "frames", frames), dtype=np.float64)

    act_sd = LayerActivity.for_network(net)
    td_rt = TemporalDiffRuntime(net)
    sd_rt = SigmaDeltaRuntime(net)
    max_sd_rel = 0.0
    max_td_abs = 0.0
    for x in frames:
        y_orig = forward_original(net, x)
        y_td = td_rt.step(x)
        y_round = forward_rounding(net, x)
        y_sd = sd_rt.step(x, activity=act_sd)
        # relative to the frame's output magnitude, floored so all-zero
        # output frames compare float dust against a fixed small scale
        denom = max(float(np.max(np.abs(y_round))), 1e-6)
        max_sd_rel = max(max_sd_rel, float(np.max(np.abs(y_sd - y_round))) / denom)
        max_td_abs = max(max_td_abs, float(np.max(np.abs(y_td - y_orig))))
    act_round = LayerActivity.for_network(net)
    rounding_batch(net, frames, activity=act_round)
    report = {
        "frames": int(frames.shape[0]),
        "max_sigma_delta_vs_rounding_rel": max_sd_rel,
        "max_temporal_diff_vs_original_abs": max_td_abs,
        "sd_tol": sd_tol,
        "td_tol": td_tol,
        "ops_original": frames.shape[0] * flops_dense(net.dims),
        "ops_rounding": flops_rounding(act_round),
        "ops_sigma_delta": flops_sigma_delta(act_sd),
        "passed": bool(max_sd_rel <= sd_tol and max_td_abs <= td_tol),
    }
    return report


# ---------------------------------------------------------------------------
# Random-network tradeoff experiment

def _eval_rounding_point(net, scales, X, y_true):
    """Mean per-frame (L2 error, rounding flops) of the net at given scales."""
    act = LayerActivity.for_network(net)
    Y = rounding_batch(net.with_scales(scales), X, activity=act)
    err = error_loss(Y, y_true, "l2")
    kflops = flops_rounding(act) / act.frames / 1000.0
    return err, kflops


def random_net_experiment(out_dir, seed=0, lambdas=(1e-8, 1e-7, 1e-6, 1e-5),
                          n_random=1000, train_frames=2048, eval_frames=512,
                          epochs=6, eta=0.02, surrogate="ste", threads=None):
    """Scale optimization on the badly-rescaled random network.

    Draws n_random random per-layer rescalings, log k uniform in [-3, 3],
    to map the error/computation plane, then optimizes scales for each
    lambda and records the trajectories and endpoints.  Writes cloud.csv,
    trajectories.csv, endpoints.csv and a manifest into out_dir.  Every
    argument is checked before the first file is written.
    """
    if n_random < 1:
        raise ValueError("n_random must be >= 1")
    configs = [TradeoffConfig(lam=lam, eta=eta, epochs=epochs,
                              surrogate=surrogate)
               for lam in lambdas]
    workers = worker_count(len(configs), threads)
    rng = np.random.default_rng(seed)
    net = gen_random_network(rng)
    train = gen_random_stream(rng, train_frames, net.input_dim).frames
    evalX = gen_random_stream(rng, eval_frames, net.input_dim).frames
    os.makedirs(out_dir, exist_ok=True)
    y_true = dense_batch(net, evalX)
    n_layers = len(net.layers)

    cloud = []
    for m in range(n_random):
        kappa = rng.uniform(-3.0, 3.0, n_layers)
        err, kflops = _eval_rounding_point(net, list(np.exp(kappa)), evalX, y_true)
        cloud.append((m, err, kflops))
    _write_csv(os.path.join(out_dir, "cloud.csv"),
               ["sample_id", "error", "kflops"], cloud)

    results = _optimize_sweep(net, train, configs, seed, 0, workers)

    cloud_pts = np.array([(e, c) for _, e, c in cloud])
    traj_rows, endpoint_rows, endpoints = [], [], []
    for lam, result in zip(lambdas, results):
        if isinstance(result, DivergenceError):
            endpoint_rows.append([lam, "", "", "diverged"] + [""] * n_layers)
            endpoints.append({"lambda": lam, "diverged": True})
            continue
        for stp in result.trace:
            traj_rows.append([lam, stp.step, stp.error_loss,
                              stp.round_flops / 1000.0])
        scales = result.scales
        err, kflops = _eval_rounding_point(net, scales, evalX, y_true)
        dominated = np.mean((cloud_pts[:, 0] <= err) & (cloud_pts[:, 1] <= kflops)
                            & ((cloud_pts[:, 0] < err) | (cloud_pts[:, 1] < kflops)))
        endpoint_rows.append([lam, err, kflops, "ok"] + scales)
        endpoints.append({"lambda": lam, "error": err, "kflops": kflops,
                          "dominated_fraction": float(dominated),
                          "scales": scales,
                          "diverged": False})
    _write_csv(os.path.join(out_dir, "trajectories.csv"),
               ["lambda", "step", "error", "kflops"], traj_rows)
    _write_csv(os.path.join(out_dir, "endpoints.csv"),
               ["lambda", "error", "kflops", "status"]
               + [f"k_{i + 1}" for i in range(n_layers)], endpoint_rows)
    _write_manifest(out_dir, {
        "experiment": "random-net", "seed": seed, "lambdas": list(lambdas),
        "n_random": n_random, "train_frames": train_frames,
        "eval_frames": eval_frames, "epochs": epochs, "eta": eta,
        "surrogate": surrogate,
    })
    return {"cloud": cloud_pts, "endpoints": endpoints}


# ---------------------------------------------------------------------------
# MNIST experiment

_IMAGE_NAMES = {"train": "train-images-idx3-ubyte", "test": "t10k-images-idx3-ubyte"}
_LABEL_NAMES = {"train": "train-labels-idx1-ubyte", "test": "t10k-labels-idx1-ubyte"}


def find_mnist_files(mnist_dir, split):
    """Locate the IDX pair for a split, tolerating .gz and dotted names."""
    pairs = []
    for base in (_IMAGE_NAMES[split], _LABEL_NAMES[split]):
        for name in (base, base + ".gz", base.replace("-idx", ".idx"),
                     base.replace("-idx", ".idx") + ".gz"):
            p = os.path.join(mnist_dir, name)
            if os.path.exists(p):
                pairs.append(p)
                break
        else:
            raise FileNotFoundError(f"missing {base}[.gz] under {mnist_dir}")
    return pairs


def _nj(ledger, frames):
    return energy(ledger, DEFAULT_ENERGY_TABLE, "int32") / frames * 1e9


def _evaluate_setting(net_k, setting, datasets, orig_row):
    """One sweep point of mnist_experiment: the rounding network on the
    test and train frames, then the sigma-delta network over each ordering
    of them.  Returns its report rows and its summary entry.  The two
    networks' outputs are equal."""
    test, train = datasets["mnist"]["test"], datasets["mnist"]["train"]
    # Rounding network: stateless, so order does not matter.
    act_round = LayerActivity.for_network(net_k)
    round_test_out = rounding_batch(net_k, test.frames, activity=act_round)
    round_train_out = rounding_batch(net_k, train.frames)
    round_err_test = classification_error(round_test_out, test.labels)
    round_err_train = classification_error(round_train_out, train.labels)
    round_flops = flops_rounding(act_round) / act_round.frames

    rows = []
    entry = {"setting": setting,
             "scales": net_k.scales,
             "round_kflops": round_flops / 1000.0,
             "round_err_test": round_err_test, "diverged": False}
    for ds_name, splits in datasets.items():
        rows.append({"setting": setting, "dataset": ds_name, **orig_row})
        rows.append({
            "setting": setting, "net_type": "round", "dataset": ds_name,
            "kflops": round_flops / 1000.0,
            "class_error_train": round_err_train,
            "class_error_test": round_err_test,
            "energy_nj": _nj(OpLedger(int_adds=flops_rounding(act_round)),
                             act_round.frames),
        })
        act_sd = LayerActivity.for_network(net_k)
        sd_test_out = sigma_delta_stream(net_k, splits["test"], activity=act_sd)
        sd_train_out = sigma_delta_stream(net_k, splits["train"])
        sd_flops = flops_sigma_delta(act_sd) / act_sd.frames
        sd_err_test = classification_error(sd_test_out, splits["test"].labels)
        rows.append({
            "setting": setting, "net_type": "sigma_delta", "dataset": ds_name,
            "kflops": sd_flops / 1000.0,
            "class_error_train": classification_error(
                sd_train_out, splits["train"].labels),
            "class_error_test": sd_err_test,
            "energy_nj": _nj(OpLedger(int_adds=flops_sigma_delta(act_sd)),
                             act_sd.frames),
        })
        entry[f"sd_kflops_{ds_name}"] = sd_flops / 1000.0
        entry[f"sd_err_test_{ds_name}"] = sd_err_test
    return rows, entry


def mnist_experiment(mnist_dir, net_path, out_dir, seed=0, lambdas=None,
                     eta=0.01, epochs=2, surrogate="ste", buffer_size=1000,
                     threads=None, opt_frames=None):
    """Evaluate all three executors across a lambda sweep on both dataset
    orderings, mirroring the results-table layout.

    The "unoptimized" setting is the network file's own scales, which is
    also where every lambda's optimization starts.  The rounding and
    sigma-delta networks of each setting compute on its layers' grids
    (network.GRID_BITS), so their outputs, and their class errors, are
    equal.  Settings and trace files are named after repr(float(lam)).
    opt_frames caps how many training frames the scale optimization sees.
    The data, the net and every argument are checked before out_dir is
    made (buffer_size by the reshuffle).
    """
    if opt_frames is not None and opt_frames < 1:
        raise ValueError("opt_frames must be >= 1 when given")
    if lambdas is None:
        lambdas = [10.0 ** float(e) for e in np.linspace(-10, -5, 10)]
    configs = [TradeoffConfig(lam=lam, eta=eta, epochs=epochs,
                              surrogate=surrogate)
               for lam in lambdas]
    workers = worker_count(len(configs), threads)
    rng = np.random.default_rng(seed)

    train = load_idx(*find_mnist_files(mnist_dir, "train"))
    test = load_idx(*find_mnist_files(mnist_dir, "test"))
    net = load_network(net_path)
    if net.input_dim != train.width:
        raise ValueError(
            f"network expects width {net.input_dim}, data has {train.width}")

    datasets = {
        "mnist": {"train": train, "test": test},
        "temporal_mnist": {
            "train": temporal_reshuffle(train, buffer_size, rng),
            "test": temporal_reshuffle(test, buffer_size, rng),
        },
    }
    os.makedirs(out_dir, exist_ok=True)

    # The original network's numbers do not depend on the scale setting or
    # the frame order; compute them once.
    dense_flops = flops_dense(net.dims)
    act_sparse = LayerActivity.for_network(net)
    orig_test_out = dense_batch(net, test.frames, activity=act_sparse)
    orig_train_out = dense_batch(net, train.frames)
    orig_err_test = classification_error(orig_test_out, test.labels)
    orig_err_train = classification_error(orig_train_out, train.labels)
    orig_row = {
        "net_type": "original",
        "kflops_dense": dense_flops / 1000.0,
        "kflops_sparse": flops_sparse(act_sparse) / act_sparse.frames / 1000.0,
        "class_error_train": orig_err_train,
        "class_error_test": orig_err_test,
        # a dense pass is one multiply and one add per weight
        "energy_nj": _nj(OpLedger(float_adds=dense_flops // 2,
                                  float_mults=dense_flops // 2), 1),
    }

    opt_X = train.frames if opt_frames is None else train.frames[:opt_frames]

    sweep = _optimize_sweep(net, opt_X, configs, seed, 1, workers)
    settings = [("unoptimized", net.scales)]
    for lam, result in zip(lambdas, sweep):
        scales = (None if isinstance(result, DivergenceError)
                  else result.scales)
        # repr, not a rounded format, so distinct lambdas get distinct
        # names; float() keeps a numpy scalar's repr plain
        label = repr(float(lam))
        settings.append((f"lambda={label}", scales))
        rows = [[lam, s.step, s.error_loss, s.comp_loss, s.round_flops / 1000.0]
                + s.scales for s in result.trace]
        _write_csv(os.path.join(out_dir, f"trace_lambda_{label}.csv"),
                   ["lambda", "step", "error_loss", "comp_loss", "kflops"]
                   + [f"k_{i + 1}" for i in range(len(net.layers))], rows)

    report_rows, summary = [], []
    for setting, scales in settings:
        if scales is None:  # diverged run: report the failure, keep sweeping
            for ds_name in datasets:
                report_rows.append({"setting": setting, "net_type": "diverged",
                                    "dataset": ds_name})
            summary.append({"setting": setting, "diverged": True})
            continue
        rows, entry = _evaluate_setting(
            net.with_scales(scales), setting, datasets, orig_row)
        report_rows.extend(rows)
        summary.append(entry)

    write_report_csv(os.path.join(out_dir, "report.csv"), report_rows)
    _write_manifest(out_dir, {
        "experiment": "mnist", "seed": seed, "lambdas": [float(l) for l in lambdas],
        "eta": eta, "epochs": epochs, "surrogate": surrogate,
        "buffer_size": buffer_size, "net_path": net_path,
        "mnist_dir": mnist_dir, "opt_frames": opt_frames,
    })
    return {"rows": report_rows, "summary": summary,
            "original": orig_row}
