"""Benchmark of the sigmadelta executors and experiment sweeps.

    python3 perfbench/run.py --workload stream-smooth --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` there.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The lines before it print the same metrics as a table
with sample counts, the failure ratio and the run environment.  A record
of the run (and, when traced, every span) goes to ``.perfbench-out/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads, in this process only.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("stream-smooth", "stream-iid", "table-sweep")  # as in workloads.py

# name -> (unit, better); BENCHMARK.json lists the same.  A "ref" is the
# time of a reference pass (workloads.Reference) timed in the same round.
END_TO_END = {
    "sd_frame_ref.p50": ("ref", "lower"),
    "sd_frame_ref.mean": ("ref", "lower"),
    "td_frame_ref.p50": ("ref", "lower"),
    "dense_frame_ref.p50": ("ref", "lower"),
    "rounding_frame_ref.p50": ("ref", "lower"),
    "dense_batch_ref": ("ref", "lower"),
    "rounding_batch_ref": ("ref", "lower"),
    "sweep_ref": ("ref", "lower"),
    "sd_ops_per_frame": ("count", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_LAYERS = ("L1", "L2", "L3")
PER_LAYER = {
    "kernels.to_events.us_per_frame": ("us", "lower"),
    "kernels.SparseEvents.us_per_frame": ("us", "lower"),
    "kernels.sparse_accumulate.us_per_frame": ("us", "lower"),
    **{f"kernels.events_per_frame.{l}": ("count", "lower") for l in _LAYERS},
    **{f"kernels.rows_per_frame.{l}": ("count", "lower") for l in _LAYERS},
    "quantizers.TemporalDifference.step.us_per_frame": ("us", "lower"),
    "quantizers.Herder.step.us_per_frame": ("us", "lower"),
    "network.SigmaDeltaRuntime.step.self_us_per_frame": ("us", "lower"),
    "network.SigmaDeltaRuntime.step.us_per_frame": ("us", "lower"),
    **{f"network.stage_us.{l}.{st}": ("us", "lower") for l in _LAYERS
       for st in ("quantize", "extract", "accumulate", "activate")},
    "network.LayerSpec.scaled_weights.us_per_frame": ("us", "lower"),
    "network.forward_rounding.self_us_per_frame": ("us", "lower"),
    "network.TemporalDiffRuntime.step.self_us_per_frame": ("us", "lower"),
    **{f"costs.ops_per_frame.{l}": ("count", "lower") for l in _LAYERS},
    "costs.energy_nj_per_frame": ("nJ", "lower"),
    "costs.ops_ratio_dense_over_sd": ("ratio", "higher"),
    "costs.ns_per_op": ("ns", "lower"),
    "data.temporal_reshuffle.s": ("s", "lower"),
    "data.load_idx.s": ("s", "lower"),
    "data.gen_random_stream.s": ("s", "lower"),
    "data.save_idx.s": ("s", "lower"),
    "scale_opt.optimize.s": ("s", "lower"),
    "scale_opt.grad_kappa.us_per_call": ("us", "lower"),
    "scale_opt.grad_kappa.calls": ("count", "lower"),
    "scale_opt.update_scales.us_per_call": ("us", "lower"),
    "scale_opt.diverged": ("count", "lower"),
    "experiments.sigma_delta_stream.s": ("s", "lower"),
    "experiments.rounding_batch.s": ("s", "lower"),
    "experiments.dense_batch.s": ("s", "lower"),
    "experiments.pool_busy_ratio": ("ratio", "higher"),
    "mlp.train_mlp.s": ("s", "lower"),
    "trace.sd_overhead_us": ("us", "lower"),
    "trace.spans": ("count", "lower"),
    "bench.ref_frame_us": ("us", "lower"),
    "bench.ref_batch_us_per_frame": ("us", "lower"),
    "bench.sd_frame_us.p50": ("us", "lower"),
}

# Wall-clock medians printed beside the end-to-end metrics: name -> unit.
WALL = {
    "sd_frame_us.p50": "us", "sd_frame_us.p90": "us", "sd_frame_us.p99": "us",
    "sd_frames_per_s": "1/s",
    "td_frame_us.p50": "us", "dense_frame_us.p50": "us",
    "rounding_frame_us.p50": "us", "dense_batch_us_per_frame": "us",
    "rounding_batch_us_per_frame": "us", "sweep_s": "s",
    "ref_frame_us.p50": "us", "ref_batch_us_per_frame": "us",
}

# The ROADMAP's indicative baseline table: its row label -> our metric.
BASELINE_ROWS = (
    ("dense_batch", "dense_batch_us_per_frame"),
    ("rounding_batch", "rounding_batch_us_per_frame"),
    ("per-frame forward_original", "dense_frame_us.p50"),
    ("per-frame forward_rounding", "rounding_frame_us.p50"),
    ("SigmaDeltaRuntime.step", "sd_frame_us.p50"),
)


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS + ("SIGDEL_THREADS",)},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the self-tests")
    return p.parse_args(argv)


def report(args, wl, metrics, env):
    """Print the human-readable table and return the run record."""
    from sigmadelta.costs import flops_dense

    name = args.workload
    spec = PER_LAYER if args.trace else END_TO_END
    out = {k: {"value": float(metrics[k]), "unit": unit}
           for k, (unit, _) in spec.items()}
    checks = wl.checks
    fail_ratio = checks.failed / checks.attempted
    samples = wl.samples()
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  size {args.size}  (one closed-loop client)")
    print("env " + json.dumps(env, sort_keys=True))
    for k, v in out.items():
        n = f"  ({samples[k]})" if k in samples else ""
        print(f"  {k:<52} {v['value']:>16.6g} {v['unit']}{n}")
    print(f"  {'fail_ratio':<52} {fail_ratio:>16.6g} ratio  "
          f"({checks.failed} failed / {checks.attempted} checks)")
    for what in checks.first_failures:
        print(f"  FAILED: {what}")
    wall = wl.wall_times()
    if not args.trace:
        print("wall clock, median over the timed rounds (host speed moves these)")
        for k, unit in WALL.items():
            print(f"  {k:<52} {wall[k]:>16.6g} {unit}")
    if name == "stream-smooth" and not args.trace:
        print("baseline rows (ROADMAP table; it quotes 6.9k ops/frame, this "
              "net measures its own count below)")
        for label, key in BASELINE_ROWS:
            print(f"  {label:<30} {wall[key]:10.1f} us/frame")
        ops = metrics["sd_ops_per_frame"]
        dense = flops_dense(wl.net.dims)
        print(f"  {'sigma-delta ops/frame':<30} {ops:10.0f} vs {dense} dense "
              f"({dense / ops:.2f}x fewer)")
    return {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "env": env,
            "metrics": out, "fail_ratio": fail_ratio,
            "attempted": checks.attempted, "failed": checks.failed,
            "first_failures": checks.first_failures, "samples": samples,
            "wall": wall, "rounds": wl.rounds, "setup_times": wl.setup_times}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sigmadelta" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}/sigmadelta; run from "
              "a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sigmadelta
    if Path(sigmadelta.__file__).resolve().parent != SRC / "sigmadelta":
        print(f"perfbench: imported sigmadelta from {sigmadelta.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    os.environ["SIGDEL_THREADS"] = str(workloads.SWEEP_WORKERS)
    out_dir = ROOT / ".perfbench-out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / f"work-{tag}-{os.getpid()}"
    try:
        wl, metrics, tracer = workloads.run(args.workload, args.seed,
                                            args.seconds, args.trace,
                                            args.size, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = report(args, wl, metrics, environment())
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{tag}.json", "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    if tracer is not None:
        tracer.write(out_dir / f"{tag}-spans.jsonl.gz")
    print(json.dumps({"correct": wl.checks.failed == 0,
                      "attempted": wl.checks.attempted,
                      "failed": wl.checks.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
