"""The benchmark's three workloads and the checks that count their failures.

Every workload is one closed-loop client: the next frame (or sweep) is
sent only after the previous one returned.  A run is split into rounds.
Each round times one set-up, one run of the workload's experiment job (the
"sweep"), the batch evaluators, and a fixed number of frames through the
per-frame executors, so slow spells on the host fall on every metric alike.

The shared host's speed drifts by tens of percent over minutes.  So every
round also times fixed plain-numpy passes (``Reference``), interleaved with
the executors, and the end-to-end timings are the program's times in units
of those passes, measured in the same round.

- ``stream-smooth`` / ``stream-iid``: the 784-200-200-10 random net at
  scales (8, 4, 4) on one Gaussian stream (smoothness 0.95 / 0).  Each
  frame goes through all four per-frame executors; the sweep is the
  per-setting evaluation ``mnist_experiment`` makes (``sigma_delta_stream``,
  ``rounding_batch`` and ``dense_batch``) over a fixed window of the stream.
- ``table-sweep``: ``mnist_experiment`` on synthetic digits written with
  ``save_idx``, with a classifier from ``train_mlp``; its per-frame
  executors run the unoptimized classifier over the temporally reshuffled
  test digits.
"""

import contextlib
import inspect
import os
import statistics
import time

import numpy as np

import digits
import sigmadelta.data as data
import sigmadelta.experiments as experiments
import sigmadelta.mlp as mlp
import sigmadelta.network as network
from sigmadelta.costs import (LayerActivity, energy, flops_dense,
                              flops_sigma_delta)
from sigmadelta.kernels import OpLedger
from tracing import FRAMES, SETUP, SWEEP, Tracer, analyse

_EQ = inspect.signature(experiments.equivalence_check).parameters
SD_TOL = _EQ["sd_tol"].default  # sigma-delta vs rounding, relative
TD_TOL = _EQ["td_tol"].default  # temporal difference vs original, absolute
REL_FLOOR = 1e-6  # equivalence_check's floor on the relative denominator

DIMS = (784, 200, 200, 10)
STREAM_SCALES = (8.0, 4.0, 4.0)
SMOOTHNESS = {"stream-smooth": 0.95, "stream-iid": 0.0}
WORKLOADS = ("stream-smooth", "stream-iid", "table-sweep")
OPS_FRAMES = 1000  # frames after the first over which ops/frame is counted
BATCH_REPS = 10
REF_SEED = 20161107  # fixed: the reference is the same in every run
MLP_INIT_SEED = 7  # fixed: seeds differ in their digits, not the initial weights
LAMBDAS = (1e-9, 1e-7, 1e-5)

SIZES = {
    "full": dict(stream_frames=2000, window=500, round_frames=500,
                 n_train=160, n_test=80, mlp_epochs=4, opt_epochs=20,
                 buffer=200, lambdas=LAMBDAS),
    "tiny": dict(stream_frames=60, window=20, round_frames=100,
                 n_train=120, n_test=60, mlp_epochs=1, opt_epochs=1,
                 buffer=20, lambdas=LAMBDAS[:2]),
}


# The sweep's thread pool gets one worker.  The sweep holds the interpreter
# lock, so two workers were no faster than one (a median of 2.27 s against
# 2.28 s over six sweeps each on 2 vCPUs); they only made its time depend on
# what else ran on the second CPU.
SWEEP_WORKERS = 1


class Checks:
    """Counts correctness checks; a breach is a failure, never an error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 10:
                self.first_failures.append(what)

    def rel(self, y, ref, what):
        denom = max(float(np.max(np.abs(ref))), REL_FLOOR)
        dev = float(np.max(np.abs(y - ref))) / denom
        self.check(dev <= SD_TOL, f"{what}: relative deviation {dev:.3g}")

    def abs(self, y, ref, what):
        dev = float(np.max(np.abs(y - ref)))
        self.check(dev <= TD_TOL, f"{what}: absolute deviation {dev:.3g}")


class Reference:
    """The yardstick for host speed: plain-numpy passes of the
    784-200-200-10 shape on fixed weights and inputs.

    ``frame`` is a bare sigma-delta pass: per layer, quantize the input to
    a 1/4 grid, take the rows whose value changed, add them into the
    running sums and apply ReLU.  It alternates between two fixed frames
    that differ in a tenth of their pixels.  Its mix of small numpy calls
    and row gathers tracks the host's speed for the per-frame executors
    far better than a dense pass does.  ``batch`` is a dense ReLU pass over
    a fixed batch, the counterpart of the batch evaluators.

    It calls nothing in the library and does not depend on ``--seed``, so
    every run of every version of the program gives it the same work; only
    the host moves its time.
    """

    def __init__(self, n_batch):
        rng = np.random.default_rng(REF_SEED)
        self.layers = [(rng.standard_normal((m, n)) / np.sqrt(m), rng.standard_normal(n))
                       for m, n in zip(DIMS[:-1], DIMS[1:])]
        x = rng.uniform(0.0, 1.0, DIMS[0])
        changed = rng.uniform(size=DIMS[0]) < 0.1
        self.inputs = (x, np.where(changed, rng.uniform(0.0, 1.0, DIMS[0]), x))
        self.calls = 0
        self.prev = [np.zeros(m) for m in DIMS[:-1]]
        self.sums = [np.array(b) for _, b in self.layers]
        self.X = rng.uniform(0.0, 1.0, (n_batch, DIMS[0]))

    def frame(self):
        a = self.inputs[self.calls % 2]
        self.calls += 1
        for i, (w, _) in enumerate(self.layers):
            q = np.round(a * 4.0)
            delta = q - self.prev[i]
            self.prev[i] = q
            rows = np.flatnonzero(delta)
            self.sums[i] += delta[rows] @ w[rows] / 4.0
            a = np.maximum(self.sums[i], 0.0)
        return a

    def batch(self):
        a = self.X
        for w, b in self.layers[:-1]:
            a = np.maximum(a @ w + b, 0.0)
        w, b = self.layers[-1]
        return a @ w + b


def _pingpong(n):
    """Frame indices 0..n-1, n-2..0, 1.. forever: a long stream with no jump."""
    period = max(2 * n - 2, 1)
    p = 0
    while True:
        i = p % period
        yield i if i < n else period - i
        p += 1


class FrameLoop:
    """The four per-frame executors driven closed-loop over a frame set.

    Every frame goes through the sigma-delta step (with ledger and
    activity), the temporal-difference step, forward_original and
    forward_rounding, each timed on its own, and then through the
    reference pass.
    """

    def __init__(self, net, frames, ref_round, sd_rt, td_rt, reference, checks):
        self.net, self.frames, self.ref_round = net, frames, ref_round
        self.sd_rt, self.td_rt, self.checks = sd_rt, td_rt, checks
        self.reference = reference
        self.ledger = OpLedger()
        self.activity = LayerActivity.for_network(net)
        self.order = _pingpong(len(frames))
        self.times = {"sd": [], "td": [], "dense": [], "rounding": [], "ref": []}
        self.cum_ops = []
        self.ops_window = []  # (ledger, l1, frames) after frame 0 and OPS_FRAMES more

    def run(self, n_frames):
        net, frames, checks = self.net, self.frames, self.checks
        sd_step, td_step = self.sd_rt.step, self.td_rt.step
        t_sd, t_td = self.times["sd"], self.times["td"]
        t_dense, t_round = self.times["dense"], self.times["rounding"]
        t_ref, ref_frame = self.times["ref"], self.reference.frame
        clock = time.perf_counter
        for _ in range(n_frames):
            i = next(self.order)
            x = frames[i]
            t0 = clock()
            y_sd = sd_step(x, ledger=self.ledger, activity=self.activity)
            t1 = clock()
            y_td = td_step(x)
            t2 = clock()
            y_orig = network.forward_original(net, x)
            t3 = clock()
            y_round = network.forward_rounding(net, x)
            t4 = clock()
            ref_frame()
            t5 = clock()
            t_sd.append(t1 - t0)
            t_td.append(t2 - t1)
            t_dense.append(t3 - t2)
            t_round.append(t4 - t3)
            t_ref.append(t5 - t4)
            self.cum_ops.append(self.ledger.total_ops)
            checks.rel(y_sd, self.ref_round[i], f"sigma-delta step, frame {i}")
            checks.rel(y_round, self.ref_round[i], f"forward_rounding, frame {i}")
            checks.abs(y_td, y_orig, f"temporal-diff step, frame {i}")
            n = len(t_sd)
            if n == 1 or n == OPS_FRAMES + 1:
                self._snapshot()

    def _snapshot(self):
        snap = (self.ledger.copy(), self.activity.l1.copy(), len(self.cum_ops))
        self.ops_window = self.ops_window[:1] + [snap]

    def finish(self):
        """Close the op-count window and check the ledger against the
        closed-form count over the same pass."""
        if len(self.ops_window) == 1:
            self._snapshot()
        self.checks.check(
            self.ledger.total_ops == flops_sigma_delta(self.activity),
            "sigma-delta ledger ops differ from flops_sigma_delta")

    def costs(self):
        """Exact op counts per frame over the fixed window after frame 0."""
        (led0, l10, n0), (led1, l11, n1) = self.ops_window
        k = max(n1 - n0, 1)
        diff = OpLedger(led1.float_adds - led0.float_adds,
                        led1.float_mults - led0.float_mults,
                        led1.int_adds - led0.int_adds,
                        led1.int_mults - led0.int_mults)
        fanouts = np.asarray(self.activity.fanouts)
        return {
            "ops": diff.total_ops / k,
            "ops_layer": list((l11 - l10) * fanouts / k),
            "energy_nj": energy(diff) / k * 1e9,
        }


# end-to-end metric -> (raw round timing, reference timing it is divided by)
REF_METRICS = {
    "sd_frame_ref.p50": ("sd_frame_us.p50", "ref_frame_us.p50"),
    "sd_frame_ref.mean": ("sd_frame_us.mean", "ref_frame_us.mean"),
    "td_frame_ref.p50": ("td_frame_us.p50", "ref_frame_us.p50"),
    "dense_frame_ref.p50": ("dense_frame_us.p50", "ref_frame_us.p50"),
    "rounding_frame_ref.p50": ("rounding_frame_us.p50", "ref_frame_us.p50"),
    "dense_batch_ref": ("dense_batch_us_per_frame", "ref_batch_us_per_frame"),
    "rounding_batch_ref": ("rounding_batch_us_per_frame", "ref_batch_us_per_frame"),
    "sweep_ref": ("sweep_s", "ref_frame_us.p50"),
}


def _ratio(r, num, den):
    """A round's timing `num` in units of its reference timing `den`."""
    if num == "sweep_s":
        return r[num] * 1e6 / r[den]
    return r[num] / r[den]


def _median_us(xs):
    return statistics.median(xs) * 1e6


def _percentile_us(xs, q):
    return float(np.percentile(xs, q)) * 1e6


class Workload:
    """Shared run structure: set up several times, then measure in rounds."""

    def __init__(self, name, seed, size, workdir):
        self.name, self.seed, self.size, self.workdir = name, seed, size, workdir
        self.checks = Checks()
        self.setup_times = []
        self.rounds = []
        self.loop = None

    def setup_all(self, tracer):
        """The set-up the measurement uses; each round times one more."""
        self._timed_setup(tracer)
        self.prepare()

    def prepare(self):
        """Reference outputs for the checks; not part of set-up time."""
        self.ref_dense = np.stack([network.forward_original(self.net, x)
                                   for x in self.batch_frames])
        self.ref_round = experiments.rounding_batch(self.net, self.frames)
        self.reference = Reference(len(self.batch_frames))
        self.reference.batch()
        self.loop = FrameLoop(self.net, self.frames, self.ref_round, self.sd_rt,
                              self.td_rt, self.reference, self.checks)

    def _timed_setup(self, tracer):
        t0 = time.perf_counter()
        with _maybe_span(tracer, SETUP):
            self.setup()
        self.setup_times.append(time.perf_counter() - t0)

    def measure(self, seconds, tracer=None):
        """Run rounds until `seconds` have passed (at least one round).

        A round is one set-up, one sweep and a fixed number of frames
        through the per-frame executors.
        """
        end = time.perf_counter() + seconds
        while True:
            self._timed_setup(tracer)
            with _maybe_span(tracer, SWEEP):
                sweep_s = self.sweep()
            batch = self.time_batches()
            lo = len(self.loop.times["sd"])
            with _maybe_span(tracer, FRAMES):
                self.loop.run(self.size["round_frames"])
            t = {k: v[lo:] for k, v in self.loop.times.items()}
            self.rounds.append({
                "sd_frame_us.p50": _median_us(t["sd"]),
                "sd_frame_us.p90": _percentile_us(t["sd"], 90),
                "sd_frame_us.p99": _percentile_us(t["sd"], 99),
                "sd_frames_per_s": len(t["sd"]) / sum(t["sd"]),
                "sd_frame_us.mean": statistics.fmean(t["sd"]) * 1e6,
                "ref_frame_us.mean": statistics.fmean(t["ref"]) * 1e6,
                "td_frame_us.p50": _median_us(t["td"]),
                "dense_frame_us.p50": _median_us(t["dense"]),
                "rounding_frame_us.p50": _median_us(t["rounding"]),
                "ref_frame_us.p50": _median_us(t["ref"]),
                **{f"{k}_batch_us_per_frame": v * 1e6 for k, v in batch.items()},
                "sweep_s": sweep_s,
            })
            if time.perf_counter() >= end:
                break

    def time_batches(self):
        """Seconds per frame of dense_batch, rounding_batch and the reference
        pass over the workload's batch frames: the median of BATCH_REPS
        alternating calls."""
        net, X = self.net, self.batch_frames
        times = {"dense": [], "rounding": [], "ref": []}
        for _ in range(BATCH_REPS):
            t0 = time.perf_counter()
            y_dense = experiments.dense_batch(net, X)
            t1 = time.perf_counter()
            y_round = experiments.rounding_batch(net, X)
            t2 = time.perf_counter()
            self.reference.batch()
            t3 = time.perf_counter()
            times["dense"].append(t1 - t0)
            times["rounding"].append(t2 - t1)
            times["ref"].append(t3 - t2)
        self.checks.abs(y_dense, self.ref_dense, "dense_batch")
        self.checks.rel(y_round, self.ref_round[:len(X)], "rounding_batch")
        return {k: statistics.median(v) / len(X) for k, v in times.items()}

    def timed_rounds(self, rounds=None):
        """The rounds a run reports on: all but the first, which warms up."""
        rounds = self.rounds if rounds is None else rounds
        return rounds[1:] if len(rounds) >= 3 else rounds

    def wall_times(self, rounds=None):
        """Each raw timing as the median over the timed rounds."""
        rounds = self.timed_rounds(rounds)
        return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}

    def end_to_end(self):
        """Timings in reference units; set-up, ops and memory as they are.

        Within a round, each timing is divided by the reference timed in the
        same round: per-frame medians and the sweep by the reference frame
        pass's median, the mean step time by its mean, and batch timings by
        the reference batch pass over as many frames.  The run reports the
        median of these ratios over the timed rounds.  Set-up time is the
        median of all set-ups.
        """
        m = {name: statistics.median(_ratio(r, num, den) for r in self.timed_rounds())
             for name, (num, den) in REF_METRICS.items()}
        m["sd_ops_per_frame"] = self.loop.costs()["ops"]
        m["setup_s"] = statistics.median(self.setup_times)
        return m

    def samples(self):
        """What each end-to-end metric was taken from."""
        rounds = len(self.timed_rounds())
        n = {}
        for name, (num, _) in REF_METRICS.items():
            if num.endswith("batch_us_per_frame"):
                n[name] = f"{BATCH_REPS} calls in each of {rounds} rounds"
            elif num == "sweep_s":
                n[name] = f"{rounds} rounds"
            else:
                n[name] = f"{self.size['round_frames']} frames in each of {rounds} rounds"
        window = self.loop.ops_window
        n["sd_ops_per_frame"] = f"{window[1][2] - window[0][2]} frames"
        n["setup_s"] = f"{len(self.setup_times)} set-ups"
        return n

    def cost_metrics(self, untraced_frames):
        """The costs layer: exact op counts, energy, and wall time per op."""
        c = self.loop.costs()
        m = {f"costs.ops_per_frame.L{i + 1}": v for i, v in enumerate(c["ops_layer"])}
        m["costs.energy_nj_per_frame"] = c["energy_nj"]
        m["costs.ops_ratio_dense_over_sd"] = flops_dense(self.net.dims) / c["ops"]
        ops = self.loop.cum_ops[untraced_frames - 1] - self.loop.cum_ops[0]
        sd_s = sum(self.loop.times["sd"][1:untraced_frames])
        m["costs.ns_per_op"] = sd_s / ops * 1e9 if ops else 0.0
        return m


def _maybe_span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class StreamWorkload(Workload):
    def setup(self):
        rng = np.random.default_rng(self.seed)
        net = data.gen_random_network(rng, dims=DIMS).with_scales(list(STREAM_SCALES))
        frames = data.gen_random_stream(rng, self.size["stream_frames"], DIMS[0],
                                        SMOOTHNESS[self.name]).frames
        sd_rt = network.SigmaDeltaRuntime(net)
        td_rt = network.TemporalDiffRuntime(net)
        _warm(net, sd_rt, td_rt, frames[0])
        self.net, self.frames, self.sd_rt, self.td_rt = net, frames, sd_rt, td_rt
        self.batch_frames = frames[:self.size["window"]]

    def sweep(self):
        net, window, checks = self.net, self.batch_frames, self.checks
        ledger, activity = OpLedger(), LayerActivity.for_network(net)
        t0 = time.perf_counter()
        y_sd = experiments.sigma_delta_stream(net, window, ledger=ledger,
                                              activity=activity)
        t1 = time.perf_counter()
        y_round = experiments.rounding_batch(net, window)
        t2 = time.perf_counter()
        y_dense = experiments.dense_batch(net, window)
        t3 = time.perf_counter()
        for i in range(len(window)):
            checks.rel(y_sd[i], y_round[i], f"sigma_delta_stream, frame {i}")
            checks.abs(y_dense[i], self.ref_dense[i], f"dense_batch, frame {i}")
        checks.check(ledger.total_ops == flops_sigma_delta(activity),
                     "sigma_delta_stream ledger ops differ from flops_sigma_delta")
        return t3 - t0


class SweepWorkload(Workload):
    def setup(self):
        size = self.size
        rng = np.random.default_rng(self.seed)
        base = digits.templates()
        os.makedirs(self.workdir, exist_ok=True)
        train = data.FrameDataset(*digits.make_digits(rng, size["n_train"], base))
        test = data.FrameDataset(*digits.make_digits(rng, size["n_test"], base))
        for ds, split in ((train, "train"), (test, "t10k")):
            data.save_idx(ds, os.path.join(self.workdir, f"{split}-images-idx3-ubyte"),
                          os.path.join(self.workdir, f"{split}-labels-idx1-ubyte"))
        net, _ = mlp.train_mlp(train.frames, train.labels, dims=DIMS,
                               rng=np.random.default_rng(MLP_INIT_SEED),
                               epochs=size["mlp_epochs"])
        self.net_path = os.path.join(self.workdir, "net.json")
        network.save_network(net, self.net_path)
        # the per-frame executors see all the digits as stored (1/255 grid),
        # in temporal order; with the fixed initial weights this keeps event
        # rates, and so the work per frame, alike from seed to seed
        both = np.concatenate([train.frames, test.frames])
        stored = data.FrameDataset(np.round(both * 255.0) / 255.0,
                                   np.concatenate([train.labels, test.labels]))
        self.frames = data.temporal_reshuffle(stored, size["buffer"], rng).frames
        sd_rt = network.SigmaDeltaRuntime(net)
        td_rt = network.TemporalDiffRuntime(net)
        _warm(net, sd_rt, td_rt, self.frames[0])
        self.net, self.sd_rt, self.td_rt = net, sd_rt, td_rt
        self.batch_frames = self.frames

    def sweep(self):
        size = self.size
        out_dir = os.path.join(self.workdir, "out")
        t0 = time.perf_counter()
        res = experiments.mnist_experiment(
            self.workdir, self.net_path, out_dir, seed=self.seed,
            lambdas=list(size["lambdas"]), epochs=size["opt_epochs"],
            buffer_size=size["buffer"], threads=SWEEP_WORKERS)
        t1 = time.perf_counter()
        self._check_sweep(res)
        return t1 - t0

    def _check_sweep(self, res):
        checks = self.checks
        rows = {}
        for row in res["rows"]:
            rows[(row["setting"], row["dataset"], row["net_type"])] = row
        for entry in res["summary"]:
            setting = entry["setting"]
            checks.check(not entry["diverged"], f"{setting} diverged")
            if entry["diverged"]:
                continue
            for ds in ("mnist", "temporal_mnist"):
                sd = rows[(setting, ds, "sigma_delta")]
                rnd = rows[(setting, ds, "round")]
                for col in ("class_error_train", "class_error_test"):
                    checks.check(sd[col] == rnd[col],
                                 f"{setting} {ds} {col}: sigma-delta {sd[col]} "
                                 f"!= rounding {rnd[col]}")
            checks.check(entry["sd_kflops_temporal_mnist"] < entry["sd_kflops_mnist"],
                         f"{setting}: temporal sd_kflops "
                         f"{entry['sd_kflops_temporal_mnist']:.1f} not below shuffled "
                         f"{entry['sd_kflops_mnist']:.1f}")


def _warm(net, sd_rt, td_rt, x):
    """First call of every executor, so lazy set-up is not timed later."""
    sd_rt.step(x)
    td_rt.step(x)
    network.forward_original(net, x)
    network.forward_rounding(net, x)
    sd_rt.reset()
    td_rt.reset()


def make(name, seed, size, workdir):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    cls = SweepWorkload if name == "table-sweep" else StreamWorkload
    return cls(name, seed, SIZES[size], workdir)


def run(name, seed, seconds, trace, size, workdir):
    """Run one workload.  Returns (workload, metrics, tracer or None).

    Untraced runs return the end-to-end metrics.  Traced runs measure the
    first 40% of the time untraced (the baseline for tracing overhead and
    for wall time per op), then trace set-up and the rest of the rounds.
    """
    wl = make(name, seed, size, workdir)
    if not trace:
        wl.setup_all(None)
        wl.measure(seconds)
        wl.loop.finish()
        return wl, wl.end_to_end(), None
    tracer = Tracer()
    with tracer:
        wl.setup_all(tracer)
    wl.measure(0.4 * seconds)
    untraced = len(wl.loop.times["sd"])
    untraced_rounds = len(wl.rounds)
    with tracer:
        wl.measure(0.6 * seconds, tracer)
    wl.loop.finish()
    m = analyse(tracer.spans, tracer.pools, len(DIMS) - 1)
    step = "network.SigmaDeltaRuntime.step"
    staged = sum(v for k, v in m.items() if k.startswith("network.stage_us."))
    wl.checks.check(
        abs(staged + m[f"{step}.self_us_per_frame"] - m[f"{step}.us_per_frame"])
        <= 1e-9 * m[f"{step}.us_per_frame"],
        "stage times plus step self time do not add up to the step time")
    m.update(wl.cost_metrics(untraced))
    # overhead in reference units, so host drift between the two parts of
    # the run cancels, then back to microseconds at the untraced speed
    before, after = wl.rounds[:untraced_rounds], wl.rounds[untraced_rounds:]
    ratio = [statistics.median(_ratio(r, "sd_frame_us.p50", "ref_frame_us.p50")
                               for r in wl.timed_rounds(part)) for part in (before, after)]
    wall = wl.wall_times(before)
    m["trace.sd_overhead_us"] = (ratio[1] - ratio[0]) * wall["ref_frame_us.p50"]
    m["bench.ref_frame_us"] = wall["ref_frame_us.p50"]
    m["bench.ref_batch_us_per_frame"] = wall["ref_batch_us_per_frame"]
    m["bench.sd_frame_us.p50"] = wall["sd_frame_us.p50"]
    return wl, m, tracer
