"""Span tracing of calls into the library, installed from outside it.

Each traced function is replaced at the name its caller looks it up by:
a module global for functions imported by name (``sigmadelta.network``
calls ``to_events`` through its own globals, so that is where the wrapper
goes), or the class attribute for methods.  Nothing under ``src/`` is
edited, and the originals are restored when tracing stops.

A span is ``(id, parent, name, thread, start, end, attrs)``.  Parents are
tracked per thread, so spans recorded by the sweep's pool threads nest
correctly.  ``attrs`` holds counts taken at the same boundary.
"""

import gzip
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import sigmadelta.data
import sigmadelta.experiments
import sigmadelta.kernels
import sigmadelta.mlp
import sigmadelta.network
import sigmadelta.quantizers
import sigmadelta.scale_opt

ID, PARENT, NAME, THREAD, START, END, ATTRS = range(7)

SD_STEP = "network.SigmaDeltaRuntime.step"
TD_STEP = "network.TemporalDiffRuntime.step"
FWD_ROUND = "network.forward_rounding"
FWD_ORIG = "network.forward_original"
# The per-frame executors.  A kernel call made under one of them is charged
# to a frame of that executor.
EXECUTORS = (SD_STEP, TD_STEP, FWD_ROUND, FWD_ORIG)

# The benchmark's own spans: the roots every library span hangs under.
SETUP, SWEEP, FRAMES = "bench.setup", "bench.sweep", "bench.frames"

# The stage of a sigma-delta layer that each direct child of the step is.
STAGES = {
    "quantizers.TemporalDifference.step": "quantize",
    "quantizers.Herder.step": "quantize",
    "kernels.to_events": "extract",
    "kernels.sparse_accumulate": "accumulate",
    "network.apply_activation": "activate",
}
STAGE_NAMES = ("quantize", "extract", "accumulate", "activate")


def _events_attrs(args, kwargs):
    events = args[0]
    return {"events": events.num_events, "rows": int(events.indices.size)}


# (owner, attribute, span name, attrs function or None)
TARGETS = [
    (sigmadelta.network.SigmaDeltaRuntime, "step", SD_STEP, None),
    (sigmadelta.network.TemporalDiffRuntime, "step", TD_STEP, None),
    (sigmadelta.network, "forward_rounding", FWD_ROUND, None),
    (sigmadelta.network, "forward_original", FWD_ORIG, None),
    (sigmadelta.network, "to_events", "kernels.to_events", None),
    (sigmadelta.network, "sparse_accumulate", "kernels.sparse_accumulate",
     _events_attrs),
    (sigmadelta.network, "apply_activation", "network.apply_activation", None),
    (sigmadelta.network.LayerSpec, "scaled_weights",
     "network.LayerSpec.scaled_weights", None),
    (sigmadelta.kernels.SparseEvents, "__init__", "kernels.SparseEvents", None),
    (sigmadelta.quantizers.TemporalDifference, "step",
     "quantizers.TemporalDifference.step", None),
    (sigmadelta.quantizers.Herder, "step", "quantizers.Herder.step", None),
    (sigmadelta.experiments, "sigma_delta_stream",
     "experiments.sigma_delta_stream", None),
    (sigmadelta.experiments, "rounding_batch", "experiments.rounding_batch", None),
    (sigmadelta.experiments, "dense_batch", "experiments.dense_batch", None),
    (sigmadelta.experiments, "optimize", "scale_opt.optimize", None),
    (sigmadelta.experiments, "temporal_reshuffle", "data.temporal_reshuffle", None),
    (sigmadelta.experiments, "load_idx", "data.load_idx", None),
    (sigmadelta.scale_opt, "grad_kappa", "scale_opt.grad_kappa", None),
    (sigmadelta.scale_opt, "update_scales", "scale_opt.update_scales", None),
    (sigmadelta.data, "gen_random_stream", "data.gen_random_stream", None),
    (sigmadelta.data, "save_idx", "data.save_idx", None),
    (sigmadelta.mlp, "train_mlp", "mlp.train_mlp", None),
]


class Tracer:
    """Collects spans in memory while its patches are installed.

    Use as ``with tracer:`` around the code to trace, and ``tracer.span``
    around the benchmark's own steps.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.pools = []  # (start, end, workers) of each sweep thread pool
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._saved = None

    def _open(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._id_lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, attrs):
        t1 = time.perf_counter()
        self._local.stack.pop()
        # list.append is one call under the interpreter lock, so pool
        # threads cannot lose each other's spans
        self.spans.append((sid, parent, name, threading.get_ident(), t0, t1,
                           attrs))

    def _wrap(self, fn, name, attrs_fn):
        def traced(*args, **kwargs):
            attrs = attrs_fn(args, kwargs) if attrs_fn is not None else None
            sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                attrs = dict(attrs or {}, error=True)
                raise
            finally:
                self._close(sid, parent, name, t0, attrs)

        traced.__wrapped__ = fn
        return traced

    def span(self, name):
        """Context manager recording a span around the benchmark's own code."""
        return _Span(self, name)

    def __enter__(self):
        if self._saved is not None:
            raise RuntimeError("tracer already installed")
        self._saved = []
        for owner, attr, name, attrs_fn in self.targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs_fn))
        pools = self.pools

        class TracedPool(ThreadPoolExecutor):
            """Records each sweep pool's lifetime and worker count."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._bench_start = time.perf_counter()

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                pools.append((self._bench_start, time.perf_counter(),
                              self._max_workers))

        self._saved.append((sigmadelta.experiments, "ThreadPoolExecutor",
                            sigmadelta.experiments.ThreadPoolExecutor))
        sigmadelta.experiments.ThreadPoolExecutor = TracedPool
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = None

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s[ID], "parent": s[PARENT],
                                    "name": s[NAME], "thread": s[THREAD],
                                    "start": s[START], "end": s[END],
                                    "attrs": s[ATTRS]}) + "\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.sid, self.parent = self.tracer._open()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.parent, self.name, self.t0, None)


def _per(x, n, scale=1.0):
    return x / n * scale if n else 0.0


def analyse(spans, pools, n_layers):
    """Per-layer metrics from the recorded spans.

    ``us_per_frame`` of a function is the time a frame spends in it across
    the per-frame executors: for each executor, the function's time under
    that executor divided by the executor's call count, summed.  ``.s``
    metrics are seconds per sweep (or per set-up for set-up functions),
    summed over pool threads.
    """
    spans = sorted(spans, key=lambda s: s[ID])  # parents start first
    names, executor, root, child_time = {}, {}, {}, {}
    for s in spans:
        sid, parent, name = s[ID], s[PARENT], s[NAME]
        names[sid] = name
        if parent is None:
            executor[sid] = name if name in EXECUTORS else None
            root[sid] = name
        else:
            executor[sid] = name if name in EXECUTORS else executor[parent]
            root[sid] = root[parent]
            child_time[parent] = child_time.get(parent, 0.0) + s[END] - s[START]

    calls, total, self_time = {}, {}, {}
    under = {}  # (name, executor) -> seconds
    rooted = {}  # (name, root) -> seconds
    for s in spans:
        name, dur = s[NAME], s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child_time.get(s[ID], 0.0)
        key = (name, executor[s[ID]])
        under[key] = under.get(key, 0.0) + dur
        key = (name, root[s[ID]])
        rooted[key] = rooted.get(key, 0.0) + dur

    m = {}
    for name in ("kernels.to_events", "kernels.SparseEvents",
                 "kernels.sparse_accumulate",
                 "quantizers.TemporalDifference.step", "quantizers.Herder.step"):
        m[f"{name}.us_per_frame"] = sum(
            _per(under.get((name, e), 0.0), calls.get(e), 1e6) for e in EXECUTORS)
    m["network.LayerSpec.scaled_weights.us_per_frame"] = _per(
        under.get(("network.LayerSpec.scaled_weights", FWD_ROUND), 0.0),
        calls.get(FWD_ROUND), 1e6)
    for name in (SD_STEP, FWD_ROUND, TD_STEP):
        m[f"{name}.self_us_per_frame"] = _per(self_time.get(name, 0.0),
                                              calls.get(name), 1e6)

    # Stages: the i-th call of a stage function inside one step is layer i.
    n_sd = calls.get(SD_STEP, 0)
    stage = {(l, st): 0.0 for l in range(n_layers) for st in STAGE_NAMES}
    events = [0] * n_layers
    rows = [0] * n_layers
    seen = {}
    for s in spans:
        parent = s[PARENT]
        if parent is None or names[parent] != SD_STEP or s[NAME] not in STAGES:
            continue
        key = (parent, s[NAME])
        layer = seen.get(key, 0)
        seen[key] = layer + 1
        if layer >= n_layers:
            continue
        stage[(layer, STAGES[s[NAME]])] += s[END] - s[START]
        if s[NAME] == "kernels.sparse_accumulate":
            events[layer] += s[ATTRS]["events"]
            rows[layer] += s[ATTRS]["rows"]
    for (l, st), t in stage.items():
        m[f"network.stage_us.L{l + 1}.{st}"] = _per(t, n_sd, 1e6)
    for l in range(n_layers):
        m[f"kernels.events_per_frame.L{l + 1}"] = _per(events[l], n_sd)
        m[f"kernels.rows_per_frame.L{l + 1}"] = _per(rows[l], n_sd)
    m[f"{SD_STEP}.us_per_frame"] = _per(total.get(SD_STEP, 0.0), n_sd, 1e6)

    n_sweeps = calls.get(SWEEP, 0)
    for name in ("experiments.sigma_delta_stream", "experiments.rounding_batch",
                 "experiments.dense_batch", "data.temporal_reshuffle",
                 "data.load_idx"):
        m[f"{name}.s"] = _per(rooted.get((name, SWEEP), 0.0), n_sweeps)
    for name in ("data.gen_random_stream", "data.save_idx", "mlp.train_mlp"):
        m[f"{name}.s"] = _per(rooted.get((name, SETUP), 0.0), calls.get(SETUP))

    opt = [s for s in spans if s[NAME] == "scale_opt.optimize"]
    busy = sum(s[END] - s[START] for s in opt)
    m["scale_opt.optimize.s"] = _per(busy, n_sweeps)
    m["scale_opt.diverged"] = _per(
        sum(1 for s in opt if s[ATTRS] and s[ATTRS].get("error")), n_sweeps)
    for name in ("scale_opt.grad_kappa", "scale_opt.update_scales"):
        m[f"{name}.us_per_call"] = _per(total.get(name, 0.0), calls.get(name), 1e6)
    m["scale_opt.grad_kappa.calls"] = _per(calls.get("scale_opt.grad_kappa", 0), n_sweeps)
    capacity = sum((end - start) * workers for start, end, workers in pools)
    m["experiments.pool_busy_ratio"] = _per(busy, capacity)
    m["trace.spans"] = len(spans)
    return m
