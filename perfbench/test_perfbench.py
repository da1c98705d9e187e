"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench``."""

import itertools
import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import sigmadelta.network as network  # noqa: E402
import workloads  # noqa: E402
from tracing import ID, NAME, PARENT, START, END, THREAD, Tracer  # noqa: E402


def _bench(cwd, workload, trace, run_py=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "0",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    out = _bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer"] if trace else spec["end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in names})
    for value in result["metrics"].values():
        assert isinstance(value["value"], float) and math.isfinite(value["value"])


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


@pytest.mark.parametrize("runtime", [network.SigmaDeltaRuntime,
                                     network.TemporalDiffRuntime])
def test_corrupted_output_counts_as_failure(runtime, monkeypatch, tmp_path):
    original = runtime.step
    calls = itertools.count()

    def corrupted(self, x, **kwargs):
        y = original(self, x, **kwargs)
        return y + 1.0 if next(calls) % 7 == 3 else y

    monkeypatch.setattr(runtime, "step", corrupted)
    wl, _, _ = workloads.run("stream-smooth", 0, 0.2, 0, "tiny", str(tmp_path))
    assert 0 < wl.checks.failed < wl.checks.attempted


def test_clean_run_has_no_failures(tmp_path):
    wl, _, _ = workloads.run("stream-smooth", 0, 0.2, 0, "tiny", str(tmp_path))
    assert wl.checks.failed == 0 and wl.checks.attempted > 0


def test_exits_nonzero_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _bench(tmp_path, "stream-smooth", 0, tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert out.stdout == ""


class _Box:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i


def test_tracer_keeps_every_span_across_threads():
    tracer = Tracer(targets=[(_Box, "outer", "outer", None),
                             (_Box, "inner", "inner", None)])
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer:
            threads = [threading.Thread(target=_Box().outer, args=(300,))
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert "__wrapped__" not in vars(_Box.outer)
    spans = tracer.spans
    assert len(spans) == 8 * 301
    assert len({s[ID] for s in spans}) == len(spans)
    by_id = {s[ID]: s for s in spans}
    for s in spans:
        if s[NAME] == "inner":
            p = by_id[s[PARENT]]
            assert p[NAME] == "outer" and p[THREAD] == s[THREAD]
            assert p[START] <= s[START] <= s[END] <= p[END]
