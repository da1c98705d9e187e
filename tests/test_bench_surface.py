"""The library surface the benchmark in perfbench/ relies on.

The benchmark's tracer replaces each of its targets where the library looks
it up, and reads the original from the owner's __dict__.  A change to src/
that moves or renames one of them breaks the benchmark; this test makes it
break tier-1 first.  Nothing under perfbench/ is run, only imported.
"""

import ast
import importlib
import inspect
import math
import sys
from pathlib import Path

import numpy as np

import sigmadelta.costs as costs
import sigmadelta.data as data
import sigmadelta.experiments as experiments
import sigmadelta.mlp as mlp
import sigmadelta.network as network
import sigmadelta.scale_opt as scale_opt

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def test_workloads_import():
    # at import, workloads binds the library names it uses
    bench_module("workloads")


def test_every_tracer_target_is_where_the_tracer_looks():
    tracing = bench_module("tracing")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.TARGETS
               if attr not in owner.__dict__]
    assert missing == []


def test_pinned_accounting_keywords():
    for fn in (network.SigmaDeltaRuntime.step, experiments.sigma_delta_stream):
        params = inspect.signature(fn).parameters
        assert "ledger" in params and "activity" in params


def test_optimize_steps_through_the_module_global(monkeypatch):
    # the tracer's scale_opt.grad_kappa metrics wrap this name: one call
    # per minibatch of every epoch
    real, calls = scale_opt.grad_kappa, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scale_opt, "grad_kappa", counting)
    rng = np.random.default_rng(0)
    net = network.NetworkSpec([
        network.LayerSpec(rng.standard_normal((6, 5)), np.zeros(5), "relu"),
        network.LayerSpec(rng.standard_normal((5, 4)), np.zeros(4), "identity")])
    cfg = scale_opt.TradeoffConfig(lam=1e-3, epochs=3)
    scale_opt.optimize(net, rng.standard_normal((50, 6)), cfg, rng=rng)
    assert len(calls) == cfg.epochs * math.ceil(50 / scale_opt._BATCH_SIZE)


def test_every_workload_call_binds_to_the_library_signature():
    # a keyword the benchmark passes that src/ dropped or renamed fails
    # here, not only in a benchmark run; calls with * or ** are skipped
    modules = {"data": data, "experiments": experiments, "mlp": mlp,
               "network": network}
    tree = ast.parse((BENCH / "workloads.py").read_text())
    seen, unbound = set(), []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in modules):
            continue
        if (any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            continue
        name = f"{node.func.value.id}.{node.func.attr}"
        fn = getattr(modules[node.func.value.id], node.func.attr)
        try:
            inspect.signature(fn).bind(*node.args,
                                       **{k.arg: k for k in node.keywords})
        except TypeError as e:
            unbound.append(f"workloads.py:{node.lineno} {name}: {e}")
        seen.add(node.func.value.id)
    assert unbound == []
    assert seen == set(modules)


def test_every_costs_call_binds_to_the_library_signature():
    # workloads imports names from costs and kernels and calls them bare
    # (flops_dense(...)) or through a class (LayerActivity.for_network(...))
    tree = ast.parse((BENCH / "workloads.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and node.module in ("sigmadelta.costs", "sigmadelta.kernels")):
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported[alias.asname or alias.name] = getattr(module,
                                                               alias.name)
    seen, unbound = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in imported:
            name, fn = f.id, imported[f.id]
        elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
              and f.value.id in imported):
            name = f"{f.value.id}.{f.attr}"
            fn = getattr(imported[f.value.id], f.attr)
        else:
            continue
        try:
            inspect.signature(fn).bind(*node.args,
                                       **{k.arg: k for k in node.keywords})
        except TypeError as e:
            unbound.append(f"workloads.py:{node.lineno} {name}: {e}")
        seen.add(name)
    assert unbound == []
    assert seen == {"LayerActivity.for_network", "flops_dense",
                    "flops_sigma_delta", "energy", "OpLedger"}


def test_activity_has_what_the_benchmark_reads():
    # FrameLoop snapshots activity.l1 and scales it by activity.fanouts;
    # frames is what a per-frame figure divides by
    tree = ast.parse((BENCH / "workloads.py").read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and (isinstance(node.value, ast.Name) and node.value.id == "activity"
                 or isinstance(node.value, ast.Attribute)
                 and node.value.attr == "activity")}
    assert {"l1", "fanouts"} <= read
    rng = np.random.default_rng(0)
    net = network.NetworkSpec([
        network.LayerSpec(rng.standard_normal((6, 5)), np.zeros(5), "relu"),
        network.LayerSpec(rng.standard_normal((5, 4)), np.zeros(4), "identity")])
    act = costs.LayerActivity.for_network(net)
    network.SigmaDeltaRuntime(net).step(rng.standard_normal(6), activity=act)
    for name in read | {"frames"}:
        assert hasattr(act, name), name
    assert act.frames == 1 and len(act.l1) == len(act.fanouts) == 2
