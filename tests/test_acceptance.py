"""End-to-end acceptance checks.

One test per criterion, each printing a single PASS/FAIL line.  Run with

    pytest tests/test_acceptance.py -v -s

Criteria 9 and 10 need the real MNIST IDX files; point SIGDEL_MNIST_DIR at
a directory holding train-images-idx3-ubyte / train-labels-idx1-ubyte /
t10k-images-idx3-ubyte / t10k-labels-idx1-ubyte (optionally .gz), or drop
them under data/mnist/.  Without the files those two tests skip.  The
first MNIST run trains the classifier network and caches it under
.cache/.
"""

import os

import numpy as np
import pytest

from sigmadelta.costs import (DEFAULT_ENERGY_TABLE, LayerActivity, energy,
                              flops_dense, flops_rounding)
from sigmadelta.data import (gen_random_network, gen_random_stream, load_idx,
                             temporal_reshuffle)
from sigmadelta.experiments import (dense_batch, find_mnist_files,
                                    mnist_experiment, random_net_experiment,
                                    sigma_delta_stream)
from sigmadelta.kernels import OpLedger
from sigmadelta.mlp import accuracy, train_mlp
from sigmadelta.network import (LayerSpec, NetworkSpec, SigmaDeltaRuntime,
                                TemporalDiffRuntime, bake_scales,
                                forward_original, forward_rounding,
                                load_network, save_network)
from sigmadelta.quantizers import (DeltaHerder, Herder, TemporalDifference,
                                   round_half_away)
from sigmadelta.scale_opt import TradeoffConfig, error_loss, grad_kappa, scaled_forward

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check(num, desc, ok):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def mnist_dir_or_none():
    candidates = [os.environ.get("SIGDEL_MNIST_DIR"),
                  os.path.join(REPO_ROOT, "data", "mnist")]
    for d in candidates:
        if not d:
            continue
        try:
            find_mnist_files(d, "train")
            find_mnist_files(d, "test")
            return d
        except FileNotFoundError:
            continue
    return None


def test_criterion_1_dense_flop_formula():
    check(1, "flops_dense([784,200,200,10]) == 397,600",
          flops_dense([784, 200, 200, 10]) == 397_600)


def test_criterion_2_energy_model():
    led = OpLedger(float_adds=198_800, float_mults=198_800)
    nj = energy(led, DEFAULT_ENERGY_TABLE, "int32") * 1e9
    # 198,800 * 3.1pJ + 198,800 * 0.1pJ = 636.16 nJ, i.e. the nominal 636
    check(2, f"dense int32 pass -> {nj:.2f} nJ (636.16 exact, within 0.5% of 636)",
          nj == pytest.approx(636.16, rel=1e-12)
          and abs(nj - 636.0) / 636.0 <= 0.005)


def test_criterion_3_delta_herding_equivalence():
    # 10^4 random sequences, batched: herding state is elementwise, so
    # independent sequences stack along the width axis without interacting
    rng = np.random.default_rng(2024)
    chunks, per_chunk = 50, 200
    exact = True
    for _ in range(chunks):
        length = int(rng.integers(1, 201))
        dims = rng.integers(1, 17, per_chunk)
        width = int(dims.sum())
        u = rng.uniform(-10, 10, (length, width))
        td, herd, closed = (TemporalDifference(width), Herder(width),
                            DeltaHerder(width))
        prev_round = np.zeros(width)
        for x in u:
            via_herding = herd.step(td.step(x))
            via_closed_form = closed.step(x)
            r = round_half_away(x)
            via_round_diff = r - prev_round
            prev_round = r
            if not (np.array_equal(via_herding, via_closed_form)
                    and np.array_equal(via_herding, via_round_diff)):
                exact = False
    check(3, f"herd(diff(x)) == diff(round(x)) exactly on "
             f"{chunks * per_chunk} random sequences", exact)


def _equivalence_suite():
    """Random nets of depth <= 4, width <= 64, and 500-frame streams."""
    rng = np.random.default_rng(99)
    cases = []
    for depth in (1, 2, 3, 4):
        dims = [int(rng.integers(8, 65)) for _ in range(depth + 1)]
        acts = [str(rng.choice(["relu", "identity"])) for _ in range(depth - 1)]
        acts.append("softmax" if depth == 3 else "identity")
        layers = []
        for i in range(depth):
            W = rng.standard_normal((dims[i], dims[i + 1])) / np.sqrt(dims[i])
            b = rng.standard_normal(dims[i + 1]) * 0.1
            k = rng.uniform(0.5, 2.0, dims[i]) if depth == 4 and i == 0 \
                else float(rng.uniform(0.3, 3.0))
            layers.append(LayerSpec(W, b, acts[i], k))
        net = NetworkSpec(layers)
        frames = gen_random_stream(rng, 500, dims[0], smoothness=0.6).frames
        cases.append((net, frames))
    return cases


def test_criterion_4_sigma_delta_equals_rounding():
    worst = 0.0
    for net, frames in _equivalence_suite():
        rt = SigmaDeltaRuntime(net)
        for x in frames:
            y_sd = rt.step(x)
            y_round = forward_rounding(net, x)
            denom = max(float(np.max(np.abs(y_round))), 1e-6)
            worst = max(worst, float(np.max(np.abs(y_sd - y_round))) / denom)

    # with integer weights and k=1 the executors agree bit for bit
    rng = np.random.default_rng(100)
    net = NetworkSpec([
        LayerSpec(rng.integers(-2, 3, (12, 10)).astype(float),
                  rng.integers(-2, 3, 10).astype(float), "relu", 1.0),
        LayerSpec(rng.integers(-2, 3, (10, 6)).astype(float),
                  rng.integers(-2, 3, 6).astype(float), "identity", 1.0),
    ])
    rt = SigmaDeltaRuntime(net)
    exact = all(
        np.array_equal(rt.step(x), forward_rounding(net, x))
        for x in rng.integers(-4, 5, (500, 12)).astype(float))
    check(4, f"sigma-delta vs rounding: max rel dev {worst:.2e} < 1e-4; "
             f"integer case exact", worst < 1e-4 and exact)


def test_criterion_5_temporal_diff_equals_original():
    worst = 0.0
    for net, frames in _equivalence_suite():
        rt = TemporalDiffRuntime(net)
        for x in frames:
            y_td = rt.step(x)
            y0 = forward_original(net, x)
            worst = max(worst, float(np.max(np.abs(y_td - y0))))
    check(5, f"temporal-difference vs original: max abs dev {worst:.2e} < 1e-6",
          worst < 1e-6)


def test_criterion_6_scale_baking():
    rng = np.random.default_rng(6)
    worst = 0.0
    nets = []
    for _ in range(5):
        dims = [int(rng.integers(6, 24)) for _ in range(4)]
        layers = []
        for i in range(3):
            W = rng.standard_normal((dims[i], dims[i + 1])) / np.sqrt(dims[i])
            b = rng.standard_normal(dims[i + 1]) * 0.2
            act = "relu" if i < 2 else "identity"
            layers.append(LayerSpec(W, b, act, float(rng.uniform(0.25, 4.0))))
        nets.append(NetworkSpec(layers))
    # the badly-rescaled fixture with nontrivial scales
    fixture = gen_random_network(np.random.default_rng(61))
    nets.append(fixture.with_scales([float(rng.uniform(0.25, 4.0))
                                     for _ in range(3)]))
    for net in nets:
        baked = bake_scales(net)
        for _ in range(100):
            x = rng.standard_normal(net.input_dim)
            dev = np.max(np.abs(forward_rounding(baked, x)
                                - forward_rounding(net, x)))
            worst = max(worst, float(dev))
    check(6, f"baked vs unbaked rounding outputs: max dev {worst:.2e} < 1e-6",
          worst < 1e-6)


def test_criterion_7_gradient_check():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(6):
        dims = [int(rng.integers(3, 9)) for _ in range(3)]
        layers = []
        for i in range(2):
            W = rng.standard_normal((dims[i], dims[i + 1])) / np.sqrt(dims[i])
            b = rng.standard_normal(dims[i + 1]) * 0.1
            act = "relu" if i == 0 else ("softmax" if trial % 2 else "identity")
            layers.append(LayerSpec(W, b, act))
        net = NetworkSpec(layers)
        x = rng.standard_normal((3, dims[0]))
        kappas = list(rng.uniform(-0.5, 0.5, 2))
        # quantization disabled: rounding replaced by its smooth noise
        # surrogate with a replayable draw, making the loss differentiable
        cfg = TradeoffConfig(lam=0.0, surrogate="noise")
        seed = 700 + trial
        grads, _ = grad_kappa(net, x, kappas, cfg,
                              rng=np.random.default_rng(seed))
        y_true = dense_batch(net, x)
        dist = cfg.resolve_distance(net)

        def loss(ks):
            y = scaled_forward(net, x, ks, "noise", np.random.default_rng(seed))
            return error_loss(np.atleast_2d(y), y_true, dist)

        h = 1e-5
        for i in range(2):
            up = [k + (h if j == i else 0.0) for j, k in enumerate(kappas)]
            dn = [k - (h if j == i else 0.0) for j, k in enumerate(kappas)]
            fd = (loss(up) - loss(dn)) / (2 * h)
            rel = abs(grads[i] - fd) / max(abs(fd), 1e-8)
            worst = max(worst, rel)
    # fully disabling quantization leaves no scale dependence at all
    net = NetworkSpec([LayerSpec(np.eye(3), np.zeros(3), "identity")])
    g0, _ = grad_kappa(net, np.ones((2, 3)), [0.3],
                       TradeoffConfig(lam=0.0, surrogate="identity"))
    check(7, f"grad_kappa vs central differences: max rel dev {worst:.2e} "
             f"< 1e-4", worst < 1e-4 and abs(g0[0]) < 1e-12)


def test_criterion_8_pareto_experiment(tmp_path):
    res = random_net_experiment(str(tmp_path / "rn"), seed=0,
                                lambdas=(1e-8, 1e-7, 1e-6, 1e-5),
                                n_random=1000, train_frames=2048,
                                eval_frames=512, epochs=6)
    fracs = [ep["dominated_fraction"] for ep in res["endpoints"]
             if not ep["diverged"]]
    ok = (len(fracs) == 4 and all(f <= 0.05 for f in fracs))
    check(8, "each optimized point dominated by <= 5% of 1000 random "
             f"rescalings (fractions: {[round(f, 4) for f in fracs]})", ok)


_MNIST_SKIP = ("MNIST IDX files not found; set SIGDEL_MNIST_DIR or place "
               "them under data/mnist/ (see README)")


def _cached_mnist_net(mnist_dir):
    cache = os.path.join(REPO_ROOT, ".cache")
    os.makedirs(cache, exist_ok=True)
    path = os.path.join(cache, "mnist-784-200-200-10.json")
    train = load_idx(*find_mnist_files(mnist_dir, "train"))
    test = load_idx(*find_mnist_files(mnist_dir, "test"))
    if not os.path.exists(path):
        net, _ = train_mlp(train.frames, train.labels,
                           dims=(784, 200, 200, 10),
                           rng=np.random.default_rng(0), epochs=50,
                           target_acc=0.985)
        save_network(net, path)
    net = load_network(path)
    return net, train, test, path


@pytest.mark.skipif(mnist_dir_or_none() is None, reason=_MNIST_SKIP)
def test_criterion_9_mnist_reproduction(tmp_path):
    mnist_dir = mnist_dir_or_none()
    net, train, test, net_path = _cached_mnist_net(mnist_dir)
    test_acc = accuracy(net, test.frames, test.labels)
    assert test_acc >= 0.975, f"pretrained net only reaches {test_acc:.4f}"

    res = mnist_experiment(mnist_dir, net_path, str(tmp_path / "mnist"),
                           seed=0, lambdas=list(np.logspace(-10, -5, 10)),
                           epochs=2, buffer_size=1000)
    summary = [s for s in res["summary"] if not s.get("diverged")]
    unopt = summary[0]
    assert unopt["setting"] == "unoptimized"

    a_ok = (30.0 <= unopt["round_kflops"] <= 60.0
            and 15.0 <= unopt["sd_kflops_temporal_mnist"] <= 35.0)
    ratio = unopt["sd_kflops_mnist"] / unopt["sd_kflops_temporal_mnist"]
    b_ok = ratio >= 1.5
    by_key = {(r["setting"], r["net_type"], r["dataset"]): r
              for r in res["rows"] if r.get("net_type") in ("round", "sigma_delta")}
    c_ok = all(
        by_key[(s, "round", d)]["class_error_test"]
        == by_key[(s, "sigma_delta", d)]["class_error_test"]
        and by_key[(s, "round", d)]["class_error_train"]
        == by_key[(s, "sigma_delta", d)]["class_error_train"]
        for s, _, d in {(k[0], None, k[2]) for k in by_key})
    costs = [s["round_kflops"] for s in summary[1:]]
    inversions = sum(1 for x, y in zip(costs, costs[1:]) if y > x)
    d_ok = inversions <= 1

    check(9, f"MNIST: round {unopt['round_kflops']:.1f} kflops in [30,60]; "
             f"sd-temporal {unopt['sd_kflops_temporal_mnist']:.1f} in [15,35]; "
             f"temporal saving {ratio:.2f}x >= 1.5; errors identical: {c_ok}; "
             f"sweep inversions {inversions} <= 1",
          a_ok and b_ok and c_ok and d_ok)


@pytest.mark.skipif(mnist_dir_or_none() is None, reason=_MNIST_SKIP)
def test_criterion_10_temporal_reshuffle_on_mnist():
    mnist_dir = mnist_dir_or_none()
    test = load_idx(*find_mnist_files(mnist_dir, "test"))
    if len(test) == 10_000:  # the official test file
        assert test.width == 784
        assert test.labels[0] == 7
    subset = type(test)(test.frames[:1000], test.labels[:1000])
    rng = np.random.default_rng(10)
    out = temporal_reshuffle(subset, buffer_size=100, rng=rng)
    key = lambda f: sorted(map(tuple, np.round(f * 255).astype(int)))
    is_perm = key(out.frames) == key(subset.frames)
    shuffled = subset.frames[np.random.default_rng(10).permutation(1000)]
    before = np.linalg.norm(np.diff(shuffled, axis=0), axis=1).mean()
    after = np.linalg.norm(np.diff(out.frames, axis=0), axis=1).mean()
    check(10, f"reshuffle is a permutation; adjacent L2 {after:.3f} < "
              f"{before:.3f}", is_perm and after < before)


def test_video_redundancy_substitute_property():
    # stands in for the out-of-scope large-scale video result: on the same
    # network, smoother streams cost fewer sigma-delta events
    net = gen_random_network(np.random.default_rng(42))
    costs = {}
    for name, alpha in (("smooth", 0.9), ("iid", 0.0)):
        frames = gen_random_stream(np.random.default_rng(43), 300, 100, alpha)
        act = LayerActivity.for_network(net)
        sigma_delta_stream(net, frames, activity=act)
        costs[name] = flops_rounding(act)
    check("S", f"sigma-delta cost falls with stream smoothness "
               f"({costs['smooth']} < {costs['iid']} ops)",
          costs["smooth"] < costs["iid"])
