import json

import numpy as np
import pytest

from sigmadelta.cli import main
from sigmadelta.network import load_network
from tests.test_experiments import make_digit_fixture


def test_check_equivalence_passes(tmp_path, capsys):
    out = tmp_path / "chk"
    rc = main(["check-equivalence", "--seed", "3", "--frames", "100",
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "equivalence.json").read_text())
    assert report["passed"]
    assert "max_sigma_delta_vs_rounding_rel" in capsys.readouterr().out


def test_check_equivalence_tolerance_breach_exits_3(tmp_path):
    # the sigma-delta network is the rounding network exactly, so the
    # breach comes from the temporal-difference executor's float dust
    out = tmp_path / "chk"
    rc = main(["check-equivalence", "--seed", "3", "--frames", "30",
               "--td-tol", "1e-30", "--out", str(out)])
    assert rc == 3
    report = json.loads((out / "equivalence.json").read_text())
    assert report["max_sigma_delta_vs_rounding_rel"] == 0.0


def test_check_equivalence_missing_net_exits_2(tmp_path):
    rc = main(["check-equivalence", "--net", str(tmp_path / "nope.json")])
    assert rc == 2


def test_random_net_small_run(tmp_path):
    out = tmp_path / "rn"
    rc = main(["random-net", "--seed", "1", "--out", str(out),
               "--lambda-list", "1e-6", "--n-random", "15",
               "--train-frames", "128", "--eval-frames", "64",
               "--epochs", "1"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 1
    assert (out / "cloud.csv").read_text().startswith("sample_id,error,kflops")


def test_bad_lambda_list_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["random-net", "--out", str(tmp_path), "--lambda-list", "zzz"])
    assert exc.value.code == 2


def test_train_mlp_and_mnist_pipeline(tmp_path):
    rng = np.random.default_rng(11)
    ddir, _ = make_digit_fixture(tmp_path, rng)
    net_file = tmp_path / "trained.json"
    rc = main(["train-mlp", "--mnist-dir", str(ddir), "--net", str(net_file),
               "--seed", "2", "--epochs", "30", "--target-acc", "0.9",
               "--dims", "64,24,10"])
    assert rc == 0
    net = load_network(net_file)
    assert net.dims == (64, 24, 10)

    out = tmp_path / "mnist-out"
    rc = main(["mnist", "--mnist-dir", str(ddir), "--net", str(net_file),
               "--out", str(out), "--lambda-list", "1e-6", "--epochs", "1",
               "--buffer-size", "8", "--opt-frames", "64", "--seed", "0"])
    assert rc == 0
    assert (out / "report.csv").exists()
    assert (out / "trace_lambda_1e-06.csv").exists()


def test_mnist_missing_data_exits_2(tmp_path):
    net_file = tmp_path / "net.json"
    net_file.write_text("{}")
    rc = main(["mnist", "--mnist-dir", str(tmp_path / "none"),
               "--net", str(net_file), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_mnist_missing_net_exits_2(tmp_path):
    rc = main(["mnist", "--mnist-dir", str(tmp_path),
               "--net", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
