"""The CLI passes each option to its command's library function unchanged.

An option's dest is a parameter of that function (or one the command reads
itself), a left-out option keeps the function's own default, and a value
the function refuses exits 2 with one "error:" line and no file written.
"""

import argparse
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

import sigmadelta.cli as cli
from sigmadelta.cli import build_parser, main
from sigmadelta.data import FrameDataset, load_idx, save_idx
from sigmadelta.experiments import (equivalence_check, find_mnist_files,
                                    mnist_experiment, random_net_experiment)
from sigmadelta.mlp import train_mlp
from tests.test_experiments import make_digit_fixture

README = Path(__file__).resolve().parent.parent / "README.md"

LIBRARY = {
    "random-net": random_net_experiment,
    "mnist": mnist_experiment,
    "train-mlp": train_mlp,
    "check-equivalence": equivalence_check,
}
# options a command reads itself instead of passing them on
CONSUMED = {
    "train-mlp": {"mnist_dir", "net", "seed"},
    "check-equivalence": {"out", "net"},
}


def subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def options(sp):
    return [a for a in sp._actions if not isinstance(a, argparse._HelpAction)]


def test_every_command_has_a_library_function():
    assert set(subparsers()) == set(LIBRARY)


@pytest.mark.parametrize("command", sorted(LIBRARY))
def test_every_dest_is_a_library_keyword(command):
    params = inspect.signature(LIBRARY[command]).parameters
    consumed = CONSUMED.get(command, set())
    for action in options(subparsers()[command]):
        assert action.dest in params or action.dest in consumed, (
            f"{command} {action.option_strings}: dest {action.dest!r} is "
            f"not a parameter of {LIBRARY[command].__name__}")
        if action.dest not in consumed:
            # left out, the option is not passed: the library's default holds
            assert action.default is argparse.SUPPRESS, action.option_strings


@pytest.mark.parametrize("command", ["random-net", "mnist"])
def test_threads_reaches_the_sweep_driver(command, monkeypatch):
    seen = {}
    monkeypatch.setattr(cli, LIBRARY[command].__name__,
                        lambda **kwargs: seen.update(kwargs))
    argv = [command, "--out", "o", "--threads", "3"]
    if command == "mnist":
        argv += ["--mnist-dir", "d", "--net", "n"]
    assert main(argv) == 0
    assert seen["threads"] == 3


def readme_synopsis():
    """{command: set of --options} from the README's CLI synopsis block."""
    text = README.read_text()
    section = text[text.index("## Command-line interface"):]
    block = section.split("```")[1]
    synopsis, command = {}, None
    for line in block.splitlines():
        m = re.match(r"sigmadelta (\S+)", line)
        if m:
            command = m.group(1)
            synopsis[command] = set()
        if command is not None:
            synopsis[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return synopsis


def test_readme_synopsis_lists_exactly_the_parser_options():
    parsed = {name: {opt for a in options(sp) for opt in a.option_strings}
              for name, sp in subparsers().items()}
    assert readme_synopsis() == parsed


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """{name: path} for the digit data, its net and refused --net files."""
    tmp = tmp_path_factory.mktemp("digits")
    ddir, net_path = make_digit_fixture(tmp, np.random.default_rng(11))
    header = {"format": "sigmadelta-network", "version": 1}
    layer = json.loads(net_path.read_text())["layers"][0]
    bad_layers = {"no_weights": {k: v for k, v in layer.items()
                                 if k != "weights"},
                  "scale_object": dict(layer, scale={}),
                  "scale_string": dict(layer, scale="1.5"),
                  "scale_boolean": dict(layer, scale=True),
                  # one scale per input: layers have one scale each
                  "scale_list": dict(layer, scale=[1.0] * layer["d_in"]),
                  # one input row of d_out weights: only d_in's type is wrong
                  "d_in_boolean": dict(layer, d_in=True, weights=layer["bias"])}
    docs = {"malformed": "not json", "json_list": "[1, 2]",
            "no_layers": json.dumps(header),
            **{name: json.dumps(dict(header, layers=[bad]))
               for name, bad in bad_layers.items()}}
    one = tmp / "one-image"  # the digit data, cut to one training image
    one.mkdir()
    for split, prefix in (("train", "train"), ("test", "t10k")):
        ds = load_idx(*find_mnist_files(ddir, split))
        save_idx(FrameDataset(ds.frames[:1], ds.labels[:1]),
                 one / f"{prefix}-images-idx3-ubyte",
                 one / f"{prefix}-labels-idx1-ubyte")
    paths = {"ddir": str(ddir), "net": str(net_path), "directory": str(ddir),
             "one_image": str(one)}
    for name, text in docs.items():
        (tmp / f"{name}.json").write_text(text)
        paths[name] = str(tmp / f"{name}.json")
    return paths


SMALL_RN = ["--n-random", "5", "--train-frames", "32", "--eval-frames", "16",
            "--epochs", "1"]

REFUSED = {
    "random-net --eta 0": ["random-net", "--eta", "0"],
    "random-net --eta nan": ["random-net", "--eta", "nan"],
    "random-net --eta inf": ["random-net", "--eta", "inf"],
    "random-net --lambda-list nan": ["random-net", "--lambda-list", "nan"],
    "random-net --n-random 0": ["random-net", "--n-random", "0"],
    "random-net --lambda-list=-1e-6": ["random-net", "--lambda-list=-1e-6"],
    "random-net --epochs=-1": ["random-net"] + SMALL_RN + ["--epochs=-1"],
    "random-net --surrogate nope": ["random-net", "--surrogate", "nope"],
    "check-equivalence --frames 0": ["check-equivalence", "--frames", "0"],
    "check-equivalence --smoothness 2": ["check-equivalence",
                                         "--smoothness", "2"],
    "check-equivalence --td-tol -1": ["check-equivalence", "--td-tol", "-1",
                                      "--frames", "20"],
    "check-equivalence --sd-tol nan": ["check-equivalence", "--sd-tol", "nan"],
    "check-equivalence --out ''": ["check-equivalence", "--out", "",
                                   "--frames", "20"],
    **{f"check-equivalence --net {name}": ["check-equivalence", "--net",
                                           f"{{{name}}}"]
       for name in ("malformed", "json_list", "no_layers", "no_weights",
                    "scale_object", "scale_string", "scale_boolean",
                    "scale_list", "d_in_boolean", "directory")},
    "train-mlp --epochs 0": ["train-mlp", "--mnist-dir", "{ddir}",
                             "--epochs", "0", "--dims", "64,24,10"],
    "mnist --opt-frames 0": ["mnist", "--mnist-dir", "{ddir}", "--net",
                             "{net}", "--opt-frames", "0",
                             "--lambda-list", "1e-6", "--epochs", "1"],
    "random-net --threads 0": ["random-net"] + SMALL_RN + ["--threads", "0"],
    "mnist --threads 0": ["mnist", "--mnist-dir", "{ddir}", "--net", "{net}",
                          "--threads", "0", "--lambda-list", "1e-6",
                          "--epochs", "1"],
    "train-mlp one image": ["train-mlp", "--mnist-dir", "{one_image}",
                            "--epochs", "1", "--dims", "64,24,10"],
    # labels 0..9 against 5 classes
    "train-mlp --dims 64,24,5": ["train-mlp", "--mnist-dir", "{ddir}",
                                 "--epochs", "1", "--dims", "64,24,5"],
    # an output path that is an existing file, or lies under one
    "random-net --out FILE": ["random-net", "--out", "{net}"] + SMALL_RN,
    "mnist --out FILE": ["mnist", "--mnist-dir", "{ddir}", "--net", "{net}",
                         "--out", "{net}", "--lambda-list", "1e-6",
                         "--epochs", "1"],
    "check-equivalence --out FILE/sub": ["check-equivalence", "--frames",
                                         "20", "--out", "{net}/sub"],
    # refused before any epoch runs and prints its line
    "train-mlp --net FILE/sub": ["train-mlp", "--mnist-dir", "{ddir}",
                                 "--epochs", "1", "--dims", "64,24,10",
                                 "--net", "{net}/sub"],
    "train-mlp --net DIR": ["train-mlp", "--mnist-dir", "{ddir}",
                            "--epochs", "1", "--dims", "64,24,10",
                            "--net", "{directory}"],
    "train-mlp --net ''": ["train-mlp", "--mnist-dir", "{ddir}",
                           "--epochs", "1", "--dims", "64,24,10",
                           "--net", ""],
    # refused before any draw: no layer to build, or a layer of width 0
    "train-mlp --dims 64": ["train-mlp", "--mnist-dir", "{ddir}",
                            "--epochs", "1", "--dims", "64"],
    "train-mlp --dims 64,0,10": ["train-mlp", "--mnist-dir", "{ddir}",
                                 "--epochs", "1", "--dims", "64,0,10"],
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_value_exits_2_with_one_line_and_no_file(
        name, inputs, tmp_path, monkeypatch, capsys):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = [a.format(**inputs) for a in REFUSED[name]]
    command = argv[0]
    if (command in ("random-net", "mnist", "check-equivalence")
            and "--out" not in argv):
        argv += ["--out", str(work / "out")]
    if command == "train-mlp" and "--net" not in argv:
        argv += ["--net", str(work / "net.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert captured.out == ""
    assert list(work.iterdir()) == []
