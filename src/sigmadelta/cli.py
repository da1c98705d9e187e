"""Command-line driver for the batch experiments.

Subcommands:
  random-net         tradeoff sweep on the badly-rescaled random network
  mnist              full sweep over both dataset orderings, report CSV
  train-mlp          plain-backprop classifier training (produces --net files)
  check-equivalence  run all four executors over one stream and compare

Each option's dest is the keyword of the library function behind its
command; an option left out is not passed, so that function's default
applies and that function alone checks the value.  Exit codes: 0 success,
2 a refused value, input file or output path (one "error:" line on
stderr), 3 tolerance breach.  Every subcommand is deterministic under a
fixed --seed; the environment variable SIGDEL_THREADS caps sweep workers.
"""

import argparse
import json
import os
import sys

import numpy as np

from .data import load_idx
from .experiments import (equivalence_check, find_mnist_files,
                          mnist_experiment, random_net_experiment)
from .mlp import _TARGET_ACC, accuracy, train_mlp
from .network import load_network, save_network
from .scale_opt import SURROGATES

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3


def _lambda_list(text):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad lambda list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("lambda list must be nonempty")
    return values


def cmd_random_net(opts):
    random_net_experiment(**opts)
    print(f"random-net results written to {opts['out_dir']}")
    return EXIT_OK


def cmd_mnist(opts):
    mnist_experiment(**opts)
    print(f"mnist report written to {opts['out_dir']}")
    return EXIT_OK


def cmd_train_mlp(opts):
    mnist_dir, path = opts.pop("mnist_dir"), opts.pop("net")
    # before any training: save_network would only fail after the last epoch
    if (not path or os.path.isdir(path)
            or not os.path.isdir(os.path.dirname(path) or ".")):
        raise ValueError(f"--net {path!r} is not a file path in an existing "
                         "directory")
    train = load_idx(*find_mnist_files(mnist_dir, "train"))
    test = load_idx(*find_mnist_files(mnist_dir, "test"))
    rng = np.random.default_rng(opts.pop("seed"))
    net, history = train_mlp(train.frames, train.labels, rng=rng,
                             verbose=True, **opts)
    test_acc = accuracy(net, test.frames, test.labels)
    save_network(net, path)
    print(f"saved {path}: val_acc={history[-1]['val_acc']:.4f} "
          f"test_acc={test_acc:.4f}")
    target_acc = opts.get("target_acc", _TARGET_ACC)
    if test_acc < target_acc:
        print(f"warning: test accuracy {test_acc:.4f} below target "
              f"{target_acc}", file=sys.stderr)
    return EXIT_OK


def cmd_check(opts):
    out = opts.pop("out", None)
    if "net" in opts:
        opts["net"] = load_network(opts["net"])
    report = equivalence_check(**opts)
    if out is not None:  # before printing: a bad path, '' too, exits 2
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "equivalence.json"), "w") as f:
            json.dump(report, f, sort_keys=True, indent=2)
            f.write("\n")
    for key, value in report.items():
        print(f"{key}: {value}")
    return EXIT_OK if report["passed"] else EXIT_TOLERANCE


def build_parser():
    p = argparse.ArgumentParser(
        prog="sigmadelta",
        description="Event-driven network experiments and checks.")
    sub = p.add_subparsers(metavar="command", required=True)

    def command(name, run, summary):
        sp = sub.add_parser(name, help=summary,
                            argument_default=argparse.SUPPRESS)
        sp.set_defaults(run=run)
        return sp

    def sweep_options(sp):
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out", dest="out_dir", required=True,
                        help="output directory")
        sp.add_argument("--lambda-list", dest="lambdas", type=_lambda_list)
        sp.add_argument("--eta", type=float)
        sp.add_argument("--epochs", type=int)
        sp.add_argument("--surrogate", help=" or ".join(SURROGATES))

    rn = command("random-net", cmd_random_net, "random-network tradeoff sweep")
    sweep_options(rn)
    rn.add_argument("--n-random", type=int)
    rn.add_argument("--train-frames", type=int)
    rn.add_argument("--eval-frames", type=int)

    mn = command("mnist", cmd_mnist,
                 "sweep on MNIST and its temporal reshuffle")
    sweep_options(mn)
    mn.add_argument("--mnist-dir", required=True)
    mn.add_argument("--net", dest="net_path", required=True,
                    help="pretrained network file")
    mn.add_argument("--buffer-size", type=int)
    mn.add_argument("--opt-frames", type=int,
                    help="cap on frames used for scale optimization")

    tr = command("train-mlp", cmd_train_mlp, "train a classifier on MNIST")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--mnist-dir", required=True)
    tr.add_argument("--net", required=True, help="where to write the network")
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--target-acc", type=float)
    tr.add_argument("--dims", type=lambda s: tuple(int(v) for v in s.split(",")))

    ck = command("check-equivalence", cmd_check,
                 "compare all four executors on one stream")
    ck.add_argument("--seed", type=int)
    ck.add_argument("--out", help="optional report directory")
    ck.add_argument("--net", help="network file (default: generated)")
    ck.add_argument("--frames", dest="n_frames", type=int)
    ck.add_argument("--smoothness", type=float)
    ck.add_argument("--sd-tol", type=float)
    ck.add_argument("--td-tol", type=float)
    return p


def main(argv=None):
    opts = vars(build_parser().parse_args(argv))
    run = opts.pop("run")
    try:
        return run(opts)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
