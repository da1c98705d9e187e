"""Command-line driver for the batch experiments.

Subcommands:
  random-net         tradeoff sweep on the badly-rescaled random network
  mnist              full sweep over both dataset orderings, report CSV
  train-mlp          plain-backprop classifier training (produces --net files)
  check-equivalence  run all four executors over one stream and compare

Exit codes: 0 success, 2 validation failure, 3 tolerance breach.
Every subcommand is deterministic under a fixed --seed; the environment
variable SIGDEL_THREADS caps sweep workers.
"""

import argparse
import json
import os
import sys

import numpy as np

from .data import load_idx
from .experiments import (equivalence_check, find_mnist_files,
                          mnist_experiment, random_net_experiment)
from .mlp import accuracy, train_mlp
from .network import load_network, save_network

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


def build_parser():
    p = argparse.ArgumentParser(
        prog="sigmadelta",
        description="Event-driven network experiments and checks.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", required=True, help="output directory")

    rn = sub.add_parser("random-net", help="random-network tradeoff sweep")
    common(rn)
    rn.add_argument("--lambda-list", type=_lambda_list,
                    default=[1e-8, 1e-7, 1e-6, 1e-5])
    rn.add_argument("--eta", type=float, default=0.02)
    rn.add_argument("--epochs", type=int, default=6)
    rn.add_argument("--surrogate", choices=["ste", "noise"], default="ste")
    rn.add_argument("--n-random", type=int, default=1000)
    rn.add_argument("--train-frames", type=int, default=2048)
    rn.add_argument("--eval-frames", type=int, default=512)

    mn = sub.add_parser("mnist", help="sweep on MNIST and its temporal reshuffle")
    common(mn)
    mn.add_argument("--mnist-dir", required=True)
    mn.add_argument("--net", required=True, help="pretrained network file")
    mn.add_argument("--lambda-list", type=_lambda_list, default=None)
    mn.add_argument("--eta", type=float, default=0.01)
    mn.add_argument("--epochs", type=int, default=2)
    mn.add_argument("--surrogate", choices=["ste", "noise"], default="ste")
    mn.add_argument("--buffer-size", type=int, default=1000)
    mn.add_argument("--opt-frames", type=int, default=None,
                    help="cap on frames used for scale optimization")
    mn.add_argument("--limit-train", type=int, default=None)
    mn.add_argument("--limit-test", type=int, default=None)

    tr = sub.add_parser("train-mlp", help="train a classifier on MNIST")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--mnist-dir", required=True)
    tr.add_argument("--net", required=True, help="where to write the network")
    tr.add_argument("--epochs", type=int, default=50)
    tr.add_argument("--target-acc", type=float, default=0.978)
    tr.add_argument("--dims", type=lambda s: [int(v) for v in s.split(",")],
                    default=[784, 200, 200, 10])

    ck = sub.add_parser("check-equivalence",
                        help="compare all four executors on one stream")
    ck.add_argument("--seed", type=int, default=0)
    ck.add_argument("--out", default=None, help="optional report directory")
    ck.add_argument("--net", default=None, help="network file (default: generated)")
    ck.add_argument("--frames", type=int, default=500)
    ck.add_argument("--smoothness", type=float, default=0.5)
    ck.add_argument("--sd-tol", type=float, default=1e-4)
    ck.add_argument("--td-tol", type=float, default=1e-6)
    return p


def cmd_random_net(args):
    random_net_experiment(
        args.out, seed=args.seed, lambdas=args.lambda_list,
        n_random=args.n_random, train_frames=args.train_frames,
        eval_frames=args.eval_frames, epochs=args.epochs, eta=args.eta,
        surrogate=args.surrogate)
    print(f"random-net results written to {args.out}")
    return EXIT_OK


def cmd_mnist(args):
    if not os.path.exists(args.net):
        print(f"error: no such file: {args.net}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        find_mnist_files(args.mnist_dir, "train")
        find_mnist_files(args.mnist_dir, "test")
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    mnist_experiment(
        args.mnist_dir, args.net, args.out, seed=args.seed,
        lambdas=args.lambda_list, eta=args.eta, epochs=args.epochs,
        surrogate=args.surrogate, buffer_size=args.buffer_size,
        opt_frames=args.opt_frames, limit_train=args.limit_train,
        limit_test=args.limit_test)
    print(f"mnist report written to {args.out}")
    return EXIT_OK


def cmd_train_mlp(args):
    try:
        train_imgs, train_labels = find_mnist_files(args.mnist_dir, "train")
        test_imgs, test_labels = find_mnist_files(args.mnist_dir, "test")
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    train = load_idx(train_imgs, train_labels)
    test = load_idx(test_imgs, test_labels)
    rng = np.random.default_rng(args.seed)
    net, history = train_mlp(train.frames, train.labels, dims=tuple(args.dims),
                             rng=rng, epochs=args.epochs,
                             target_acc=args.target_acc, verbose=True)
    test_acc = accuracy(net, test.frames, test.labels)
    save_network(net, args.net)
    print(f"saved {args.net}: val_acc={history[-1]['val_acc']:.4f} "
          f"test_acc={test_acc:.4f}")
    if test_acc < args.target_acc:
        print(f"warning: test accuracy {test_acc:.4f} below target "
              f"{args.target_acc}", file=sys.stderr)
    return EXIT_OK


def cmd_check(args):
    net = None
    if args.net is not None:
        if not os.path.exists(args.net):
            print(f"error: no such file: {args.net}", file=sys.stderr)
            return EXIT_VALIDATION
        net = load_network(args.net)
    report = equivalence_check(net=net, seed=args.seed, n_frames=args.frames,
                               smoothness=args.smoothness,
                               sd_tol=args.sd_tol, td_tol=args.td_tol)
    for key, value in report.items():
        print(f"{key}: {value}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "equivalence.json"), "w") as f:
            json.dump(report, f, sort_keys=True, indent=2)
            f.write("\n")
    return EXIT_OK if report["passed"] else EXIT_TOLERANCE


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "random-net": cmd_random_net,
        "mnist": cmd_mnist,
        "train-mlp": cmd_train_mlp,
        "check-equivalence": cmd_check,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
