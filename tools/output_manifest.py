"""Write the package's reproducible outputs, with a sha256 manifest.

    python tools/output_manifest.py OUT_DIR

runs the source tree this script sits in (its src/ and demos/) and writes
into OUT_DIR, which must be new or empty:

- random_net/: random_net_experiment's CSVs and manifest (seed 7, 50
  random rescalings, 256 train and 64 eval frames, 2 epochs);
- digits/ and net.json: make_digit_fixture of tests/test_experiments.py
  at the sizes of its module fixture (rng 6, 96 train and 48 test
  64-pixel digits), with the 64-24-10 classifier train_mlp trains on it;
- mnist/: mnist_experiment on those digits and that net (seed 3, lambdas
  1e-7 and 1e-5, 2 epochs, buffer 20): report.csv, the trace CSVs and
  the manifest;
- equivalence/equivalence.json and check-equivalence.stdout
  (check-equivalence --seed 4 --frames 300);
- demos/NAME.stdout for each demo;
- settings.json: the BLAS thread settings and --threads value below,
  and the Python and numpy versions;
- SHA256SUMS: the sha256 of every file above, in `sha256sum -c` form.

Everything runs with one BLAS thread, random-net and mnist with
--threads 2, and the CLI runs inside OUT_DIR on relative paths, so the
manifests echo no absolute path.  Two trees are output-neutral on this
host when their SHA256SUMS are equal; to check an older tree, copy
this script into its tools/.  A tree whose CLI has no --threads needs
its own copy, whose settings.json records the worker count its own way,
so only that file's line differs.  A command that exits non-zero stops
the run.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
SWEEP_THREADS = "2"  # random-net's and mnist's --threads


def run(args, cwd, stdout=None):
    """Run a command; its stdout goes to the file stdout, if given."""
    proc = subprocess.run([sys.executable, *args], cwd=cwd,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    if stdout is not None:
        stdout.write_text(proc.stdout)


def write_manifest(out):
    lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
             f"{p.relative_to(out).as_posix()}\n"
             for p in sorted(out.rglob("*")) if p.is_file()]
    (out / "SHA256SUMS").write_text("".join(lines))


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    # for this process and every command it runs
    os.environ.update(THREADS, PYTHONPATH=str(ROOT / "src"))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # imported once THREADS is set: numpy reads the BLAS setting on load
    import numpy as np
    from tests.test_experiments import make_digit_fixture

    cli = ["-m", "sigmadelta.cli"]
    run(cli + ["random-net", "--out", "random_net", "--seed", "7",
               "--n-random", "50", "--train-frames", "256",
               "--eval-frames", "64", "--epochs", "2",
               "--threads", SWEEP_THREADS], out)
    make_digit_fixture(out, np.random.default_rng(6), n_train=96, n_test=48)
    run(cli + ["mnist", "--mnist-dir", "digits", "--net", "net.json",
               "--out", "mnist", "--seed", "3", "--lambda-list", "1e-7,1e-5",
               "--epochs", "2", "--buffer-size", "20",
               "--threads", SWEEP_THREADS], out)
    run(cli + ["check-equivalence", "--seed", "4", "--frames", "300",
               "--out", "equivalence"], out, out / "check-equivalence.stdout")
    (out / "demos").mkdir()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        run([str(demo)], ROOT, out / "demos" / f"{demo.stem}.stdout")
    settings = dict(THREADS, threads=SWEEP_THREADS,
                    python=platform.python_version(), numpy=np.__version__)
    (out / "settings.json").write_text(
        json.dumps(settings, sort_keys=True, indent=2) + "\n")
    write_manifest(out)
    print(out / "SHA256SUMS")


if __name__ == "__main__":
    main(sys.argv[1:])
