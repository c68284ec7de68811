"""Capture the greenpot CLI's reports for a byte-identity check.

    python3 tools/capture_reports.py SRC_ROOT OUT_DIR

Runs every subcommand of the checkout at ``SRC_ROOT`` (its ``src`` is put
on ``PYTHONPATH``) in a fresh interpreter with one BLAS/OpenMP thread:

- all twelve at their default flags, seeds 0 and 1 (the unit disk for
  ``--domain``, ``[[2,1],[1,2]]`` for ``--matrix``);
- ``converge-disk --transform exp:3`` and ``--transform power:2.5``, and
  ``converge-disk --levels 5``, whose finest column (n = 13122, m = 20589)
  is large enough that the solver's error shows in the digits;
- ``converge-free --beta 1.4 --levels 4``;
- ``riesz-mc --beta 1.5 --trials 20000``;
- ``killed-green --n 1458`` (m = 2285) and, on the unit ball in d = 3,
  ``killed-green --n 162`` (m = 1647), both above ``lattice.DENSE_LIMIT``;
- ``killed-green --n 20000`` (m = 31397), whose killed Green matrix is past
  the byte budget ``lattice.MAX_BYTES``: a resource stop, exit 1, before any
  m x m array exists;
- ``killed-green --n 162 --dump-limit 300`` on the disk (m = 249, its
  matrix dumped), then ``check-potential --matrix @`` that report at its
  default 10000 trials, whose normals the CMP probes score in 40 row blocks;
- ``killed-green --n 930 --dump-limit 1500`` on the disk (m = 1465, just
  above ``lattice.DENSE_LIMIT``: the banded solve), then ``check-potential
  --matrix @`` that report at ``--trials 0``: numpy's LU, as at every size;
- ``lattice-green --d 4 --max 31`` and ``--d 2 --max 300``, whose tables
  reach past the exact ranges 16 and 256;
- ``check-potential --matrix [[1e308,1e308],[0,1e308]] --trials 0``, whose
  condition estimate overflows;
- ``hadamard-sweep --betas nan --count 2`` and ``converge-disk --transform
  power:inf --levels 2``, non-finite transform parameters;
- ``hadamard-sweep --betas 1e308 --count 2``, ``exp-sweep --alphas 1000
  --count 2``, ``cmp-functional --transform power:1e308 --functions 2`` and
  ``converge-disk --transform power:1e308 --levels 2``, finite transforms
  that take a kernel value out of the float range: numerical failures;
- ``lattice-green --d 1``, below the lattice kernels' dimensions;
- ``--help`` of every subcommand and of ``greenpot`` itself.

``OUT_DIR`` receives each run's ``.json`` and ``.csv`` (not the
``.meta.json`` sidecar, which holds a timestamp), the stderr of each run
that wrote any as ``<label>.stderr.txt`` (so failures are compared too),
each ``--help`` text as ``<subcommand>.help.txt`` (``greenpot.help.txt``
for the top level) and every exit code in ``exit_codes.txt``.  Two
captures agree when ``diff -r`` of their directories prints nothing.
Standard library only; greenpot is never imported here.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

DISK = '{"d":2,"shape":{"ball":{"center":[0.0,0.0],"radius":1.0}}}'
BALL3 = '{"d":3,"shape":{"ball":{"center":[0.0,0.0,0.0],"radius":1.0}}}'
MATRIX = "[[2,1],[1,2]]"
REQUIRED = {"killed-green": ["--domain", DISK], "cmp-functional": ["--domain", DISK],
            "exit-mc": ["--domain", DISK], "domain-grid": ["--domain", DISK],
            "check-potential": ["--matrix", MATRIX]}
SUBCOMMANDS = ["lattice-green", "killed-green", "check-potential", "hadamard-sweep",
               "exp-sweep", "cmp-random", "cmp-functional", "converge-disk",
               "converge-free", "riesz-mc", "exit-mc", "domain-grid"]
# label -> subcommand and flags, run at seed 0; a flag here overrides its
# REQUIRED value, since argparse keeps the last
EXTRA = {
    "converge-disk.exp3": ["converge-disk", "--transform", "exp:3"],
    "converge-disk.power2.5": ["converge-disk", "--transform", "power:2.5"],
    "converge-disk.levels5": ["converge-disk", "--levels", "5"],
    "converge-free.beta1.4.levels4": ["converge-free", "--beta", "1.4", "--levels", "4"],
    "riesz-mc.beta1.5.trials20000": ["riesz-mc", "--beta", "1.5", "--trials", "20000"],
    "killed-green.n1458": ["killed-green", "--n", "1458"],
    "killed-green.ball3.n162": ["killed-green", "--domain", BALL3, "--n", "162"],
    # past the byte budget: a resource stop before any m x m array
    "killed-green.n20000": ["killed-green", "--n", "20000"],
    "killed-green.n162.dump300": ["killed-green", "--n", "162", "--dump-limit", "300"],
    # "{out}" is the output directory, where the run above left its report
    "check-potential.n162": ["check-potential", "--matrix", "@{out}/killed-green.n162.dump300.json"],
    "killed-green.n930.dump1500": ["killed-green", "--n", "930", "--dump-limit", "1500"],
    "check-potential.n930": ["check-potential", "--matrix", "@{out}/killed-green.n930.dump1500.json",
                             "--trials", "0"],
    # past the exact ranges, where the table reads the far-field asymptote
    "lattice-green.d4.max31": ["lattice-green", "--d", "4", "--max", "31"],
    "lattice-green.d2.max300": ["lattice-green", "--d", "2", "--max", "300"],
    # the 1-norm condition estimate overflows to inf
    "check-potential.overflow": ["check-potential", "--matrix", "[[1e308,1e308],[0,1e308]]",
                                 "--trials", "0"],
    # non-finite transform parameters
    "hadamard-sweep.betas-nan": ["hadamard-sweep", "--betas", "nan", "--count", "2"],
    "converge-disk.power-inf": ["converge-disk", "--transform", "power:inf", "--levels", "2"],
    # finite transforms past the float range: numerical failures, not verdicts
    "hadamard-sweep.betas-1e308": ["hadamard-sweep", "--betas", "1e308", "--count", "2"],
    "exp-sweep.alphas-1000": ["exp-sweep", "--alphas", "1000", "--count", "2"],
    "cmp-functional.power-1e308": ["cmp-functional", "--transform", "power:1e308", "--functions", "2"],
    "converge-disk.power-1e308": ["converge-disk", "--transform", "power:1e308", "--levels", "2"],
    "lattice-green.d1": ["lattice-green", "--d", "1"],
}
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def runs() -> dict:
    """Capture label -> argv after ``greenpot``; help runs end in ``--help``."""
    table = {}
    for name in SUBCOMMANDS:
        for seed in (0, 1):
            table[f"{name}.s{seed}"] = [name, *REQUIRED.get(name, []), "--seed", str(seed)]
    for label, (name, *flags) in EXTRA.items():
        table[label] = [name, *REQUIRED.get(name, []), *flags, "--seed", "0"]
    for name in SUBCOMMANDS:
        table[f"{name}.help"] = [name, "--help"]
    table["greenpot.help"] = ["--help"]
    return table


def capture(src_root: Path, out_dir: Path) -> None:
    env = {**os.environ, **THREADS, "PYTHONPATH": str(src_root.resolve() / "src")}
    out_dir = out_dir.resolve()  # the runs start in a scratch directory
    out_dir.mkdir(parents=True, exist_ok=True)
    codes = []
    with tempfile.TemporaryDirectory() as work:
        for label, argv in runs().items():
            argv = [arg.replace("{out}", str(out_dir)) for arg in argv]
            cmd = [sys.executable, "-m", "greenpot.cli", *argv]
            is_help = argv[-1] == "--help"
            if not is_help:
                cmd += ["--out", str(out_dir / label)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=work, env=env,
                                  timeout=600)
            if is_help:
                (out_dir / f"{label}.txt").write_text(proc.stdout)
            else:
                (out_dir / f"{label}.meta.json").unlink(missing_ok=True)
                if proc.stderr:
                    (out_dir / f"{label}.stderr.txt").write_text(proc.stderr)
            codes.append(f"{label} {proc.returncode}\n")
            print(f"{label}: exit {proc.returncode}", file=sys.stderr)
    (out_dir / "exit_codes.txt").write_text("".join(codes))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/capture_reports.py SRC_ROOT OUT_DIR", file=sys.stderr)
        return 2
    capture(Path(args[0]), Path(args[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
