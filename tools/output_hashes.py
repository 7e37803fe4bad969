#!/usr/bin/env python3
"""SHA-256 of every file a pinned list of ltll commands writes, optionally beside a revision's.

Run from the repository root:

    python3 tools/output_hashes.py              # the working tree's src/
    python3 tools/output_hashes.py --base HEAD  # and src/ of a revision, file by file

Each command of COMMANDS runs as ``python -m ltll.cli`` on ``src/`` of the
working tree, in a fresh directory of its own; its stdout, if any, is kept
as ``stdout.txt`` beside the files it writes.  The list covers every MH
kernel: screened banks (truncation sweeps at n = 1000 from x_L = 0 to the 0.9
quantile, under the diffuse prior and one that pulls alpha off its MLE),
gated and plain chains (a sample-size sweep over n 25, 100 and 500), lone
screened and gated chains (``fit --chains 2`` of the bladder data and of a
generated n = 800 CSV), the credible ellipse, and the moment surface.  With
``--base`` the committed files of that revision are exported with
``git archive`` into a temporary directory and run the same way.  One line
per output file gives its SHA-256 and name, then, with ``--base``, ``same``
or ``DIFFERENT``; the exit status is 1 when any file differs or is missing
on one side.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from bench_pairs import export_base  # noqa: E402

ROOT = HERE.parent
# 2 * 9^(1/3), the 0.9 quantile of LL(2, 3), as a level of --levels.
_Q90 = repr(2.0 * 9.0 ** (1.0 / 3.0))
_PULLED = "400,100,1,0.01"
# (name, argv); "{csv}" stands for the generated data file.
COMMANDS = [
    ("sweep_truncation", ["simulate", "--sweep", "truncation", "--n", "1000",
                          "--levels", f"0,0.1,1.0,2.0,{_Q90}", "--replicates", "8",
                          "--seed", "7919", "--out", "."]),
    ("sweep_truncation_pulled", ["simulate", "--sweep", "truncation", "--n", "1000",
                                 "--levels", f"0,0.1,1.0,2.0,{_Q90}", "--replicates", "8",
                                 "--seed", "7919", "--prior", _PULLED, "--out", "."]),
    ("sweep_n", ["simulate", "--sweep", "n", "--sizes", "25,100,500", "--replicates", "10",
                 "--seed", "5", "--out", "."]),
    ("fit_bladder_1", ["fit", "--data", "bladder_cancer", "--xl", "1", "--method", "both",
                       "--chains", "2", "--out", "fit.json"]),
    ("fit_bladder_6", ["fit", "--data", "bladder_cancer", "--xl", "6", "--method", "both",
                       "--chains", "2", "--out", "fit.json"]),
    ("fit_n800", ["fit", "--data", "{csv}", "--xl", "0.5", "--method", "both", "--chains", "2",
                  "--out", "fit.json"]),
    ("ellipse_bladder_1", ["ellipse", "--data", "bladder_cancer", "--xl", "1", "--out", "ell"]),
    ("moments", ["moments", "--out", "moments.csv"]),
]


def write_csv(path: Path, n: int = 800, x_l: float = 0.5, alpha: float = 2.0,
              beta: float = 3.0, seed: int = 800) -> None:
    """n draws of LTLL(alpha, beta, x_l) by the inverse CDF of the standard
    library's uniforms, alpha ((u + eta) / (1 - u))^(1/beta) with
    eta = (x_l / alpha)^beta: the same file whatever tree reads it."""
    rng = random.Random(seed)
    eta = (x_l / alpha) ** beta
    values = [alpha * math.exp(math.log((u + eta) / (1.0 - u)) / beta)
              for u in (rng.random() for _ in range(n))]
    path.write_text("value\n" + "".join(f"{v!r}\n" for v in values), encoding="utf-8")


def hashes(src: Path, commands, workdir: Path, csv: Path | None = None) -> dict[str, str]:
    """{command name/file: SHA-256} of the files each command writes with
    ``src`` first on the path, each run in its own directory under workdir."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = {}
    for name, argv in commands:
        cwd = workdir / name
        cwd.mkdir(parents=True)
        argv = [str(csv) if a == "{csv}" else a for a in argv]
        proc = subprocess.run([sys.executable, "-m", "ltll.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr.decode()}")
        if proc.stdout:
            (cwd / "stdout.txt").write_bytes(proc.stdout)
        for path in sorted(p for p in cwd.rglob("*") if p.is_file()):
            out[f"{name}/{path.relative_to(cwd)}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def compare(tree: dict[str, str], base: dict[str, str]) -> tuple[list[str], bool]:
    """Lines of (tree SHA-256, name, same or DIFFERENT), and whether all are same;
    a file missing on one side reads '-' there and differs."""
    lines, same = [], True
    for name in sorted(tree.keys() | base.keys()):
        ok = name in tree and tree.get(name) == base.get(name)
        same &= ok
        lines.append(f"{tree.get(name, '-')}  {name}  {'same' if ok else 'DIFFERENT'}")
    return lines, same


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", default=None, help="git revision to compare with")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="output-hashes-") as tmp:
        tmp = Path(tmp)
        csv = tmp / "ltll_n800.csv"
        write_csv(csv)
        tree = hashes(ROOT / "src", COMMANDS, tmp / "tree", csv)
        if args.base is None:
            for name, digest in sorted(tree.items()):
                print(f"{digest}  {name}")
            return 0
        export_base(args.base, tmp / "base_src")
        base = hashes(tmp / "base_src" / "src", COMMANDS, tmp / "base", csv)
    lines, same = compare(tree, base)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
