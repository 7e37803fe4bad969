#!/usr/bin/env python3
"""Process CPU of the sweep's MH bank alone, the working tree beside a revision.

Run from the repository root:

    python3 tools/bank_ab.py --base HEAD

The bank is the one ``ltll simulate --sweep truncation --levels 0.1,1.0
--n 1000 --replicates 50 --workers 1 --seed 7919`` runs: 100 chains, set
up as ``simulation._run_chunk`` sets them up (each replicate's sample from
its data stream, its MLE, the chain's start and stream), with the CLI's
default chain of 20000 steps, 5000 of them burn-in, thinned by 5.  Only
the ``mcmc._mh_chains`` call is timed, as the process CPU of one call in a
fresh process, so the draws, the MLEs and the imports stay out of it.  The
working tree's ``src/`` and that of ``git archive --base`` run ROUNDS times
each in alternating processes, the side that goes first alternating from
round to round.  Each side prints its minimum and median CPU and the
SHA-256 of the call's output arrays; the exit status is 1 when the two
sides' outputs differ or one side's runs disagree.

End-to-end pairs of ``perfbench/run.py`` mix this bank with draws, fits and
summaries, and on a shared host one tree's runs spread by more than a
step-level change moves the bank; this times the bank alone.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from bench_pairs import export_base  # noqa: E402

ROOT = HERE.parent
LEVELS = (0.1, 1.0)
REPLICATES = 50
N = 1000
SEED = 7919
ITERATIONS = 20000
# Runs of each side.
ROUNDS = 7

# Runs in a fresh process with one side's src/ on the path; prints one JSON line.
CHILD = f"""
import hashlib, json, sys, time
import numpy as np
from ltll.distribution import LTLLParams, _log_xl, draw_ltll
from ltll.mcmc import McmcConfig, PriorSpec, _chain_start, _mh_chains
from ltll.mle import fit_mle
from ltll.simulation import Scenario, _chain_stream, _data_stream

seed, iterations = int(sys.argv[1]), int(sys.argv[2])
cfg = McmcConfig(iterations=iterations, burn_in=iterations // 4, thin=5, seed=seed)
jobs = [(Scenario(LTLLParams(2.0, 3.0, x_l), n={N}, replicates={REPLICATES}, mcmc=cfg), r)
        for x_l in {LEVELS!r} for r in range({REPLICATES})]
samples = [draw_ltll(sc.n, sc.true_params, _data_stream(sc, r)) for sc, r in jobs]
fits = [fit_mle(s) for s in samples]
inits = np.array([_chain_start(s, f) for s, f in zip(samples, fits)])
lx = np.stack([s.log_values for s in samples])
ln_xl = np.array([_log_xl(s.x_l) for s in samples])
streams = [_chain_stream(sc, r) for sc, r in jobs]
start = time.process_time()
out = _mh_chains(lx, ln_xl, PriorSpec.diffuse(), cfg, streams, inits, fits)
cpu = time.process_time() - start
digest = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in out))
print(json.dumps({{"cpu": cpu, "sha256": digest.hexdigest()}}))
"""


def run_side(src: Path, seed: int, iterations: int) -> dict:
    """One timed bank in a fresh process with ``src`` first on the path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(seed), str(iterations)], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: dict[str, list[dict]]) -> tuple[list[str], bool]:
    """Lines of (side, runs, min and median CPU, output SHA-256s) and whether
    every run of both sides wrote the same outputs."""
    lines = [f"{'side':<8}{'runs':>6}{'min_cpu_s':>12}{'median_cpu_s':>14}  sha256"]
    digests = set()
    for side, results in runs.items():
        cpu = [r["cpu"] for r in results]
        shas = sorted({r["sha256"] for r in results})
        digests.update(shas)
        lines.append(f"{side:<8}{len(cpu):>6}{min(cpu):>12.3f}{statistics.median(cpu):>14.3f}  "
                     + " ".join(shas))
    return lines, len(digests) == 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", default="HEAD", help="git revision of the base side (default HEAD)")
    args = p.parse_args(argv)
    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bank-ab-") as tmp:
        export_base(args.base, Path(tmp) / "base")
        srcs = {"base": Path(tmp) / "base" / "src", "change": ROOT / "src"}
        for i in range(ROUNDS):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                runs[side].append(run_side(srcs[side], SEED, ITERATIONS))
                print(f"round {i} {side}: {runs[side][-1]['cpu']:.3f} s", flush=True)
    lines, same = summary(runs)
    print("\n".join(lines))
    print("outputs " + ("same" if same else "DIFFERENT"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
