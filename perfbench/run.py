#!/usr/bin/env python3
"""Benchmark of the ltll package: two workloads, timed end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 48 --trace 0

The workloads, metrics, units and regression bounds are declared in
BENCHMARK.json at the repository root; this script reads them from there.
It imports ltll from ./src only and fails when that package is missing.

Every workload repeats one seeded round (a sweep invocation, or one pass over
a list of fit requests) while the next round would be at least half done
within ``--seconds`` of timed work, and at least twice, so that the rounds'
outputs can be compared byte for byte.
With ``--trace 0`` the last line of stdout reports the end-to-end metrics.
With ``--trace 1`` the first round runs untraced and the rest traced; the
line reports per-layer metrics and the tracing overhead.  The full report
(machine, inputs, table hashes, latencies, per-span times) is written to
perfbench/out/<workload>.trace<0|1>.json and the spans to
perfbench/out/<workload>.spans.npz.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from spans import Patches, Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

# Seeds 1-10 are for tuning; a performance claim must also hold on this one.
HELD_OUT_SEED = 7919
SETUP_REPEATS = 5
MIN_ROUNDS = 2
WORKLOADS = ("paper_sweep", "fit_requests")

BLADDER_LEVELS = (0.0, 0.25, 1.0, 6.0)
BLADDER_FOUR_CHAINS = 1.0
# Twelve requests a round, so that a run holds four rounds.
SYNTHETIC_REQUESTS = 8
# Size strata (0 = smallest n) of the synthetic requests that run four
# chains; with the bladder request at x_L=1 that is 3 of the 12 requests.
FOUR_CHAIN_STRATA = (1, 5)
# Which truncation, scale and shape stratum each size stratum pairs with.
# The pairing is fixed, not drawn from the seed: the sum of ESS over a round
# depends on it, and a seed-drawn pairing moved that sum by ~15% from seed
# to seed.
STRATA_PAIRING = [np.random.default_rng(j).permutation(SYNTHETIC_REQUESTS) for j in range(3)]


@dataclass(frozen=True)
class Profile:
    """Workload sizes; the default is the paper's protocol."""

    chain: tuple[str, ...] = ()  # extra MCMC flags; () keeps the CLI's 20000/5000/5 chain
    replicates: int = 50
    paper_n: int = 1000
    n_range: tuple[int, int] = (30, 2000)


PAPER = Profile()
SMOKE = Profile(chain=("--iters", "300", "--burnin", "100", "--thin", "1"),
                replicates=2, paper_n=60, n_range=(30, 120))


@dataclass
class Op:
    """One CLI invocation and what is needed to check its output."""

    argv: list[str]
    units: int
    tables: tuple[str, ...] = ()
    data: np.ndarray | None = None
    x_l: float = 0.0
    info: dict = field(default_factory=dict)


@dataclass
class Outcome:
    latency: float
    output: object
    ess_min: list[float]
    problems: list[str]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def program_seed(seed: int, workload: str) -> int:
    return int(np.random.SeedSequence([seed, WORKLOADS.index(workload)]).generate_state(1)[0])


def sweep_ops(seed: int, profile: Profile, workdir: Path) -> list[Op]:
    """The truncation sweep at low and high truncation, one chunk per level."""
    argv = ["simulate", "--sweep", "truncation", "--levels", "0.1,1.0",
            "--n", str(profile.paper_n), "--replicates", str(profile.replicates),
            "--workers", "1", "--seed", str(program_seed(seed, "paper_sweep")),
            "--out", str(workdir), *profile.chain]
    return [Op(argv, units=2 * profile.replicates,
               tables=("table1_truncation.csv", "table2_truncation.csv"), info={"levels": 2})]


def bladder_values() -> np.ndarray:
    """The bundled data, parsed here rather than through ltll.datasets."""
    with open(SRC / "ltll" / "data" / "bladder_cancer.csv", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return np.array([float(r[0]) for r in rows[1:]])


def fit_ops(seed: int, profile: Profile, workdir: Path) -> list[Op]:
    """Bladder data at four truncation points plus seeded synthetic CSVs.

    The synthetic requests are a Latin hypercube over (log n, truncation
    quantile, log alpha, beta) with a fixed pairing of strata: every seed
    draws the same mix of requests.  Each n sits at the centre of its log
    stratum, because n sets most of a request's cost; the seed places the
    other values inside their strata, draws the data and shuffles the order.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index("fit_requests")])
    k = SYNTHETIC_REQUESTS

    def strata(lo, hi, order):
        return lo + (hi - lo) * (np.asarray(order) + rng.uniform(size=k)) / k

    lo, hi = np.log(profile.n_range)
    log_n = lo + (hi - lo) * (np.arange(k) + 0.5) / k
    quantile = strata(0.1, 0.7, STRATA_PAIRING[0])
    log_alpha = strata(np.log(0.5), np.log(20.0), STRATA_PAIRING[1])
    beta = strata(1.5, 5.0, STRATA_PAIRING[2])

    bladder = bladder_values()
    ops = [Op(["fit", "--data", "bladder_cancer", "--xl", repr(x_l), "--units", "months"],
              units=1, data=bladder, x_l=x_l,
              info={"data": "bladder_cancer", "n": int(np.sum(bladder > x_l)), "x_l": x_l,
                    "chains": 4 if x_l == BLADDER_FOUR_CHAINS else 1})
           for x_l in BLADDER_LEVELS]
    for i in range(k):
        n = int(round(math.exp(log_n[i])))
        u = np.clip(rng.uniform(size=n), 1e-12, 1.0 - 1e-12)
        x = math.exp(log_alpha[i]) * (u / (1.0 - u)) ** (1.0 / beta[i])
        x_l = float(np.quantile(x, quantile[i]))
        path = workdir / f"request{i}.csv"
        path.write_text("time\n" + "\n".join(repr(float(v)) for v in x) + "\n", encoding="utf-8")
        ops.append(Op(["fit", "--data", str(path), "--column", "time", "--xl", repr(x_l)],
                      units=1, data=x, x_l=x_l,
                      info={"data": path.name, "n": n, "x_l": x_l,
                            "chains": 4 if i in FOUR_CHAIN_STRATA else 1}))

    ops = [ops[j] for j in rng.permutation(len(ops))]
    base = program_seed(seed, "fit_requests")
    for j, op in enumerate(ops):
        op.argv += ["--method", "both", "--seed", str(base + j), *profile.chain]
        if op.info["chains"] > 1:
            op.argv += ["--chains", str(op.info["chains"])]
    return ops


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

_SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ltll.cli
from ltll.datasets import load_bladder_cancer, load_csv
job = json.loads(sys.argv[2])
for argv in job["parse"]:
    ltll.cli.build_parser().parse_args(argv)
for path in job["csv"]:
    load_csv(path, "time")
if job["bundled"]:
    load_bladder_cancer()
print(repr(time.perf_counter() - t0))
"""


def measure_setup(ops: list[Op], repeats: int) -> list[float]:
    """Cold-process `import ltll.cli` plus loading this workload's inputs."""
    job = json.dumps({
        "parse": [op.argv for op in ops],
        "csv": [op.argv[2] for op in ops if op.argv[0] == "fit" and op.argv[2].endswith(".csv")],
        "bundled": any(op.argv[0] == "fit" for op in ops),
    })
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), job],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs a workload's ops through ltll.cli.main and checks each output."""

    def __init__(self, cli, schema: dict):
        self.cli = cli
        self.schema = schema
        self.records: list = []

    def capture(self, fn):
        def run_scenario(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.records.extend(out)
            return out
        return run_scenario

    def call(self, op: Op, tracer: Tracer | None):
        out, err = io.StringIO(), io.StringIO()
        root = "cli." + op.argv[0]
        span = tracer.span(root) if tracer is not None else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            with span:
                code = self.cli.main(list(op.argv))
            latency = time.perf_counter() - t0
        return code, out.getvalue(), latency

    def run(self, op: Op, tracer: Tracer | None) -> Outcome:
        if op.argv[0] == "fit":
            return self._fit(op, tracer)
        return self._sweep(op, tracer)

    def _fit(self, op: Op, tracer) -> Outcome:
        code, text, latency = self.call(op, tracer)
        problems = checks.fit_problems(code, text, self.schema, op.data, op.x_l)
        ess = []
        if not problems:
            docs = json.loads(text)
            ess = [min(d["ess"]) for d in docs if d["method"] == "bayes"]
        return Outcome(latency, text, ess, problems)

    def _sweep(self, op: Op, tracer) -> Outcome:
        workdir = Path(op.argv[op.argv.index("--out") + 1])
        for name in op.tables:
            (workdir / name).unlink(missing_ok=True)
        self.records.clear()
        code, _, latency = self.call(op, tracer)
        problems = [] if code == 0 else [f"exit code {code}"]
        tables = {}
        for name in op.tables:
            path = workdir / name
            if not path.exists():
                problems.append(f"{name} was not written")
                continue
            tables[name] = path.read_bytes()
            problems += checks.table_problems(name, tables[name], 2 * op.info["levels"])
        if len(self.records) != op.units:
            problems.append(f"{len(self.records)} replicates returned, expected {op.units}")
        problems += checks.replicate_problems(self.records)
        ess = [min(r.ess_alpha, r.ess_beta) for r in self.records]
        return Outcome(latency, tables, ess, problems)


def run_rounds(runner: Runner, ops: list[Op], seconds: float, tracer: Tracer | None,
               patches: Patches):
    """Rounds of all ops, at least MIN_ROUNDS, while one more round of the
    mean length so far would be at least half done within `seconds` of op
    time; so a run measures about `seconds`, however long its rounds are.

    With a tracer, round 0 runs untraced and the tracer is installed after
    it; the untraced round is the reference for the tracing overhead.
    """
    rounds: list[list[Outcome]] = []
    elapsed = 0.0
    while len(rounds) < MIN_ROUNDS or elapsed * (len(rounds) + 0.5) / len(rounds) < seconds:
        active = tracer if rounds else None
        if tracer is not None and len(rounds) == 1:
            tracer.install(patches)
        outcomes = [runner.run(op, active) for op in ops]
        rounds.append(outcomes)
        elapsed += sum(o.latency for o in outcomes)
    for i in range(len(ops)):
        for later in rounds[1:]:
            if later[i].output != rounds[0][i].output:
                later[i].problems.append("output differs from the first round's")
    return rounds


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail_latency(latencies: list[float]):
    """Highest percentile with at least ten samples beyond it.

    Below 20 samples that percentile would sit under the median, so the
    maximum (no sample beyond) is reported instead.
    """
    s = sorted(latencies)
    beyond = 10 if len(s) >= 20 else 0
    return s[len(s) - 1 - beyond], 100.0 * (len(s) - beyond) / len(s), beyond


def end_to_end(workload: str, ops: list[Op], rounds, setup: list[float]) -> tuple[dict, dict]:
    outcomes = [o for r in rounds for o in r]
    latencies = [o.latency for o in outcomes]
    wall = sum(latencies)
    units = sum(op.units for op in ops) * len(rounds)
    tail, pct, beyond = tail_latency(latencies)
    # The median over ops of each op's mean over the rounds, rather than the
    # median of all samples: host noise reorders requests of similar cost
    # from round to round, which made the median sample jump between them.
    per_op = [statistics.fmean(r[i].latency for r in rounds) for i in range(len(ops))]
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": units / wall,
        "latency_s.p50": statistics.median(per_op),
        "latency_s.tail": tail,
        "ess_per_s": sum(sum(o.ess_min) for o in outcomes) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    sweep = workload.endswith("sweep")
    notes = {
        "ops_per_s": "replicates/s" if sweep else "fits/s",
        "latency_s.p50": f"median over {len(ops)} "
                         f"{'sweep invocations' if sweep else 'fit requests'} of each one's "
                         f"mean over {len(rounds)} rounds",
        "latency_s.tail": f"p{pct:.1f}: {beyond} of {len(latencies)} samples beyond",
        "setup_s": f"median of {len(setup)} cold processes: {[round(t, 4) for t in setup]}",
        "ess_per_s": "sum over chains of min(ESS_alpha, ESS_beta) / timed wall",
        "wall_s": wall,
    }
    return values, notes


def per_layer(tracer: Tracer, ops: list[Op], rounds) -> tuple[dict, dict]:
    """Per-layer metrics over the traced rounds (every round but the first)."""
    traced = [o for r in rounds[1:] for o in r]
    units = sum(op.units for op in ops) * (len(rounds) - 1)
    spans = tracer.summary()
    c = tracer.counts

    def total(name, key="s"):
        return spans.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    fits = total("mle.fit_mle", "calls")
    bank_iterations = c.get("mh.bank_iterations", 0.0)
    chain_iterations = c.get("mh.chain_iterations", 0.0)
    elements = c.get("loglik_batch.elements", 0.0)
    ess = [e for o in traced for e in o.ess_min]
    root = "cli.fit" if ops[0].argv[0] == "fit" else "cli.simulate"
    root_wall = total(root)
    round_walls = [sum(o.latency for o in r) for r in rounds]
    traced_round = statistics.median(round_walls[1:])
    values = {
        "numerics.normal_quantile.s": total("numerics.normal_quantile") / units,
        "numerics.uniforms.s": total("numerics.uniforms") / units,
        "numerics.uniforms.count": c.get("uniforms.count", 0.0) / units,
        "distribution.loglik_batch.calls": total("distribution.loglik_batch", "calls") / units,
        "distribution.loglik_batch.elements": elements / units,
        "distribution.loglik_batch.s": total("distribution.loglik_batch") / units,
        "distribution.loglik_batch.ns_per_element":
            ratio(total("distribution.loglik_batch") * 1e9, elements),
        "distribution.loglik_batch.bytes_computed": 8.0 * elements / units,
        "distribution.draw_ltll.s": total("distribution.draw_ltll") / units,
        "distribution.existence_stats.s": total("distribution.existence_stats") / units,
        "mle.fit_mle.calls": fits / units,
        "mle.fit_mle.s_per_fit": ratio(total("mle.fit_mle"), fits),
        "mle.loglik_evals_per_fit": ratio(total("mle.log_likelihood", "calls"), fits),
        "mle.iterations_per_fit": ratio(c.get("fit.iterations", 0.0), fits),
        "mle.observed_information.s": total("mle.observed_information") / units,
        "mle.boundary": ratio(c.get("fit.boundary", 0.0), fits),
        "mle.nonconverged": ratio(c.get("fit.nonconverged", 0.0), fits),
        "mle.info_not_pd": ratio(c.get("fit.info_not_pd", 0.0), fits),
        "mcmc.mh.s": total("mcmc.mh") / units,
        "mcmc.mh.self_s": total("mcmc.mh", "self_s") / units,
        "mcmc.mh.chain_iterations": chain_iterations / units,
        "mcmc.mh.self_us_per_iteration": ratio(total("mcmc.mh", "self_s") * 1e6, bank_iterations),
        "mcmc.mh.loglik_rows_per_chain_iteration":
            ratio(c.get("loglik_batch.rows", 0.0), chain_iterations),
        "mcmc.acceptance": ratio(c.get("mh.acceptance_sum", 0.0), c.get("mh.chains", 0.0)),
        "mcmc.ess_min.p50": statistics.median(ess) if ess else 0.0,
        "mcmc.ess_per_chain_iteration": ratio(sum(ess), chain_iterations),
        "mcmc.ess.s": total("mcmc.ess") / units,
        "mcmc.run_chain.other_s": total("mcmc.run_chain", "self_s") / units,
        "simulation.run_scenario.s": total("simulation.run_scenario") / units,
        "simulation.chunk.other_s": total("simulation.chunk", "self_s") / units,
        "simulation.aggregate_s": total("cli.simulate", "self_s") / units,
        "datasets.load_csv.s": total("datasets.load_csv") / units,
        "cli.fit.other_s": total("cli.fit", "self_s") / units,
        "trace.coverage": ratio(root_wall - total(root, "self_s"), root_wall),
        "trace.overhead_s": (traced_round - round_walls[0]) / (units / (len(rounds) - 1)),
        "trace.overhead_share": traced_round / round_walls[0] - 1.0,
    }
    shares = {name: {"calls": s["calls"], "s": s["s"], "self_s": s["self_s"],
                     "self_share_of_wall": ratio(s["self_s"], root_wall)}
              for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]) if s["calls"]}
    notes = {
        "unit_of_work": "replicate" if root == "cli.simulate" else "fit request",
        "traced_wall_s": root_wall,
        "untraced_round_s": round_walls[0],
        "traced_round_s": traced_round,
        "bytes_computed": "computed from array sizes, not measured: 8 bytes per float64 "
                          "element of the (B, n) log-data block each kernel call reads",
        "spans": shares,
    }
    return values, notes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    import scipy
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def import_ltll():
    """Import ltll.cli from this checkout's src/, never from site-packages."""
    if not (SRC / "ltll" / "__init__.py").is_file():
        raise SystemExit(f"ltll sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ltll.cli
    if Path(ltll.cli.__file__).resolve().parent != (SRC / "ltll").resolve():
        raise SystemExit(f"imported ltll from {ltll.cli.__file__}, not from {SRC}")
    return ltll.cli


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny workload sizes, for the benchmark's own smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    cli = import_ltll()
    schema = json.loads(resources.files("ltll").joinpath("schemas/fit_result.schema.json")
                        .read_text(encoding="utf-8"))
    profile = SMOKE if args.smoke else PAPER
    workdir = OUT / "work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    if args.workload == "fit_requests":
        ops = fit_ops(args.seed, profile, workdir)
    else:
        ops = sweep_ops(args.seed, profile, workdir)

    setup = [] if args.trace else measure_setup(ops, SETUP_REPEATS)
    runner = Runner(cli, schema)
    patches = Patches()
    tracer = Tracer() if args.trace else None
    try:
        if args.workload != "fit_requests":
            import ltll.simulation
            patches.rebind(ltll.simulation, "run_scenario", runner.capture)
        rounds = run_rounds(runner, ops, args.seconds, tracer, patches)
    finally:
        patches.restore()

    failures = [f"round {k} op {i}: {p}" for k, r in enumerate(rounds)
                for i, o in enumerate(r) for p in o.problems]
    attempted = sum(len(r) for r in rounds)
    failed = sum(1 for r in rounds for o in r if o.problems)
    if args.trace:
        values, notes = per_layer(tracer, ops, rounds)
        declared = spec["per_layer"]
        tracer.save(OUT / f"{args.workload}.spans.npz")
    else:
        values, notes = end_to_end(args.workload, ops, rounds, setup)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}

    first = rounds[0][0].output
    tables = first if isinstance(first, dict) else {}
    report = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace, "smoke": args.smoke, "machine": machine(),
        "inputs": {"program_seed": program_seed(args.seed, args.workload),
                   "ops": [{"argv": op.argv, **op.info} for op in ops]},
        "rounds": len(rounds), "attempted": attempted, "failed": failed,
        "fail_rate": failed / attempted, "failures": failures,
        "latency_s": [[o.latency for o in r] for r in rounds],
        "table_sha256": {name: hashlib.sha256(data).hexdigest()
                         for name, data in tables.items()},
        "metrics": metrics, "notes": notes,
    }
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  held-out seed {HELD_OUT_SEED}")
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:44s} {m['value']:<14.6g} {m['unit']:8s} {note}")
    print(f"  {'fail_rate':44s} {failed / attempted:<14.6g} {'share':8s} "
          f"{failed} of {attempted} operations failed")
    for name, data in report["table_sha256"].items():
        print(f"  sha256 {name} {data}")
    if args.trace:
        print("  span self time, share of traced op wall:")
        for name, s in notes["spans"].items():
            print(f"    {name:36s} {s['self_s']:10.4f} s  {100 * s['self_share_of_wall']:6.2f} %"
                  f"  ({s['calls']} calls)")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
