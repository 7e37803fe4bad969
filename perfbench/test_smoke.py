"""Smoke test of the benchmark itself: tiny workloads and corrupted outputs.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))

END_TO_END = {"setup_s", "ops_per_s", "latency_s.p50", "latency_s.tail", "ess_per_s",
              "peak_rss_mb"}
PER_LAYER = {
    "numerics.normal_quantile.s", "numerics.uniforms.s", "numerics.uniforms.count",
    "distribution.loglik_batch.calls", "distribution.loglik_batch.elements",
    "distribution.loglik_batch.s", "distribution.loglik_batch.ns_per_element",
    "distribution.loglik_batch.bytes_computed", "distribution.draw_ltll.s",
    "distribution.existence_stats.s", "mle.fit_mle.calls", "mle.fit_mle.s_per_fit",
    "mle.loglik_evals_per_fit", "mle.iterations_per_fit", "mle.observed_information.s",
    "mle.boundary", "mle.nonconverged", "mle.info_not_pd", "mcmc.mh.s", "mcmc.mh.self_s",
    "mcmc.mh.chain_iterations", "mcmc.mh.self_us_per_iteration",
    "mcmc.mh.loglik_rows_per_chain_iteration", "mcmc.acceptance", "mcmc.ess_min.p50",
    "mcmc.ess_per_chain_iteration", "mcmc.ess.s", "simulation.run_scenario.s",
    "simulation.chunk.other_s", "simulation.aggregate_s", "datasets.load_csv.s",
    "cli.fit.other_s", "trace.coverage", "trace.overhead_share",
}


def bench(capsys, workload: str, trace: int = 0) -> dict:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
            "--smoke"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_declares_every_metric_with_unit_and_direction():
    for kind, wanted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m for m in SPEC[kind]}
        assert wanted <= set(declared), wanted - set(declared)
        for m in declared.values():
            assert m["unit"] and m["better"] in ("higher", "lower")
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_reports_every_metric(capsys, workload, trace):
    result = bench(capsys, workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])


def _nan_bayes_cell(table_csv):
    def corrupted(levels):
        rows = table_csv(levels).splitlines()
        row = next(i for i, r in enumerate(rows) if ",Bayesian," in r)
        cells = rows[row].split(",")
        cells[2] = "nan"
        rows[row] = ",".join(cells)
        return "\n".join(rows) + "\n"
    return corrupted


def _drifting(table_csv):
    """Valid tables whose bytes change from one call to the next."""
    calls = []

    def corrupted(levels):
        header, rest = table_csv(levels).split("\n", 1)
        calls.append(1)
        return header + " " * (len(calls) - 1) + "\n" + rest
    return corrupted


@pytest.mark.parametrize("workload, attr, corrupt", [
    ("fit_requests", "log_likelihood", lambda fn: lambda *a: fn(*a) + 1e-3),
    ("paper_sweep", "table2_csv", _nan_bayes_cell),
    ("paper_sweep", "table1_csv", _drifting),
])
def test_corrupted_output_raises_fail_rate(capsys, monkeypatch, workload, attr, corrupt):
    cli = run.import_ltll()
    monkeypatch.setattr(cli, attr, corrupt(getattr(cli, attr)))
    result = bench(capsys, workload)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    if attr == "table1_csv":  # only the rounds after the first differ
        assert result["failed"] == result["attempted"] - 1
