"""Monte Carlo experiment harness: truncation and sample-size sweeps.

A scenario fixes the true parameters, sample size, replicate count, priors,
chain settings, and a master seed.  Replicate r draws its data from stream
(master_seed, 2r) and its chain from stream (master_seed, 2r+1), so every
replicate is a pure function of (scenario, r): reruns and parallel schedules
cannot change any number.  Replicates are processed in fixed-size chunks
(chains vectorized within a chunk); worker processes only redistribute whole
chunks, which keeps outputs byte-identical at any parallelism level.

Boundary (Pareto) fits are excluded from the MLE aggregates and surface as
failure counts instead, since bias/variance summaries presuppose an interior
estimate.
"""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .distribution import LTLLParams, draw_ltll
from .mcmc import McmcConfig, PriorSpec, _chain_start, _ess, _mh_chains
from .mle import fit_mle
from .numerics import RngStream, normal_quantile

__all__ = [
    "ErrorMetrics",
    "MetricsReport",
    "MethodMetrics",
    "ReplicateResult",
    "Scenario",
    "SweepLevel",
    "error_metrics",
    "run_replicate",
    "run_scenario",
    "sample_size_sweep",
    "sample_size_trends",
    "table1_csv",
    "table2_csv",
    "table3_csv",
    "truncation_sweep",
    "truncation_trends",
    "atomic_write_text",
]

_CHUNK = 50  # replicates per vectorized chunk; fixed so worker count cannot matter

TRUNCATION_GRID = (0.1, 0.3, 0.5, 0.7, 1.0)
SAMPLE_SIZE_GRID = (50, 100, 500, 1000)

_Z95 = float(normal_quantile(0.975))


@dataclass(frozen=True)
class Scenario:
    """One simulation cell: truth, sample size, replicate count, seeds."""

    true_params: LTLLParams
    n: int = 1000
    replicates: int = 1000
    prior: PriorSpec = PriorSpec.diffuse()
    mcmc: McmcConfig = McmcConfig()
    master_seed: int = 20240

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates")
        if self.n < 10:
            raise ValueError("need sample size >= 10")


@dataclass(frozen=True)
class ReplicateResult:
    """Estimates and interval endpoints from one replicate."""

    r: int
    boundary: bool
    converged: bool
    mle_alpha: float | None
    mle_beta: float
    mle_ci_alpha: tuple[float, float] | None
    mle_ci_beta: tuple[float, float] | None
    bayes_alpha: float
    bayes_beta: float
    bayes_ci_alpha: tuple[float, float]
    bayes_ci_beta: tuple[float, float]
    acceptance_rate: float
    ess_alpha: float
    ess_beta: float

    @property
    def mle_ok(self) -> bool:
        return not self.boundary

    def width(self, which: str, param: str) -> float:
        ci = getattr(self, f"{which}_ci_{param}")
        if ci is None:
            return np.nan
        return ci[1] - ci[0]


@dataclass(frozen=True)
class ErrorMetrics:
    """Replicate-level error decomposition against a known truth."""

    mean: float
    bias: float
    variance: float
    rmse: float


@dataclass(frozen=True)
class MethodMetrics:
    alpha: ErrorMetrics
    beta: ErrorMetrics
    mean_width_alpha: float
    mean_width_beta: float
    failures: int


@dataclass(frozen=True)
class MetricsReport:
    """Per-scenario metrics for both estimation methods."""

    mle: MethodMetrics
    bayes: MethodMetrics
    n_replicates: int


@dataclass(frozen=True)
class SweepLevel:
    """Aggregates for one sweep cell (one truncation level or sample size)."""

    key: float
    scenario: Scenario
    metrics: MetricsReport
    mean_ci: dict
    width_var: dict
    win_rate: float
    win_rate_alpha: float
    win_rate_beta: float


def error_metrics(estimates, theta0: float) -> ErrorMetrics:
    """Bias, variance (n-1 denominator), and RMSE with rmse^2 = bias^2 + var."""
    est = np.asarray(estimates, dtype=np.float64)
    if est.size < 2:
        raise ValueError("need at least 2 estimates")
    mean = float(np.mean(est))
    bias = mean - theta0
    variance = float(np.var(est, ddof=1))
    return ErrorMetrics(mean=mean, bias=bias, variance=variance,
                        rmse=float(np.sqrt(bias * bias + variance)))


# ---------------------------------------------------------------------------
# Replicate execution
# ---------------------------------------------------------------------------

def _data_stream(sc: Scenario, r: int) -> RngStream:
    return RngStream(sc.master_seed, 2 * r)


def _chain_stream(sc: Scenario, r: int) -> RngStream:
    return RngStream(sc.master_seed, 2 * r + 1)


def _run_chunk(sc: Scenario, lo: int, hi: int) -> list[ReplicateResult]:
    """Replicates lo..hi-1: draw, fit by MLE, run one chain each (vectorized)."""
    idx = range(lo, hi)
    samples = [draw_ltll(sc.n, sc.true_params, _data_stream(sc, r)) for r in idx]
    fits = [fit_mle(s) for s in samples]

    inits = np.array([_chain_start(s, f) for s, f in zip(samples, fits)])
    lx = np.stack([s.log_values for s in samples])
    ln_xl = None if sc.true_params.x_l == 0.0 else np.log(sc.true_params.x_l)
    streams = [_chain_stream(sc, r) for r in idx]
    draws, acc, _, _ = _mh_chains(lx, ln_xl, sc.prior, sc.mcmc, streams, inits)

    out = []
    for i, r in enumerate(idx):
        d = draws[i]
        qa = np.quantile(d[:, 0], [0.025, 0.975], method="hazen")
        qb = np.quantile(d[:, 1], [0.025, 0.975], method="hazen")
        f = fits[i]
        out.append(ReplicateResult(
            r=r,
            boundary=f.boundary,
            converged=f.converged,
            mle_alpha=f.alpha,
            mle_beta=f.beta,
            mle_ci_alpha=f.ci_alpha,
            mle_ci_beta=f.ci_beta,
            bayes_alpha=float(np.mean(d[:, 0])),
            bayes_beta=float(np.mean(d[:, 1])),
            bayes_ci_alpha=(float(qa[0]), float(qa[1])),
            bayes_ci_beta=(float(qb[0]), float(qb[1])),
            acceptance_rate=float(acc[i]),
            ess_alpha=_ess(d[:, 0]),
            ess_beta=_ess(d[:, 1]),
        ))
    return out


def run_replicate(sc: Scenario, r: int) -> ReplicateResult:
    """One replicate, a pure function of (scenario, r)."""
    if not (0 <= r < sc.replicates):
        raise ValueError(f"replicate index {r} outside 0..{sc.replicates - 1}")
    return _run_chunk(sc, r, r + 1)[0]


def run_scenario(sc: Scenario, workers: int = 1) -> list[ReplicateResult]:
    """All replicates of a scenario, in replicate order.

    Work is cut into fixed chunks of, at most, 50 replicates; ``workers`` only
    chooses how many chunks run concurrently.
    """
    bounds = [(lo, min(lo + _CHUNK, sc.replicates)) for lo in range(0, sc.replicates, _CHUNK)]
    if workers <= 1:
        chunks = [_run_chunk(sc, lo, hi) for lo, hi in bounds]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_chunk, sc, lo, hi) for lo, hi in bounds]
            chunks = [f.result() for f in futures]
    return [rec for chunk in chunks for rec in chunk]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

_NAN_METRICS = ErrorMetrics(np.nan, np.nan, np.nan, np.nan)


def _method_metrics(records, which: str, truth: LTLLParams) -> MethodMetrics:
    if which == "mle":
        usable = [rec for rec in records if rec.mle_ok]
        failures = len(records) - len(usable)
        alphas = [rec.mle_alpha for rec in usable]
        betas = [rec.mle_beta for rec in usable]
    else:
        usable = records
        failures = 0
        alphas = [rec.bayes_alpha for rec in usable]
        betas = [rec.bayes_beta for rec in usable]
    if len(usable) < 2:
        # Nearly every replicate degenerated: no aggregate is defined, but
        # the scenario still reports rather than aborting.
        return MethodMetrics(alpha=_NAN_METRICS, beta=_NAN_METRICS,
                             mean_width_alpha=np.nan, mean_width_beta=np.nan,
                             failures=failures)
    wa = [rec.width(which, "alpha") for rec in usable]
    wb = [rec.width(which, "beta") for rec in usable]
    return MethodMetrics(
        alpha=error_metrics(alphas, truth.alpha),
        beta=error_metrics(betas, truth.beta),
        mean_width_alpha=float(np.nanmean(wa)),
        mean_width_beta=float(np.nanmean(wb)),
        failures=failures,
    )


def _mean_ci(records, which: str):
    """Mean interval endpoints per parameter, matching the table-1 layout."""
    out = {}
    for param in ("alpha", "beta"):
        cis = [getattr(rec, f"{which}_ci_{param}") for rec in records
               if getattr(rec, f"{which}_ci_{param}") is not None]
        if not cis:
            out[param] = (np.nan, np.nan)
            continue
        lo = float(np.mean([c[0] for c in cis]))
        hi = float(np.mean([c[1] for c in cis]))
        out[param] = (lo, hi)
    return out


def _width_variance(width: float) -> float:
    """Variance implied by a 95% interval width, (width / (2 z_0.975))^2."""
    return (width / (2.0 * _Z95)) ** 2


def _aggregate_level(key: float, sc: Scenario, records) -> SweepLevel:
    truth = sc.true_params
    metrics = MetricsReport(
        mle=_method_metrics(records, "mle", truth),
        bayes=_method_metrics(records, "bayes", truth),
        n_replicates=len(records),
    )
    usable = [rec for rec in records if rec.mle_ok]
    wins_a = [rec.width("bayes", "alpha") <= rec.width("mle", "alpha") for rec in usable]
    wins_b = [rec.width("bayes", "beta") <= rec.width("mle", "beta") for rec in usable]
    wins = [
        0.5 * (rec.width("bayes", "alpha") + rec.width("bayes", "beta"))
        <= 0.5 * (rec.width("mle", "alpha") + rec.width("mle", "beta"))
        for rec in usable
    ]
    return SweepLevel(
        key=key,
        scenario=sc,
        metrics=metrics,
        mean_ci={"mle": _mean_ci(usable, "mle"), "bayes": _mean_ci(records, "bayes")},
        width_var={
            "mle": (_width_variance(metrics.mle.mean_width_alpha),
                    _width_variance(metrics.mle.mean_width_beta)),
            "bayes": (_width_variance(metrics.bayes.mean_width_alpha),
                      _width_variance(metrics.bayes.mean_width_beta)),
        },
        win_rate=float(np.mean(wins)) if wins else np.nan,
        win_rate_alpha=float(np.mean(wins_a)) if wins_a else np.nan,
        win_rate_beta=float(np.mean(wins_b)) if wins_b else np.nan,
    )


def truncation_sweep(base: Scenario, x_l_list=TRUNCATION_GRID, workers: int = 1):
    """Run the scenario at each truncation level (common random numbers).

    Levels share the master seed, so replicate r reuses the same uniform
    stream at every level; cross-level comparisons then see the systematic
    effect of truncation rather than fresh sampling noise.
    """
    levels = []
    for x_l in x_l_list:
        truth = LTLLParams(base.true_params.alpha, base.true_params.beta, float(x_l))
        sc = replace(base, true_params=truth)
        records = run_scenario(sc, workers=workers)
        levels.append(_aggregate_level(float(x_l), sc, records))
    return levels


def sample_size_sweep(base: Scenario, n_list=SAMPLE_SIZE_GRID, workers: int = 1):
    """Run the scenario at each sample size (fixed truncation point)."""
    levels = []
    for n in n_list:
        sc = replace(base, n=int(n))
        records = run_scenario(sc, workers=workers)
        levels.append(_aggregate_level(float(n), sc, records))
    return levels


# ---------------------------------------------------------------------------
# Table emission
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return format(float(v), ".10g")


def table1_csv(levels) -> str:
    """Point estimates and mean 95% interval endpoints per truncation level."""
    lines = ["x_L,method,alpha_hat,beta_hat,alpha_ci_l,alpha_ci_u,beta_ci_l,beta_ci_u"]
    for lv in levels:
        for method, label in (("mle", "MLE"), ("bayes", "Bayesian")):
            m = getattr(lv.metrics, method)
            ci = lv.mean_ci[method]
            lines.append(",".join([
                _fmt(lv.key), label,
                _fmt(m.alpha.mean), _fmt(m.beta.mean),
                _fmt(ci["alpha"][0]), _fmt(ci["alpha"][1]),
                _fmt(ci["beta"][0]), _fmt(ci["beta"][1]),
            ]))
    return "\n".join(lines) + "\n"


def table2_csv(levels) -> str:
    """Bias and interval-width-implied variance per truncation level."""
    lines = ["x_L,method,alpha_hat,bias_alpha,var_alpha,beta_hat,bias_beta,var_beta"]
    for lv in levels:
        for method, label in (("mle", "MLE"), ("bayes", "Bayesian")):
            m = getattr(lv.metrics, method)
            va, vb = lv.width_var[method]
            lines.append(",".join([
                _fmt(lv.key), label,
                _fmt(m.alpha.mean), _fmt(m.alpha.bias), _fmt(va),
                _fmt(m.beta.mean), _fmt(m.beta.bias), _fmt(vb),
            ]))
    return "\n".join(lines) + "\n"


def table3_csv(levels) -> str:
    """Replicate-based bias/variance/RMSE per sample size."""
    lines = ["n,method,bias_alpha,var_alpha,rmse_alpha,bias_beta,var_beta,rmse_beta"]
    for lv in levels:
        for method, label in (("mle", "MLE"), ("bayes", "Bayesian")):
            m = getattr(lv.metrics, method)
            lines.append(",".join([
                _fmt(lv.key), label,
                _fmt(m.alpha.bias), _fmt(m.alpha.variance), _fmt(m.alpha.rmse),
                _fmt(m.beta.bias), _fmt(m.beta.variance), _fmt(m.beta.rmse),
            ]))
    return "\n".join(lines) + "\n"


def truncation_trends(levels) -> list[tuple[str, bool, str]]:
    """Pass/fail trend checks for a truncation sweep."""
    out = []
    for lv in levels:
        ok = lv.width_var["bayes"][0] < lv.width_var["mle"][0]
        out.append((f"x_L={lv.key:g}: Bayes Var(alpha) < MLE Var(alpha)", bool(ok),
                    f"{lv.width_var['bayes'][0]:.4g} vs {lv.width_var['mle'][0]:.4g}"))
    biases = [abs(lv.metrics.mle.beta.bias) for lv in levels]
    ok = all(b2 >= b1 - 1e-12 for b1, b2 in zip(biases, biases[1:]))
    out.append(("MLE |bias(beta)| nondecreasing in x_L", bool(ok),
                " -> ".join(f"{b:.4g}" for b in biases)))
    for lv in levels:
        ok = lv.win_rate >= 0.6
        out.append((f"x_L={lv.key:g}: credible <= Wald width in >= 60% of replicates",
                    bool(ok), f"win rate {lv.win_rate:.3f}"))
    return out


def sample_size_trends(levels) -> list[tuple[str, bool, str]]:
    """Pass/fail trend checks for a sample-size sweep."""
    out = []
    for method in ("mle", "bayes"):
        for param in ("alpha", "beta"):
            r = [getattr(getattr(lv.metrics, method), param).rmse for lv in levels]
            ok = all(b < a for a, b in zip(r, r[1:]))
            out.append((f"RMSE({param}) strictly decreasing in n [{method}]", bool(ok),
                        " -> ".join(f"{v:.4g}" for v in r)))
    return out


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
