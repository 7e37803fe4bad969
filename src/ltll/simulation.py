"""Monte Carlo experiment harness: truncation and sample-size sweeps.

A scenario fixes the true parameters, sample size, replicate count, priors
and chain settings, whose seed is the scenario's only seed.  Replicate r
draws its data from stream (mcmc.seed, 2r) and its chain from stream
(mcmc.seed, 2r+1), so every replicate is a pure function of (scenario, r):
reruns and parallel schedules cannot change any number.  A sweep hands all
its scenarios to one ``run_scenario`` call, which pools the replicates of
scenarios whose chains can share a bank (same n, prior and chain settings,
at any x_L, 0 included) and runs each pool as vectorized banks of at most
_BANK chains.  Chain k of any bank equals that chain run alone, so neither
the pooling nor the number of worker processes, which only decides where
each bank runs, can change an output byte.

Boundary (Pareto) fits are excluded from the MLE aggregates and surface as
failure counts instead, since bias/variance summaries presuppose an interior
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .distribution import LTLLParams, _log_xl, draw_ltll
from .mcmc import (McmcConfig, PriorSpec, _chain_start, _ess, _mh_chains, _pooled,
                   _quantile_intervals)
from .mle import fit_mle
from .numerics import RngStream, normal_quantile

__all__ = [
    "ErrorMetrics",
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
]

# Most chains per MH bank: past about 200 chains a bank step costs no less
# per chain, and larger banks only hold more memory.
_BANK = 200

TRUNCATION_GRID = (0.1, 0.3, 0.5, 0.7, 1.0)
SAMPLE_SIZE_GRID = (50, 100, 500, 1000)

_Z95 = float(normal_quantile(0.975))


@dataclass(frozen=True)
class Scenario:
    """One simulation cell: truth, sample size, replicate count, prior and
    chain settings.  ``mcmc.seed`` seeds both streams of every replicate."""

    true_params: LTLLParams
    n: int = 1000
    replicates: int = 1000
    prior: PriorSpec = PriorSpec.diffuse()
    mcmc: McmcConfig = McmcConfig()

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates")
        if self.n < 10:
            raise ValueError("need sample size >= 10")
        if self.mcmc.chains != 1:
            raise ValueError("a scenario runs one chain per replicate; set mcmc.chains to 1")


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
    """One method's aggregates at one sweep level: errors, mean 95% interval
    endpoints and widths, and the replicates left out as failures."""

    alpha: ErrorMetrics
    beta: ErrorMetrics
    mean_ci_alpha: tuple[float, float]
    mean_ci_beta: tuple[float, float]
    mean_width_alpha: float
    mean_width_beta: float
    failures: int

    @property
    def width_var(self) -> tuple[float, float]:
        """Variances implied by the mean 95% widths, (width / (2 z_0.975))^2."""
        return tuple((w / (2.0 * _Z95)) ** 2 for w in (self.mean_width_alpha,
                                                        self.mean_width_beta))


@dataclass(frozen=True)
class SweepLevel:
    """Aggregates for one sweep cell (one truncation level or sample size)."""

    key: float
    scenario: Scenario
    mle: MethodMetrics
    bayes: MethodMetrics
    n_replicates: int
    win_rate: float
    # Interior MLEs without a Wald interval (information not positive-
    # definite): like boundary fits, left out of the win rate and counted.
    no_wald: int = 0


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
    return RngStream(sc.mcmc.seed, 2 * r)


def _chain_stream(sc: Scenario, r: int) -> RngStream:
    return RngStream(sc.mcmc.seed, 2 * r + 1)


def _run_chunk(jobs) -> list[ReplicateResult]:
    """Replicates given as (scenario, r) pairs: draw, fit by MLE, then one
    vectorized MH bank with a chain each.  The scenarios must share n, prior
    and chain settings (see ``_pools``); each chain carries its own ln x_L."""
    samples = [draw_ltll(sc.n, sc.true_params, _data_stream(sc, r)) for sc, r in jobs]
    fits = [fit_mle(s) for s in samples]

    inits = np.array([_chain_start(s, f) for s, f in zip(samples, fits)])
    lx = np.stack([s.log_values for s in samples])
    ln_xl = np.array([_log_xl(s.x_l) for s in samples])
    first = jobs[0][0]
    streams = [_chain_stream(sc, r) for sc, r in jobs]
    draws, acc, _, _ = _mh_chains(lx, ln_xl, first.prior, first.mcmc, streams, inits, fits)

    out = []
    for i, (_, r) in enumerate(jobs):
        d = draws[i]
        ci_a, ci_b = _quantile_intervals(d, 0.05)
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
            bayes_ci_alpha=ci_a,
            bayes_ci_beta=ci_b,
            acceptance_rate=float(acc[i]),
            ess_alpha=_ess(d[:, 0]),
            ess_beta=_ess(d[:, 1]),
        ))
    return out


def _bank(jobs) -> list[ReplicateResult]:
    """``_run_chunk`` looked up when called: a pool worker receives this
    function by name, which still pickles when ``_run_chunk`` is rebound to a
    wrapper (as the benchmark's tracer does)."""
    return _run_chunk(jobs)


def run_replicate(sc: Scenario, r: int) -> ReplicateResult:
    """One replicate, a pure function of (scenario, r)."""
    if not (0 <= r < sc.replicates):
        raise ValueError(f"replicate index {r} outside 0..{sc.replicates - 1}")
    return _run_chunk([(sc, r)])[0]


def _pools(scenarios):
    """(scenario index, r) pairs grouped by what a bank's chains must share:
    n, prior and chain settings; each chain carries its own ln x_L."""
    pools = {}
    for i, sc in enumerate(scenarios):
        key = (sc.n, sc.prior, sc.mcmc)
        pools.setdefault(key, []).extend((i, r) for r in range(sc.replicates))
    return list(pools.values())


def _banks(pool, workers: int):
    """The fewest near-equal banks of at most _BANK chains, rounded up to a
    multiple of ``workers`` so each worker runs as many, but none empty."""
    count = min(-(-len(pool) // (_BANK * workers)) * workers, len(pool))
    cuts = [len(pool) * k // count for k in range(count + 1)]
    return [pool[a:b] for a, b in zip(cuts, cuts[1:])]


def run_scenario(scenarios, workers: int = 1) -> list[ReplicateResult]:
    """All replicates of one scenario or a sequence of them.

    Returns the records scenario by scenario, each in replicate order.
    Replicates of scenarios that can share a bank are pooled, and each pool
    is cut into the fewest near-equal banks of at most 200 chains, rounded
    up to a multiple of ``workers`` while no bank is empty; ``workers`` (at
    least 1) only chooses how many banks run at once and never changes a
    record.
    """
    if isinstance(scenarios, Scenario):
        scenarios = [scenarios]
    if not scenarios:
        raise ValueError("need at least one scenario")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    banks = [bank for pool in _pools(scenarios) for bank in _banks(pool, workers)]
    jobs = [[(scenarios[i], r) for i, r in bank] for bank in banks]
    results = _pooled(_bank, jobs, workers)
    records = [[] for _ in scenarios]
    for bank, recs in zip(banks, results):
        for (i, _), rec in zip(bank, recs):
            records[i].append(rec)
    return [rec for recs in records for rec in recs]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

_NAN_METRICS = ErrorMetrics(np.nan, np.nan, np.nan, np.nan)


def _method_level(which: str, records, truth: LTLLParams, failures: int) -> MethodMetrics:
    """The MethodMetrics of method ``which`` ("mle" or "bayes") over the
    replicates it can use."""
    fields = {}
    for param in ("alpha", "beta"):
        # Fewer than two estimates or intervals define no aggregate, but the
        # scenario still reports rather than aborting.
        est = [getattr(rec, f"{which}_{param}") for rec in records]
        fields[param] = (error_metrics(est, getattr(truth, param)) if len(est) >= 2
                         else _NAN_METRICS)
        cis = [ci for rec in records if (ci := getattr(rec, f"{which}_ci_{param}")) is not None]
        if len(cis) < 2:
            fields[f"mean_ci_{param}"], fields[f"mean_width_{param}"] = (np.nan, np.nan), np.nan
            continue
        fields[f"mean_ci_{param}"] = (float(np.mean([ci[0] for ci in cis])),
                                      float(np.mean([ci[1] for ci in cis])))
        fields[f"mean_width_{param}"] = float(np.nanmean([rec.width(which, param)
                                                          for rec in records]))
    return MethodMetrics(failures=failures, **fields)


def _aggregate_level(key: float, sc: Scenario, records) -> SweepLevel:
    usable = [rec for rec in records if not rec.boundary]
    with_wald = [rec for rec in usable if rec.mle_ci_alpha is not None]
    wins = [
        0.5 * (rec.width("bayes", "alpha") + rec.width("bayes", "beta"))
        <= 0.5 * (rec.width("mle", "alpha") + rec.width("mle", "beta"))
        for rec in with_wald
    ]
    return SweepLevel(
        key=key,
        scenario=sc,
        mle=_method_level("mle", usable, sc.true_params, len(records) - len(usable)),
        bayes=_method_level("bayes", records, sc.true_params, 0),
        n_replicates=len(records),
        win_rate=float(np.mean(wins)) if wins else np.nan,
        no_wald=len(usable) - len(with_wald),
    )


def _sweep(keys, scenarios, workers: int):
    """Aggregate per level, running every level's replicates in one call."""
    records = iter(run_scenario(scenarios, workers=workers))
    return [_aggregate_level(key, sc, list(islice(records, sc.replicates)))
            for key, sc in zip(keys, scenarios)]


def truncation_sweep(base: Scenario, x_l_list=TRUNCATION_GRID, workers: int = 1):
    """Run the scenario at each truncation level (common random numbers).

    Levels share the seed, so replicate r reuses the same uniform stream at
    every level; cross-level comparisons then see the systematic effect of
    truncation rather than fresh sampling noise.  Every level is validated
    before any replicate runs.
    """
    keys = [float(x_l) for x_l in x_l_list]
    if not keys:
        raise ValueError("need at least one truncation level")
    a, b = base.true_params.alpha, base.true_params.beta
    scenarios = [replace(base, true_params=LTLLParams(a, b, x_l)) for x_l in keys]
    return _sweep(keys, scenarios, workers)


def sample_size_sweep(base: Scenario, n_list=SAMPLE_SIZE_GRID, workers: int = 1):
    """Run the scenario at each sample size (fixed truncation point)."""
    sizes = [int(n) for n in n_list]
    if not sizes:
        raise ValueError("need at least one sample size")
    scenarios = [replace(base, n=n) for n in sizes]
    return _sweep([float(n) for n in sizes], scenarios, workers)


# ---------------------------------------------------------------------------
# Table emission
# ---------------------------------------------------------------------------

def _table(header: str, levels, cells) -> str:
    """CSV text: the header, then a row per level and method holding the level
    key, the method label and ``cells`` of that method's MethodMetrics."""
    lines = [header]
    for lv in levels:
        for label, metrics in (("MLE", lv.mle), ("Bayesian", lv.bayes)):
            key, *rest = (format(float(v), ".10g") for v in (lv.key, *cells(metrics)))
            lines.append(",".join([key, label, *rest]))
    return "\n".join(lines) + "\n"


def table1_csv(levels) -> str:
    """Point estimates and mean 95% interval endpoints per truncation level."""
    return _table("x_L,method,alpha_hat,beta_hat,alpha_ci_l,alpha_ci_u,beta_ci_l,beta_ci_u",
                  levels, lambda m: (m.alpha.mean, m.beta.mean, *m.mean_ci_alpha, *m.mean_ci_beta))


def table2_csv(levels) -> str:
    """Bias and interval-width-implied variance per truncation level."""
    return _table("x_L,method,alpha_hat,bias_alpha,var_alpha,beta_hat,bias_beta,var_beta",
                  levels, lambda m: (m.alpha.mean, m.alpha.bias, m.width_var[0],
                                     m.beta.mean, m.beta.bias, m.width_var[1]))


def table3_csv(levels) -> str:
    """Replicate-based bias/variance/RMSE per sample size."""
    return _table("n,method,bias_alpha,var_alpha,rmse_alpha,bias_beta,var_beta,rmse_beta",
                  levels, lambda m: (m.alpha.bias, m.alpha.variance, m.alpha.rmse,
                                     m.beta.bias, m.beta.variance, m.beta.rmse))


def truncation_trends(levels) -> list[tuple[str, bool, str]]:
    """Pass/fail trend checks for a truncation sweep."""
    out = []
    for lv in levels:
        bayes, mle = lv.bayes.width_var[0], lv.mle.width_var[0]
        out.append((f"x_L={lv.key:g}: Bayes Var(alpha) < MLE Var(alpha)", bool(bayes < mle),
                    f"{bayes:.4g} vs {mle:.4g}"))
    biases = [abs(lv.mle.beta.bias) for lv in levels]
    ok = all(b2 >= b1 - 1e-12 for b1, b2 in zip(biases, biases[1:]))
    out.append(("MLE |bias(beta)| nondecreasing in x_L", bool(ok),
                " -> ".join(f"{b:.4g}" for b in biases)))
    for lv in levels:
        ok = lv.win_rate >= 0.6
        excluded = f", {lv.no_wald} without a Wald interval excluded" if lv.no_wald else ""
        out.append((f"x_L={lv.key:g}: credible <= Wald width in >= 60% of replicates",
                    bool(ok), f"win rate {lv.win_rate:.3f}{excluded}"))
    return out


def sample_size_trends(levels) -> list[tuple[str, bool, str]]:
    """Pass/fail trend checks for a sample-size sweep."""
    out = []
    for method in ("mle", "bayes"):
        for param in ("alpha", "beta"):
            r = [getattr(getattr(lv, method), param).rmse for lv in levels]
            ok = all(b < a for a, b in zip(r, r[1:]))
            out.append((f"RMSE({param}) strictly decreasing in n [{method}]", bool(ok),
                        " -> ".join(f"{v:.4g}" for v in r)))
    return out
