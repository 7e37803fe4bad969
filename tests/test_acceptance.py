"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Heavy Monte Carlo protocols (the truncation and sample-size sweeps at 200
replicates, n = 1000, default chain settings) run once as module fixtures
and are shared by the criteria that read them.  Reference values for the
real-data criteria live in REFERENCE_* tables below.

The bladder-cancer MLE criterion (c09) is checked against an oracle built
inside this module from scipy.stats.logistic and scipy.optimize alone; the
published pairs in REFERENCE_BLADDER_MLE are printed beside it for
comparison, each with its measured log-likelihood shortfall.  The c06
interval-width and c08 variance-ordering lines and the c09 containment line
carry Monte Carlo standard errors, so a miss can be told apart from
replicate noise.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module takes roughly four to eight minutes on two cores.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.stats import logistic

import ltll
from ltll.datasets import apply_truncation, load_bladder_cancer
from ltll.distribution import (
    LTLLParams,
    Sample,
    draw_ltll,
    existence_stats,
    ll_cdf,
    ll_pdf,
    log_likelihood,
    ltll_cdf,
    ltll_pdf,
    ltll_quantile,
    phi_objective,
    score_gradient,
)
from ltll.mcmc import McmcConfig, PriorSpec, credible_ellipse, log_posterior, run_chain
from ltll.mle import fit_mle
from ltll.numerics import RngStream, chi2_quantile_2dof
from ltll.simulation import (
    TRUNCATION_GRID,
    Scenario,
    _aggregate_level,
    _data_stream,
    run_scenario,
    sample_size_sweep,
)

from finite_diff import finite_diff_gradient
from grid_posterior import _batch_mcse, grid_posterior

MASTER_SEED = 20240

# Published comparison values for the synthetic truncation sweep
# (true alpha = 2, beta = 3) and for the bladder-cancer case study.
REFERENCE_T1 = {
    "mle": {0.1: (2.01, 2.95), 0.3: (2.02, 2.94), 0.5: (2.04, 2.92),
            0.7: (2.06, 2.90), 1.0: (2.08, 2.88)},
    "bayes": {0.1: (2.03, 2.97), 0.3: (2.05, 2.99), 0.5: (2.06, 2.98),
              0.7: (2.07, 2.97), 1.0: (2.09, 2.96)},
}
# Shown for comparison only: c09 asserts against the in-test scipy oracle.
# These pairs do not maximize the likelihood of the bundled 128 values; at
# every level their log-likelihood falls short of the oracle's maximum
# (by about 0.061, 0.065, 0.004 and 0.004), and c09 prints that shortfall.
REFERENCE_BLADDER_MLE = {0.0: (5.97, 1.69), 0.25: (6.11, 1.78),
                         1.0: (6.32, 1.88), 6.0: (8.63, 2.24)}
REFERENCE_BLADDER_BAYES_CI = {
    0.0: ((5.55, 6.50), (1.52, 1.95)),
    0.25: ((5.70, 6.65), (1.61, 2.05)),
    1.0: ((5.95, 6.90), (1.70, 2.15)),
    6.0: ((8.20, 9.40), (2.05, 2.55)),
}


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def truncation_records():
    """Replicate records of the truncation sweep, keyed by x_L.

    The same single pooled call as ``truncation_sweep``, kept here so that
    the MCSE of the c06/c08 report lines can read the per-replicate interval
    widths.
    """
    base = Scenario(true_params=LTLLParams(2.0, 3.0, 1.0), n=1000, replicates=200,
                    prior=PriorSpec.diffuse(), mcmc=McmcConfig(seed=MASTER_SEED))
    scenarios = [replace(base, true_params=LTLLParams(2.0, 3.0, float(x_l)))
                 for x_l in TRUNCATION_GRID]
    records = run_scenario(scenarios, workers=2)
    return {sc.true_params.x_l: (sc, records[k * sc.replicates:(k + 1) * sc.replicates])
            for k, sc in enumerate(scenarios)}


@pytest.fixture(scope="module")
def truncation_run(truncation_records):
    return [_aggregate_level(x_l, sc, records)
            for x_l, (sc, records) in truncation_records.items()]


@pytest.fixture(scope="module")
def sample_size_run():
    base = Scenario(true_params=LTLLParams(2.0, 3.0, 1.0), n=1000, replicates=200,
                    prior=PriorSpec.diffuse(), mcmc=McmcConfig(seed=MASTER_SEED))
    return sample_size_sweep(base, workers=2)


# -- criterion 1: distribution correctness ----------------------------------

def test_c01_distribution_correctness():
    rng = np.random.default_rng(1)
    u = np.linspace(0.0, 0.999, 1000)
    worst_rt = 0.0
    for _ in range(25):
        alpha = float(np.exp(rng.normal() * 0.8))
        beta = float(np.exp(rng.normal() * 0.5 + 0.4))
        x_l = float(alpha * np.exp(rng.normal() - 0.5))
        p = LTLLParams(alpha, beta, x_l)
        worst_rt = max(worst_rt, float(np.max(np.abs(
            ltll_cdf(ltll_quantile(u, p), p) - u))))

    p = LTLLParams(2.0, 3.0, 0.7)
    total, _ = quad(lambda t: ltll_pdf(math.exp(t), p) * math.exp(t),
                    math.log(np.nextafter(p.x_l, np.inf)), math.log(1e6 * p.alpha),
                    limit=200)

    z = LTLLParams(2.0, 3.0, 0.0)
    xs = np.geomspace(1e-3, 1e3, 500)
    reduction = max(float(np.max(np.abs(ltll_pdf(xs, z) - ll_pdf(xs, 2.0, 3.0)))),
                    float(np.max(np.abs(ltll_cdf(xs, z) - ll_cdf(xs, 2.0, 3.0)))))

    v = np.sort(draw_ltll(100_000, p, RngStream(2024, 0)).values)
    grid = np.arange(v.size)
    f = ltll_cdf(v, p)
    ks = max(float(np.max(f - grid / v.size)), float(np.max((grid + 1) / v.size - f)))

    ok = worst_rt <= 1e-10 and abs(total - 1.0) <= 1e-6 and reduction <= 1e-12 and ks < 0.006
    assert report("1 (distribution correctness)", ok,
                  f"roundtrip {worst_rt:.2e}, integral err {abs(total-1):.2e}, "
                  f"x_L=0 reduction {reduction:.2e}, KS {ks:.5f}")


# -- criterion 2: analytic score vs central differences ----------------------

def test_c02_score_equations():
    rng = np.random.default_rng(2)
    worst = 0.0
    for k in range(100):
        alpha = float(np.exp(rng.normal() * 0.7))
        beta = float(np.exp(rng.normal() * 0.5 + 0.4))
        x_l = float(alpha * np.exp(rng.normal() - 0.8))
        n = int(rng.integers(20, 120))
        s = draw_ltll(n, LTLLParams(alpha, beta, x_l), RngStream(100, k))
        a = alpha * float(np.exp(rng.normal() * 0.25))
        b = beta * float(np.exp(rng.normal() * 0.25))
        got = score_gradient(s, a, b)
        want = finite_diff_gradient(lambda th: log_likelihood(s, th[0], th[1]), (a, b))
        for g, w in zip(got, want):
            worst = max(worst, abs(g - w) / max(1.0, abs(w)))
    assert report("2 (score equations)", worst <= 1e-6, f"max relative deviation {worst:.2e}")


# -- criterion 3: existence mechanics ----------------------------------------

def test_c03_existence_mechanics():
    rng = np.random.default_rng(3)
    worst_phi = 0.0
    for k in range(100):
        p = LTLLParams(float(np.exp(rng.normal() * 0.5)),
                       float(np.exp(rng.normal() * 0.4 + 0.4)), 1.0)
        w = draw_ltll(int(rng.integers(10, 80)), p, RngStream(200, k)).normalized()
        a = float(np.exp(rng.normal() * 0.4))
        b = float(np.exp(rng.normal() * 0.4))
        worst_phi = max(worst_phi, abs(phi_objective(a ** b, b, w)
                                       - log_likelihood(w, a, b) - w.sum_log))

    # Exact solution of the {2,4} criterion: t + t^2 = 1 with t = 2^-beta,
    # so beta_C = -log2((sqrt(5)-1)/2) = 0.6942419136...
    beta_c_exact = -math.log((math.sqrt(5.0) - 1.0) / 2.0) / math.log(2.0)
    st = existence_stats(Sample(np.array([2.0, 4.0]), 1.0))
    beta_c_err = abs(st.beta_c - beta_c_exact)

    boundary_ok = True
    for n_small, big in ((10, 100.0), (25, 200.0)):
        s = Sample(np.array([1.01] * (n_small - 1) + [math.exp(big)]), 1.0)
        boundary_ok &= fit_mle(s).boundary

    interior_ok = True
    score_detail = 0.0
    for k in range(5):
        s = draw_ltll(400, LTLLParams(2.0, 3.0, 1.0), RngStream(300, k))
        fit = fit_mle(s)
        norm = math.hypot(*score_gradient(s, fit.alpha, fit.beta))
        score_detail = max(score_detail, norm / (1.0 + abs(fit.loglik)))
        interior_ok &= (not fit.boundary) and norm < 1e-5 * (1.0 + abs(fit.loglik))

    ok = worst_phi <= 1e-9 and beta_c_err <= 1e-6 and boundary_ok and interior_ok
    assert report("3 (existence mechanics)", ok,
                  f"phi identity {worst_phi:.2e}, beta_C err {beta_c_err:.2e}, "
                  f"boundary gate {boundary_ok}, interior stationarity "
                  f"{score_detail:.2e} rel")


# -- criterion 4: MLE grid oracle --------------------------------------------

def _grid_loglik_max(s: Sample, center, half_width=0.5, points=401):
    """Independent dense-grid evaluation of the truncated log-likelihood."""
    lx = s.log_values
    n = s.n
    sumlx = s.sum_log
    ln_xl = math.log(s.x_l) if s.x_l > 0 else None
    la = math.log(center[0]) + np.linspace(-half_width, half_width, points)
    lb = math.log(center[1]) + np.linspace(-half_width, half_width, points)
    best = -np.inf
    for lb_j in lb:
        beta = math.exp(lb_j)
        t = beta * (lx[None, :] - la[:, None])
        s1 = np.logaddexp(0.0, t).sum(axis=1)
        ll = n * lb_j + (beta - 1.0) * sumlx - n * beta * la - 2.0 * s1
        if ln_xl is not None:
            ll = ll + n * np.logaddexp(0.0, beta * (ln_xl - la))
        best = max(best, float(ll.max()))
    return best


def test_c04_mle_grid_oracle():
    worst_gap = -np.inf
    for k in range(20):
        s = draw_ltll(200, LTLLParams(2.0, 3.0, 1.0), RngStream(400, k))
        fit = fit_mle(s)
        grid_best = _grid_loglik_max(s, (2.0, 3.0))
        worst_gap = max(worst_gap, grid_best - fit.loglik)
    ok = worst_gap <= 1e-6
    assert report("4 (grid oracle dominance)", ok,
                  f"max (grid - fit) log-likelihood gap {worst_gap:.2e} over 20 datasets")


# -- criterion 5: MCMC validity ----------------------------------------------

def test_c05_mcmc_validity():
    s = draw_ltll(1000, LTLLParams(2.0, 3.0, 1.0), RngStream(9, 0))
    prior = PriorSpec.diffuse()

    # (a) two-state discretization: exact transition matrix and stationary law
    states = [(2.0, 3.0), (2.05, 2.9)]
    lp = [log_posterior(s, a, b, prior) for a, b in states]
    a01 = min(1.0, math.exp(lp[1] - lp[0]))
    a10 = min(1.0, math.exp(lp[0] - lp[1]))
    pi0 = a10 / (a01 + a10)
    steps = 1_000_000
    u = RngStream(123, 0).uniforms(steps)
    cur = 0
    visits = np.zeros(2)
    trans = np.zeros((2, 2))
    for t in range(steps):
        acc = a01 if cur == 0 else a10
        nxt = 1 - cur if u[t] < acc else cur
        trans[cur, nxt] += 1
        cur = nxt
        visits[cur] += 1
    freq_err = abs(visits[0] / steps - pi0)
    trans_err = max(abs(trans[0, 1] / trans[0].sum() - a01),
                    abs(trans[1, 0] / trans[1].sum() - a10))

    # (b) diffuse-prior posterior mode vs MLE on a grid
    s_small = draw_ltll(400, LTLLParams(2.0, 3.0, 1.0), RngStream(10, 0))
    fit = fit_mle(s_small)
    flat = PriorSpec(1.0, 1e-8, 1.0, 1e-8)
    alphas = np.linspace(fit.alpha * 0.9, fit.alpha * 1.1, 41)
    betas = np.linspace(fit.beta * 0.9, fit.beta * 1.1, 41)
    surf = np.array([[log_posterior(s_small, a, b, flat) for b in betas] for a in alphas])
    ia, ib = np.unravel_index(np.argmax(surf), surf.shape)
    mode_ok = (abs(alphas[ia] - fit.alpha) <= alphas[1] - alphas[0]
               and abs(betas[ib] - fit.beta) <= betas[1] - betas[0])

    # (c) posterior mean calibration on n = 1000 synthetic data
    res = run_chain(s, prior=prior, cfg=McmcConfig(seed=5))
    sd_a, sd_b = math.sqrt(res.cov.a11), math.sqrt(res.cov.a22)
    calib_ok = abs(res.mean[0] - 2.0) < 3 * sd_a and abs(res.mean[1] - 3.0) < 3 * sd_b

    ok = freq_err < 0.005 and trans_err < 0.005 and mode_ok and calib_ok
    assert report("5 (MCMC validity)", ok,
                  f"2-state freq err {freq_err:.4f}, transition err {trans_err:.4f}, "
                  f"mode=MLE {mode_ok}, calibration {calib_ok}")


# -- criterion 6: synthetic truncation sweep ----------------------------------

def test_c06_point_estimates(truncation_run):
    worst = 0.0
    detail = []
    for lv in truncation_run:
        for meth in ("mle", "bayes"):
            m = getattr(lv, meth)
            ref_a, ref_b = REFERENCE_T1[meth][lv.key]
            da, db = abs(m.alpha.mean - ref_a), abs(m.beta.mean - ref_b)
            worst = max(worst, da, db)
            if max(da, db) > 0.15:
                detail.append(f"x_L={lv.key} {meth} off by ({da:.3f},{db:.3f})")
    ok = worst <= 0.15
    assert report("6 (reference point estimates, +/-0.15)", ok,
                  f"max deviation {worst:.3f}" + ("; " + "; ".join(detail) if detail else ""))


def test_c06_interval_width_trend(truncation_run):
    rates = {}
    for lv in truncation_run:
        usable = lv.n_replicates - lv.mle.failures
        p = lv.win_rate
        rates[lv.key] = (p, math.sqrt(p * (1.0 - p) / usable), usable)
    ok = all(r >= 0.6 for r, _, _ in rates.values())
    assert report("6 (credible <= Wald width in >= 60% of replicates)", ok,
                  "win rates (+/- MCSE) " + ", ".join(
                      f"x_L={k}: {p:.3f} +/- {se:.3f} (N={n})"
                      for k, (p, se, n) in rates.items()))


# -- criterion 7: sample-size sweep -------------------------------------------

def test_c07_sample_size_sweep(sample_size_run):
    ok = True
    details = []
    for meth in ("mle", "bayes"):
        for param in ("alpha", "beta"):
            r = [getattr(getattr(lv, meth), param).rmse for lv in sample_size_run]
            v = [getattr(getattr(lv, meth), param).variance for lv in sample_size_run]
            mono = all(b < a for a, b in zip(r, r[1:]))
            mono_var = all(b < a for a, b in zip(v, v[1:]))
            ok &= mono and mono_var
            details.append(f"{meth}/{param}: " + "->".join(f"{x:.4f}" for x in r))
    final = sample_size_run[-1]
    caps = (final.mle.alpha.rmse <= 0.12 and final.bayes.alpha.rmse <= 0.12
            and final.mle.beta.rmse <= 0.16 and final.bayes.beta.rmse <= 0.16)
    ok &= caps
    assert report("7 (RMSE decreasing; n=1000 caps)", ok,
                  "; ".join(details) + f"; caps ok {caps}")


# -- criterion 8: bias/variance trends ----------------------------------------

def _width_ratio_mcse(records) -> float:
    """Delta-method MCSE of (mean Bayes width / mean Wald width)^2 for alpha.

    Each replicate's influence on the squared ratio R is
    2R (w_bayes / mean_bayes - w_mle / mean_mle); the MCSE is the standard
    deviation of that influence over sqrt(N) replicates.
    """
    usable = [rec for rec in records if not rec.boundary]
    wb = np.array([rec.width("bayes", "alpha") for rec in usable])
    wm = np.array([rec.width("mle", "alpha") for rec in usable])
    ratio = (wb.mean() / wm.mean()) ** 2
    influence = 2.0 * ratio * (wb / wb.mean() - wm / wm.mean())
    return float(np.std(influence, ddof=1) / math.sqrt(influence.size))


def test_c08_variance_ordering(truncation_run, truncation_records):
    rows = {lv.key: (lv.bayes.width_var[0], lv.mle.width_var[0],
                     _width_ratio_mcse(truncation_records[lv.key][1]))
            for lv in truncation_run}
    ok = all(b < m for b, m, _ in rows.values())
    assert report("8 (Bayes Var(alpha) < MLE Var(alpha) per level)", ok,
                  ", ".join(f"x_L={k}: {b:.6f} vs {m:.6f}, ratio {b / m:.4f} +/- {se:.4f}"
                            for k, (b, m, se) in rows.items()))


def test_c08_beta_bias_monotone(truncation_run):
    biases = [abs(lv.mle.beta.bias) for lv in truncation_run]
    ok = all(b2 >= b1 - 1e-12 for b1, b2 in zip(biases, biases[1:]))
    assert report("8 (MLE |bias(beta)| nondecreasing in x_L)", ok,
                  " -> ".join(f"{b:.4f}" for b in biases))


def test_c06_c08_cause_exact_interval_wider_than_wald():
    # c06 and c08 fail on the diffuse prior at n = 1000, not on the sampler:
    # the exact posterior's alpha interval (dense grid, no chain) is already
    # wider than Wald's on the sweep's own replicates, so a perfect sampler
    # would lose c06 and miss c08 too.
    base = Scenario(true_params=LTLLParams(2.0, 3.0, 1.0), n=1000, replicates=2,
                    prior=PriorSpec.diffuse(), mcmc=McmcConfig(seed=MASTER_SEED))
    ratios = {}
    for x_l in (0.1, 1.0):
        sc = replace(base, true_params=LTLLParams(2.0, 3.0, x_l))
        for r in range(sc.replicates):
            s = draw_ltll(sc.n, sc.true_params, _data_stream(sc, r))
            fit = fit_mle(s)
            lo, hi = grid_posterior(s, sc.prior, fit)[0][0][2]
            ratios[x_l, r] = (hi - lo) / (fit.ci_alpha[1] - fit.ci_alpha[0])
    ok = all(v > 1.0 for v in ratios.values())
    assert report("6/8 cause (exact alpha interval wider than Wald, diffuse prior)", ok,
                  ", ".join(f"x_L={x_l} r={r}: grid/Wald width {v:.4f}"
                            for (x_l, r), v in ratios.items()))


# -- criterion 9: bladder-cancer case study -----------------------------------

@pytest.fixture(scope="module")
def bladder_fits():
    data = load_bladder_cancer()
    out = {}
    for x_l in (0.0, 0.25, 1.0, 6.0):
        sample = apply_truncation(data, x_l).sample
        fit = fit_mle(sample)
        post = run_chain(sample, prior=PriorSpec.diffuse(), cfg=McmcConfig(seed=7))
        out[x_l] = (fit, post)
    return out


def _oracle_loglik(values, x_l, alpha, beta):
    """Truncated log-likelihood from ln X ~ Logistic(ln alpha, 1 / beta)."""
    lx = np.log(values)
    loc, scale = math.log(alpha), 1.0 / beta
    ll = float(np.sum(logistic.logpdf(lx, loc, scale) - lx))
    if x_l > 0.0:
        ll -= values.size * float(logistic.logsf(math.log(x_l), loc, scale))
    return ll


def _oracle_mle(values, x_l):
    """Independent MLE: coarse grid maximizer, then Nelder-Mead in logs.

    It starts from its own grid, never from ltll's fit.  The start matters:
    from (median, beta = 1) at x_L = 6, Nelder-Mead drifts toward alpha -> 0
    and stops 3.9 log-likelihood units below the maximum.
    """
    lx = np.log(values)

    def nll(th):
        return -_oracle_loglik(values, x_l, math.exp(th[0]), math.exp(th[1]))

    grid = [(la, lb) for la in np.linspace(lx.min(), lx.max(), 41)
            for lb in np.linspace(math.log(0.1), math.log(10.0), 41)]
    res = minimize(nll, np.array(min(grid, key=nll)), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 10000,
                            "maxfev": 20000})
    return math.exp(res.x[0]), math.exp(res.x[1]), -float(res.fun)


def test_c09_mle_reference_values(bladder_fits):
    rows = []
    ok = True
    for x_l, (fit, _) in bladder_fits.items():
        values = apply_truncation(load_bladder_cancer(), x_l).sample.values
        alpha_o, beta_o, ll_o = _oracle_mle(values, x_l)
        ra, rb = abs(fit.alpha / alpha_o - 1.0), abs(fit.beta / beta_o - 1.0)
        ok &= ra <= 1e-6 and rb <= 1e-6 and fit.loglik >= ll_o - 1e-9
        ref_a, ref_b = REFERENCE_BLADDER_MLE[x_l]
        shortfall = ll_o - _oracle_loglik(values, x_l, ref_a, ref_b)
        rows.append(f"x_L={x_l}: ({fit.alpha:.3f},{fit.beta:.3f}) vs oracle "
                    f"({alpha_o:.3f},{beta_o:.3f}) rel diff ({ra:.1e},{rb:.1e}) tol 1e-6, "
                    f"loglik {fit.loglik:.3f} vs {ll_o:.3f}; published ({ref_a},{ref_b}) "
                    f"loglik short by {shortfall:.3f}")
    assert report("9 (bladder MLE vs scipy oracle)", ok, "; ".join(rows))


def test_c09_bayes_containment(bladder_fits):
    ok = True
    rows = []
    for x_l, (_, post) in bladder_fits.items():
        (alo, ahi), (blo, bhi) = REFERENCE_BLADDER_BAYES_CI[x_l]
        inside = alo <= post.mean[0] <= ahi and blo <= post.mean[1] <= bhi
        ok &= inside
        se_a, se_b = (_batch_mcse(post.draws[:, j], 1)[1] for j in (0, 1))
        rows.append(f"x_L={x_l}: ({post.mean[0]:.3f} +/- {se_a:.3f},"
                    f"{post.mean[1]:.3f} +/- {se_b:.3f}) in "
                    f"[{alo},{ahi}]x[{blo},{bhi}] {inside}")
    assert report("9 (bladder Bayes containment)", ok, "; ".join(rows))


def test_c09_ellipse_area_monotone(bladder_fits):
    areas = [credible_ellipse(post, 0.05).area for _, post in bladder_fits.values()]
    ok = all(b >= a for a, b in zip(areas, areas[1:]))
    assert report("9 (credible ellipse area nondecreasing in x_L)", ok,
                  " -> ".join(f"{a:.3f}" for a in areas))


# -- criterion 10: closed-form anchors ----------------------------------------

def test_c10_closed_form_anchors():
    chi_err = abs(chi2_quantile_2dof(0.95) - 5.9914645)
    draws = draw_ltll(100_000, LTLLParams(2.0, 3.0, 0.0), RngStream(7, 0)).values
    mean_exact = 2.0 * (math.pi / 3.0) / math.sin(math.pi / 3.0)
    se = float(np.std(draws, ddof=1)) / math.sqrt(draws.size)
    mean_err = abs(float(np.mean(draws)) - mean_exact)
    ok = chi_err <= 1e-6 and mean_err < 3 * se
    assert report("10 (closed-form anchors)", ok,
                  f"chi2 err {chi_err:.2e}; MC mean err {mean_err:.5f} vs 3*SE {3*se:.5f}")


# -- criterion 11: end-to-end determinism --------------------------------------

def _run_cli(args, cwd):
    # The child runs in ``cwd``, where a relative PYTHONPATH (such as
    # ``src`` in a source checkout) no longer points at the package; put
    # the directory of the ltll this process imported first on its path.
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(ltll.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-m", "ltll.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True, check=False)


def test_c11_cli_determinism(tmp_path):
    tmp = str(tmp_path)
    checks = []

    fit_args = ["fit", "--data", "bladder_cancer", "--xl", "1.0", "--method", "both",
                "--iters", "4000", "--burnin", "800", "--thin", "2", "--seed", "31"]
    for out in ("f1.json", "f2.json"):
        r = _run_cli(fit_args + ["--out", os.path.join(tmp, out)], tmp)
        assert r.returncode == 0, r.stderr
    checks.append(("fit", open(f"{tmp}/f1.json", "rb").read() == open(f"{tmp}/f2.json", "rb").read()))

    sim_args = ["simulate", "--sweep", "truncation", "--replicates", "6", "--n", "120",
                "--levels", "0.5,1.0", "--iters", "1200", "--burnin", "300", "--thin", "2",
                "--seed", "17"]
    blobs = []
    for workers, sub in (("1", "s1"), ("2", "s2"), ("1", "s3")):
        outdir = os.path.join(tmp, sub)
        r = _run_cli(sim_args + ["--workers", workers, "--out", outdir], tmp)
        assert r.returncode == 0, r.stderr
        blobs.append((open(f"{outdir}/table1_truncation.csv", "rb").read(),
                      open(f"{outdir}/table2_truncation.csv", "rb").read()))
    checks.append(("simulate serial rerun", blobs[0] == blobs[2]))
    checks.append(("simulate parallel workers", blobs[0] == blobs[1]))

    mom_args = ["moments", "--alpha-grid", "1:3:3", "--beta-grid", "2:4:2",
                "--draws", "20000", "--seed", "3"]
    for out in ("m1.csv", "m2.csv"):
        r = _run_cli(mom_args + ["--out", os.path.join(tmp, out)], tmp)
        assert r.returncode == 0, r.stderr
    checks.append(("moments", open(f"{tmp}/m1.csv", "rb").read() == open(f"{tmp}/m2.csv", "rb").read()))

    ell_args = ["ellipse", "--data", "bladder_cancer", "--xl", "0.25", "--method", "credible",
                "--iters", "3000", "--burnin", "600", "--thin", "2", "--seed", "13",
                "--npoints", "64"]
    for stem in ("e1", "e2"):
        r = _run_cli(ell_args + ["--out", os.path.join(tmp, stem)], tmp)
        assert r.returncode == 0, r.stderr
    checks.append(("ellipse", open(f"{tmp}/e1_credible.csv", "rb").read()
                   == open(f"{tmp}/e2_credible.csv", "rb").read()))

    ok = all(flag for _, flag in checks)
    assert report("11 (byte-identical reruns)", ok,
                  ", ".join(f"{name}: {flag}" for name, flag in checks))
