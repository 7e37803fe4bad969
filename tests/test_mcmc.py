import math
import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from grid_posterior import grid_mismatches, grid_posterior
from scipy import stats
from scipy.stats import multivariate_t

from ltll import mcmc
from ltll.datasets import apply_truncation, load_bladder_cancer
from ltll.distribution import LTLLParams, Sample, _log_xl, draw_ltll, log_likelihood
from ltll.mcmc import (
    McmcConfig,
    PriorSpec,
    credible_ellipse,
    credible_intervals,
    log_posterior,
    log_prior,
    marginal_beta_log_kernel,
    posterior_density_grid,
    run_chain,
    summarize_draws,
)
from ltll.mle import fit_mle
from ltll.numerics import RngStream, chi2_quantile_2dof

FAST_CFG = McmcConfig(iterations=6000, burn_in=1500, thin=3, seed=77)


@pytest.fixture(scope="module")
def sample_n1000():
    return draw_ltll(1000, LTLLParams(2.0, 3.0, 1.0), RngStream(9, 0))


@pytest.fixture(scope="module")
def posterior_n1000(sample_n1000):
    return run_chain(sample_n1000, cfg=FAST_CFG)


class TestPriors:
    def test_exponential_prior_logpdf(self):
        # Gamma(1,1) is Exp(1): log density at x is -x, so the pair gives -5.
        assert log_prior(2.0, 3.0, PriorSpec(1, 1, 1, 1)) == pytest.approx(-5.0, abs=1e-12)

    def test_gamma21_logpdf(self):
        # Gamma(2,1) has density x e^-x, so its log-density at 1 is -1.
        p = PriorSpec(2, 1, 1, 1)
        alpha_term = log_prior(1.0, 1.0, p) + 1.0  # strip the Exp(1) beta factor at 1
        assert alpha_term == pytest.approx(-1.0, abs=1e-12)

    def test_support(self):
        assert log_prior(0.0, 1.0, PriorSpec(1, 1, 1, 1)) == -np.inf
        assert log_prior(1.0, -2.0, PriorSpec(1, 1, 1, 1)) == -np.inf

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            PriorSpec(0.0, 1, 1, 1)

    def test_gamma_logpdf_exact_anchors(self):
        # Shapes whose ln Gamma has a closed form: Gamma(1/2) = sqrt(pi),
        # Gamma(3) = 2 and Gamma(10) = 9!.  Each pair is checked through the
        # alpha factor, with an Exp(1) beta factor of -1 at beta = 1.
        for a, lgamma_a in [(0.5, 0.5 * math.log(math.pi)), (3.0, math.log(2.0)),
                              (10.0, math.log(362880.0))]:
            for b, x in [(1.0, 1.0), (0.4, 2.5), (3.0, 0.2)]:
                want = a * math.log(b) + (a - 1.0) * math.log(x) - b * x - lgamma_a - 1.0
                got = log_prior(x, 1.0, PriorSpec(a, b, 1, 1))
                assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_gamma_logpdf_non_integer_shapes(self):
        # Non-integer shapes keep ln Gamma(a) away from 0, so the normalizing
        # constant is visible (at a in {1, 2} it vanishes).
        from scipy.stats import gamma as gamma_dist
        for a1, b1, a2, b2 in [(0.5, 2.0, 2.5, 0.3), (7.3, 1.7, 0.5, 4.0), (2.5, 0.01, 7.3, 9.0)]:
            for alpha, beta in [(0.2, 3.0), (1.0, 1.0), (4.5, 0.7)]:
                want = (gamma_dist.logpdf(alpha, a1, scale=1.0 / b1)
                        + gamma_dist.logpdf(beta, a2, scale=1.0 / b2))
                got = log_prior(alpha, beta, PriorSpec(a1, b1, a2, b2))
                assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


class TestLogPosterior:
    def test_additive_in_prior(self, sample_n1000):
        p1 = PriorSpec(1, 1, 1, 1)
        p2 = PriorSpec(1, 1, 2, 1)
        delta_post = (log_posterior(sample_n1000, 2.0, 3.0, p2)
                      - log_posterior(sample_n1000, 2.0, 3.0, p1))
        delta_prior = log_prior(2.0, 3.0, p2) - log_prior(2.0, 3.0, p1)
        assert delta_post == pytest.approx(delta_prior, abs=1e-10)

    def test_near_flat_prior_shifts_by_constant(self, sample_n1000):
        prior = PriorSpec(1.0, 1e-6, 1.0, 1e-6)
        base = None
        for a, b in [(1.5, 2.5), (2.0, 3.0), (2.5, 3.5)]:
            diff = log_posterior(sample_n1000, a, b, prior) - log_likelihood(sample_n1000, a, b)
            diff += 1e-6 * (a + b)  # strip the exponential tilt
            base = diff if base is None else base
            assert diff == pytest.approx(base, abs=1e-9)

    def test_off_support(self, sample_n1000):
        assert log_posterior(sample_n1000, -1.0, 2.0, PriorSpec(1, 1, 1, 1)) == -np.inf

    def test_grid_argmax_near_mle(self, sample_n1000):
        fit = fit_mle(sample_n1000)
        prior = PriorSpec(1.0, 1e-8, 1.0, 1e-8)
        alphas = np.linspace(fit.alpha - 0.15, fit.alpha + 0.15, 31)
        betas = np.linspace(fit.beta - 0.3, fit.beta + 0.3, 31)
        grid = np.array([[log_posterior(sample_n1000, a, b, prior) for b in betas]
                         for a in alphas])
        ia, ib = np.unravel_index(np.argmax(grid), grid.shape)
        assert abs(alphas[ia] - fit.alpha) <= alphas[1] - alphas[0]
        assert abs(betas[ib] - fit.beta) <= betas[1] - betas[0]


def _box_muller(u):
    """Two standard normals from the uniforms u[0] (radius) and u[1] (angle)."""
    angle = 2.0 * np.pi * u[1]
    return np.sqrt(-2.0 * np.log(u[0])) * np.array([np.cos(angle), np.sin(angle)])


# One Metropolis-Hastings transition: a single iteration, retained (with no
# burn-in, the steps never adapt).  The chain draws from stream (seed, 1).
ONE_STEP = McmcConfig(iterations=1, burn_in=0, thin=1)


def _one_step(state, s, prior, seed):
    res = run_chain(s, prior, replace(ONE_STEP, seed=seed), init=state)
    return tuple(res.draws[0]), res.acceptance_rate == 1.0


# The covariance summary of a single retained draw is undefined (nan, with
# numpy's RuntimeWarnings); these tests read only the draw and the acceptance.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestMhStep:
    def test_deterministic(self, sample_n1000):
        p = PriorSpec.diffuse()
        a = _one_step((2.0, 3.0), sample_n1000, p, 5)
        b = _one_step((2.0, 3.0), sample_n1000, p, 5)
        assert a == b

    def test_uphill_proposals_always_accepted(self, sample_n1000):
        # Whenever the proposal's target density (including the Jacobian)
        # exceeds the current one, the ratio is >= 1 and the move must happen.
        # A step consumes three uniforms: two proposal normals, then the accept draw.
        prior = PriorSpec.diffuse()

        def target(a, b):
            return log_posterior(sample_n1000, a, b, prior) + math.log(a) + math.log(b)

        start = (1.9, 2.7)  # off the mode so uphill proposals are frequent
        checked = 0
        for seed in range(40):
            z = _box_muller(RngStream(seed, 1).uniforms(2))
            prop = (start[0] * math.exp(0.1 * z[0]), start[1] * math.exp(0.1 * z[1]))
            if target(*prop) >= target(*start):
                state, accepted = _one_step(start, sample_n1000, prior, seed)
                assert accepted and state == pytest.approx(prop)
                checked += 1
        assert checked >= 5

    def test_two_state_detailed_balance(self, sample_n1000):
        # Collapse the sampler to two states with a flip proposal; the exact
        # chain has known transition matrix and stationary law.
        prior = PriorSpec.diffuse()
        states = [(2.0, 3.0), (2.05, 2.9)]
        lp = [log_posterior(sample_n1000, a, b, prior) for a, b in states]
        a01 = min(1.0, math.exp(lp[1] - lp[0]))
        a10 = min(1.0, math.exp(lp[0] - lp[1]))
        pi0 = a10 / (a01 + a10)  # stationary weight of state 0

        steps = 200_000
        u = RngStream(123, 0).uniforms(steps)
        cur = 0
        counts = np.zeros(2)
        trans = np.zeros((2, 2))
        for t in range(steps):
            acc = a01 if cur == 0 else a10
            nxt = 1 - cur if u[t] < acc else cur
            trans[cur, nxt] += 1
            cur = nxt
            counts[cur] += 1
        freq = counts / steps
        assert abs(freq[0] - pi0) < 0.01
        p01 = trans[0, 1] / trans[0].sum()
        p10 = trans[1, 0] / trans[1].sum()
        assert abs(p01 - a01) < 0.01
        assert abs(p10 - a10) < 0.01


class TestRunChain:
    def test_deterministic(self, sample_n1000, posterior_n1000):
        again = run_chain(sample_n1000, cfg=FAST_CFG)
        assert np.array_equal(again.draws, posterior_n1000.draws)
        assert again.mean == posterior_n1000.mean

    def test_retained_count(self, posterior_n1000):
        assert posterior_n1000.draws.shape == (FAST_CFG.retained, 2)

    def test_acceptance_rate_interior(self, posterior_n1000):
        assert 0.0 < posterior_n1000.acceptance_rate < 1.0
        assert 0.1 < posterior_n1000.acceptance_rate < 0.7

    def test_mean_near_truth(self, posterior_n1000):
        sd_a = math.sqrt(posterior_n1000.cov.a11)
        sd_b = math.sqrt(posterior_n1000.cov.a22)
        assert abs(posterior_n1000.mean[0] - 2.0) < 3 * sd_a
        assert abs(posterior_n1000.mean[1] - 3.0) < 3 * sd_b

    def test_mean_inside_hull(self, posterior_n1000):
        d = posterior_n1000.draws
        assert d[:, 0].min() < posterior_n1000.mean[0] < d[:, 0].max()
        assert d[:, 1].min() < posterior_n1000.mean[1] < d[:, 1].max()

    def test_multichain_merge_deterministic(self, sample_n1000):
        cfg = McmcConfig(iterations=3000, burn_in=1000, thin=4, seed=5, chains=2)
        r1 = run_chain(sample_n1000, cfg=cfg)
        r2 = run_chain(sample_n1000, cfg=cfg)
        assert np.array_equal(r1.draws, r2.draws)
        assert r1.draws.shape[0] == 2 * cfg.retained

    def test_different_streams_compatible(self, sample_n1000):
        cfg1 = McmcConfig(iterations=6000, burn_in=1500, thin=3, seed=101)
        cfg2 = McmcConfig(iterations=6000, burn_in=1500, thin=3, seed=202)
        r1 = run_chain(sample_n1000, cfg=cfg1)
        r2 = run_chain(sample_n1000, cfg=cfg2)
        for i in (0, 1):
            se = math.sqrt([r1.cov.a11, r1.cov.a22][i] / min(r1.ess_alpha, r1.ess_beta)
                           + [r2.cov.a11, r2.cov.a22][i] / min(r2.ess_alpha, r2.ess_beta))
            assert abs(r1.mean[i] - r2.mean[i]) < 4 * se

    def test_prior_dominance(self):
        s = Sample(np.array([1.5, 2.0, 3.0, 4.0, 6.0]), 1.0)
        prior = PriorSpec(20000.0, 1e4, 30000.0, 1e4)  # means 2 and 3, tiny variance
        res = run_chain(s, prior=prior, cfg=McmcConfig(iterations=6000, burn_in=1500,
                                                       thin=3, seed=3))
        assert abs(res.mean[0] - 2.0) / 2.0 < 0.10
        assert abs(res.mean[1] - 3.0) / 3.0 < 0.10

    @pytest.mark.parametrize("start", [(-1.0, 2.0), (0.0, 2.0), (np.inf, 2.0), (2.0, np.nan)])
    def test_rejects_start_off_support(self, start):
        # Such a start would leave the chain stuck at a NaN or infinite target.
        s = draw_ltll(200, LTLLParams(2.0, 3.0, 1.0), RngStream(21, 0))
        with pytest.raises(ValueError, match="init"):
            run_chain(s, cfg=FAST_CFG, init=start)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McmcConfig(iterations=100, burn_in=100)
        with pytest.raises(ValueError):
            McmcConfig(thin=0)
        with pytest.raises(ValueError):
            McmcConfig(chains=0)
        # Walk scales start at module constants; the config holds no steps.
        with pytest.raises(TypeError):
            McmcConfig(step_alpha=0.1)

    def test_adapted_clips(self):
        # Window rates below 0.2, above 0.5 and in range: shrink, grow, keep,
        # each clipped to _STEP_BOUNDS; one chain's scale is a scalar.
        scales = mcmc._adapted(np.array([20.0, 1e-7, 0.1]), np.array([10, 60, 30]), 100)
        assert np.array_equal(scales, [10.0, 1e-6, 0.1])
        assert mcmc._adapted(20.0, 10, 100) == 10.0


def _plain_mh(s, prior, cfg, stream, start):
    """Reference random-walk MH on (ln alpha, ln beta), one step at a time.

    Each step takes three uniforms: two proposal normals, then the accept
    draw.  The one walk scale starts at ``mcmc._DIAGONAL_SCALE`` and adapts
    by x1.1 per 100 burn-in iterations outside [0.2, 0.5].
    Returns (retained draws, final scale).
    """
    def target(z):
        return log_posterior(s, np.exp(z[0]), np.exp(z[1]), prior) + z[0] + z[1]

    z = np.log(np.asarray(start, dtype=np.float64))
    cur = target(z)
    step = mcmc._DIAGONAL_SCALE
    kept, hits = [], 0
    for t in range(1, cfg.iterations + 1):
        u = stream.uniforms(3)
        prop = z + step * _box_muller(u)
        new = target(prop)
        accepted = np.log(u[2]) < new - cur
        if accepted:
            z, cur = prop, new
        if t <= cfg.burn_in:
            hits += accepted
            if t % 100 == 0:
                rate = hits / 100
                factor = 1.1 if rate > 0.5 else (1.0 / 1.1 if rate < 0.2 else 1.0)
                step = np.clip(step * factor, 1e-6, 10.0)
                hits = 0
        if t > cfg.burn_in and (t - cfg.burn_in) % cfg.thin == 0:
            kept.append(z)
    return np.exp(np.array(kept)), step


def _mixture_mh(s, prior, cfg, stream, start):
    """Reference walk/independence cycle on (ln alpha, ln beta), one step at
    a time, in the documented uniform layout.

    L is the Cholesky factor (numpy's) of (-H)^-1, for the Laplace centre c
    and Hessian H the sampler builds.  Odd steps take three uniforms, two
    normals eps and the accept draw, and walk to z + s L eps, with one scale
    s per chain started at ``mcmc._WALK_SCALE`` and adapted by x1.1 every
    100 burn-in steps on the walk acceptances alone, 50 per window; below
    ``mcmc._LAPLACE_WALK_MIN_N`` values they walk to z + s eps, with s
    started at ``mcmc._DIAGONAL_SCALE`` instead.  Even
    steps take four uniforms: two normals eps, W = -2 ln u, then the accept
    draw.  They propose y = c + L eps sqrt(2 / W) and accept when
    ln u < target(y) - target(z) + ln g(z) - ln g(y), with g the bivariate
    t density with 2 degrees of freedom from scipy.
    Returns (retained draws, final scale, independence acceptance).
    """
    def target(z):
        with np.errstate(over="ignore"):
            return log_posterior(s, np.exp(z[0]), np.exp(z[1]), prior) + z[0] + z[1]

    z = np.log(np.asarray(start, dtype=np.float64))
    cur = target(z)
    lx = s.log_values[None, :]
    ll = np.array([log_likelihood(s, *start)])
    centre, coef, _ = mcmc._laplace_quadratics(lx, np.array([_log_xl(s.x_l)]), prior,
                                               z[:1], z[1:], ll)
    (qaa,), (qab,), (qbb,) = coef
    cov = np.linalg.inv(-np.array([[2.0 * qaa, qab], [qab, 2.0 * qbb]]))
    chol = np.linalg.cholesky(cov)
    g = multivariate_t(loc=centre[:, 0], shape=cov, df=2)
    if s.n >= mcmc._LAPLACE_WALK_MIN_N:
        walk, step = chol, mcmc._WALK_SCALE
    else:
        walk, step = np.eye(2), mcmc._DIAGONAL_SCALE
    kept, hits, indep = [], 0, 0
    for t in range(1, cfg.iterations + 1):
        if t % 2:
            u = stream.uniforms(3)
            prop = z + step * (walk @ _box_muller(u))
            new = target(prop)
            accepted = np.log(u[2]) < new - cur
            hits += accepted and t <= cfg.burn_in
        else:
            u = stream.uniforms(4)
            w = _box_muller(u) * math.sqrt(2.0 / (-2.0 * math.log(u[2])))
            prop = centre[:, 0] + chol @ w
            new = target(prop)
            accepted = np.log(u[3]) < new - cur + g.logpdf(z) - g.logpdf(prop)
            indep += accepted
        if accepted:
            z, cur = prop, new
        if t <= cfg.burn_in and t % 100 == 0:
            rate = hits / 50
            factor = 1.1 if rate > 0.5 else (1.0 / 1.1 if rate < 0.2 else 1.0)
            step = np.clip(step * factor, 1e-6, 10.0)
            hits = 0
        if t > cfg.burn_in and (t - cfg.burn_in) % cfg.thin == 0:
            kept.append(z)
    return np.exp(np.array(kept)), step, indep / (cfg.iterations // 2)


def _screened_mh(s, prior, cfg, stream, start):
    """Reference delayed-acceptance walk on (ln alpha, ln beta), one step at
    a time.

    q is the Laplace quadratic (1/2) (z - c)^T H (z - c) with the centre c
    and Hessian H the sampler builds, and L the Cholesky factor (numpy's) of
    (-H)^-1.  Each step takes three uniforms: two normals eps, then u.  It
    proposes y = z + s L eps, with one scale s started at
    ``mcmc._WALK_SCALE`` and adapted by x1.1 every 100 burn-in steps outside
    [0.2, 0.5].  Stage 1 passes y when u < a1 = min(1, e^(q(y) - q(z))); a
    passed proposal then reuses u / a1, uniform on (0, 1) given the pass, and
    is accepted when that is below min(1, e^(dpi - dq)).
    Returns (retained draws, final scale s, share of steps passed).
    """
    def target(z):
        return log_posterior(s, np.exp(z[0]), np.exp(z[1]), prior) + z[0] + z[1]

    z = np.log(np.asarray(start, dtype=np.float64))
    cur = target(z)
    ll = np.array([log_likelihood(s, *start)])
    centre, coef, _ = mcmc._laplace_quadratics(s.log_values[None, :], np.array([_log_xl(s.x_l)]),
                                               prior, z[:1], z[1:], ll)
    (qaa,), (qab,), (qbb,) = coef
    hess = np.array([[2.0 * qaa, qab], [qab, 2.0 * qbb]])
    chol = np.linalg.cholesky(np.linalg.inv(-hess))

    def q(z):
        d = z - centre[:, 0]
        return 0.5 * d @ hess @ d

    step = mcmc._WALK_SCALE
    kept, hits, passed = [], 0, 0
    for t in range(1, cfg.iterations + 1):
        u = stream.uniforms(3)
        prop = z + step * (chol @ _box_muller(u))
        dq = q(prop) - q(z)
        a1 = min(1.0, math.exp(dq))
        accepted = False
        if u[2] < a1:
            passed += 1
            new = target(prop)
            accepted = u[2] / a1 < min(1.0, math.exp(min(0.0, new - cur - dq)))
            if accepted:
                z, cur = prop, new
        if t <= cfg.burn_in:
            hits += accepted
            if t % 100 == 0:
                rate = hits / 100
                factor = 1.1 if rate > 0.5 else (1.0 / 1.1 if rate < 0.2 else 1.0)
                step = np.clip(step * factor, 1e-6, 10.0)
                hits = 0
        if t > cfg.burn_in and (t - cfg.burn_in) % cfg.thin == 0:
            kept.append(z)
    return np.exp(np.array(kept)), step, passed / cfg.iterations


def _pareto_sample(n, seed):
    # Pareto(2.5) above x_L = 1, where the MLE often falls on the boundary.
    return Sample(RngStream(seed, 0).uniforms(n) ** (-1.0 / 2.5), 1.0)


def _near_boundary_sample():
    # n = 39 above x_L = 3 with beta0/beta_C = 1.0031: an interior MLE with
    # positive-definite information, just below the independence margin.
    s = draw_ltll(39, LTLLParams(2.0, 3.0, 3.0), RngStream(7, 27))
    fit = fit_mle(s)
    assert fit.info.is_positive_definite
    assert 1.0 < fit.stats.beta0 / fit.stats.beta_c < mcmc._MIX_MIN_RATIO
    return s, fit


class TestPlainPath:
    """Chains with neither a Laplace screen nor independence steps run plain
    MH, bit for bit; chains with a Laplace record replay their reference
    step by step."""

    CFG = McmcConfig(iterations=3000, burn_in=1000, thin=2)

    def _check(self, s, start, seed):
        prior = PriorSpec.diffuse()
        cfg = replace(self.CFG, seed=seed)
        res = run_chain(s, prior, cfg, init=start)
        want, steps = _plain_mh(s, prior, cfg, RngStream(seed, 1), start)
        assert np.array_equal(res.draws, want)
        assert np.array_equal(res.steps, [steps])
        assert np.array_equal(res.screen_pass, [1.0])
        assert np.isnan(res.independence_acceptance).all()

    def test_below_floor(self):
        # Below the screen floor an off-mode start stays outside the gate.
        s = apply_truncation(load_bladder_cancer(), 1.0)
        assert s.n < mcmc._SCREEN_MIN_N
        fit = fit_mle(s)
        self._check(s, (2.0 * fit.alpha, fit.beta), 11)

    def test_below_margin(self):
        s, fit = _near_boundary_sample()
        self._check(s, (fit.alpha, fit.beta), 15)

    def test_below_floor_gated(self):
        # The same sample from its MLE is gated: a walk/independence cycle.
        s = apply_truncation(load_bladder_cancer(), 1.0)
        fit = fit_mle(s)
        prior, cfg = PriorSpec.diffuse(), replace(self.CFG, seed=11)
        res = run_chain(s, prior, cfg, init=(fit.alpha, fit.beta))
        want, steps, indep = _mixture_mh(s, prior, cfg, RngStream(11, 1), (fit.alpha, fit.beta))
        assert np.allclose(res.draws, want, rtol=1e-9, atol=0.0)
        assert np.array_equal(res.steps, [steps])
        assert np.array_equal(res.independence_acceptance, [indep])
        assert 0.5 < indep < 0.9
        assert np.array_equal(res.screen_pass, [1.0])

    def test_tiny_gated_walks_diagonally(self, monkeypatch):
        # A gated sample below the walk floor keeps the cycle, walking
        # diagonally from _DIAGONAL_SCALE.
        s = draw_ltll(20, LTLLParams(2.0, 3.0, 1.0), RngStream(3, 0))
        fit = fit_mle(s)
        assert s.n < mcmc._LAPLACE_WALK_MIN_N and not fit.boundary
        monkeypatch.setattr(mcmc, "_DIAGONAL_SCALE", 0.2)
        prior, cfg = PriorSpec.diffuse(), replace(self.CFG, seed=17)
        res = run_chain(s, prior, cfg, init=(fit.alpha, fit.beta))
        want, steps, indep = _mixture_mh(s, prior, cfg, RngStream(17, 1), (fit.alpha, fit.beta))
        assert np.allclose(res.draws, want, rtol=1e-9, atol=0.0)
        assert np.array_equal(res.steps, [steps])
        assert steps != 0.2  # the diagonal scale, adapted
        assert np.array_equal(res.independence_acceptance, [indep])
        assert indep > 0.2

    def test_at_floor_screened(self):
        # From its MLE a sample at the screen floor runs delayed acceptance,
        # walking along its Laplace factor.
        s = draw_ltll(mcmc._SCREEN_MIN_N, LTLLParams(2.0, 3.0, 1.0), RngStream(31, 0))
        fit = fit_mle(s)
        prior, cfg = PriorSpec.diffuse(), replace(self.CFG, seed=16)
        res = run_chain(s, prior, cfg, init=(fit.alpha, fit.beta))
        want, steps, passed = _screened_mh(s, prior, cfg, RngStream(16, 1), (fit.alpha, fit.beta))
        assert np.allclose(res.draws, want, rtol=1e-9, atol=0.0)
        assert np.array_equal(res.steps, [steps])
        assert steps != mcmc._WALK_SCALE  # the scale adapted
        assert np.array_equal(res.screen_pass, [passed])
        assert 0.2 < passed < 0.6
        assert np.isnan(res.independence_acceptance).all()

    def test_off_mode_start(self, sample_n1000):
        assert sample_n1000.n >= mcmc._SCREEN_MIN_N
        self._check(sample_n1000, (1.9, 2.7), 12)

    def test_boundary_start(self):
        s = _pareto_sample(1000, 1)
        fit = fit_mle(s)
        assert fit.boundary
        self._check(s, mcmc._chain_start(s, fit), 13)

    def test_mixed_bank(self, sample_n1000):
        # One bank, two chains on the same sample: row 0 starts at the MLE
        # and is screened, row 1 starts off the mode and runs plain MH.
        s, prior = sample_n1000, PriorSpec.diffuse()
        fit = fit_mle(s)
        init = np.array([[fit.alpha, fit.beta], [1.9, 2.7]])
        lx = np.repeat(s.log_values[None, :], 2, axis=0)
        ln_xl = np.full(2, math.log(s.x_l))
        draws, _, steps, shares = mcmc._mh_chains(
            lx, ln_xl, prior, self.CFG, [RngStream(14, 1), RngStream(14, 2)], init)

        want, want_steps = _plain_mh(s, prior, self.CFG, RngStream(14, 2), (1.9, 2.7))
        assert np.array_equal(draws[1], want)
        assert np.array_equal(steps[1], want_steps)
        assert shares[1, 0] == 1.0

        assert shares[0, 0] < 0.6
        assert np.isnan(shares[:, 1]).all()  # no independence steps at this n
        alone = mcmc._mh_chains(lx[:1], ln_xl[:1], prior, self.CFG, [RngStream(14, 1)],
                                init[:1])
        assert np.array_equal(draws[0], alone[0][0])
        assert np.array_equal(steps[0], alone[2][0])
        assert np.array_equal(shares[0], alone[3][0], equal_nan=True)


class TestLoopIdentity:
    """Chain k of a bank (vectorized loop) equals that chain run alone (one-chain loop).

    Bank rows share n, so the chains below the screen floor form banks of
    their own: one where every chain is gated (walk/independence cycle) and
    one that mixes gated chains with an off-mode and a boundary start.  Each
    bank also holds an untruncated sample at its MLE (ln x_L = -inf beside
    finite ones).  4501 iterations are odd and no multiple of the uniform
    block, and diagonal scales of 20 and 1e-7 land a chain without a Laplace
    factor on a clip bound at the first adaptation; a chain with one starts
    its one walk scale at ``_WALK_SCALE`` whatever ``_DIAGONAL_SCALE`` is.
    """

    CFG = McmcConfig(iterations=4501, burn_in=1150, thin=3, seed=6)
    BANKS = ["screened, off-mode, boundary", "below the floor", "gated"]

    @pytest.fixture(scope="class")
    def banks(self, sample_n1000):
        fit = fit_mle(sample_n1000)
        pareto = _pareto_sample(1000, 1)
        pfit = fit_mle(pareto)
        untruncated = draw_ltll(1000, LTLLParams(2.0, 3.0, 0.0), RngStream(9, 1))
        ufit = fit_mle(untruncated)
        bladder = apply_truncation(load_bladder_cancer(), 1.0)
        bfit = fit_mle(bladder)
        n = bladder.n
        assert not fit.boundary and pfit.boundary and n < mcmc._SCREEN_MIN_N
        small = draw_ltll(n, LTLLParams(2.0, 3.0, 1.0), RngStream(9, 2))
        sfit = fit_mle(small)
        small_pareto = _pareto_sample(n, 1)
        spfit = fit_mle(small_pareto)
        small_untruncated = draw_ltll(n, LTLLParams(2.0, 3.0, 0.0), RngStream(9, 3))
        sufit = fit_mle(small_untruncated)
        assert spfit.boundary
        return {
            "screened, off-mode, boundary": [
                (sample_n1000, (fit.alpha, fit.beta)), (sample_n1000, (1.9, 2.7)),
                (pareto, mcmc._chain_start(pareto, pfit)),
                (untruncated, (ufit.alpha, ufit.beta))],
            "below the floor": [
                (bladder, (bfit.alpha, bfit.beta)), (bladder, (2.0 * bfit.alpha, bfit.beta)),
                (small_pareto, mcmc._chain_start(small_pareto, spfit)),
                (small_untruncated, (sufit.alpha, sufit.beta))],
            "gated": [
                (bladder, (bfit.alpha, bfit.beta)), (small, (sfit.alpha, sfit.beta)),
                (small_untruncated, (sufit.alpha, sufit.beta)), (bladder, (bfit.alpha, bfit.beta))],
        }

    @staticmethod
    def _run(chains, cfg, rows=None):
        """_mh_chains on the given rows of a bank; row k draws from stream
        (seed, 1 + k) wherever it runs."""
        rows = range(len(chains)) if rows is None else rows
        lx = np.stack([chains[k][0].log_values for k in rows])
        ln_xl = np.array([_log_xl(chains[k][0].x_l) for k in rows])
        init = np.array([chains[k][1] for k in rows])
        return mcmc._mh_chains(lx, ln_xl, PriorSpec.diffuse(), cfg,
                               [RngStream(cfg.seed, 1 + k) for k in rows], init)

    @pytest.mark.parametrize("bank", BANKS)
    @pytest.mark.parametrize("steps", [0.1, 20.0, 1e-7], ids=["steps0", "steps1", "steps2"])
    def test_bank_rows_equal_lone_chains(self, banks, bank, steps, monkeypatch):
        chains = banks[bank]
        monkeypatch.setattr(mcmc, "_DIAGONAL_SCALE", steps)
        together = self._run(chains, self.CFG)
        shares = together[3]
        assert any(_log_xl(s.x_l) == -np.inf for s, _ in chains)
        laplace = [0, 1, 2, 3] if bank == "gated" else [0, 3]  # rows walking along L
        if bank == "screened, off-mode, boundary":
            assert np.all(shares[[0, 3], 0] < 1.0) and np.all(shares[1:3, 0] == 1.0)
            assert np.isnan(shares[:, 1]).all()
        else:
            gated = [0, 3] if bank == "below the floor" else [0, 1, 2, 3]
            assert np.all(shares[:, 0] == 1.0)
            assert np.array_equal(np.isfinite(shares[:, 1]), np.isin(np.arange(4), gated))
            assert np.all(shares[gated, 1] > 0.0)
        final = together[2]
        plain = np.setdiff1d(np.arange(4), laplace)
        lo, hi = mcmc._STEP_BOUNDS
        assert np.all((lo <= final) & (final <= hi))
        if plain.size and not lo <= steps <= hi:
            # Clipped at the first of 11 adaptations, then moved x1.1 by each other one.
            moves = 10 if steps < lo else -10
            assert final[plain] == pytest.approx(np.clip(steps, lo, hi) * 1.1 ** moves, rel=1e-12)
        for k in range(len(chains)):
            alone = self._run(chains, self.CFG, [k])
            # A diagonal walk of scale near 1e-6 accepts (nearly) every move.
            assert 0.0 < alone[1][0] < 1.0 or (steps < lo and k in plain)
            for got, want in zip(together, alone):
                assert np.array_equal(got[k], want[0], equal_nan=True)

    @pytest.mark.parametrize("block", [2048, 512, 37])
    def test_uniform_block_size_changes_no_draw(self, banks, block, monkeypatch):
        # Streams are counter-based, so however the uniforms are cut into
        # blocks every step gets the same ones, for a bank and a lone chain,
        # walking, screened or gated.  However a block's independence
        # proposals are cut into kernel calls, from one element a call to the
        # whole block in one, every row gets the bits of its own evaluation.
        for bank in self.BANKS:
            chains = banks[bank]
            monkeypatch.setattr(mcmc, "_RNG_BLOCK", 512)
            monkeypatch.setattr(mcmc, "_PRICE_ELEMENTS", 1 << 15)
            want = self._run(chains, self.CFG), self._run(chains, self.CFG, [0])
            monkeypatch.setattr(mcmc, "_RNG_BLOCK", block)
            for price in (1, 1 << 22):
                monkeypatch.setattr(mcmc, "_PRICE_ELEMENTS", price)
                got = self._run(chains, self.CFG), self._run(chains, self.CFG, [0])
                for run, ref in zip(got, want):
                    for g, w in zip(run, ref):
                        assert np.array_equal(g, w, equal_nan=True)


class TestWalkNormals:
    """The variates ``_uniform_block`` hands the loops: 10^5 steps of one
    chain that only walks, and of one gated chain."""

    STEPS = 100_000

    def test_walk_normals_are_standard_normal(self):
        stream = RngStream(2024, 1)
        z, ln_u = mcmc._uniform_block([stream], self.STEPS, np.array([False]))
        assert stream.counter == 3 * self.STEPS  # three uniforms a walk step
        z = z[:, :, 0]
        for k in (0, 1):
            assert stats.kstest(z[:, k], stats.norm.cdf).pvalue > 1e-3
        assert abs(np.corrcoef(z.T)[0, 1]) < 4.0 / math.sqrt(self.STEPS)
        assert stats.kstest(np.exp(ln_u[:, 0]), "uniform").pvalue > 1e-3

    def test_independence_variates_have_t2_marginals(self):
        stream = RngStream(2024, 2)
        z, _ = mcmc._uniform_block([stream], self.STEPS, np.array([True]))
        assert stream.counter == 7 * self.STEPS // 2  # 3 + 4 uniforms a pair of steps
        walk, indep = z[0::2, :, 0], z[1::2, :, 0]
        for k in (0, 1):
            assert stats.kstest(walk[:, k], stats.norm.cdf).pvalue > 1e-3
            assert stats.kstest(indep[:, k], stats.t(2).cdf).pvalue > 1e-3


class TestChainFanOut:
    """run_chain runs each chain alone, over as many worker processes as it
    has chains and usable CPUs; every chain equals that chain run alone, and
    the bank of all of them, however many CPUs there are.  ``_usable_cpus``
    is patched so that both the pool (4 CPUs) and the in-process path (1 CPU)
    run on any host."""

    CFG = McmcConfig(iterations=1501, burn_in=500, thin=2, seed=11)

    @pytest.fixture(scope="class")
    def cases(self, sample_n1000):
        bladder = apply_truncation(load_bladder_cancer(), 1.0)
        return {"gated": (bladder, fit_mle(bladder)),
                "screened": (sample_n1000, fit_mle(sample_n1000))}

    @staticmethod
    def _counting_pools(monkeypatch, cpus):
        pools = []

        class Counted(ProcessPoolExecutor):
            def __init__(self, workers, **kwargs):
                pools.append(workers)
                super().__init__(workers, **kwargs)

        monkeypatch.setattr(mcmc, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(mcmc, "ProcessPoolExecutor", Counted)
        return pools

    @pytest.mark.parametrize("case", ["gated", "screened"])
    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("chains", [2, 3, 4, 5])
    def test_chains_equal_lone_chains(self, cases, case, cpus, chains, monkeypatch):
        s, fit = cases[case]
        cfg = replace(self.CFG, chains=chains)
        pools = self._counting_pools(monkeypatch, cpus)
        res = run_chain(s, cfg=cfg, init=(fit.alpha, fit.beta))
        assert pools == ([min(chains, cpus)] if cpus > 1 else [])
        assert multiprocessing.active_children() == []

        def chains_of(rows):
            return mcmc._mh_chains(np.repeat(s.log_values[None], len(rows), axis=0),
                                   np.full(len(rows), _log_xl(s.x_l)), PriorSpec.diffuse(),
                                   cfg, [RngStream(cfg.seed, 1 + k) for k in rows],
                                   np.tile([fit.alpha, fit.beta], (len(rows), 1)))

        alone = [np.concatenate(parts) for parts in zip(*(chains_of([k]) for k in range(chains)))]
        bank = chains_of(range(chains))
        for want in (alone, bank):
            draws, acc, steps, shares = want
            assert np.array_equal(res.draws, draws.reshape(-1, 2))
            assert res.acceptance_rate == float(np.mean(acc))
            assert np.array_equal(res.steps, steps)
            assert np.array_equal(res.screen_pass, shares[:, 0])
            assert np.array_equal(res.independence_acceptance, shares[:, 1], equal_nan=True)
        if case == "gated":
            assert np.all(res.independence_acceptance > 0.0)
        else:
            assert np.all(res.screen_pass < 1.0)

    def test_other_threads_keep_chains_in_process(self, cases, monkeypatch):
        # fork copies no thread, so a lock another thread holds would stay
        # held in a worker: with a second thread alive no pool opens.
        s, fit = cases["gated"]
        cfg = replace(self.CFG, chains=3)
        pools = self._counting_pools(monkeypatch, 4)
        want = run_chain(s, cfg=cfg, init=(fit.alpha, fit.beta))
        assert pools == [3]
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60.0,))
        waiter.start()
        try:
            got = run_chain(s, cfg=cfg, init=(fit.alpha, fit.beta))
        finally:
            release.set()
            waiter.join(60.0)
        assert not waiter.is_alive()
        assert pools == [3]
        assert np.array_equal(got.draws, want.draws)


class TestDelayedAcceptanceExactness:
    """A screened chain samples the exact posterior: compare with a dense grid.

    The sample sits at x_L = 1 and n at the screen floor, where the Laplace
    quadratic is least accurate.  The oracle is ``grid_posterior``.
    """

    CFG = McmcConfig(iterations=42000, burn_in=2000, thin=1, seed=8, chains=4)

    @pytest.fixture(scope="class")
    def case(self):
        s = draw_ltll(mcmc._SCREEN_MIN_N, LTLLParams(2.0, 3.0, 1.0), RngStream(31, 0))
        prior = PriorSpec.diffuse()
        exact, zsd = grid_posterior(s, prior, fit_mle(s))
        return s, prior, exact, zsd

    def test_matches_grid_posterior(self, case):
        s, prior, exact, _ = case
        res = run_chain(s, prior, self.CFG)
        assert np.all(res.screen_pass < 0.6)  # the screen is engaged
        assert grid_mismatches(res.draws, self.CFG.chains, exact) == []

    def test_shifted_quadratic_still_exact(self, case, monkeypatch):
        # Any fixed screen keeps the chain exact; a poor one only costs mixing.
        s, prior, exact, zsd = case
        good = run_chain(s, prior, self.CFG)
        laplace = mcmc._laplace_quadratics

        def shifted(*args):
            centre, coef, chol = laplace(*args)
            return centre + 2.0 * zsd[:, None], coef, chol

        monkeypatch.setattr(mcmc, "_laplace_quadratics", shifted)
        res = run_chain(s, prior, self.CFG)
        assert grid_mismatches(res.draws, self.CFG.chains, exact) == []
        assert min(res.ess_alpha, res.ess_beta) < min(good.ess_alpha, good.ess_beta)


class TestMixtureExactness:
    """A gated chain (walk/independence cycle) samples the exact posterior,
    as one long chain and as 4 chains merged by ``run_chain`` (each runs
    alone; that a bank's rows equal lone chains is ``TestLoopIdentity``'s):
    bladder at x_L = 1 (n = 121), an n = 100 sample, and an n = 60 sample
    just above the beta0/beta_C margin, whose posterior reaches far toward
    alpha -> 0."""

    LONE = McmcConfig(iterations=82000, burn_in=2000, thin=1, seed=8)
    BANK = McmcConfig(iterations=42000, burn_in=2000, thin=1, seed=8, chains=4)

    @pytest.fixture(scope="class", params=["bladder x_L=1", "n=100", "above the margin"])
    def case(self, request):
        if request.param == "bladder x_L=1":
            s = apply_truncation(load_bladder_cancer(), 1.0)
        elif request.param == "n=100":
            s = draw_ltll(100, LTLLParams(2.0, 3.0, 1.0), RngStream(0, 0))
        else:
            s = draw_ltll(60, LTLLParams(2.0, 3.0, 3.0), RngStream(41, 23))
        fit = fit_mle(s)
        ratio = fit.stats.beta0 / fit.stats.beta_c
        assert ratio >= mcmc._MIX_MIN_RATIO
        if request.param == "above the margin":
            assert ratio < mcmc._MIX_MIN_RATIO + 0.005
        prior = PriorSpec.diffuse()
        return s, prior, grid_posterior(s, prior, fit)[0]

    @pytest.mark.parametrize("cfg", [LONE, BANK], ids=["lone", "bank"])
    def test_matches_grid_posterior(self, case, cfg):
        s, prior, exact = case
        res = run_chain(s, prior, cfg)
        assert np.all(res.independence_acceptance > 0.0)  # the cycle is engaged
        assert grid_mismatches(res.draws, cfg.chains, exact) == []


class TestPlainWalkExactness:
    """A chain that only walks, diagonally and without a screen, samples the
    exact posterior: bladder at x_L = 1 from an off-mode start, and an n = 39
    sample below the beta0/beta_C margin from its MLE.  The chain is
    ``TestMixtureExactness``'s lone one.  The n = 39 oracle's box spans
    ln alpha from -21.8 to 2.0, so it takes 901 points a side: alpha's 97.5%
    quantile reads 3.517 at 301 points, 3.494 at 601, 3.489 at 901 and 3.487
    at 1201, and 20 chains of seeds 1-20 pooled read the CDF at 0.97722
    (+5.4 standard errors) at the first and 0.97478 (-0.5) at the last."""

    @pytest.fixture(scope="class", params=["bladder x_L=1 off-mode", "below the margin"])
    def case(self, request):
        prior = PriorSpec.diffuse()
        if request.param == "below the margin":
            s, fit = _near_boundary_sample()
            return s, prior, (fit.alpha, fit.beta), grid_posterior(s, prior, fit, points=901)[0]
        s = apply_truncation(load_bladder_cancer(), 1.0)
        fit = fit_mle(s)
        return s, prior, (2.0 * fit.alpha, fit.beta), grid_posterior(s, prior, fit)[0]

    def test_matches_grid_posterior(self, case):
        s, prior, start, exact = case
        cfg = TestMixtureExactness.LONE
        res = run_chain(s, prior, cfg, init=start)
        # The plain walk: no screen and no independence steps.
        assert np.array_equal(res.screen_pass, [1.0])
        assert np.isnan(res.independence_acceptance).all()
        assert grid_mismatches(res.draws, cfg.chains, exact) == []


class TestEss:
    """Oracle: an AR(1) chain with coefficient rho has integrated
    autocorrelation time tau = (1 + rho) / (1 - rho), so ESS is m / tau."""

    M = 40_000

    def test_ar1_half(self):
        from scipy.signal import lfilter
        e = np.random.default_rng(5).standard_normal(self.M)
        x = lfilter([1.0], [1.0, -0.5], e)
        assert mcmc._ess(x) == pytest.approx(self.M / 3.0, rel=0.1)

    def test_independent_draws(self):
        x = np.random.default_rng(6).standard_normal(self.M)
        assert 0.9 * self.M <= mcmc._ess(x) <= self.M

    def test_constant_chain_holds_one_draw(self):
        assert mcmc._ess(np.full(1000, 2.0)) == 1.0


class TestCredibleIntervals:
    def test_hazen_example(self):
        draws = np.column_stack([np.arange(1.0, 101.0), np.arange(1.0, 101.0)])
        res = summarize_draws(draws, 0.4, 100.0, 100.0)
        assert res.ci_alpha == pytest.approx((3.0, 98.0))
        assert credible_intervals(res, 0.05)[0] == pytest.approx((3.0, 98.0))

    def test_requires_draws(self):
        draws = np.ones((50, 2)) + np.random.default_rng(0).normal(size=(50, 2)) * 0.1
        res = summarize_draws(draws, 0.4, 50.0, 50.0)
        with pytest.raises(ValueError):
            credible_intervals(res, 0.05)

    def test_covers_mean(self, posterior_n1000):
        ci_a, ci_b = credible_intervals(posterior_n1000, 0.05)
        assert ci_a[0] < posterior_n1000.mean[0] < ci_a[1]
        assert ci_b[0] < posterior_n1000.mean[1] < ci_b[1]


class TestCredibleEllipse:
    def _gaussian_result(self, cov, n=4000):
        g = np.random.default_rng(1).multivariate_normal([2.0, 3.0], cov, size=n)
        return summarize_draws(g, 0.3, float(n), float(n))

    def test_isotropic_radius(self):
        res = self._gaussian_result(np.eye(2), n=60_000)
        ell = credible_ellipse(res, 0.05, 128)
        r = np.hypot(ell.points[:, 0] - res.mean[0], ell.points[:, 1] - res.mean[1])
        # sample covariance is within ~1% of the identity at this n
        assert np.all(np.abs(r - math.sqrt(chi2_quantile_2dof(0.95))) < 0.05)
        inv = res.cov.inverse()
        q = [inv.quad_form(p[0] - res.mean[0], p[1] - res.mean[1]) for p in ell.points]
        assert np.allclose(q, ell.threshold, rtol=1e-10)

    def test_coverage_on_gaussian_draws(self):
        res = self._gaussian_result([[0.01, 0.004], [0.004, 0.02]])
        ell = credible_ellipse(res, 0.05)
        inv = res.cov.inverse()
        inside = np.mean([inv.quad_form(p[0] - res.mean[0], p[1] - res.mean[1]) <= ell.threshold
                          for p in res.draws])
        assert 0.91 <= inside <= 0.99

    def test_singular_covariance_rejected(self):
        draws = np.tile([2.0, 3.0], (200, 1))
        res = summarize_draws(draws, 0.4, 200.0, 200.0)
        with pytest.raises(ValueError):
            credible_ellipse(res)


class TestMarginalBetaKernel:
    def test_prior_recovery_with_no_data(self):
        prior = PriorSpec(1.0, 1.0, 2.5, 1.5)
        for b in (0.3, 1.0, 4.0):
            want = (prior.a2 - 1.0) * math.log(b) - prior.b2 * b
            assert marginal_beta_log_kernel([], b, prior) == pytest.approx(want, abs=1e-12)

    def test_off_support(self):
        assert marginal_beta_log_kernel([2.0], -1.0, PriorSpec.diffuse()) == -np.inf

    def test_requires_normalized_data(self):
        with pytest.raises(ValueError):
            marginal_beta_log_kernel([0.5, 2.0], 1.0, PriorSpec.diffuse())

    def test_unimodal_on_random_samples(self):
        prior = PriorSpec.diffuse()
        grid = np.linspace(0.05, 25.0, 400)
        for seed in range(10):
            w = draw_ltll(80, LTLLParams(2.0, 3.0, 1.0), RngStream(300 + seed, 0)).normalized()
            vals = np.array([marginal_beta_log_kernel(w.values, b, prior) for b in grid])
            signs = np.sign(np.diff(vals))
            changes = np.sum(np.abs(np.diff(signs[signs != 0])) > 0)
            assert changes <= 1  # rises then falls

    def test_gamma_approximation_at_large_n(self):
        # Normalize the kernel by quadrature and compare with a
        # moment-matched gamma density in sup norm.
        prior = PriorSpec.diffuse()
        w = draw_ltll(500, LTLLParams(2.0, 3.0, 1.0), RngStream(42, 7)).normalized()
        grid = np.linspace(1e-3, 12.0, 4000)
        logk = np.array([marginal_beta_log_kernel(w.values, b, prior) for b in grid])
        dens = np.exp(logk - logk.max())
        dens /= np.trapezoid(dens, grid)
        mean = np.trapezoid(grid * dens, grid)
        var = np.trapezoid((grid - mean) ** 2 * dens, grid)
        k, theta = mean ** 2 / var, var / mean
        from scipy.stats import gamma as gamma_dist
        approx = gamma_dist.pdf(grid, k, scale=theta)
        assert np.max(np.abs(dens - approx)) < 0.05

    def test_hyperparameters_feed_kernel(self):
        w = np.array([2.0, 3.0])
        k1 = marginal_beta_log_kernel(w, 2.0, PriorSpec(1, 1, 2.0, 1.0))
        k2 = marginal_beta_log_kernel(w, 2.0, PriorSpec(1, 1, 3.0, 1.0))
        assert k2 - k1 == pytest.approx(math.log(2.0), abs=1e-12)


class TestPosteriorDensityGrid:
    def test_grid_integral_near_one(self, posterior_n1000):
        ag, bg, dens = posterior_density_grid(posterior_n1000)
        da, db = ag[1] - ag[0], bg[1] - bg[0]
        assert 0.95 <= float(dens.sum() * da * db) <= 1.0 + 1e-9

    def test_concentrates_on_repeated_draw(self):
        draws = np.tile([2.0, 3.0], (150, 1))
        res = summarize_draws(draws, 0.4, 150.0, 150.0)
        ag, bg, dens = posterior_density_grid(res, alpha_bounds=(1.0, 3.0),
                                              beta_bounds=(2.0, 4.0), shape=(21, 21))
        ia, ib = np.unravel_index(np.argmax(dens), dens.shape)
        assert ag[ia] == pytest.approx(2.0, abs=(ag[1] - ag[0]))
        assert bg[ib] == pytest.approx(3.0, abs=(bg[1] - bg[0]))

    def test_argmax_near_mean_for_symmetric_draws(self):
        g = np.random.default_rng(3).multivariate_normal([2, 3], np.eye(2) * 0.01, size=5000)
        res = summarize_draws(g, 0.3, 5000.0, 5000.0)
        ag, bg, dens = posterior_density_grid(res, shape=(41, 41))
        ia, ib = np.unravel_index(np.argmax(dens), dens.shape)
        assert abs(ag[ia] - res.mean[0]) <= 1.5 * (ag[1] - ag[0])
        assert abs(bg[ib] - res.mean[1]) <= 1.5 * (bg[1] - bg[0])

    def test_empty_grid_rejected(self, posterior_n1000):
        with pytest.raises(ValueError):
            posterior_density_grid(posterior_n1000, alpha_bounds=(3.0, 1.0))
        with pytest.raises(ValueError):
            posterior_density_grid(posterior_n1000, shape=(1, 10))
