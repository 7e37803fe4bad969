import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import fisk

import ltll.distribution
import ltll.mle
from ltll.distribution import (
    DegenerateSampleError,
    LTLLParams,
    Sample,
    _derivatives_z,
    draw_ltll,
    log_likelihood,
    score_gradient,
)
from ltll.mle import (
    _MAX_NEWTON,
    BoundaryFitError,
    MleFit,
    SCORE_TOL,
    confidence_ellipse,
    fit_mle,
    observed_information,
    wald_intervals,
)
from ltll.numerics import RngStream, SymMatrix2, chi2_quantile_2dof

from finite_diff import finite_diff_gradient, finite_diff_hessian


@pytest.fixture(scope="module")
def synthetic_fit():
    s = draw_ltll(1000, LTLLParams(2.0, 3.0, 1.0), RngStream(11, 0))
    return s, fit_mle(s)


def boundary_sample():
    # Heavy mass just above the truncation point plus one enormous value:
    # beta0 collapses toward 0 while mean(X^-beta0) stays above 1/2.
    return Sample(np.array([1.01] * 9 + [math.exp(100.0)]), 1.0)


class TestFitMle:
    def test_recovers_truth(self, synthetic_fit):
        _, fit = synthetic_fit
        assert not fit.boundary
        assert fit.converged
        assert abs(fit.alpha - 2.0) < 0.15
        assert abs(fit.beta - 3.0) < 0.15

    def test_stationarity(self, synthetic_fit):
        s, fit = synthetic_fit
        g = score_gradient(s, fit.alpha, fit.beta)
        assert math.hypot(*g) < SCORE_TOL * (1.0 + abs(fit.loglik))
        # The reported figures agree with the public functions at the estimate.
        assert fit.loglik == log_likelihood(s, fit.alpha, fit.beta)
        info = observed_information(s, (fit.alpha, fit.beta))
        for entry in ("a11", "a12", "a22"):
            assert getattr(fit.info, entry) == pytest.approx(getattr(info, entry), rel=1e-10)

    def test_two_point_sample_is_interior(self):
        fit = fit_mle(Sample(np.array([2.0, 4.0]), 1.0))
        assert not fit.boundary
        assert fit.stats.beta0 > fit.stats.beta_c

    def test_sample_hugging_truncation_point_is_interior(self):
        # Log-gaps of 2e-5..1e-4 put beta_C near 1e4, far above the data-free
        # bracket the criterion root once had to lie in.
        fit = fit_mle(Sample(np.linspace(1.00002, 1.0001, 30), 1.0))
        assert isinstance(fit, MleFit)
        assert not fit.boundary
        assert fit.stats.beta0 > fit.stats.beta_c > 1e3

    def test_untruncated_start_survives_quartile_ratio_overflow(self):
        # q75/q25 passes the float range; the start must not become beta = 0.
        values = np.array([1e-300, 2e-300, 3e-300, 1.0, 2.0, 1e300, 2e300, 3e300])
        fit = fit_mle(Sample(values, 0.0))
        assert not fit.boundary
        assert fit.converged
        assert fit.alpha == pytest.approx(1.6384, rel=1e-4)
        assert fit.beta == pytest.approx(0.0026608, rel=1e-4)

    def test_boundary_detection(self):
        fit = fit_mle(boundary_sample())
        assert fit.boundary
        assert fit.alpha is None
        assert fit.ci_alpha is None and fit.ci_beta is None
        assert fit.beta == pytest.approx(fit.stats.beta0)
        with pytest.raises(BoundaryFitError):
            _ = fit.params

    def test_boundary_loglik_is_pareto_limit(self):
        s = boundary_sample()
        fit = fit_mle(s)
        # Truncated log-likelihood approaches the Pareto value from below as
        # alpha -> 0 at fixed shape beta0; convergence is O(alpha^beta0).
        approach = [log_likelihood(s, a, fit.beta) for a in (1e-20, 1e-40, 1e-60)]
        assert all(x < y for x, y in zip(approach, approach[1:]))
        assert fit.loglik == pytest.approx(approach[-1], abs=1e-5)
        assert fit.loglik >= approach[-1]

    def test_grid_oracle(self):
        s = draw_ltll(200, LTLLParams(2.0, 3.0, 1.0), RngStream(21, 5))
        fit = fit_mle(s)
        la = np.log(2.0) + np.linspace(-0.5, 0.5, 201)
        lb = np.log(3.0) + np.linspace(-0.5, 0.5, 201)
        best = max(log_likelihood(s, a, b) for a in np.exp(la) for b in np.exp(lb))
        assert fit.loglik >= best - 1e-6

    def test_scale_equivariance(self):
        s = draw_ltll(300, LTLLParams(2.0, 3.0, 1.0), RngStream(31, 2))
        fit = fit_mle(s)
        for c in (0.1, 10.0):
            fc = fit_mle(Sample(s.values * c, s.x_l * c))
            assert fc.alpha == pytest.approx(fit.alpha * c, rel=1e-8)
            assert fc.beta == pytest.approx(fit.beta, rel=1e-8)

    def test_untruncated_fit(self):
        s = draw_ltll(800, LTLLParams(6.0, 1.7, 0.0), RngStream(3, 4))
        fit = fit_mle(s)
        assert fit.stats is None  # existence gate does not apply at x_l = 0
        assert fit.converged
        assert abs(fit.alpha - 6.0) < 0.5
        assert abs(fit.beta - 1.7) < 0.15

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            fit_mle(Sample(np.array([2.0, 2.0, 2.0]), 1.0))

    def test_gaps_below_log_resolution_are_degenerate(self):
        # One and two ulps above x_L = 6: ln x cannot tell either value from
        # ln x_L, so no likelihood surface exists to maximize.
        v1 = np.nextafter(6.0, 7.0)
        v2 = np.nextafter(v1, 7.0)
        with pytest.raises(DegenerateSampleError):
            fit_mle(Sample(np.array([v1, v2]), 6.0))

    @pytest.mark.parametrize("x_l", [0.0, 1.0])
    def test_derivatives_only_inside_newton(self, monkeypatch, x_l):
        s = draw_ltll(300, LTLLParams(2.0, 3.0, x_l), RngStream(41, 3))
        real_derivatives, real_post_init = _derivatives_z, Sample.__post_init__
        calls, copies = [], []

        def counting_derivatives(*args):
            calls.append(args)
            return real_derivatives(*args)

        def counting_post_init(self):
            copies.append(self)
            real_post_init(self)

        for module in (ltll.distribution, ltll.mle):
            monkeypatch.setattr(module, "_derivatives_z", counting_derivatives)
        monkeypatch.setattr(Sample, "__post_init__", counting_post_init)
        fit = fit_mle(s)
        assert fit.converged
        assert len(calls) == fit.iterations + 1  # one per Newton iterate, the last included
        assert not copies

    def test_newton_never_exhausts_its_budget(self):
        fits = [fit_mle(Sample(x, x_l)) for x, x_l in _random_samples()]
        assert len(fits) > 300
        assert sum(f.boundary for f in fits) > 30
        assert max(f.iterations for f in fits) < _MAX_NEWTON
        assert all(f.converged for f in fits)

    def test_consistency_trend(self):
        # Mean absolute error strictly decreases along the sample sizes.
        sizes = (50, 100, 500, 1000)
        reps = 200
        err_a = []
        err_b = []
        for k, n in enumerate(sizes):
            ea = eb = 0.0
            used = 0
            for r in range(reps):
                s = draw_ltll(n, LTLLParams(2.0, 3.0, 1.0), RngStream(900 + k, r))
                f = fit_mle(s)
                if f.boundary:
                    continue
                ea += abs(f.alpha - 2.0)
                eb += abs(f.beta - 3.0)
                used += 1
            err_a.append(ea / used)
            err_b.append(eb / used)
        assert all(b < a for a, b in zip(err_a, err_a[1:]))
        assert all(b < a for a, b in zip(err_b, err_b[1:]))


def _random_samples():
    """Samples across sizes 3..1000, shapes 0.3..60, scales 1e-3..1e3 and
    truncation quantiles 0..0.99 (15% untruncated), at least two distinct values."""
    rng = np.random.default_rng(11)
    out = []
    for _ in range(400):
        n = int(math.exp(rng.uniform(math.log(2.0), math.log(1000.0)))) + 1
        beta = math.exp(rng.uniform(math.log(0.3), math.log(60.0)))
        alpha = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        q = rng.uniform(0.0, 0.99) if rng.uniform() < 0.85 else None
        u = rng.uniform(size=n)
        x = alpha * (u / (1.0 - u)) ** (1.0 / beta)
        x_l = 0.0 if q is None else float(np.quantile(x, q) * (1.0 - 1e-12))
        x = x[x > x_l]
        if np.unique(x).size >= 2:
            out.append((x, x_l))
    return out


def _fisk_oracle(values, x_l):
    """Independent MLE: scipy.stats.fisk logpdf - logsf(x_L), Nelder-Mead in logs.

    It starts from the best point of its own coarse grid, never from ltll's fit.
    """
    lx = np.log(values)

    def nll(th):
        a, b = math.exp(th[0]), math.exp(th[1])
        ll = float(np.sum(fisk.logpdf(values, b, scale=a)))
        if x_l > 0.0:
            ll -= values.size * float(fisk.logsf(x_l, b, scale=a))
        return -ll

    grid = [(la, lb) for la in np.linspace(lx.min(), lx.max(), 21)
            for lb in np.linspace(math.log(0.2), math.log(20.0), 21)]
    res = minimize(nll, np.array(min(grid, key=nll)), method="Nelder-Mead",
                   options={"xatol": 1e-11, "fatol": 1e-13, "maxiter": 10000,
                            "maxfev": 20000})
    return math.exp(res.x[0]), math.exp(res.x[1])


class TestFiskOracle:
    @pytest.mark.parametrize("x_l", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("n", [39, 1000])
    def test_matches_independent_maximizer(self, n, x_l):
        interior = 0
        for r in range(3):
            s = draw_ltll(n, LTLLParams(2.0, 3.0, x_l), RngStream(71, 10 * n + r))
            fit = fit_mle(s)
            if fit.boundary:
                continue
            interior += 1
            alpha_o, beta_o = _fisk_oracle(s.values, x_l)
            assert fit.alpha == pytest.approx(alpha_o, rel=1e-6)
            assert fit.beta == pytest.approx(beta_o, rel=1e-6)
        assert interior >= 2


class TestObservedInformation:
    def test_positive_definite_at_mle(self, synthetic_fit):
        _, fit = synthetic_fit
        assert fit.info.is_positive_definite
        inv = fit.info.inverse()
        assert inv.a11 > 0 and inv.a22 > 0

    def test_roughly_additive_in_n(self, synthetic_fit):
        s, fit = synthetic_fit
        doubled = Sample(np.concatenate([s.values, s.values]), s.x_l)
        j1 = observed_information(s, (fit.alpha, fit.beta))
        j2 = observed_information(doubled, (fit.alpha, fit.beta))
        for name in ("a11", "a12", "a22"):
            assert getattr(j2, name) == pytest.approx(2.0 * getattr(j1, name), rel=0.15)

    def test_matches_score_differencing(self):
        s = Sample(np.array([2.0, 3.0, 5.0]), 1.0)
        fit = fit_mle(s)
        theta = (fit.alpha, fit.beta)
        j = observed_information(s, theta)
        h = 1e-5
        d_a = [(score_gradient(s, theta[0] + h, theta[1])[i]
                - score_gradient(s, theta[0] - h, theta[1])[i]) / (2 * h) for i in range(2)]
        d_b = [(score_gradient(s, theta[0], theta[1] + h)[i]
                - score_gradient(s, theta[0], theta[1] - h)[i]) / (2 * h) for i in range(2)]
        assert j.a11 == pytest.approx(-d_a[0], rel=1e-4)
        assert j.a22 == pytest.approx(-d_b[1], rel=1e-4)
        assert j.a12 == pytest.approx(-0.5 * (d_a[1] + d_b[0]), rel=1e-4)

    def test_zero_truncation_is_the_limit_of_small_truncation(self):
        # ln x_L = -inf is the x_L -> 0 limit: at x_L = 1e-300 min(x) every
        # truncation term has underflowed to 0, so the likelihood, score and
        # information equal those at x_L = 0 exactly, where the Hessian's
        # sigma_L t_L terms are 0 * inf unless taken as their limit.
        s = draw_ltll(200, LTLLParams(2.0, 3.0, 0.0), RngStream(19, 2))
        tiny = Sample(s.values, 1e-300 * float(np.min(s.values)))
        for a, b in [(2.0, 3.0), (0.4, 1.3), (7.0, 9.0)]:
            assert log_likelihood(tiny, a, b) == log_likelihood(s, a, b)
            assert score_gradient(tiny, a, b) == score_gradient(s, a, b)
            assert observed_information(tiny, (a, b)) == observed_information(s, (a, b))
            assert np.all(np.isfinite(observed_information(s, (a, b)).to_array()))


    @pytest.mark.parametrize("x_l", [0.0, 1.0])
    def test_matches_finite_difference_hessian(self, x_l):
        s = draw_ltll(300, LTLLParams(2.0, 3.0, x_l), RngStream(17, 3))
        fit = fit_mle(s)
        for theta in [(fit.alpha, fit.beta), (1.6, 3.5), (2.6, 2.2)]:
            j = observed_information(s, theta)
            want = finite_diff_hessian(lambda th: -log_likelihood(s, th[0], th[1]), theta)
            scale = abs(want.a11) + abs(want.a22)
            for name in ("a11", "a12", "a22"):
                assert getattr(j, name) == pytest.approx(getattr(want, name), abs=1e-6 * scale)

    @pytest.mark.parametrize("x_l", [0.0, 1.0])
    def test_log_space_score_and_hessian(self, x_l):
        s = draw_ltll(300, LTLLParams(2.0, 3.0, x_l), RngStream(17, 4))
        ln_xl = math.log(x_l) if x_l > 0.0 else -math.inf

        def ll_z(z):
            return log_likelihood(s, math.exp(z[0]), math.exp(z[1]))

        for z in [(math.log(2.0), math.log(3.0)), (0.2, 1.6), (1.1, 0.4)]:
            g, h = _derivatives_z(s.log_values, ln_xl, z)
            want_g = finite_diff_gradient(ll_z, z)
            want_h = finite_diff_hessian(ll_z, z)
            assert g == pytest.approx(want_g, abs=1e-6 * (1.0 + max(map(abs, want_g))))
            scale = abs(want_h.a11) + abs(want_h.a22)
            assert h[0, 1] == h[1, 0]
            assert h[0, 0] == pytest.approx(want_h.a11, abs=1e-6 * scale)
            assert h[0, 1] == pytest.approx(want_h.a12, abs=1e-6 * scale)
            assert h[1, 1] == pytest.approx(want_h.a22, abs=1e-6 * scale)


def _unit_info_fit():
    return MleFit(alpha=2.0, beta=3.0, x_l=0.0, n=100, boundary=False, loglik=-10.0,
                  info=SymMatrix2(1.0, 0.0, 1.0), ci_alpha=None, ci_beta=None,
                  converged=True, iterations=1, score_norm=0.0, stats=None)


class TestWaldIntervals:
    def test_identity_information(self):
        ci_a, ci_b = wald_intervals(_unit_info_fit(), 0.05)
        z = 1.959963985
        assert ci_a == pytest.approx((2.0 - z, 2.0 + z), abs=1e-6)
        assert ci_b == pytest.approx((3.0 - z, 3.0 + z), abs=1e-6)

    def test_clipping_at_zero(self):
        fit = MleFit(alpha=0.5, beta=3.0, x_l=0.0, n=10, boundary=False, loglik=-1.0,
                     info=SymMatrix2(1.0, 0.0, 1.0), ci_alpha=None, ci_beta=None,
                     converged=True, iterations=1, score_norm=0.0, stats=None)
        ci_a, _ = wald_intervals(fit, 0.05)
        assert ci_a[0] == 0.0

    def test_narrower_with_more_data(self):
        widths = []
        for n in (100, 400, 1600):
            s = draw_ltll(n, LTLLParams(2.0, 3.0, 0.5), RngStream(50, n))
            f = fit_mle(s)
            widths.append(f.ci_alpha[1] - f.ci_alpha[0])
        assert widths[0] > widths[1] > widths[2]

    def test_boundary_rejected(self):
        fit = fit_mle(boundary_sample())
        with pytest.raises(BoundaryFitError):
            wald_intervals(fit, 0.05)


class TestConfidenceEllipse:
    def test_isotropic_circle(self):
        ell = confidence_ellipse(_unit_info_fit(), 0.05, 64)
        radii = np.hypot(ell.points[:, 0] - 2.0, ell.points[:, 1] - 3.0)
        assert np.allclose(radii, math.sqrt(chi2_quantile_2dof(0.95)), atol=1e-10)
        assert radii[0] == pytest.approx(2.44774, abs=1e-5)

    def test_quadratic_form_invariant(self, synthetic_fit):
        _, fit = synthetic_fit
        ell = confidence_ellipse(fit, 0.05, 256)
        for p in ell.points[::17]:
            q = fit.info.quad_form(p[0] - fit.alpha, p[1] - fit.beta)
            assert q == pytest.approx(ell.threshold, rel=1e-8)

    def test_four_points_are_principal_axes(self):
        fit = _unit_info_fit()
        ell = confidence_ellipse(fit, 0.05, 4)
        assert ell.points.shape == (4, 2)
        r = math.sqrt(ell.threshold)
        want = np.array([[2 + r, 3], [2, 3 + r], [2 - r, 3], [2, 3 - r]])
        assert np.allclose(ell.points, want, atol=1e-9)

    def test_closure_by_adjacency(self, synthetic_fit):
        _, fit = synthetic_fit
        ell = confidence_ellipse(fit, 0.05, 256)
        gap = np.hypot(*(ell.points[0] - ell.points[-1]))
        step = np.hypot(*(ell.points[1] - ell.points[0]))
        assert gap <= step * 1.01

    def test_area_shrinks_with_n(self):
        areas = []
        for n in (200, 400, 800):
            s = draw_ltll(n, LTLLParams(2.0, 3.0, 0.5), RngStream(60, n))
            areas.append(confidence_ellipse(fit_mle(s), 0.05).area)
        assert areas[0] > areas[1] > areas[2]
        # area scales like 1/n through det(J) growth
        assert areas[0] / areas[2] == pytest.approx(4.0, rel=0.5)

    def test_polygon_area_approaches_exact(self, synthetic_fit):
        _, fit = synthetic_fit
        ell = confidence_ellipse(fit, 0.05, 512)
        assert ell.polygon_area() == pytest.approx(ell.area, rel=1e-3)

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryFitError):
            confidence_ellipse(fit_mle(boundary_sample()))
