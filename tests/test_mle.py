import math

import numpy as np
import pytest

from ltll.distribution import (
    DegenerateSampleError,
    LTLLParams,
    Sample,
    draw_ltll,
    log_likelihood,
    score_gradient,
)
from ltll.mle import (
    BoundaryFitError,
    MleFit,
    SCORE_TOL,
    confidence_ellipse,
    fit_mle,
    observed_information,
    wald_intervals,
)
from ltll.numerics import RngStream, SymMatrix2, chi2_quantile_2dof


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
