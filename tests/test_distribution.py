import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ltll.distribution import (
    DegenerateSampleError,
    _loglik_batch,
    _loglik_row,
    LTLLParams,
    Sample,
    draw_ltll,
    existence_stats,
    ll_cdf,
    ll_pdf,
    log_likelihood,
    ltll_cdf,
    ltll_logpdf,
    ltll_pdf,
    ltll_quantile,
    mc_moments,
    phi_objective,
    score_gradient,
)
from ltll.numerics import RngStream

from finite_diff import finite_diff_gradient

BETA0_TWO_FOUR = 2.0 / (3.0 * math.log(2.0))
BETA_C_TWO_FOUR = -math.log((math.sqrt(5.0) - 1.0) / 2.0) / math.log(2.0)


def exact_half_gap(values, x_l, beta):
    """mean((x_i/x_l)^-beta) - 1/2 in 40-digit decimal arithmetic.

    The float inputs convert to Decimal exactly, so the log-gaps carry no
    rounding from the float logs the package works with.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        b, xl = Decimal(float(beta)), Decimal(float(x_l))
        total = sum((-b * (Decimal(float(v)) / xl).ln()).exp() for v in values)
        return float(total / len(values) - Decimal("0.5"))


def random_params(rng, with_trunc=True):
    alpha = float(np.exp(rng.normal() * 0.8))
    beta = float(np.exp(rng.normal() * 0.5 + 0.5))
    x_l = float(alpha * np.exp(rng.normal() * 0.7 - 0.7)) if with_trunc else 0.0
    return LTLLParams(alpha, beta, x_l)


class TestDensities:
    def test_ll_pdf_anchors(self):
        assert ll_pdf(1.0, 1.0, 1.0) == pytest.approx(0.25)
        for alpha, beta in [(2.0, 0.7), (0.5, 4.0), (3.0, 1.0)]:
            assert ll_pdf(alpha, alpha, beta) == pytest.approx(beta / (4.0 * alpha))
        assert ll_pdf(2.0, 2.0, 3.0) == pytest.approx(0.375)

    def test_ll_cdf_anchors(self):
        assert ll_cdf(2.0, 2.0, 5.0) == pytest.approx(0.5)  # median at the scale
        assert ll_cdf(4.0, 2.0, 3.0) == pytest.approx(8.0 / 9.0)
        assert ll_cdf(1e-12, 1.0, 1.5) < 1e-10
        assert ll_cdf(1e12, 1.0, 1.5) > 1.0 - 1e-10

    def test_truncated_pdf_anchor(self):
        assert ltll_pdf(2.0, LTLLParams(1.0, 1.0, 1.0)) == pytest.approx(2.0 / 9.0)

    def test_truncated_pdf_is_renormalized_density(self):
        p = LTLLParams(2.0, 3.0, 0.7)
        x = np.geomspace(0.71, 50.0, 64)
        expect = ll_pdf(x, p.alpha, p.beta) / (1.0 - ll_cdf(p.x_l, p.alpha, p.beta))
        assert np.allclose(ltll_pdf(x, p), expect, rtol=1e-12)

    def test_zero_truncation_reduces_exactly(self):
        p = LTLLParams(2.0, 3.0, 0.0)
        x = np.geomspace(1e-3, 1e3, 200)
        assert np.max(np.abs(ltll_pdf(x, p) - ll_pdf(x, 2.0, 3.0))) <= 1e-12
        assert np.max(np.abs(ltll_cdf(x, p) - ll_cdf(x, 2.0, 3.0))) <= 1e-12

    def test_pdf_integrates_to_one(self):
        p = LTLLParams(2.0, 3.0, 0.7)
        # Integrate in log space: the power-law tail defeats quad's error
        # estimate on the raw axis.
        lo = np.nextafter(p.x_l, np.inf)
        total, _ = quad(lambda t: ltll_pdf(math.exp(t), p) * math.exp(t),
                        math.log(lo), math.log(1e6 * p.alpha), limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ll_pdf(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ltll_pdf(0.5, LTLLParams(1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            ltll_cdf(0.99, LTLLParams(1.0, 1.0, 1.0))


class TestCdfForms:
    def test_printed_form_agrees_with_conditional_form(self):
        # The ratio form (u - u_L)/(1 + u) and the conditional definition
        # (F(x) - F(x_L))/(1 - F(x_L)) are the same algebraic quantity.
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            p = random_params(rng)
            x = p.x_l + float(np.exp(rng.normal())) * p.alpha
            u = (x / p.alpha) ** p.beta
            ul = (p.x_l / p.alpha) ** p.beta
            printed = (u - ul) / (1.0 + u)
            conditional = ((ll_cdf(x, p.alpha, p.beta) - ll_cdf(p.x_l, p.alpha, p.beta))
                           / (1.0 - ll_cdf(p.x_l, p.alpha, p.beta)))
            got = ltll_cdf(x, p)
            worst = max(worst, abs(got - printed), abs(got - conditional))
        assert worst <= 1e-12

    def test_cdf_endpoints(self):
        p = LTLLParams(2.0, 3.0, 0.7)
        assert ltll_cdf(p.x_l, p) == 0.0
        assert ltll_cdf(1e9, p) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_matches_pdf_derivative(self):
        p = LTLLParams(2.0, 3.0, 0.7)
        for x in (0.9, 1.5, 2.0, 4.0, 9.0):
            h = 1e-6 * x
            num = (ltll_cdf(x + h, p) - ltll_cdf(x - h, p)) / (2.0 * h)
            assert num == pytest.approx(ltll_pdf(x, p), rel=1e-6)


class TestQuantile:
    def test_endpoints(self):
        p = LTLLParams(2.0, 3.0, 0.7)
        assert ltll_quantile(0.0, p) == p.x_l
        assert ltll_quantile(0.5, LTLLParams(2.0, 3.0, 0.0)) == pytest.approx(2.0)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        u = np.linspace(0.0, 0.999, 500)
        for _ in range(20):
            p = random_params(rng)
            err = np.max(np.abs(ltll_cdf(ltll_quantile(u, p), p) - u))
            assert err <= 1e-10

    def test_domain(self):
        p = LTLLParams(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ltll_quantile(1.0, p)
        with pytest.raises(ValueError):
            ltll_quantile(-0.01, p)


class TestSampling:
    def test_support_and_determinism(self):
        p = LTLLParams(2.0, 3.0, 0.7)
        s1 = draw_ltll(5000, p, RngStream(42, 0))
        s2 = draw_ltll(5000, p, RngStream(42, 0))
        assert s1.values.min() > p.x_l
        assert np.array_equal(s1.values, s2.values)

    def test_ks_distance(self):
        p = LTLLParams(2.0, 3.0, 0.7)
        v = np.sort(draw_ltll(20000, p, RngStream(2024, 0)).values)
        grid = np.arange(v.size)
        f = ltll_cdf(v, p)
        ks = max(np.max(f - grid / v.size), np.max((grid + 1) / v.size - f))
        assert ks < 0.012  # 1% critical value at n = 20000

    def test_n_validation(self):
        with pytest.raises(ValueError):
            draw_ltll(0, LTLLParams(1.0, 1.0, 0.0), RngStream(1, 0))


class TestLikelihood:
    def test_single_point_anchor(self):
        s = Sample(np.array([2.0]), 1.0)
        assert log_likelihood(s, 1.0, 1.0) == pytest.approx(math.log(2.0 / 9.0), abs=1e-12)

    def test_matches_sum_of_logpdf(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = random_params(rng)
            s = draw_ltll(40, p, RngStream(int(rng.integers(1 << 32)), 0))
            a, b = p.alpha * 1.1, p.beta * 0.9
            direct = float(np.sum(ltll_logpdf(s.values, LTLLParams(a, b, s.x_l))))
            assert log_likelihood(s, a, b) == pytest.approx(direct, abs=1e-10)

    def test_zero_truncation_equals_untruncated(self):
        rng = np.random.default_rng(5)
        s = draw_ltll(100, LTLLParams(2.0, 3.0, 0.0), RngStream(8, 1))
        ll = log_likelihood(s, 1.7, 2.4)
        direct = float(np.sum(np.log(ll_pdf(s.values, 1.7, 2.4))))
        assert ll == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("x_l", [0.0, 0.5])
    def test_batch_kernel_matches_softplus_formula(self, x_l):
        # Each row's log-likelihood written term by term with a two-sided
        # softplus, summed exactly; shapes up to 1e4 push |t| far past 745,
        # where e^-|t| underflows.  Every row holds its own random sample,
        # and the row kernel must return that row's batch value bit for bit.
        def softplus(t):
            return t + math.log1p(math.exp(-t)) if t > 0.0 else math.log1p(math.exp(t))

        alphas = np.array([0.3, 2.0, 2.0, 9.0, 1.7, 2.5])
        betas = np.array([0.05, 1.0, 3.0, 40.0, 1e3, 1e4])
        lx = np.log([draw_ltll(60, LTLLParams(2.0, 3.0, x_l), RngStream(13, k)).values
                     for k in range(alphas.size)])
        sumlx = lx.sum(axis=1)
        ln_xl = None if x_l == 0.0 else math.log(x_l)
        got = _loglik_batch(lx, sumlx, lx.shape[1], ln_xl, np.log(alphas), np.log(betas))
        assert max(b * abs(v - math.log(a))
                   for a, b, row in zip(alphas, betas, lx) for v in row) > 745.0
        for k, (a, b) in enumerate(zip(alphas, betas)):
            terms = []
            for v in lx[k]:
                t = b * (v - math.log(a))
                terms.append(math.log(b / a) + (b - 1.0) * (v - math.log(a)) - 2.0 * softplus(t))
            if ln_xl is not None:
                terms.extend([softplus(b * (ln_xl - math.log(a)))] * lx.shape[1])
            want = math.fsum(terms)
            assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-13 * math.fsum(map(abs, terms)))
            assert _loglik_row(lx[k], float(sumlx[k]), ln_xl, np.log(a), np.log(b)) == got[k]

    def test_finite_everywhere_valid(self):
        s = draw_ltll(50, LTLLParams(2.0, 3.0, 1.0), RngStream(6, 2))
        for a, b in [(1e-6, 0.1), (1e6, 0.1), (1e-6, 50.0), (1e6, 50.0)]:
            assert np.isfinite(log_likelihood(s, a, b))


class TestScore:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            p = random_params(rng)
            s = draw_ltll(60, p, RngStream(int(rng.integers(1 << 32)), 1))
            a = p.alpha * float(np.exp(rng.normal() * 0.2))
            b = p.beta * float(np.exp(rng.normal() * 0.2))
            got = score_gradient(s, a, b)
            want = finite_diff_gradient(lambda th: log_likelihood(s, th[0], th[1]), (a, b))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-6 * max(1.0, abs(w))

    def test_truncation_terms_vanish_at_zero(self):
        values = np.array([0.8, 1.7, 2.2, 5.0])
        s0 = Sample(values, 0.0)
        s_eps = Sample(values, 1e-12)
        g0 = score_gradient(s0, 2.0, 1.5)
        g_eps = score_gradient(s_eps, 2.0, 1.5)
        assert g0 == pytest.approx(g_eps, rel=1e-9)


class TestExistenceStats:
    def test_two_four_anchor(self):
        st = existence_stats(Sample(np.array([2.0, 4.0]), 1.0))
        assert st.beta0 == pytest.approx(BETA0_TWO_FOUR, abs=1e-10)
        assert st.beta0 == pytest.approx(0.96180, abs=1e-5)
        assert st.beta_c == pytest.approx(BETA_C_TWO_FOUR, abs=1e-9)
        assert st.beta_c == pytest.approx(0.69424, abs=1e-5)
        assert st.interior  # beta0 > beta_c

    def test_beta_c_solves_equation(self):
        # beta_C is the root of mean((x_i/x_L)^-beta) = 1/2.
        f = lambda b: 0.5 * (2.0 ** -b + 4.0 ** -b) - 0.5
        st_two_four = existence_stats(Sample(np.array([2.0, 4.0]), 1.0))
        assert abs(f(st_two_four.beta_c)) <= 1e-12
        for values, x_l in [([1.3, 2.0, 5.0, 11.0], 1.0), ([0.51, 0.6, 0.9], 0.5),
                            ([12.0, 13.0, 40.0, 41.0, 1e3], 11.5)]:
            s = Sample(np.array(values), x_l)
            lw = s.log_values - math.log(x_l)
            beta_c = existence_stats(s).beta_c
            assert abs(float(np.mean(np.exp(-beta_c * lw))) - 0.5) <= 1e-12

    def test_equal_values_rejected(self):
        with pytest.raises(DegenerateSampleError):
            existence_stats(Sample(np.array([math.e, math.e]), 1.0))

    def test_scaling_invariance(self):
        s = Sample(np.array([2.0, 3.0, 7.0]), 1.0)
        st = existence_stats(s)
        for c in (0.1, 10.0, 1234.5):
            stc = existence_stats(Sample(s.values * c, c))
            assert stc.beta0 == pytest.approx(st.beta0, rel=1e-12)
            assert stc.beta_c == pytest.approx(st.beta_c, abs=1e-9)

    def test_requires_positive_truncation(self):
        with pytest.raises(ValueError):
            existence_stats(Sample(np.array([1.0, 2.0]), 0.0))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        x_l=st.sampled_from([1e-3, 0.37, 1.0, 7.9, 1e3]),
        log10_eps=st.floats(-9.0, -1.0),
        fractions=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=40),
        scale=st.sampled_from([1e-3, 0.5, 3.0, 1e4]),
    )
    def test_sample_hugging_truncation_point(self, x_l, log10_eps, fractions, scale):
        # Values in (x_L, x_L*(1+eps)] push beta_C far above any fixed bracket.
        values = x_l * (1.0 + 10.0 ** log10_eps * np.array(fractions))
        s = Sample(values, x_l)
        scaled = Sample(values * scale, x_l * scale)
        try:
            stats = existence_stats(s)
        except DegenerateSampleError:
            assert s.n_distinct < 2
            return
        assert abs(exact_half_gap(values, x_l, stats.beta_c)) <= 1e-9

        # Each log-gap is a difference of two logs, so it carries an absolute
        # rounding error of a few eps*(1 + |ln x_L|); beta_C inherits that
        # error relative to the smallest gap, in each of the two samples.
        def rel_rounding(w):
            gaps = w.log_values - math.log(w.x_l)
            return 4.0 * np.finfo(float).eps * (1.0 + abs(math.log(w.x_l))) / gaps.min()

        tol = rel_rounding(s) + rel_rounding(scaled) + 1e-12
        assert existence_stats(scaled).beta_c == pytest.approx(stats.beta_c, rel=tol)

    def test_log_gaps_rounding_to_zero_rejected(self):
        # One and two ulps above x_L = 7.9, both logs round onto ln x_L.
        x_l = 7.9
        v1 = np.nextafter(x_l, np.inf)
        v2 = np.nextafter(v1, np.inf)
        with pytest.raises(DegenerateSampleError):
            existence_stats(Sample(np.array([v1, v2]), x_l))
        # Two of three gaps are zero, so mean(X^-beta) never falls below 2/3.
        with pytest.raises(DegenerateSampleError):
            existence_stats(Sample(np.array([v1, v2, 9.0]), x_l))

    @pytest.mark.parametrize("x_l", [1e3, 1e-3])
    def test_beta_c_exact_under_power_of_two_rescaling(self, x_l):
        # Rescaling values and x_L by 2^k is exact in floating point, and so
        # are the log-gaps log1p((x - x_L)/x_L): beta_C may not move a bit.
        rng = np.random.default_rng(41)
        for _ in range(25):
            fractions = rng.uniform(0.01, 1.0, size=int(rng.integers(2, 40)))
            values = x_l * (1.0 + 1e-9 * fractions)
            beta_c = existence_stats(Sample(values, x_l)).beta_c
            assert abs(exact_half_gap(values, x_l, beta_c)) <= 1e-12
            for k in (-40, -3, 1, 9, 60):
                c = 2.0 ** k
                assert existence_stats(Sample(values * c, x_l * c)).beta_c == beta_c

    def test_criterion_function_monotone(self):
        lw = np.log(np.array([1.3, 2.0, 5.0, 11.0]))
        grid = np.linspace(0.01, 20.0, 200)
        vals = [float(np.mean(np.exp(-b * lw))) for b in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestPhiObjective:
    def test_identity_with_log_likelihood(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = random_params(rng)
            w = draw_ltll(30, p, RngStream(int(rng.integers(1 << 32)), 2)).normalized() \
                if p.x_l > 0 else None
            if w is None:
                continue
            a = float(np.exp(rng.normal() * 0.3))
            b = float(np.exp(rng.normal() * 0.3))
            lhs = phi_objective(a ** b, b, w)
            rhs = log_likelihood(w, a, b) + w.sum_log
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_large_lambda_divergence(self):
        w = Sample(np.array([2.0, 3.0, 5.0]), 1.0)
        vals = [phi_objective(lam, 1.5, w) for lam in (1e2, 1e5, 1e8)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < -40.0

    def test_boundary_limit_is_pareto(self):
        w = draw_ltll(40, LTLLParams(2.0, 3.0, 1.0), RngStream(4, 3)).normalized()
        st = existence_stats(w)
        pareto_plus_s = w.n * math.log(st.beta0) - st.beta0 * st.s
        assert phi_objective(1e-10, st.beta0, w) == pytest.approx(pareto_plus_s, abs=1e-6)


class TestMcMoments:
    def test_untruncated_closed_form_mean(self):
        # k-th raw moment of LL(alpha, beta) is alpha^k (k pi/beta)/sin(k pi/beta)
        alpha, beta = 2.0, 3.0
        mean_exact = alpha * (math.pi / beta) / math.sin(math.pi / beta)
        m = mc_moments(LTLLParams(alpha, beta, 0.0), 200_000, RngStream(7, 0))
        se = math.sqrt(3.8249421 / 200_000)
        assert abs(m[0] - mean_exact) < 3 * se
        assert mean_exact == pytest.approx(2.41840, abs=1e-5)

    def test_untruncated_variance_heavy_tail(self):
        # Fourth moment diverges at beta = 3, so budget a batched standard error.
        alpha, beta = 2.0, 3.0
        mean_exact = alpha * (math.pi / beta) / math.sin(math.pi / beta)
        m2 = alpha ** 2 * (2 * math.pi / beta) / math.sin(2 * math.pi / beta)
        var_exact = m2 - mean_exact ** 2
        v = draw_ltll(200_000, LTLLParams(alpha, beta, 0.0), RngStream(5, 0)).values
        batch_vars = [np.var(b, ddof=1) for b in np.split(v, 50)]
        se = np.std(batch_vars, ddof=1) / math.sqrt(50)
        m = mc_moments(LTLLParams(alpha, beta, 0.0), 200_000, RngStream(5, 0))
        assert abs(m[1] - var_exact) < 3 * se

    def test_moment_definitions(self):
        # n-1 variance; skewness and plain (not excess) kurtosis standardized
        # by the population variance.
        p = LTLLParams(2.0, 6.0, 1.0)
        x = draw_ltll(1000, p, RngStream(11, 4)).values
        d = x - x.mean()
        m2 = np.mean(d * d)
        want = (x.mean(), np.sum(d * d) / (x.size - 1), np.mean(d ** 3) / m2 ** 1.5,
                np.mean(d ** 4) / m2 ** 2)
        assert mc_moments(p, 1000, RngStream(11, 4)) == pytest.approx(want, rel=1e-12)

    def test_length_requirements(self):
        p = LTLLParams(2.0, 6.0, 1.0)
        for n in (0, 1, 3):
            with pytest.raises(ValueError):
                mc_moments(p, n, RngStream(11, 4))
        assert len(mc_moments(p, 4, RngStream(11, 4))) == 4

    def test_mean_nondecreasing_in_truncation(self):
        means = [mc_moments(LTLLParams(2.0, 3.0, xl), 50_000, RngStream(9, k))[0]
                 for k, xl in enumerate((0.0, 0.35, 0.7))]
        assert means[0] <= means[1] <= means[2]


class TestSampleType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Sample(np.array([]), 0.0)
        with pytest.raises(ValueError):
            Sample(np.array([1.0, np.inf]), 0.0)
        with pytest.raises(ValueError):
            Sample(np.array([0.5, 2.0]), 1.0)
        with pytest.raises(ValueError):
            Sample(np.array([1.0]), -0.5)

    def test_immutability(self):
        s = Sample(np.array([2.0, 3.0]), 1.0)
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_normalized(self):
        s = Sample(np.array([3.0, 4.0]), 2.0)
        w = s.normalized()
        assert w.x_l == 1.0
        assert np.allclose(w.values, [1.5, 2.0])
        with pytest.raises(ValueError):
            Sample(np.array([1.0, 2.0]), 0.0).normalized()

    def test_params_validation(self):
        for bad in [(0.0, 1.0, 0.0), (1.0, -1.0, 0.0), (1.0, 1.0, -0.1), (np.nan, 1.0, 0.0)]:
            with pytest.raises(ValueError):
                LTLLParams(*bad)
