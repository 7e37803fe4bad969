import math

import numpy as np
import pytest
from scipy.special import ndtri

from ltll.numerics import (
    SymMatrix2,
    chi2_quantile_2dof,
    finite_diff_gradient,
    finite_diff_hessian,
    normal_quantile,
)


class TestChi2Quantile:
    def test_anchors(self):
        assert chi2_quantile_2dof(0.95) == pytest.approx(5.9914645471, abs=1e-9)
        assert chi2_quantile_2dof(0.99) == pytest.approx(9.2103403720, abs=1e-9)

    def test_cdf_identity(self):
        for p in np.linspace(0.001, 0.999, 200):
            q = chi2_quantile_2dof(float(p))
            assert -math.expm1(-q / 2.0) == pytest.approx(p, abs=1e-14)

    def test_zero_mass_limit(self):
        assert chi2_quantile_2dof(1e-300) == pytest.approx(0.0, abs=1e-297)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            chi2_quantile_2dof(bad)


class TestFiniteDifferences:
    def test_gradient_quadratic(self):
        g = finite_diff_gradient(lambda th: th[0] ** 2 + th[1] ** 2, (1.0, 2.0))
        assert g == pytest.approx((2.0, 4.0), abs=1e-8)

    def test_gradient_constant(self):
        assert finite_diff_gradient(lambda th: 3.7, (0.4, -2.0)) == pytest.approx((0.0, 0.0))

    def test_gradient_bilinear(self):
        g = finite_diff_gradient(lambda th: th[0] * th[1], (3.0, 5.0))
        assert g == pytest.approx((5.0, 3.0), abs=1e-8)

    def test_gradient_random_quadratics(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a, b, c, d, e = rng.normal(size=5)
            theta = rng.normal(size=2) * 3.0

            def f(th):
                return a * th[0] ** 2 + b * th[1] ** 2 + c * th[0] * th[1] + d * th[0] + e * th[1]

            want = (2 * a * theta[0] + c * theta[1] + d, 2 * b * theta[1] + c * theta[0] + e)
            assert finite_diff_gradient(f, theta) == pytest.approx(want, abs=1e-7)

    def test_gradient_nonfinite(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda th: math.log(th[0]), (1e-9, 1.0))

    def test_hessian_quadratic(self):
        h = finite_diff_hessian(lambda th: 0.5 * (th[0] ** 2 + th[1] ** 2), (0.3, -1.2))
        assert h.a11 == pytest.approx(1.0, abs=1e-6)
        assert h.a22 == pytest.approx(1.0, abs=1e-6)
        assert h.a12 == pytest.approx(0.0, abs=1e-6)

    def test_hessian_bilinear(self):
        h = finite_diff_hessian(lambda th: th[0] * th[1], (2.0, 7.0))
        assert h.a12 == pytest.approx(1.0, abs=1e-6)
        assert h.a11 == pytest.approx(0.0, abs=1e-6)
        assert h.a22 == pytest.approx(0.0, abs=1e-6)


class TestNormalQuantile:
    def test_against_scipy(self):
        p = np.concatenate([np.linspace(1e-10, 1 - 1e-10, 20001), [1e-300, 1e-30]])
        mine = normal_quantile(p)
        ref = ndtri(p)
        assert np.max(np.abs(mine - ref) / np.maximum(1.0, np.abs(ref))) < 1e-9

    def test_symmetry_and_anchor(self):
        assert float(normal_quantile(0.5)) == pytest.approx(0.0, abs=1e-15)
        assert float(normal_quantile(0.975)) == pytest.approx(1.959963985, abs=1e-8)
        assert float(normal_quantile(0.025)) == pytest.approx(-float(normal_quantile(0.975)))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            normal_quantile(bad)


class TestSymMatrix2:
    def test_inverse_roundtrip(self):
        m = SymMatrix2(3.0, 0.7, 2.0)
        ident = m.to_array() @ m.inverse().to_array()
        assert np.allclose(ident, np.eye(2), atol=1e-14)

    def test_eigh_reconstruction(self):
        m = SymMatrix2(2.0, -0.9, 1.1)
        w, v = m.eigh()
        assert w[0] >= w[1]
        assert np.allclose(v @ np.diag(w) @ v.T, m.to_array(), atol=1e-12)
        assert np.allclose(v @ v.T, np.eye(2), atol=1e-12)

    def test_definiteness_flags(self):
        assert SymMatrix2(2.0, 0.1, 3.0).is_positive_definite
        assert not SymMatrix2(2.0, 5.0, 3.0).is_positive_definite
        assert not SymMatrix2(-1.0, 0.0, -2.0).is_positive_definite

    def test_quad_form_matches_matrix(self):
        m = SymMatrix2(1.5, 0.4, 0.9)
        d = np.array([0.3, -1.7])
        assert m.quad_form(*d) == pytest.approx(float(d @ m.to_array() @ d))
