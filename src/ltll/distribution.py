"""Left-truncated log-logistic (LTLL) distribution mathematics.

The untruncated log-logistic with scale ``alpha`` and shape ``beta`` has

    pdf  f(x) = (beta/alpha) (x/alpha)^(beta-1) [1 + (x/alpha)^beta]^-2
    cdf  F(x) = u / (1 + u),   u = (x/alpha)^beta

Left truncation at a known point ``x_L >= 0`` renormalizes both over
``(x_L, inf)``.  All evaluations run in log space, so large shapes and
extreme data do not overflow.  This module also carries the likelihood,
its analytic score, the interior-maximum existence statistics, and the
profile objective used by the fitting layer.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .numerics import RngStream

__all__ = [
    "DegenerateSampleError",
    "ExistenceStats",
    "LTLLParams",
    "Sample",
    "draw_ltll",
    "existence_stats",
    "ll_cdf",
    "ll_pdf",
    "log_likelihood",
    "ltll_cdf",
    "ltll_logpdf",
    "ltll_pdf",
    "ltll_quantile",
    "mc_moments",
    "phi_objective",
    "score_gradient",
]


class DegenerateSampleError(ValueError):
    """Raised when a sample lacks the two distinct values estimation needs."""


# ---------------------------------------------------------------------------
# Stable primitives
# ---------------------------------------------------------------------------

def _logistic(t):
    """sigma(t) = 1/(1 + e^-t) and its slope sigma(t)*(1 - sigma(t)).

    Both come from one e^-|t|, so they stay accurate for any real t (arrays,
    0-d for scalars).
    """
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))
    r = 1.0 / (1.0 + e)
    return np.where(t >= 0.0, r, e * r), e * r * r


def _log_xl(x_l: float) -> float:
    """ln x_l, the form every layer carries the truncation point in: x_l = 0
    gives -inf, where the likelihood's n ln(1 + (x_l/alpha)^beta) is 0."""
    with np.errstate(divide="ignore"):
        return float(np.log(x_l))


def _check_shape_scale(alpha, beta):
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be a finite positive real, got {alpha}")
    if not (np.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be a finite positive real, got {beta}")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LTLLParams:
    """Scale, shape, and truncation point of an LTLL distribution.

    ``x_l = 0`` recovers the untruncated log-logistic exactly.
    """

    alpha: float
    beta: float
    x_l: float = 0.0

    def __post_init__(self):
        _check_shape_scale(self.alpha, self.beta)
        if not (np.isfinite(self.x_l) and self.x_l >= 0.0):
            raise ValueError(f"x_l must be finite and >= 0, got {self.x_l}")


@dataclass(frozen=True)
class Sample:
    """Validated observations, all strictly above the truncation point."""

    values: np.ndarray
    x_l: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("sample must be a non-empty 1-d vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("sample contains non-finite values")
        if not (np.isfinite(self.x_l) and self.x_l >= 0.0):
            raise ValueError(f"x_l must be finite and >= 0, got {self.x_l}")
        if not np.all(v > self.x_l):
            bad = int(np.sum(v <= self.x_l))
            raise ValueError(f"{bad} value(s) are not strictly above x_l={self.x_l}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    @cached_property
    def n_distinct(self) -> int:
        return np.unique(self.values).size

    @cached_property
    def log_values(self) -> np.ndarray:
        lv = np.log(self.values)
        lv.setflags(write=False)
        return lv

    @cached_property
    def sum_log(self) -> float:
        return float(np.sum(self.log_values))

    def normalized(self) -> "Sample":
        """Data divided by the truncation point, so x_l becomes 1."""
        if self.x_l <= 0.0:
            raise ValueError("normalization requires x_l > 0")
        return Sample(self.values / self.x_l, 1.0)


@dataclass(frozen=True)
class ExistenceStats:
    """Interior-maximum criterion statistics of a truncation-normalized sample.

    ``beta0`` is the reciprocal mean log of the normalized data and ``beta_c``
    solves mean(X^-beta) = 1/2; an interior likelihood maximum exists exactly
    when ``beta0 > beta_c``, otherwise the fit degenerates to a Pareto
    boundary solution with exponent ``beta0``.
    """

    beta0: float
    beta_c: float
    s: float
    n: int

    @property
    def interior(self) -> bool:
        return self.beta0 > self.beta_c


# ---------------------------------------------------------------------------
# Densities, CDF, quantile, sampling
# ---------------------------------------------------------------------------

def ll_pdf(x, alpha: float, beta: float):
    """Untruncated log-logistic density."""
    _check_shape_scale(alpha, beta)
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise ValueError("ll_pdf requires x > 0")
    t = beta * (np.log(x) - np.log(alpha))
    out = np.exp(np.log(beta / alpha) + (1.0 - 1.0 / beta) * t - 2.0 * np.logaddexp(0.0, t))
    return out if out.ndim else float(out)


def ll_cdf(x, alpha: float, beta: float):
    """Untruncated log-logistic CDF, 1/(1 + (x/alpha)^-beta)."""
    _check_shape_scale(alpha, beta)
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise ValueError("ll_cdf requires x > 0")
    out = _logistic(beta * (np.log(x) - np.log(alpha)))[0]
    return out if out.ndim else float(out)


def ltll_logpdf(x, p: LTLLParams):
    """Log-density of the left-truncated log-logistic on (x_l, inf)."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= p.x_l):
        raise ValueError(f"ltll density requires x > x_l = {p.x_l}")
    la = np.log(p.alpha)
    t = p.beta * (np.log(x) - la)
    # The last term, ln(1 + (x_l/alpha)^beta), renormalizes for truncation.
    out = (np.log(p.beta / p.alpha) + (1.0 - 1.0 / p.beta) * t - 2.0 * np.logaddexp(0.0, t)
           + np.logaddexp(0.0, p.beta * (_log_xl(p.x_l) - la)))
    return out if out.ndim else float(out)


def ltll_pdf(x, p: LTLLParams):
    """Density of the left-truncated log-logistic: f(x) / (1 - F(x_l))."""
    out = np.exp(ltll_logpdf(x, p))
    return out if np.ndim(out) else float(out)


def ltll_cdf(x, p: LTLLParams):
    """CDF of the truncated distribution, (F(x) - F(x_l)) / (1 - F(x_l)).

    Evaluated as 1 - (1 + u_L)/(1 + u) with u = (x/alpha)^beta, which is the
    same algebraic quantity as the direct form (u - u_L)/(1 + u) but keeps
    full precision near both endpoints.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < p.x_l):
        raise ValueError(f"ltll_cdf requires x >= x_l = {p.x_l}")
    la = np.log(p.alpha)
    with np.errstate(divide="ignore"):  # x = x_l = 0 contributes ln 0 = -inf
        t = p.beta * (np.log(x) - la)
    tl = p.beta * (_log_xl(p.x_l) - la)
    # 0.0 - expm1 rather than -expm1, so that F(x_l) is +0.0 and not -0.0.
    out = 0.0 - np.expm1(np.logaddexp(0.0, tl) - np.logaddexp(0.0, t))
    return out if out.ndim else float(out)


def ltll_quantile(u, p: LTLLParams):
    """Inverse CDF: alpha * ((u + eta)/(1 - u))^(1/beta), eta = (x_l/alpha)^beta.

    Defined for u in [0, 1); u = 0 maps to the lower support endpoint x_l.
    """
    u = np.asarray(u, dtype=np.float64)
    if np.any(u < 0.0) or np.any(u >= 1.0):
        raise ValueError("ltll_quantile requires 0 <= u < 1")
    la = np.log(p.alpha)
    ln_eta = p.beta * (_log_xl(p.x_l) - la)
    with np.errstate(divide="ignore"):  # u = 0 contributes ln 0 = -inf
        ln_num = np.logaddexp(np.log(u), ln_eta)
    out = np.exp(la + (ln_num - np.log1p(-u)) / p.beta)
    # The exact quantile never falls below the support endpoint; float
    # round-trip through exp/log can, so clamp.
    out = np.maximum(out, p.x_l)
    return out if out.ndim else float(out)


def draw_ltll(n: int, p: LTLLParams, rng: RngStream) -> Sample:
    """n i.i.d. draws by inverse-transform sampling of uniform variates."""
    if n < 1:
        raise ValueError("n must be at least 1")
    v = ltll_quantile(rng.uniforms(n), p)
    # Tiny uniforms can round the quantile onto the truncation point itself.
    np.maximum(v, np.nextafter(p.x_l, np.inf), out=v)
    return Sample(v, p.x_l)


# ---------------------------------------------------------------------------
# Likelihood and score
# ---------------------------------------------------------------------------

def _loglik_batch(lx, sumlx, ln_xl, lnalpha, lnbeta):
    """Truncated log-likelihood for a batch of parameter states.

    lx: (B, n) log-data rows; lnalpha/lnbeta: (B,) parameter logs;
    ln_xl: the log truncation point (``_log_xl``, so -inf when x_l = 0) as
    one scalar or (B,) values, one per row, since a bank may pool samples
    truncated at different points or not at all.  Serves banks of MH chains;
    every single evaluation goes through ``_loglik_row``, which runs the same
    passes on one row, so both return the same bits.
    With t_i = beta*(ln x_i - ln alpha) and the symmetric form
    softplus(t) = max(t, 0) + log1p(e^-|t|), the sum collapses to

        n ln beta - sum ln x_i - sum |t_i| - 2 sum log1p(e^-|t_i|)
        + n softplus(t_L),

    which one scratch array evaluates in place; softplus(-inf) is exactly 0.
    """
    beta = np.exp(lnbeta)
    t = lx - lnalpha[:, None]
    np.abs(t, out=t)
    t *= -beta[:, None]
    s_abs = t.sum(axis=1)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    n = lx.shape[1]
    return (n * lnbeta - sumlx + s_abs - 2.0 * t.sum(axis=1)
            + n * np.logaddexp(0.0, beta * (ln_xl - lnalpha)))


def _loglik_row(lx, sumlx, ln_xl, lnalpha, lnbeta):
    """``_loglik_batch`` on one 1-d log-data row at float parameter logs.

    The passes and their order are those of the batch kernel, so the result
    equals that row of the batch bit for bit, without its per-row
    broadcasting: the one-chain MH loop, the Newton line search and
    ``log_likelihood`` call this once per evaluation.  It skips the zero
    truncation term at x_l = 0, whose ufunc calls cost a fifth of a small row.
    """
    beta = np.exp(lnbeta)
    t = lx - lnalpha
    np.abs(t, out=t)
    t *= -beta
    s_abs = t.sum()
    np.exp(t, out=t)
    np.log1p(t, out=t)
    ll = lx.size * lnbeta - sumlx + s_abs - 2.0 * t.sum()
    if ln_xl > -np.inf:
        ll += lx.size * np.logaddexp(0.0, beta * (ln_xl - lnalpha))
    return float(ll)


def log_likelihood(s: Sample, alpha: float, beta: float) -> float:
    """Log-likelihood of the truncated sample at (alpha, beta).

    Equals sum(ln ltll_pdf(x_i)); finite for every valid parameter pair.
    """
    _check_shape_scale(alpha, beta)
    return _loglik_row(s.log_values, s.sum_log, _log_xl(s.x_l), np.log(alpha), np.log(beta))


def _derivatives_z(lx, ln_xl, z):
    """Score and Hessian of the log-likelihood in z = (ln alpha, ln beta).

    lx: 1-d log-data; ln_xl: log truncation point, -inf when x_l = 0.
    With t_i = beta*(ln x_i - ln alpha), sigma_i = logistic(t_i) and
    w_i = sigma_i*(1 - sigma_i) (subscript L for the truncation point):

        g_a  = beta*(2 sum sigma_i - n - n sigma_L)
        g_b  = n + sum t_i - 2 sum sigma_i t_i + n sigma_L t_L
        H_aa = -2 beta^2 sum w_i + n beta^2 w_L
        H_ab = g_a + 2 beta sum w_i t_i - n beta w_L t_L
        H_bb = sum t_i - 2 sum (sigma_i t_i + w_i t_i^2) + n (sigma_L t_L + w_L t_L^2)

    At ln_xl = -inf the truncation terms take their limit 0, not 0 * inf.
    """
    n = lx.size
    beta = float(np.exp(z[1]))
    t = beta * (lx - z[0])
    sig, w = _logistic(t)
    wt = w * t
    s_t, s_sig, s_sigt = float(np.sum(t)), float(np.sum(sig)), float(sig @ t)
    s_w, s_wt, s_wtt = float(np.sum(w)), float(np.sum(wt)), float(wt @ t)
    t_l = beta * (ln_xl - z[0])
    sig_l, w_l = (float(v) for v in _logistic(t_l))
    t_l = t_l if t_l > -np.inf else 0.0  # x_l = 0: sig_l = w_l = 0
    g_a = beta * (2.0 * s_sig - n - n * sig_l)
    g_b = n + s_t - 2.0 * s_sigt + n * sig_l * t_l
    h_aa = beta * beta * (n * w_l - 2.0 * s_w)
    h_ab = g_a + beta * (2.0 * s_wt - n * w_l * t_l)
    h_bb = s_t - 2.0 * (s_sigt + s_wtt) + n * (sig_l * t_l + w_l * t_l * t_l)
    return np.array([g_a, g_b]), np.array([[h_aa, h_ab], [h_ab, h_bb]])


def score_gradient(s: Sample, alpha: float, beta: float):
    """Analytic score (d ell/d alpha, d ell/d beta) of the truncated sample.

    With t_i = beta*ln(x_i/alpha), sig the logistic function, and
    t_L = beta*ln(x_l/alpha):

        d ell/d alpha = (beta/alpha) * (-n + 2*sum sig(t_i) - n*sig(t_L))
        d ell/d beta  = (n + sum t_i - 2*sum sig(t_i)*t_i + n*sig(t_L)*t_L) / beta

    The truncation terms vanish as x_l -> 0.
    """
    _check_shape_scale(alpha, beta)
    g, _ = _derivatives_z(s.log_values, _log_xl(s.x_l), (np.log(alpha), np.log(beta)))
    return float(g[0] / alpha), float(g[1] / beta)


# ---------------------------------------------------------------------------
# Certified Taylor model of the log-likelihood
# ---------------------------------------------------------------------------

# Most log-data elements each (rows, n) temporary of the model's setup holds
# (256 KiB of float64); a larger bank is set up in blocks of rows.
_TAYLOR_ELEMENTS = 1 << 15
# The remainder's envelopes cover each box widened by this factor, so that a
# displacement rounded onto the box's edge stays covered.
_BOX_SLACK = 1.001
# The floating-point margin, in units of (n + 64) A (see _loglik_taylor):
# 2^-44 is 512 units of rounding.
_MARGIN_ULPS = 2.0 ** -44
# The packed model's monomials d_a^i d_b^j as (i, j): orders 0-4, whose rows
# hold the Taylor coefficients, then order 5, whose rows hold the remainder's
# weights; one more row holds the margin.
_MONOMIALS = tuple((i, order - i) for order in range(6) for i in range(order, -1, -1))
# The rows of the (6, 2, k) powers of d, flattened, that each packed row
# multiplies: d_a^i is row 2i and d_b^j row 2j + 1.
_FACTORS = np.array([[2 * i for i, _ in _MONOMIALS] + [0],
                     [2 * j + 1 for _, j in _MONOMIALS] + [1]])
# [lo, hi] of a bracket that claims nothing.
_UNBOUNDED = np.array([[-np.inf], [np.inf]])


@lru_cache(maxsize=None)
def _partial_terms(i: int, j: int):
    """d_a^i d_b^j of h(t(z)), t = e^(z_b) (x - z_a), for any smooth h and
    i + j >= 1, as terms (c, m, r) of beta^i sum c t^m h^(r)(t).

    Every partial is a sum of terms beta^p t^m h^(r); with d_a t = -beta,
    d_b t = t and d_b beta = beta,

        D_a(beta^p t^m h^(r)) = -m beta^(p+1) t^(m-1) h^(r) - beta^(p+1) t^m h^(r+1)
        D_b(beta^p t^m h^(r)) = (p + m) beta^p t^m h^(r) + beta^p t^(m+1) h^(r+1).

    D_a raises p by one and D_b keeps it, so every term ends with p = i.  The
    coefficients are integers, and like terms combine exactly.
    """
    terms = {(0, 0, 0): 1}
    for axis in (0,) * i + (1,) * j:
        out = defaultdict(int)
        for (p, m, r), c in terms.items():
            if axis == 0:
                out[p + 1, m - 1, r] -= m * c
                out[p + 1, m, r + 1] -= c
            else:
                out[p, m, r] += (p + m) * c
                out[p, m + 1, r + 1] += c
        terms = {key: c for key, c in out.items() if c}
    return tuple((c, m, r) for (_, m, r), c in sorted(terms.items()))


def _abs_t_range(lx, a0, ha, beta_lo, beta_hi):
    """(tau_lo, tau_hi), the range of |t| for t = beta (lx - z_a) over z_a in
    a0 -+ ha and beta in [beta_lo, beta_hi], per element of lx (rows, n) with
    the other arguments per row."""
    u_lo = lx - (a0 + ha)[:, None]
    u_hi = lx - (a0 - ha)[:, None]
    t_min = np.where(u_lo >= 0.0, beta_lo[:, None] * u_lo, beta_hi[:, None] * u_lo)
    t_max = np.where(u_hi >= 0.0, beta_hi[:, None] * u_hi, beta_lo[:, None] * u_hi)
    return np.maximum(np.maximum(t_min, -t_max), 0.0), np.maximum(t_max, -t_min)


def _peak_sums(tau_lo, tau_hi):
    """(rows, 6): sum over each row's elements of sup |t|^m e^-|t| over
    |t| in [tau_lo, tau_hi], m = 0-5; the sup lies at |t| = m, clipped."""
    out = np.empty((tau_lo.shape[0], 6))
    for m in range(6):
        x = np.clip(m, tau_lo, tau_hi)
        out[:, m] = np.sum(x ** m * np.exp(-x), axis=1)
    return out


def _loglik_taylor(lx, sumlx, z0, half):
    """Certified quartic model of the log-likelihood's data sum in
    z = (ln alpha, ln beta), packed for ``_taylor_bracket``.

    lx (B, n), sumlx (B,): rows as ``_loglik_batch`` takes them; z0 (2, B):
    each row's expansion point; half (2, B): the half-widths of its box
    |z - z0| <= half.  With f(t) = t - 2 softplus(t) the log-likelihood is
    the data sum n z_b - sum ln x_i + sum f(t_i) plus the normalizer
    n softplus(t_L).  The model covers the data sum alone, which is
    ``_loglik_batch`` at ln_xl = -inf; the normalizer, like the prior, is
    closed-form, and the caller adds it exactly.  With d = z - z0 the model
    is the Taylor polynomial of order 4 about z0, sum over i + j <= 4 of
    c_ij d_a^i d_b^j, and for every z in the box

        |data sum(z) - model(d)| <= sum_{i+j=5} r_ij |d_a|^i |d_b|^j + M.

    Order 0 is the kernel's own data sum at z0; orders 1-4 are data sums of
    the terms of ``_partial_terms``, each partial one of f's (plus n in d_b,
    from n z_b).  The order-5 remainder takes Lagrange's form: each order-5
    partial is bounded over the box term by term, each term by its sup over
    every value's range of |t|.  With w = sigma (1 - sigma) <= e^-|t|
    (w' = w (1 - 2 sigma), w'' = w (1 - 6 w), w''' = w' (1 - 12 w)):
    |f'| = tanh(|t|/2), |f^(r)| <= 2w for r = 2-4 and 4w for r = 5;
    |t|^m e^-|t| peaks at |t| = m, clipped to the range.

    M is the margin for floating-point error, of the kernel and of the
    bracket alike.  Each of the kernel's terms is formed with a relative
    error of a few units of rounding u and enters one sum once, and a sum of
    n terms errs by at most (n - 1) u times the sum of their magnitudes, so
    the kernel errs by less than (n + 64) u K, where K adds the magnitudes
    of its terms over the box.  The bracket forms lo and hi each as one
    signed sum of 22 terms: the 15 monomials of order 4 or less times c_ij,
    the magnitudes of the 6 of order 5 times -+ r_ij, and -+ M.  A monomial
    d_a^i d_b^j carries i + j roundings from d = z - z0, i - 1 and j - 1
    from the powers and one from their product, 2 (i + j) - 1 <= 9 in all;
    its weight adds one, and the sum, in whatever order, at most 21 more.
    So lo and hi each err by at most 31 u (1 + O(u)) (C + R + M), where C
    and R add the magnitudes of the terms of order 0-4 and of order 5 at the
    box's corner: the caller lets in no displacement beyond the box but by a
    few units of rounding.  The margin is M = _MARGIN_ULPS (n + 64) A =
    512 (n + 64) u A with A = K + C + R: (n + 64) u K + 31 u (C + R) is at
    most (n + 64) u A, which leaves 511 (n + 64) u A, far more than 31 u M.
    The count holds for the bracket's sums alone.  The step adds the truncation term and the
    prior to lo and hi with the kernel's own expressions, where rounding is
    monotone, and its quadratic and exact comparison are the lone loop's.

    Returns (2, 22, B), the weights of lo and of hi: one row per monomial
    d_a^i d_b^j of ``_MONOMIALS``, c_ij where i + j <= 4 and -+ r_ij where
    i + j = 5, then -+ M.
    """
    out = np.zeros((2, len(_MONOMIALS) + 1, lx.shape[0]))
    per = max(1, _TAYLOR_ELEMENTS // lx.shape[1])
    for r0 in range(0, lx.shape[0], per):
        block = slice(r0, r0 + per)
        out[:, :, block] = _taylor_block(lx[block], sumlx[block], z0[:, block], half[:, block])
    return out


def _taylor_block(lx, sumlx, z0, half):
    """``_loglik_taylor`` for one block of rows."""
    rows, n = lx.shape
    a0, b0 = z0
    ha, hb = half
    beta = np.exp(b0)
    row = {ij: k for k, ij in enumerate(_MONOMIALS)}
    weights = np.empty((len(_MONOMIALS) + 1, rows))  # c_ij, r_ij, then M
    weights[0] = _loglik_batch(lx, sumlx, -np.inf, a0, b0)

    # sums[k, m, r - 1]: sum over the data of t^m f^(r), for m = 0-4 and
    # r = 1-4; mags sums their magnitudes.  With w = sigma (1 - sigma),
    # f^(r) for r = 1-4 is -tanh(t/2), -2w, -2w (1 - 2 sigma) and -2w (1 - 6w).
    t = beta[:, None] * (lx - a0[:, None])
    sig, w = _logistic(t)
    f = np.stack((-np.tanh(0.5 * t), w, w * (1.0 - 2.0 * sig), w * (1.0 - 6.0 * w)))
    f[1:] *= -2.0
    tm = np.ones((5,) + t.shape)
    for m in range(1, 5):
        np.multiply(tm[m - 1], t, out=tm[m])
    sums = np.einsum("mkn,rkn->kmr", tm, f)
    mags = np.einsum("mkn,rkn->kmr", np.abs(tm, out=tm), np.abs(f, out=f))
    corner = np.abs(weights[0]) + n * hb
    for order in range(1, 5):
        for i in range(order + 1):
            j = order - i
            terms = _partial_terms(i, j)
            scale = beta ** i / (math.factorial(i) * math.factorial(j))
            weights[row[i, j]] = scale * sum(c * sums[:, m, r - 1] for c, m, r in terms)
            mag = sum(abs(c) * mags[:, m, r - 1] for c, m, r in terms)
            corner += scale * mag * ha ** i * hb ** j
    weights[row[0, 1]] += n  # from the term n z_b

    # Order 5 over the box, widened by _BOX_SLACK: envelopes of |f^(r)| per (m, r).
    ha, hb = _BOX_SLACK * ha, _BOX_SLACK * hb
    beta_lo, beta_hi = np.exp(b0 - hb), np.exp(b0 + hb)
    tau_lo, tau_hi = _abs_t_range(lx, a0, ha, beta_lo, beta_hi)
    peaks = _peak_sums(tau_lo, tau_hi)
    slope = np.einsum("mkn,kn->km", tau_hi ** np.arange(6)[:, None, None], np.tanh(0.5 * tau_hi))
    envelope = {1: slope, 2: 2.0 * peaks, 5: 4.0 * peaks}
    envelope[3] = envelope[4] = envelope[2]
    for i in range(6):
        j = 5 - i
        sup = beta_hi ** i * sum(abs(c) * envelope[r][:, m] for c, m, r in _partial_terms(i, j))
        weights[row[i, j]] = sup / (math.factorial(i) * math.factorial(j))
        corner += weights[row[i, j]] * ha ** i * hb ** j

    kernel = (n * np.maximum(np.abs(b0 - hb), np.abs(b0 + hb)) + np.abs(sumlx)
              + tau_hi.sum(axis=1) + 2.0 * n * math.log(2.0))
    weights[-1] = _MARGIN_ULPS * (n + 64) * (kernel + corner)
    model = np.stack((weights, weights))
    model[0, row[5, 0]:] *= -1.0
    return model


def _taylor_bracket(d, inside, model):
    """[lo, hi] (2, k) on the kernel's data sum of k rows at displacements
    d (2, k) from their expansion points, from the rows' packed models
    (2, 22, k) of ``_loglik_taylor``.  A row not ``inside`` (k,), the
    caller's test that d lies in the row's box, gets [-inf, inf].  The powers of d run along the outer axis, one gather pairs
    them into the packed monomials (the margin's is 1 * 1), and one dot sums
    lo and hi."""
    powers = np.empty((6,) + d.shape)
    powers[0] = 1.0
    powers[1] = d
    for p in range(2, 6):
        np.multiply(powers[p - 1], d, out=powers[p])
    mono = powers.reshape(12, -1)[_FACTORS]
    mono = mono[0] * mono[1]
    np.abs(mono[-7:], out=mono[-7:])  # order 5, and the margin's 1
    return np.where(inside, np.einsum("smk,mk->sk", model, mono), _UNBOUNDED)


# ---------------------------------------------------------------------------
# Existence statistics and profile objective
# ---------------------------------------------------------------------------

# The Newton iteration for beta_C converges in under a dozen steps; the cap
# only guarantees that the loop ends.
_BETA_C_MAX_STEPS = 200


def existence_stats(s: Sample) -> ExistenceStats:
    """Interior-maximum criterion statistics for a sample with x_l > 0.

    The data are first normalized by the truncation point; both statistics
    are invariant under common rescaling of values and x_l.  The log-gaps
    ln(x_i/x_l) are formed as log1p((x_i - x_l)/x_l), which keeps a few ulps
    of relative precision however closely the values hug x_l.  Raises
    :class:`DegenerateSampleError` when the sample has fewer than two
    distinct values, or when at least half its log-gaps sit within the
    rounding error of the log values the likelihood works with: those values
    cannot tell such points from x_l, and mean(X^-beta) would not fall below
    1/2 until beta is a multiple of 1/eps.
    """
    if s.x_l <= 0.0:
        raise ValueError("existence statistics require x_l > 0")
    if s.n_distinct < 2:
        raise DegenerateSampleError("need at least two distinct values")
    lw = np.log1p((s.values - s.x_l) / s.x_l)
    resolution = 4.0 * np.finfo(np.float64).eps * (1.0 + abs(np.log(s.x_l)))
    if 2 * int(np.count_nonzero(lw <= resolution)) >= s.n:
        raise DegenerateSampleError(
            "at least half the values are indistinguishable from x_l in log space")
    total = float(np.sum(lw))
    return ExistenceStats(beta0=s.n / total, beta_c=_beta_c(lw), s=total, n=s.n)


def _beta_c(lw) -> float:
    """beta_C, the root of mean(e^(-b*lw)) = 1/2, from positive log-gaps lw.

    h(b) = mean(e^(-b*lw)) - 1/2 is convex and decreasing with h(0) = 1/2,
    so Newton steps from b = 0 rise monotonically toward the root and never
    overshoot it: no bracket is needed.
    """
    b = 0.0
    for _ in range(_BETA_C_MAX_STEPS):
        e = np.exp(-b * lw)
        step = (float(np.mean(e)) - 0.5) / float(np.mean(lw * e))
        b += step
        if abs(step) <= 1e-14 * b:
            return b
    raise DegenerateSampleError("mean(X^-beta) = 1/2 did not converge")


def phi_objective(lam: float, beta: float, s: Sample) -> float:
    """Profile objective in (lambda, beta) for a truncation-normalized sample.

    phi(lambda, beta) = N ln(1 + 1/lambda) + N ln beta - N ln lambda
                        + beta*S - 2*sum ln(1 + X_i^beta / lambda)

    with S = sum ln X_i.  Under lambda = alpha^beta it equals the
    log-likelihood plus the constant S, so both surfaces share their maxima.
    The sample is normalized to x_l = 1 internally when needed.
    """
    if not (np.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lambda must be a finite positive real, got {lam}")
    _check_shape_scale(1.0, beta)
    w = s if s.x_l == 1.0 else s.normalized()
    lw = w.log_values
    n = w.n
    ln_lam = np.log(lam)
    total = float(np.sum(lw))
    return float(
        n * np.logaddexp(0.0, -ln_lam) + n * np.log(beta) - n * ln_lam + beta * total
        - 2.0 * float(np.sum(np.logaddexp(0.0, beta * lw - ln_lam)))
    )


def mc_moments(p: LTLLParams, n_draws: int, rng: RngStream):
    """Monte Carlo (mean, variance, skewness, kurtosis) of the distribution.

    Variance uses the n-1 denominator; skewness and kurtosis are the third
    and fourth central moments standardized by the population variance
    (kurtosis is plain, not excess).  Closed-form truncated moments are not
    used anywhere in the package; the k-th moment is only meaningful when
    beta > k, and heavy-tail instability for small shapes is the caller's to
    interpret.
    """
    if n_draws < 4:
        raise ValueError(f"need at least 4 draws, got {n_draws}")
    # Plain numpy: the package's runtime needs numpy and the standard library only.
    x = draw_ltll(n_draws, p, rng).values
    mean = float(np.mean(x))
    d = x - mean
    m2 = float(np.mean(d * d))
    return (mean, float(np.sum(d * d) / (x.size - 1)), float(np.mean(d**3)) / m2**1.5,
            float(np.mean(d**4)) / (m2 * m2))
