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

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

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

def _softplus(t):
    """ln(1 + e^t), stable for any real t (returns an array, 0-d for scalars)."""
    t = np.asarray(t, dtype=np.float64)
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _logistic(t):
    """1 / (1 + e^-t), stable for any real t (returns an array, 0-d for scalars)."""
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


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

    @property
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
    out = np.exp(np.log(beta / alpha) + (1.0 - 1.0 / beta) * t - 2.0 * _softplus(t))
    return out if out.ndim else float(out)


def ll_cdf(x, alpha: float, beta: float):
    """Untruncated log-logistic CDF, 1/(1 + (x/alpha)^-beta)."""
    _check_shape_scale(alpha, beta)
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise ValueError("ll_cdf requires x > 0")
    out = _logistic(beta * (np.log(x) - np.log(alpha)))
    return out if out.ndim else float(out)


def _trunc_log_factor(p: LTLLParams) -> float:
    """ln(1 + (x_l/alpha)^beta), the log of the truncation renormalizer."""
    if p.x_l == 0.0:
        return 0.0
    return float(_softplus(p.beta * (np.log(p.x_l) - np.log(p.alpha))))


def ltll_logpdf(x, p: LTLLParams):
    """Log-density of the left-truncated log-logistic on (x_l, inf)."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= p.x_l):
        raise ValueError(f"ltll density requires x > x_l = {p.x_l}")
    t = p.beta * (np.log(x) - np.log(p.alpha))
    out = (np.log(p.beta / p.alpha) + (1.0 - 1.0 / p.beta) * t
           - 2.0 * _softplus(t) + _trunc_log_factor(p))
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
    t = p.beta * (np.log(x) - la)
    tl = -np.inf if p.x_l == 0.0 else p.beta * (np.log(p.x_l) - la)
    out = -np.expm1(_softplus(tl) - _softplus(t))
    return out if out.ndim else float(out)


def ltll_quantile(u, p: LTLLParams):
    """Inverse CDF: alpha * ((u + eta)/(1 - u))^(1/beta), eta = (x_l/alpha)^beta.

    Defined for u in [0, 1); u = 0 maps to the lower support endpoint x_l.
    """
    u = np.asarray(u, dtype=np.float64)
    if np.any(u < 0.0) or np.any(u >= 1.0):
        raise ValueError("ltll_quantile requires 0 <= u < 1")
    la = np.log(p.alpha)
    ln_eta = -np.inf if p.x_l == 0.0 else p.beta * (np.log(p.x_l) - la)
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

def _loglik_batch(lx, sumlx, n, ln_xl, lnalpha, lnbeta):
    """Truncated log-likelihood for a batch of parameter states.

    lx: (B, n) log-data rows; lnalpha/lnbeta: (B,) parameter logs;
    ln_xl: scalar log truncation point or None when x_l = 0.  Shared by the
    public scalar API and the MCMC hot loop so both evaluate one code path.
    """
    beta = np.exp(lnbeta)
    t = lx - lnalpha[:, None]
    t *= beta[:, None]
    pos = np.maximum(t, 0.0)
    np.abs(t, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    t += pos
    s1 = t.sum(axis=1)
    ll = n * lnbeta + (beta - 1.0) * sumlx - n * beta * lnalpha - 2.0 * s1
    if ln_xl is not None:
        ll = ll + n * _softplus(beta * (ln_xl - lnalpha))
    return ll


def log_likelihood(s: Sample, alpha: float, beta: float) -> float:
    """Log-likelihood of the truncated sample at (alpha, beta).

    Equals sum(ln ltll_pdf(x_i)); finite for every valid parameter pair.
    """
    _check_shape_scale(alpha, beta)
    ln_xl = None if s.x_l == 0.0 else np.log(s.x_l)
    ll = _loglik_batch(
        s.log_values[None, :], np.array([s.sum_log]), s.n, ln_xl,
        np.array([np.log(alpha)]), np.array([np.log(beta)]),
    )
    return float(ll[0])


def score_gradient(s: Sample, alpha: float, beta: float):
    """Analytic score (d ell/d alpha, d ell/d beta) of the truncated sample.

    With t_i = beta*ln(x_i/alpha), sig the logistic function, and
    t_L = beta*ln(x_l/alpha):

        d ell/d alpha = (beta/alpha) * (-n + 2*sum sig(t_i) - n*sig(t_L))
        d ell/d beta  = n/beta + sum d_i - 2*sum sig(t_i)*d_i + n*sig(t_L)*d_L

    where d_i = ln(x_i/alpha).  The truncation terms vanish as x_l -> 0.
    """
    _check_shape_scale(alpha, beta)
    la = np.log(alpha)
    d = s.log_values - la
    sig = _logistic(beta * d)
    n = s.n
    if s.x_l > 0.0:
        dl = np.log(s.x_l) - la
        sig_l = float(_logistic(beta * dl))
    else:
        dl = 0.0
        sig_l = 0.0
    d_alpha = (beta / alpha) * (-n + 2.0 * float(np.sum(sig)) - n * sig_l)
    d_beta = (n / beta + float(np.sum(d)) - 2.0 * float(np.sum(sig * d))
              + n * sig_l * dl)
    return float(d_alpha), float(d_beta)


# ---------------------------------------------------------------------------
# Existence statistics and profile objective
# ---------------------------------------------------------------------------

def existence_stats(s: Sample) -> ExistenceStats:
    """Interior-maximum criterion statistics for a sample with x_l > 0.

    The data are first normalized by the truncation point; both statistics
    are invariant under common rescaling of values and x_l.  Raises
    :class:`DegenerateSampleError` when the sample has fewer than two
    distinct values, or when its log-gaps above x_l round to zero so often
    that mean(X^-beta) never falls below 1/2.
    """
    if s.x_l <= 0.0:
        raise ValueError("existence statistics require x_l > 0")
    if s.n_distinct < 2:
        raise DegenerateSampleError("need at least two distinct values")
    lw = s.log_values - np.log(s.x_l)
    total = float(np.sum(lw))
    if not total > 0.0:
        raise DegenerateSampleError("values are indistinguishable from x_l in log space")
    beta0 = s.n / total

    def half_gap(b):
        return float(np.mean(np.exp(-b * lw))) - 0.5

    # half_gap falls from 1/2 at b = 0 toward (share of zero log-gaps) - 1/2,
    # so doubling from the data's own scale beta0 brackets the root if any.
    lo, hi = 0.0, beta0
    while half_gap(hi) >= 0.0:
        lo, hi = hi, 2.0 * hi
        if not np.isfinite(hi):
            raise DegenerateSampleError(
                "mean(X^-beta) = 1/2 has no root: at least half the log-gaps round to zero")
    beta_c = brentq(half_gap, lo, hi, xtol=1e-12)
    return ExistenceStats(beta0=beta0, beta_c=beta_c, s=total, n=s.n)


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
        n * _softplus(-ln_lam) + n * np.log(beta) - n * ln_lam + beta * total
        - 2.0 * float(np.sum(_softplus(beta * lw - ln_lam)))
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
    # Plain numpy rather than scipy.stats.describe: importing scipy.stats
    # roughly doubles the package's cold import time.
    x = draw_ltll(n_draws, p, rng).values
    mean = float(np.mean(x))
    d = x - mean
    m2 = float(np.mean(d * d))
    return (mean, float(np.sum(d * d) / (x.size - 1)), float(np.mean(d**3)) / m2**1.5,
            float(np.mean(d**4)) / (m2 * m2))
