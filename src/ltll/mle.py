"""Maximum-likelihood fitting of the truncated log-logistic.

The fit first evaluates the interior-maximum criterion on truncation-
normalized data (``beta0 > beta_c``).  When it holds, the log-likelihood is
maximized over (ln alpha, ln beta) by damped Newton with the analytic score
and Hessian, started from (ln median, ln beta0); when it fails, the
likelihood supremum sits on the boundary where the model degenerates to a
Pareto density with exponent ``beta0`` and the scale is no longer identified.

Newton works on the log-data minus ln x_l (minus the log median when
x_l = 0): unit-free coordinates, with no rescaled copy of the sample.

Uncertainty comes from the observed information (the analytic negative
Hessian of the log-likelihood at the estimate): Wald intervals per parameter
and joint confidence ellipses at the chi-squared(2 dof) threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distribution import (
    DegenerateSampleError,
    ExistenceStats,
    LTLLParams,
    Sample,
    _derivatives_z,
    _loglik_row,
    existence_stats,
    log_likelihood,
)
from .numerics import SymMatrix2, chi2_quantile_2dof, normal_quantile

__all__ = [
    "BoundaryFitError",
    "EllipsePoints",
    "MleFit",
    "confidence_ellipse",
    "fit_mle",
    "observed_information",
    "wald_intervals",
]

# Stationarity target: interior fits must satisfy ||score|| < SCORE_TOL*(1+|ll|).
SCORE_TOL = 1e-5
# Newton stops at ||score in z|| <= _NEWTON_TOL*(1 + |ll|) on the working scale.
_NEWTON_TOL = 1e-8
_MAX_NEWTON = 100
_MAX_HALVINGS = 40
# Largest Newton move per coordinate of z, so a far start cannot overflow e^z.
_MAX_STEP = 3.0


class BoundaryFitError(RuntimeError):
    """Raised when an operation needs an interior fit but got a boundary one."""


@dataclass(frozen=True)
class MleFit:
    """Result of a maximum-likelihood fit, in the data's original units.

    ``boundary`` marks the Pareto degeneration (``beta0 <= beta_c``): then
    ``beta`` is the boundary exponent beta0, ``alpha`` is None (the scale is
    not identified in the limit), and no information matrix or intervals are
    available.
    """

    alpha: float | None
    beta: float
    x_l: float
    n: int
    boundary: bool
    loglik: float
    info: SymMatrix2 | None
    ci_alpha: tuple[float, float] | None
    ci_beta: tuple[float, float] | None
    converged: bool
    iterations: int
    score_norm: float
    stats: ExistenceStats | None

    @property
    def params(self) -> LTLLParams:
        if self.boundary:
            raise BoundaryFitError("boundary (Pareto) fit has no scale parameter")
        return LTLLParams(self.alpha, self.beta, self.x_l)


@dataclass(frozen=True)
class EllipsePoints:
    """Closed level-set curve of a quadratic form around a center point.

    Points are ordered by angle at equal angular spacing; consumers close the
    curve by joining the last point back to the first.  Every point satisfies
    (theta - center)^T matrix (theta - center) = threshold.
    """

    center: tuple[float, float]
    points: np.ndarray
    level: float
    matrix: SymMatrix2
    threshold: float

    @property
    def area(self) -> float:
        """Exact area enclosed by the ellipse."""
        return np.pi * self.threshold / np.sqrt(self.matrix.det())

    def polygon_area(self) -> float:
        """Shoelace area of the emitted polygon (approaches ``area``)."""
        x, y = self.points[:, 0], self.points[:, 1]
        return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _newton_ascent(lx, ln_xl, z):
    """Damped Newton on the log-likelihood in z = (ln alpha, ln beta).

    A Levenberg shift makes the step an ascent direction wherever -H is not
    positive-definite, and steps are capped at _MAX_STEP per coordinate.  A
    full step passes unless the log-likelihood decreases (near the optimum
    rounding can make it look slightly worse); a halved step must gain
    strictly, or Newton stops rather than repeat a null step.  Stops once
    ||g|| <= _NEWTON_TOL*(1 + |ll|).  Returns (z, iterations, g, H) with the
    score and Hessian at the final z, which do not change with units.
    """
    sumlx = float(np.sum(lx))

    def loglik(zz):
        return _loglik_row(lx, sumlx, ln_xl, zz[0], zz[1])

    z = np.asarray(z, dtype=np.float64)
    ll = loglik(z)
    for it in range(_MAX_NEWTON + 1):
        g, h = _derivatives_z(lx, ln_xl, z)
        if it == _MAX_NEWTON or not np.linalg.norm(g) > _NEWTON_TOL * (1.0 + abs(ll)):
            return z, it, g, h
        m = -h
        mid = 0.5 * (m[0, 0] + m[1, 1])
        lam_min = mid - math.hypot(0.5 * (m[0, 0] - m[1, 1]), m[0, 1])
        floor = 1e-8 * (abs(m[0, 0]) + abs(m[1, 1])) or 1.0
        if not lam_min > floor:
            m = m + (floor - lam_min) * np.eye(2)
        step = np.linalg.solve(m, g)
        if not np.all(np.isfinite(step)):
            break
        step *= min(1.0, _MAX_STEP / np.max(np.abs(step)))
        for k in range(_MAX_HALVINGS):
            ll_new = loglik(z + step)
            if ll_new > ll or (k == 0 and ll_new == ll):
                break
            step *= 0.5
        else:
            break
        z, ll = z + step, ll_new
    return z, it + 1, g, h


def _start_point(s: Sample, ln_scale: float, stats: ExistenceStats | None):
    """(ln median, ln beta0) in working coordinates; beta from the IQR when x_l = 0."""
    lmed = math.log(float(np.median(s.values))) - ln_scale
    if stats is not None:
        return lmed, math.log(stats.beta0)
    # Untruncated: shape guess from the interquartile ratio (q75/q25 = 9^(1/beta)).
    q25, q75 = np.quantile(s.values, [0.25, 0.75])
    b_iqr = np.log(9.0) / np.log(q75 / q25) if q75 > q25 else 1.0
    return lmed, math.log(b_iqr)


def fit_mle(s: Sample) -> MleFit:
    """Maximum-likelihood estimate of (alpha, beta) for a truncated sample.

    Newton runs on the log-data minus ln x_l (minus the log sample median
    when x_l = 0, where the existence gate does not apply); no rescaled copy
    is made, and its final score and Hessian give the score norm and the
    information.  Boundary samples return a flagged Pareto fit instead of
    raising.
    """
    if s.n_distinct < 2:
        raise DegenerateSampleError("need at least two distinct values to fit")

    if s.x_l > 0.0:
        scale = s.x_l
        stats = existence_stats(s)
        if not stats.interior:
            beta0 = stats.beta0
            # Pareto limit on x > x_l: density beta/x_l * (x/x_l)^-(beta+1).
            loglik = s.n * np.log(beta0) - s.n * np.log(s.x_l) - (beta0 + 1.0) * stats.s
            return MleFit(
                alpha=None, beta=beta0, x_l=s.x_l, n=s.n, boundary=True,
                loglik=float(loglik), info=None, ci_alpha=None, ci_beta=None,
                converged=True, iterations=0, score_norm=np.nan, stats=stats,
            )
        ln_xl = 0.0  # the working truncation point is 1
    else:
        scale = float(np.median(s.values))
        stats = ln_xl = None

    ln_scale = math.log(scale)
    z, iterations, g, h = _newton_ascent(s.log_values - ln_scale, ln_xl,
                                         _start_point(s, ln_scale, stats))
    alpha = float(np.exp(z[0])) * scale
    beta = float(np.exp(z[1]))
    loglik = log_likelihood(s, alpha, beta)
    score_norm = math.hypot(g[0] / alpha, g[1] / beta)
    info = _information(g, h, alpha, beta)
    fit = MleFit(
        alpha=alpha, beta=beta, x_l=s.x_l, n=s.n, boundary=False,
        loglik=loglik, info=info, ci_alpha=None, ci_beta=None,
        converged=score_norm < SCORE_TOL * (1.0 + abs(loglik)),
        iterations=iterations, score_norm=score_norm, stats=stats,
    )
    if not info.is_positive_definite:
        return fit
    ci_alpha, ci_beta = wald_intervals(fit, 0.05)
    return replace(fit, ci_alpha=ci_alpha, ci_beta=ci_beta)


# ---------------------------------------------------------------------------
# Uncertainty
# ---------------------------------------------------------------------------

def observed_information(s: Sample, theta) -> SymMatrix2:
    """Observed information: negative Hessian of the log-likelihood at theta.

    Analytic, from the Hessian H_z and score g_z in z = (ln alpha, ln beta):
    J = -D^-1 (H_z - diag g_z) D^-1 with D = diag(alpha, beta).  Positive
    definiteness is the caller's concern: an indefinite result flags a
    near-boundary or misconverged estimate.
    """
    alpha, beta = float(theta[0]), float(theta[1])
    ln_xl = None if s.x_l == 0.0 else math.log(s.x_l)
    g, h = _derivatives_z(s.log_values, ln_xl, (math.log(alpha), math.log(beta)))
    return _information(g, h, alpha, beta)


def _information(g, h, alpha: float, beta: float) -> SymMatrix2:
    """-D^-1 (H_z - diag g_z) D^-1, D = diag(alpha, beta): information from z derivatives."""
    d = np.array([alpha, beta])
    return SymMatrix2.from_array((np.diag(g) - h) / np.outer(d, d))


def wald_intervals(fit: MleFit, gamma: float = 0.05):
    """Wald confidence intervals at level 1-gamma, clipped at zero.

    theta_i +/- z_(1-gamma/2) * sqrt((J^-1)_ii) with J the observed
    information of the full-sample log-likelihood.
    """
    if fit.boundary:
        raise BoundaryFitError("Wald intervals are unavailable for a boundary (Pareto) fit")
    if fit.info is None or not fit.info.is_positive_definite:
        raise ValueError("observed information is not positive-definite")
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    z = float(normal_quantile(1.0 - gamma / 2.0))
    inv = fit.info.inverse()
    se_a, se_b = math.sqrt(inv.a11), math.sqrt(inv.a22)
    ci_alpha = (max(0.0, fit.alpha - z * se_a), fit.alpha + z * se_a)
    ci_beta = (max(0.0, fit.beta - z * se_b), fit.beta + z * se_b)
    return ci_alpha, ci_beta


def _trace_ellipse(center, matrix: SymMatrix2, threshold: float, n_points: int,
                   level: float) -> EllipsePoints:
    if n_points < 3:
        raise ValueError("need at least 3 points to trace an ellipse")
    w, vecs = matrix.eigh()
    if w[1] <= 0.0:
        raise ValueError("quadratic form matrix is not positive-definite")
    radii = np.sqrt(threshold / w)
    phi = 2.0 * np.pi * np.arange(n_points) / n_points
    circ = np.stack([radii[0] * np.cos(phi), radii[1] * np.sin(phi)])
    pts = (vecs @ circ).T + np.asarray(center)
    return EllipsePoints(center=(float(center[0]), float(center[1])),
                         points=pts, level=level, matrix=matrix, threshold=threshold)


def confidence_ellipse(fit: MleFit, gamma: float = 0.05, n_points: int = 256) -> EllipsePoints:
    """Joint Wald confidence ellipse at level 1-gamma.

    The level set (theta - theta_hat)^T J (theta - theta_hat) = q, with J the
    full-sample observed information and q the chi-squared(2 dof) quantile at
    1-gamma, traced through the eigendecomposition of J.  With n_points = 4
    the trace degenerates to the four extreme points on the principal axes.
    """
    if fit.boundary:
        raise BoundaryFitError("confidence ellipse is unavailable for a boundary (Pareto) fit")
    if fit.info is None or not fit.info.is_positive_definite:
        raise ValueError("observed information is not positive-definite")
    threshold = chi2_quantile_2dof(1.0 - gamma)
    return _trace_ellipse((fit.alpha, fit.beta), fit.info, threshold, n_points, 1.0 - gamma)
