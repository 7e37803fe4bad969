"""Bayesian inference for the truncated log-logistic via Metropolis-Hastings.

Independent Gamma priors on scale and shape combine with the truncated
likelihood into an unnormalized posterior.  Sampling uses a Gaussian random
walk on z = (ln alpha, ln beta): the log transform keeps proposals positive
and makes them symmetric, at the cost of a Jacobian term ln(alpha* beta* /
(alpha beta)) in the acceptance ratio.  A walk step proposes z + s L eps
from two normals eps, with one scale s per chain; eps comes from two of the
chain's uniforms u0, u1 by the Box-Muller transform (Box & Muller 1958),
sqrt(-2 ln u0) (cos 2 pi u1, sin 2 pi u1).  A chain with a Laplace
record (below: every screened chain, and every gated chain of at least
_LAPLACE_WALK_MIN_N values) takes L from it, the Cholesky factor of
(-H)^-1, so its walk follows the posterior correlation of ln alpha and
ln beta, and starts s at _WALK_SCALE: the adaptive Metropolis of Haario,
Saksman & Tamminen (2001) with the covariance taken from the Laplace fit,
at the scale of Roberts & Rosenthal (2001).  Every other chain has
L = (1, 0, 1), walks diagonally, and starts s at _DIAGONAL_SCALE.  Every
chain adapts its one scale during burn-in (targeting acceptance in
[0.2, 0.5]; Andrieu & Thoms 2008) and freezes it afterwards so the retained
draws come from a fixed kernel.

A chain's Laplace record comes from the MLE of its sample, never from its
start, so its kernel is a function of its sample and fit alone.  Chains of
at least _SCREEN_MIN_N values whose fit is interior with positive-definite
information run delayed-acceptance MH (Christen & Fox 2005, "MCMC using an
approximation").  Stage 1 prices a proposal on q, the Laplace quadratic of
the log-target about the MLE, and passes it when ln u < min(0, dq).  Only
proposals that pass this stage-1 screen go on to stage 2, which accepts when
ln u < min(0, dq) + min(0, dpi - dq).  Given a pass, u / e^min(0, dq) is
uniform on (0, 1), so the one accept uniform serves both stages and a step
still consumes three uniforms.  The two-stage kernel is reversible with
respect to the exact posterior whatever q is: a poor quadratic costs mixing,
never correctness.  The quadratic screens small, skewed samples too poorly
to pay off.  Every other chain (small samples, boundary fits) runs plain
MH, ln u < dpi, bit for bit.

A screened bank decides most of stage 2 without the likelihood.  Each of
its chains with a record carries a certified Taylor model of its
log-likelihood's data sum (``distribution._loglik_taylor``, after the
Taylor proxies with bounded remainder of Bardenet, Doucet & Holmes 2017,
"On MCMC methods for tall data"): the quartic about the Laplace centre,
exact in its coefficients, with a bound on the order-5 remainder over a box
of _TAYLOR_SDS Laplace standard deviations per axis and a margin for
floating-point error, packed so that one gather and one dot bracket a whole
bank's proposals inside their Laplace ellipses of _TAYLOR_SDS.  The
truncation normalizer n ln(1 + (x_L/alpha)^beta) and the prior are
closed-form, and each step adds them to the bracket exactly, as the kernel
adds them.  The box sits where the chain runs, under an informative prior as
under a flat one, and the bracket is certified wherever it is centred.
Stage 2's threshold is monotone in both targets, so a bracket on each
settles every step whose ln u lies outside the bracket's thresholds, the
same way the exact comparison would; only the undecided rest reaches the
kernel.  The draws, and every output byte, are those of the exact kernel,
which the lone loop ``_mh_one`` runs on every step as the reference.

Below _SCREEN_MIN_N the same quadratic serves a chain as an independence
proposal instead (Tierney 1994, "Markov chains for exploring posterior
distributions").  A gated chain, one with a record whose sample is
untruncated or clears beta0/beta_C >= _MIX_MIN_RATIO, alternates a fixed
cycle: odd steps are the walk, even steps propose y = c + L w independently
of the state, where L L^T = (-H)^-1 and w = eps * sqrt(2 / W) is a
bivariate t with 2 degrees of freedom (eps two normals, W = -2 ln u a
chi-squared with 2).  Up to a constant its log density is
ln g(y) = -2 ln(1 - q(y)), and the step accepts when
ln u < dpi + ln g(x) - ln g(y).  Each kernel leaves the posterior invariant,
so the cycle does too; the walk keeps the chain ergodic where the t fits
poorly, and it adapts on its own acceptances, 50 per 100-step window.
Below _LAPLACE_WALK_MIN_N values the Laplace shape fits the skewed posterior
too poorly to steer the walk, so there the cycle walks diagonally.
Every other chain below the floor walks alone, as above.

Two loops run the chains.  A lone chain (``_mh_one``) steps on Python
floats and calls numpy only for its likelihood and exponentials, and for
work done once per block of steps: at one chain a vectorized step is
interpreter-bound.  A bank (``_mh_bank``, the simulation harness's banks)
steps vectorized across its chains.  Both take the same floating-point
steps in the same order, and where the bank's bracket settles a step it
settles it as the lone loop's comparison does; every chain draws from its
own counter-based stream, and both gates read only their own chain's fit,
so results never depend on how chains are grouped or scheduled.  ``run_chain`` runs each
chain alone, spread over the usable CPUs (``_pooled``).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .distribution import (_UNBOUNDED, Sample, _log_xl, _loglik_batch, _loglik_row,
                           _loglik_taylor, _taylor_bracket, log_likelihood)
from .mle import EllipsePoints, MleFit, _trace_ellipse, fit_mle
# normal_quantile goes unused here; the benchmark tracer rebinds it by this name.
from .numerics import RngStream, SymMatrix2, chi2_quantile_2dof, normal_quantile

__all__ = [
    "McmcConfig",
    "PosteriorResult",
    "PriorSpec",
    "credible_ellipse",
    "credible_intervals",
    "log_posterior",
    "log_prior",
    "marginal_beta_log_kernel",
    "posterior_density_grid",
    "run_chain",
    "summarize_draws",
]

_ADAPT_WINDOW = 100
_ADAPT_FACTOR = 1.1
_STEP_BOUNDS = (1e-6, 10.0)
# Start of the one walk scale s of a chain that walks along its Laplace
# factor L, proposing z + s L eps; s then adapts like any step.  Measured on
# the sweep's bank (100 screened chains, n = 1000 at x_L 0.1 and 1.0, default
# chain), seeds 1-10 against the diagonal walk: starts 2.38 to 3.0 all gave
# summed min-ESS x1.25-1.26, while full evaluations fell steadily with the
# start, from +3.3% at 2.38 to +2.0% at 3.0 (s settles near 1.8-1.9 either
# way).  Held-out seed 7919: ESS x1.25 at 2.38 and x1.23 at 3.0, evaluations
# +5.2% and +3.4%.  The textbook 2.38 / sqrt(2) = 1.68 never adapts (window
# acceptance 0.35) and costs +17% evaluations for the same ESS (seeds 1-3).
_WALK_SCALE = 3.0
# Start of the walk scale s of a chain that walks diagonally, proposing z + s eps.
_DIAGONAL_SCALE = 0.1
_RNG_BLOCK = 512
# Most log-data elements one kernel call reads when a block's independence
# proposals are priced together (256 KiB of float64).
_PRICE_ELEMENTS = 1 << 15
# Smallest sample whose chains are screened by a Laplace quadratic; smaller
# samples use the quadratic for independence proposals.
_SCREEN_MIN_N = 500
# Half-width, in Laplace standard deviations per axis, of the box about the
# Laplace centre where a screened bank's Taylor model of the log-likelihood
# is certified; a step uses the model within the Laplace ellipse of this
# radius, which the box holds (``_taylor_models``).
_TAYLOR_SDS = 6.0
# Least beta0/beta_C of a truncated sample below _SCREEN_MIN_N whose chains
# take independence steps: nearer the Pareto boundary the posterior grows a
# ridge toward alpha -> 0 that the t proposal covers poorly.  Measured with
# the default chain: below 1.02 the cycle lost min-ESS on 9 of 10 samples
# (independence acceptance near 0 below 1.005); from 1.02 up it gained
# x2.7 (geometric mean) on 117 random samples of n 12-486.
_MIX_MIN_RATIO = 1.02
# Smallest sample whose gated chains walk along their Laplace factor; below
# it their cycle keeps the diagonal walk.  Measured on 36 random gated
# samples of n 13-28 (two default chains from the MLE): with the walk along
# L the cycle lost min-ESS to the diagonal walk alone on 9 (x0.22-0.98) and
# to the cycle with the diagonal walk on 19 (geometric mean x0.88, summed
# x1.05); the cycle with the diagonal walk lost to the walk alone on 5 and
# gained x2.17 summed, so a floor on the cycle itself would cost more.
# On 36 samples of n 36-482 the walk along L held even (x1.02).
_LAPLACE_WALK_MIN_N = 30
# Fewest retained draws that quantile intervals and density grids accept.
MIN_DRAWS = 100


@dataclass(frozen=True)
class PriorSpec:
    """Independent Gamma(shape, rate) priors on alpha and beta.

    Rate parameterization: density proportional to x^(a-1) e^(-b x).
    """

    a1: float
    b1: float
    a2: float
    b2: float

    def __post_init__(self):
        for name in ("a1", "b1", "a2", "b2"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"prior hyperparameter {name} must be positive, got {v}")

    @classmethod
    def diffuse(cls) -> "PriorSpec":
        """Proper, near-flat default: Gamma(1, 0.01) on both parameters.

        The density is proportional to e^(-0.01 x): bounded and essentially
        constant over the parameter ranges that arise in practice.  Shape
        values below 1 are deliberately avoided for the default: they put a
        x^(a-1) spike at zero, and because left truncation keeps the
        likelihood bounded away from zero along the Pareto ray alpha -> 0,
        such a spike would inject a spurious posterior mode at the origin.
        """
        return cls(1.0, 0.01, 1.0, 0.01)


@dataclass(frozen=True)
class McmcConfig:
    """Metropolis-Hastings run settings.

    Each chain's walk scale starts at a module constant (see ``_mh_chains``)
    and is rescaled by x1.1 every 100 burn-in iterations while the window
    acceptance rate sits outside [0.2, 0.5], then frozen.
    """

    iterations: int = 20000
    burn_in: int = 5000
    thin: int = 5
    seed: int = 1
    chains: int = 1

    def __post_init__(self):
        if not (self.iterations > self.burn_in >= 0):
            raise ValueError("need iterations > burn_in >= 0")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.iterations - self.burn_in < self.thin:
            raise ValueError("no draws would be retained after burn-in and thinning")
        if self.chains < 1:
            raise ValueError("chains must be >= 1")

    @property
    def retained(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass(frozen=True)
class PosteriorResult:
    """Retained draws plus the summaries the reporting layer consumes."""

    draws: np.ndarray
    acceptance_rate: float
    mean: tuple[float, float]
    median: tuple[float, float]
    ci_alpha: tuple[float, float]
    ci_beta: tuple[float, float]
    cov: SymMatrix2
    ess_alpha: float
    ess_beta: float
    # Per chain (chains,): the final walk scale s; the share of proposals
    # that passed the stage-1 screen (1 for plain MH) and the acceptance of
    # independence steps (nan for chains that only walk); None when unknown.
    steps: np.ndarray | None = None
    screen_pass: np.ndarray | None = None
    independence_acceptance: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Posterior pieces
# ---------------------------------------------------------------------------

def log_prior(alpha: float, beta: float, prior: PriorSpec) -> float:
    """Joint log-density of the independent Gamma priors (-inf off support)."""
    if not (alpha > 0.0 and beta > 0.0 and np.isfinite(alpha) and np.isfinite(beta)):
        return -np.inf
    c1 = prior.a1 * np.log(prior.b1) - math.lgamma(prior.a1)
    c2 = prior.a2 * np.log(prior.b2) - math.lgamma(prior.a2)
    return float(
        (prior.a1 - 1.0) * np.log(alpha) - prior.b1 * alpha + c1
        + (prior.a2 - 1.0) * np.log(beta) - prior.b2 * beta + c2
    )


def log_posterior(s: Sample, alpha: float, beta: float, prior: PriorSpec) -> float:
    """Unnormalized log-posterior: log-likelihood plus log-prior."""
    if not (alpha > 0.0 and beta > 0.0 and np.isfinite(alpha) and np.isfinite(beta)):
        return -np.inf
    return log_likelihood(s, alpha, beta) + log_prior(alpha, beta, prior)


def _log_target_z(lna, lnb, prior: PriorSpec):
    """Prior plus random-walk Jacobian in (ln alpha, ln beta) coordinates.

    log p(alpha) + log p(beta) + ln alpha + ln beta collapses to
    a1*ln(alpha) - b1*alpha + a2*ln(beta) - b2*beta plus the priors'
    normalizing constants, which cancel in every acceptance ratio and are
    left out.
    """
    return prior.a1 * lna - prior.b1 * np.exp(lna) + prior.a2 * lnb - prior.b2 * np.exp(lnb)


def _log_target_ze(lna, lnb, alpha, beta, prior: PriorSpec):
    """``_log_target_z`` given alpha = e^lna and beta = e^lnb, for a screened
    bank step that has the exponentials already; the same expression and
    order, so the same bits (``TestLoopIdentity``)."""
    return prior.a1 * lna - prior.b1 * alpha + prior.a2 * lnb - prior.b2 * beta


# ---------------------------------------------------------------------------
# Metropolis-Hastings core
# ---------------------------------------------------------------------------

def _laplace_quadratics(fits, prior: PriorSpec):
    """Per-chain Laplace quadratic of the log-target, from each chain's ``MleFit``.

    A chain gets one exactly when its fit is interior with positive-definite
    information and, below _SCREEN_MIN_N values, its sample is untruncated or
    has beta0/beta_C >= _MIX_MIN_RATIO (``fit.stats``).  The quadratic is the
    second-order expansion, in z = (ln alpha, ln beta), of the log-likelihood
    plus the prior and Jacobian (_log_target_z) about the MLE, where the
    likelihood's score is 0 and its Hessian is H_z = -D info D with
    D = diag(alpha, beta); it is written about its own maximum c:
    (1/2) (z - c)^T H (z - c).  Returns (c (2, B), coefficients (3, B) of
    d_a^2, d_a d_b and d_b^2, L (3, B)), where L = (l11, l21, l22) is the
    Cholesky factor of (-H)^-1 that shapes the walk and independence
    proposals: with det = h_aa h_bb - h_ab^2, (-H)^-1 = [[-h_bb, h_ab],
    [h_ab, -h_aa]] / det, so l11 = sqrt(-h_bb / det), l21 = h_ab / (det l11)
    and l22 = 1 / sqrt(-h_bb).  A chain without a quadratic holds zeros in
    all three, so its q is 0: as a screen, stage 1 passes every proposal and
    stage 2 is plain MH.
    """
    centre = np.zeros((2, len(fits)))
    coef = np.zeros((3, len(fits)))
    chol = np.zeros((3, len(fits)))
    for k, fit in enumerate(fits):
        if fit.boundary or not fit.info.is_positive_definite:
            continue
        if fit.n < _SCREEN_MIN_N and fit.stats is not None:
            if fit.stats.beta0 < _MIX_MIN_RATIO * fit.stats.beta_c:
                continue
        d = np.array([fit.alpha, fit.beta])
        # d/dz of a*z - b*e^z is a - b*e^z; its second derivative is -b*e^z.
        scaled = np.array([prior.b1, prior.b2]) * d
        h = -fit.info.to_array() * np.outer(d, d) - np.diag(scaled)
        centre[:, k] = np.log(d) - np.linalg.solve(h, np.array([prior.a1, prior.a2]) - scaled)
        coef[:, k] = 0.5 * h[0, 0], h[0, 1], 0.5 * h[1, 1]
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[0, 1]
        l11 = np.sqrt(-h[1, 1] / det)
        chol[:, k] = l11, h[0, 1] / (det * l11), 1.0 / np.sqrt(-h[1, 1])
    return centre, coef, chol


def _quadratic(d, coef):
    """Laplace quadratic q at the displacements d = (z_a - c_a, z_b - c_b)
    from its centre; coef is ``_laplace_quadratics``' coefficients, per
    chain or for one chain."""
    (da, db), (qaa, qab, qbb) = d, coef
    return da * (qaa * da + qab * db) + qbb * db * db


def _taylor_models(lx, sumlx, quads):
    """A screened bank's packed Taylor models (2, 22, B) of its rows' data
    sums (``_loglik_taylor``): each chain with a Laplace record gets its own
    about the quadratic's centre c, over the box of _TAYLOR_SDS Laplace
    standard deviations per axis, half = _TAYLOR_SDS (l11, hypot(l21, l22));
    a chain without one holds an infinite margin, so its bracket is
    [-inf, inf] and settles nothing.

    The step lets a displacement d into the bracket when it lies in the
    Laplace ellipse -2 q(d) <= _TAYLOR_SDS^2, one comparison on the q that
    stage 1 forms anyway.  That ellipse lies inside the box: -2 q(d) is
    d^T (-H) d, and over the ellipse d^T (-H) d <= s^2, s = _TAYLOR_SDS, the
    largest |d_a| and |d_b| are s sqrt(S_aa) and s sqrt(S_bb), with
    S = (-H)^-1 = L L^T, that is s l11 and s hypot(l21, l22): ``half``.  A
    displacement that rounding lets in stays within the box widened by
    ``distribution._BOX_SLACK``, which the remainder bound covers.
    """
    centre, qcoef, (l11, l21, l22) = quads
    rec = np.flatnonzero(qcoef.any(axis=0))
    half = _TAYLOR_SDS * np.array([l11[rec], np.hypot(l21[rec], l22[rec])])
    packed = _loglik_taylor(lx[rec], sumlx[rec], centre[:, rec], half)
    model = np.zeros(packed.shape[:2] + lx.shape[:1])
    model[:, -1] = _UNBOUNDED
    model[:, :, rec] = packed
    return model


def _log_t2(la, lb, quads):
    """ln g at (la, lb), up to a constant, for the t_2 proposal: with
    delta = (z - c)^T (-H) (z - c) = -2 q, g is (1 + delta / 2)^-2."""
    (ca, cb), coef, _ = quads
    return -2.0 * np.log1p(-_quadratic((la - ca, lb - cb), coef))


def _independence_block(w, quads, gated, lx, sumlx, ln_xl, prior):
    """A block's independence proposals y = c + L w, priced.

    w: t_2 variates (steps, 2, B) on the bank layout, for one chain as for
    many.  Independence proposals do not depend on the state, so a block's
    are priced together, for the ``gated`` rows of lx (B, n) only, in
    ``_loglik_batch`` calls of at most _PRICE_ELEMENTS log-data elements;
    every row gives the bits of its own evaluation.  Returns (ln alpha,
    ln beta, ln g, log-target), each (steps, B); a row outside the gate
    holds y = 0, ln g = 0 and log-target 0.
    """
    (ca, cb), _, (l11, l21, l22) = quads
    ya = ca + l11 * w[:, 0]
    yb = cb + (l21 * w[:, 0] + l22 * w[:, 1])
    target = np.zeros_like(ya)
    rows, sums, lnx = lx[gated], sumlx[gated], ln_xl[gated]
    per_call = max(1, _PRICE_ELEMENTS // rows.size)
    # A far-tail t proposal can overflow exp; its target is then -inf or nan,
    # and the step rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        for s0 in range(0, len(ya), per_call):
            la = ya[s0:s0 + per_call, gated].ravel()
            lb = yb[s0:s0 + per_call, gated].ravel()
            k = la.size // len(rows)
            ll = _loglik_batch(np.tile(rows, (k, 1)), np.tile(sums, k), np.tile(lnx, k), la, lb)
            target[s0:s0 + k, gated] = (ll + _log_target_z(la, lb, prior)).reshape(k, -1)
    return ya, yb, _log_t2(ya, yb, quads), target


def _walk_normals(z, shape):
    """Map a block's normals z (steps, 2, B) in place through each chain's
    walk shape (l11, l21, l22) (3, B), to (l11 z_a, l21 z_a + l22 z_b).  A
    diagonal walker's shape (1, 0, 1) keeps its normals bit for bit
    (z_b + 0 * z_a is z_b)."""
    l11, l21, l22 = shape
    z[:, 1] *= l22
    z[:, 1] += l21 * z[:, 0]
    z[:, 0] *= l11


def _adapted(steps, hits, walks):
    """Walk scales after a burn-in window whose ``walks`` walk steps
    accepted ``hits`` moves.

    A scale grows by _ADAPT_FACTOR when the window's acceptance exceeds 0.5
    and shrinks by it below 0.2, clipped to _STEP_BOUNDS; steps, hits and
    walks are (B,) for a bank, or scalars for one chain.
    """
    rate = hits / walks
    factor = np.where(rate > 0.5, _ADAPT_FACTOR,
                      np.where(rate < 0.2, 1.0 / _ADAPT_FACTOR, 1.0))
    return np.clip(steps * factor, *_STEP_BOUNDS)


def _uniform_blocks(streams, iterations, gated):
    """Yield (normals (block, 2, B), ln u (block, B)) for blocks of steps.

    A walk step consumes three uniforms from its chain's stream: two for the
    proposal's two normals (Box-Muller), then the accept draw.  A gated
    chain (``gated[k]``) takes an independence step at every even t, which
    consumes four: two normals eps, the chi-squared draw W = -2 ln u, then
    the accept draw; so each pair of its steps reads 7 uniforms, and its
    normals at independence steps come out as the t_2 variates
    eps * sqrt(2 / W) = eps / sqrt(-ln u).
    Blocks hold an even number of steps, so each starts with a walk step.
    Both loops read the bank layout, a lone chain as a bank of one.
    """
    size = _RNG_BLOCK + _RNG_BLOCK % 2
    for t in range(0, iterations, size):
        # Built by a call, so that no block outlives its step loop here.
        yield _uniform_block(streams, min(size, iterations - t), gated)


def _uniform_block(streams, block, gated):
    pairs = block // 2
    u = np.empty((block, 3, len(streams)))
    chi = np.empty((pairs, len(streams)))
    for i, stream in enumerate(streams):
        if not gated[i]:
            u[:, :, i] = stream.uniforms(3 * block).reshape(block, 3)
            continue
        v = stream.uniforms(7 * pairs + 3 * (block % 2))
        pair = v[:7 * pairs].reshape(pairs, 7)
        u[0:2 * pairs:2, :, i] = pair[:, :3]
        u[1::2, :, i] = pair[:, (3, 4, 6)]
        u[2 * pairs:, :, i] = v[7 * pairs:].reshape(-1, 3)
        chi[:, i] = pair[:, 5]
    # Box-Muller: the radius sqrt(-2 ln u0) and the angle 2 pi u1 give two normals.
    angle = 2.0 * np.pi * u[:, 1]
    normals = np.sqrt(-2.0 * np.log(u[:, 0]))[:, None] * np.stack((np.cos(angle), np.sin(angle)), 1)
    if gated.any():
        normals[1::2, :, gated] /= np.sqrt(-np.log(chi[:, gated]))[:, None]
    return normals, np.log(u[:, 2])


def _mh_chains(lx, ln_xl, prior: PriorSpec, cfg: McmcConfig, streams, init, fits):
    """Run one MH chain per row of ``lx``.

    lx: (B, n) log-data; ln_xl: (B,) log truncation points (``_log_xl``, so
    -inf where x_l = 0), one per chain; streams: B counter-based streams;
    init: (B, 2) start states; fits: the B rows' ``MleFit``, which alone give
    the Laplace records (``_laplace_quadratics``).  The bank is screened
    (delayed acceptance) when n >= _SCREEN_MIN_N and some chain has a
    record; below that floor the chains with one are gated and run the
    walk/independence cycle.  Every other chain runs plain MH.  Each chain
    walks with one scale s: a chain with a record walks along its L from
    s = _WALK_SCALE, unless n < _LAPLACE_WALK_MIN_N; every other chain walks
    diagonally from s = _DIAGONAL_SCALE.  One chain steps on Python floats
    (``_mh_one``), two or more step vectorized across the bank
    (``_mh_bank``); both share the start, quadratics, walk shapes
    (``_walk_normals``), adaptation rule, stream layout, block pricing and
    ``_log_target_z``, and take the same floating-point steps in the same
    order, so chain k of any bank equals that chain run alone.  A screened
    bank first builds every recorded chain's certified Taylor model of the
    data sum about its Laplace centre, once, and decides stage 2 on its
    bracket, with the truncation term and the prior added exactly, where it
    can; the lone loop, the exact reference, always runs the kernel.  Returns
    (draws (B, retained, 2), acceptance_rate (B,), steps (B,), shares
    (B, 2)), where shares holds the share of proposals that passed the
    stage-1 screen (1 for chains without a screen) and the acceptance of
    independence steps (nan for chains that only walk).
    """
    lx = np.ascontiguousarray(lx, dtype=np.float64)
    sumlx = lx.sum(axis=1)
    # (2, B): ln alpha and ln beta of every chain.
    state = np.log(np.ascontiguousarray(np.transpose(init), dtype=np.float64))
    target = (_loglik_batch(lx, sumlx, ln_xl, state[0], state[1])
              + _log_target_z(state[0], state[1], prior))
    quads = _laplace_quadratics(fits, prior)
    has = quads[1].any(axis=0)
    screened = lx.shape[1] >= _SCREEN_MIN_N and bool(has.any())
    gated = has & (lx.shape[1] < _SCREEN_MIN_N)
    # Walk shapes (3, B) and scales (B,): L for a chain that walks along it,
    # (1, 0, 1) for the others.
    along = has & (lx.shape[1] >= _LAPLACE_WALK_MIN_N)
    shape = np.where(along, quads[2], [[1.0], [0.0], [1.0]])
    steps = np.where(along, _WALK_SCALE, _DIAGONAL_SCALE)
    if lx.shape[0] == 1:
        return _mh_one(lx, sumlx, ln_xl, prior, cfg, streams, state, target, quads, screened,
                       gated, shape, steps)
    return _mh_bank(lx, sumlx, ln_xl, prior, cfg, streams, state, target, quads, screened, gated,
                    shape, steps)


def _mh_one(lx, sumlx, ln_xl, prior, cfg, streams, state, target, quads, screened, gated,
            shape, steps):
    """``_mh_chains`` for one chain, stepping on Python floats.

    At one chain a vectorized step is a few dozen numpy calls on 1-element
    arrays and costs more than its likelihood.  Here a walk step calls numpy
    only for the likelihood (``_loglik_row``) and the exponentials of
    ``_log_target_z``: np.exp, not math.exp, so each bit matches the bank
    loop.  A plain walk step runs stage 2 on q = 0: given ln u < 0,
    ln u < min(0, dpi) is ln u < dpi.  A gated chain's independence
    proposals come priced per block, so such a step only compares, and it
    evaluates ln g at its state (np.log1p) only after a walk move.
    """
    burn_in, thin = cfg.burn_in, cfg.thin
    row, sum_row, ln_xl_row = lx[0], float(sumlx[0]), float(ln_xl[0])
    (lna,), (lnb,) = state.tolist()
    target = float(target[0])
    quad = [tuple(a[:, 0].tolist()) for a in quads]  # this chain's, on Python floats
    (ca, cb), qcoef, _ = quad
    cycle = bool(gated[0])
    steps = float(steps[0])
    q = q_p = _quadratic((lna - ca, lnb - cb), qcoef) if screened else 0.0
    walks = _ADAPT_WINDOW // 2 if cycle else _ADAPT_WINDOW
    lg = None  # ln g at the current state, once an independence step needs it
    kept = []
    accepted = passed = indep = window_start = t = 0
    for z, ln_u in _uniform_blocks(streams, cfg.iterations, gated):
        if cycle:
            ya, yb, lg_y, target_y = (a[:, 0].tolist() for a in _independence_block(
                z[1::2], quads, gated, lx, sumlx, ln_xl, prior))
        _walk_normals(z, shape)
        z = z[:, :, 0]
        inc = (z * steps).tolist()
        for i, lu in enumerate(ln_u[:, 0].tolist()):
            t += 1
            if cycle and t % 2 == 0:
                j = i // 2
                if lg is None:
                    lg = _log_t2(lna, lnb, quad)
                if lu < target_y[j] - target + (lg - lg_y[j]):
                    lna, lnb, target, lg = ya[j], yb[j], target_y[j], lg_y[j]
                    accepted += 1
                    indep += 1
            else:
                lna_p = lna + inc[i][0]
                lnb_p = lnb + inc[i][1]
                if screened:
                    q_p = _quadratic((lna_p - ca, lnb_p - cb), qcoef)
                dq = q_p - q
                bound = min(dq, 0.0)
                if lu < bound:
                    passed += 1
                    target_p = (_loglik_row(row, sum_row, ln_xl_row, lna_p, lnb_p)
                                + _log_target_z(lna_p, lnb_p, prior))
                    if lu < bound + min(target_p - target - dq, 0.0):
                        lna, lnb, target, q, lg = lna_p, lnb_p, target_p, q_p, None
                        accepted += 1
            if t <= burn_in:
                if t % _ADAPT_WINDOW == 0:
                    steps = _adapted(steps, accepted - indep - window_start, walks)
                    window_start = accepted - indep
                    inc = (z * steps).tolist()
            elif (t - burn_in) % thin == 0:
                kept.append((lna, lnb))

    shares = [passed / cfg.iterations if screened else 1.0,
              indep / (cfg.iterations // 2) if cycle else np.nan]
    return (np.exp(np.array(kept))[None], np.array([accepted / cfg.iterations]),
            np.array([steps]), np.array([shares]))


def _mh_bank(lx, sumlx, ln_xl, prior, cfg, streams, state, target, quads, screened, gated,
             shape, steps):
    """``_mh_chains`` for a bank of chains, one vectorized step for all.

    Proposal increments are formed once per block of uniforms (again after
    each adaptation), and so are the independence proposals of gated chains
    with their log-targets; accepted moves are copied in place, and a
    window's hits are read off the running acceptance counts.  At an
    independence step a chain outside the gate walks: both its ln g terms
    are 0, so they add exactly 0 to its log ratio.

    A screened bank builds its chains' packed Taylor models of the data sum
    once (``_taylor_models``), and each step brackets every proposal's data
    sum in one (2, B) array [lo, hi] (``_taylor_bracket``), unbounded outside
    the Laplace ellipse of _TAYLOR_SDS.  To both rows it adds the truncation
    term T and then the prior P, each formed by the kernel's own expression
    and in the kernel's order, from one exponential of the proposal, so
    lo = (lo_data + T) + P and hi likewise; rounding is monotone, so the
    proposal's target lies in [lo, hi].  Each chain's record, (5, B) rows
    ln alpha, ln beta, q, lo and hi, holds its state; its target is known
    (lo = hi) or bracketed, when a bracket accepted it, and one copy per step
    moves every accepted proposal's record in.  A passing step accepts when
    ln u < bound + min(target_p - target - dq, 0), and every floating-point
    operation there is monotone, so ln u below that threshold at
    (lo_p, hi) accepts and ln u at or above it at (hi_p, lo) rejects, exactly
    as the exact comparison would; both thresholds come from one (2, B)
    difference of the proposal's [lo, hi] and the state's [hi, lo].  The
    undecided passes, with any of their states whose target is only
    bracketed, go to the kernel in one call per step and take the exact
    comparison, bit for bit.
    """
    b_chains = lx.shape[0]
    burn_in, thin = cfg.burn_in, cfg.thin
    if screened:
        centre, qcoef, _ = quads
        model = _taylor_models(lx, sumlx, quads)
        rim = -0.5 * _TAYLOR_SDS ** 2  # q on the Laplace ellipse -2 q = _TAYLOR_SDS^2
        record = np.concatenate((state, _quadratic(state - centre, qcoef)[None],
                                 target[None], target[None]))
        state, prop = record[:2], np.empty_like(record)
    cycle = gated.any()
    walks = np.where(gated, _ADAPT_WINDOW // 2, _ADAPT_WINDOW)
    walkers = None if gated.all() else np.flatnonzero(~gated)
    draws = np.empty((b_chains, cfg.retained, 2))
    accepted = np.zeros(b_chains, dtype=np.int64)
    passed = np.zeros(b_chains, dtype=np.int64)
    indep = np.zeros(b_chains, dtype=np.int64)
    window_start = accepted.copy()
    t = kept = 0
    for z, ln_u in _uniform_blocks(streams, cfg.iterations, gated):
        if cycle:
            ya, yb, lg_y, target_y = _independence_block(z[1::2], quads, gated, lx, sumlx,
                                                         ln_xl, prior)
        _walk_normals(z, shape)
        inc = z * steps
        for i in range(len(inc)):
            t += 1
            lu = ln_u[i]
            if screened:
                # Stage 1 prices the move on the quadratic alone.
                np.add(state, inc[i], out=prop[:2])
                d = prop[:2] - centre
                prop[2] = _quadratic(d, qcoef)
                dq = prop[2] - record[2]
                bound = np.minimum(dq, 0.0)
                screen = lu < bound
                passed += screen
                # Stage 2 reuses the uniform: given ln u < min(0, dq),
                # u / e^min(0, dq) is uniform on (0, 1), and the step accepts
                # when ln u < bound + min(D, 0), with D = target_p - target - dq.
                # Each side of that is monotone in both targets, so brackets
                # [lo, hi] on them decide it where ln u falls below the
                # threshold at (lo_p, hi) or at or above the one at (hi_p, lo).
                # The bracket covers the data sum; the truncation term and
                # the prior are added exactly, in the kernel's order.
                e = np.exp(prop[:2])
                trunc = lx.shape[1] * np.logaddexp(0.0, e[1] * (ln_xl - prop[0]))
                np.add(_taylor_bracket(d, prop[2] >= rim, model), trunc, out=prop[3:])
                prop[3:] += _log_target_ze(prop[0], prop[1], e[0], e[1], prior)
                threshold = bound + np.minimum(prop[3:] - record[:2:-1] - dq, 0.0)
                # Below the first threshold ln u is below bound too: a pass.
                accept = lu < threshold[0]
                # Written as "not rejected" so that a nan bracket stays open.
                ev = (screen & ~(accept | (lu >= threshold[1]))).nonzero()[0]
                if ev.size:
                    # The exact comparison, in one kernel call for the open
                    # proposals and the states whose target is only
                    # bracketed (lo < hi).
                    stale = ev[record[3, ev] < record[4, ev]]
                    at = np.concatenate((ev, stale))
                    z_at = np.concatenate((prop[:2, ev], state[:, stale]), axis=1)
                    exact = (_loglik_batch(lx[at], sumlx[at], ln_xl[at], z_at[0], z_at[1])
                             + _log_target_z(z_at[0], z_at[1], prior))
                    record[3:, stale] = exact[ev.size:]
                    prop[3:, ev] = exact[:ev.size]
                    # The first threshold again: exact on the open rows, and
                    # the bracket's own elsewhere.
                    accept = lu < bound + np.minimum(prop[3] - record[4] - dq, 0.0)
                np.copyto(record, prop, where=accept)
            else:
                prop = state + inc[i]
                if cycle and t % 2 == 0:
                    j = i // 2
                    np.copyto(prop[0], ya[j], where=gated)
                    np.copyto(prop[1], yb[j], where=gated)
                    target_p = target_y[j]
                    if walkers is not None:
                        la, lb = prop[0, walkers], prop[1, walkers]
                        target_p = target_p.copy()
                        target_p[walkers] = (
                            _loglik_batch(lx[walkers], sumlx[walkers], ln_xl[walkers], la, lb)
                            + _log_target_z(la, lb, prior))
                    lg = _log_t2(state[0], state[1], quads)
                    accept = lu < target_p - target + (lg - lg_y[j])
                    indep += accept & gated
                else:
                    target_p = (_loglik_batch(lx, sumlx, ln_xl, prop[0], prop[1])
                                + _log_target_z(prop[0], prop[1], prior))
                    accept = lu < target_p - target
                np.copyto(state, prop, where=accept)
                np.copyto(target, target_p, where=accept)
            accepted += accept
            if t <= burn_in:
                if t % _ADAPT_WINDOW == 0:
                    steps = _adapted(steps, accepted - indep - window_start, walks)
                    window_start = accepted - indep
                    np.multiply(z, steps, out=inc)
            elif (t - burn_in) % thin == 0:
                draws[:, kept] = state.T
                kept += 1

    np.exp(draws, out=draws)
    shares = np.full((b_chains, 2), np.nan)
    shares[:, 0] = passed / cfg.iterations if screened else 1.0
    shares[gated, 1] = indep[gated] / (cfg.iterations // 2)
    return draws, accepted / cfg.iterations, steps, shares


def _chain_start(s: Sample, fit: MleFit):
    """MLE start when the interior maximum exists, boundary start otherwise.

    A boundary fit has no scale, so the chain starts at the sample median and
    the boundary exponent.
    """
    if not fit.boundary:
        return fit.alpha, fit.beta
    return float(np.median(s.values)), fit.beta


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _pooled(fn, jobs, workers: int) -> list:
    """[fn(job) for job in jobs], run by up to ``workers`` forked processes
    (fork: a worker imports nothing again), so fn must pickle by name.  The
    jobs run here, in order, when fewer than two workers would start, or when
    this process is daemonic or runs other threads, which fork does not copy
    (a lock one of them holds would stay held in the child).
    """
    workers = min(workers, len(jobs))
    if workers < 2 or multiprocessing.current_process().daemon or threading.active_count() > 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, jobs))


def _chain_alone(s: Sample, prior: PriorSpec, cfg: McmcConfig, fit: MleFit, k: int):
    """Chain k of ``run_chain``: ``_mh_chains`` on its own row, from stream
    (cfg.seed, 1 + k)."""
    return _mh_chains(s.log_values[None], np.array([_log_xl(s.x_l)]), prior, cfg,
                      [RngStream(cfg.seed, 1 + k)], np.array([_chain_start(s, fit)]), [fit])


def run_chain(s: Sample, prior: PriorSpec | None = None, cfg: McmcConfig | None = None,
              fit: MleFit | None = None) -> PosteriorResult:
    """Sample the posterior of (alpha, beta) and summarize it.

    ``fit`` is the MLE of ``s`` (``fit_mle(s)`` when None; one of another
    sample, by n or x_l, is a ValueError).  It gives every chain its start,
    the MLE when it exists (the sample median and the boundary exponent
    otherwise), and its Laplace record.  Chain k draws from the stream
    (cfg.seed, 1 + k) with its counter at zero, so a given seed replays
    exactly.  Each chain runs alone, in one of min(chains, usable CPUs)
    processes, and they are merged in chain order: the CPU count changes no bit.
    """
    prior = PriorSpec.diffuse() if prior is None else prior
    cfg = McmcConfig() if cfg is None else cfg
    if fit is None:
        fit = fit_mle(s)
    elif (fit.n, fit.x_l) != (s.n, s.x_l):
        raise ValueError(f"fit is of a sample with n = {fit.n} and x_l = {fit.x_l}, "
                         f"not of this one (n = {s.n}, x_l = {s.x_l})")
    runs = _pooled(partial(_chain_alone, s, prior, cfg, fit), range(cfg.chains), _usable_cpus())
    draws_by_chain, acc, steps, shares = (np.concatenate(parts) for parts in zip(*runs))
    draws = draws_by_chain.reshape(-1, 2)
    ess_a = float(sum(_ess(draws_by_chain[k, :, 0]) for k in range(cfg.chains)))
    ess_b = float(sum(_ess(draws_by_chain[k, :, 1]) for k in range(cfg.chains)))
    res = summarize_draws(draws, float(np.mean(acc)), ess_a, ess_b)
    return replace(res, steps=steps, screen_pass=shares[:, 0],
                   independence_acceptance=shares[:, 1])


def summarize_draws(draws: np.ndarray, acceptance_rate: float, ess_a: float,
                    ess_b: float) -> PosteriorResult:
    """Posterior summaries from retained draws (means, medians, 95% CIs)."""
    mean = (float(np.mean(draws[:, 0])), float(np.mean(draws[:, 1])))
    median = (float(np.median(draws[:, 0])), float(np.median(draws[:, 1])))
    ci_a, ci_b = _quantile_intervals(draws, 0.05)
    cov = SymMatrix2.from_array(np.cov(draws.T, ddof=1))
    return PosteriorResult(
        draws=draws, acceptance_rate=acceptance_rate, mean=mean, median=median,
        ci_alpha=ci_a, ci_beta=ci_b, cov=cov, ess_alpha=ess_a, ess_beta=ess_b,
    )


def _quantile_intervals(draws: np.ndarray, gamma: float):
    lo, hi = gamma / 2.0, 1.0 - gamma / 2.0
    qa = np.quantile(draws[:, 0], [lo, hi], method="hazen")
    qb = np.quantile(draws[:, 1], [lo, hi], method="hazen")
    return (float(qa[0]), float(qa[1])), (float(qb[0]), float(qb[1]))


def credible_intervals(res: PosteriorResult, gamma: float = 0.05):
    """Equal-tail posterior quantile intervals (Hazen interpolation).

    The endpoints are the gamma/2 and 1-gamma/2 empirical quantiles with
    plotting position k = n*p + 1/2, interpolated linearly between order
    statistics; on draws {1..100} at gamma = 0.05 this gives (3.0, 98.0).
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    if res.draws.shape[0] < MIN_DRAWS:
        raise ValueError(f"need at least {MIN_DRAWS} retained draws for credible intervals")
    return _quantile_intervals(res.draws, gamma)


def credible_ellipse(res: PosteriorResult, gamma: float = 0.05,
                     n_points: int = 256) -> EllipsePoints:
    """Joint credible ellipse: Mahalanobis level set of the posterior moments.

    (theta - mean)^T cov^-1 (theta - mean) = chi2_2(1 - gamma); for a
    near-Gaussian posterior about (1 - gamma) of the draws fall inside.
    """
    if not res.cov.is_positive_definite:
        raise ValueError("posterior covariance is singular; cannot trace an ellipse")
    threshold = chi2_quantile_2dof(1.0 - gamma)
    return _trace_ellipse(res.mean, res.cov.inverse(), threshold, n_points, 1.0 - gamma)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def _ess(x: np.ndarray) -> float:
    """Effective sample size via the initial-positive-pair autocorrelation sum.

    A chain that never moves holds one draw's information, so it gets 1.
    """
    x = np.asarray(x, dtype=np.float64)
    m = x.size
    if m < 4:
        return float(m)
    xc = x - x.mean()
    nfft = 1 << int(np.ceil(np.log2(2 * m)))
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:m] / m
    if acov[0] <= 0.0:
        return 1.0
    rho = acov / acov[0]
    tau = 1.0
    k = 1
    while k + 1 < m:
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        k += 2
    return float(min(m, m / tau))


def marginal_beta_log_kernel(values, beta: float, prior: PriorSpec) -> float:
    """Log-kernel of the marginal shape posterior on truncation-normalized data.

    (N + a2 - 1) ln(beta) - b2*beta - sum ln(1 + X_i^beta) with a2, b2 the
    shape prior's hyperparameters.  This is a diagnostic surface only: it is
    kept out of the main inference path, and with no data it reduces to the
    Gamma(a2, b2) prior kernel.  Returns -inf for beta <= 0.
    """
    if not (np.isfinite(beta) and beta > 0.0):
        return -np.inf
    x = np.asarray(values, dtype=np.float64)
    if x.size and np.any(x <= 1.0):
        raise ValueError("kernel expects data normalized to the truncation point (X > 1)")
    n = x.size
    tail = float(np.sum(np.logaddexp(0.0, beta * np.log(x)))) if n else 0.0
    return float((n + prior.a2 - 1.0) * np.log(beta) - prior.b2 * beta - tail)


def posterior_density_grid(res: PosteriorResult, alpha_bounds=None, beta_bounds=None,
                           shape=(64, 64)):
    """Gaussian-KDE posterior density on a rectangular grid.

    Bandwidths follow Silverman's multivariate rule per coordinate,
    h_j = sd_j * M^(-1/6); default bounds cover the draws plus four
    bandwidths, so the grid integral of the returned density is close to 1.
    Returns (alpha_grid, beta_grid, density) with density[i, j] at
    (alpha_grid[i], beta_grid[j]).
    """
    if res.draws.shape[0] < MIN_DRAWS:
        raise ValueError(f"need at least {MIN_DRAWS} draws for a density grid")
    na, nb = int(shape[0]), int(shape[1])
    if na < 2 or nb < 2:
        raise ValueError("grid must have at least 2 points per axis")
    a, b = res.draws[:, 0], res.draws[:, 1]
    m = a.size
    ha = _silverman(a)
    hb = _silverman(b)
    if alpha_bounds is None:
        alpha_bounds = (a.min() - 4 * ha, a.max() + 4 * ha)
    if beta_bounds is None:
        beta_bounds = (b.min() - 4 * hb, b.max() + 4 * hb)
    if not (alpha_bounds[1] > alpha_bounds[0] and beta_bounds[1] > beta_bounds[0]):
        raise ValueError("grid bounds are empty")
    agrid = np.linspace(alpha_bounds[0], alpha_bounds[1], na)
    bgrid = np.linspace(beta_bounds[0], beta_bounds[1], nb)
    ka = np.exp(-0.5 * ((agrid[:, None] - a[None, :]) / ha) ** 2) / (ha * np.sqrt(2 * np.pi))
    kb = np.exp(-0.5 * ((bgrid[:, None] - b[None, :]) / hb) ** 2) / (hb * np.sqrt(2 * np.pi))
    density = ka @ kb.T / m
    return agrid, bgrid, density


def _silverman(x: np.ndarray) -> float:
    sd = float(np.std(x, ddof=1))
    if sd == 0.0:
        return max(1e-9, 1e-9 * abs(float(x[0])))
    return sd * x.size ** (-1.0 / 6.0)
