"""Bayesian inference for the truncated log-logistic via Metropolis-Hastings.

Independent Gamma priors on scale and shape combine with the truncated
likelihood into an unnormalized posterior.  Sampling uses a Gaussian random
walk on (ln alpha, ln beta): the log transform keeps proposals positive and
makes them symmetric, at the cost of a Jacobian term ln(alpha* beta* /
(alpha beta)) in the acceptance ratio.  Every chain adapts its step sizes
during burn-in (targeting acceptance in [0.2, 0.5]) and freezes them
afterwards so the retained draws come from a fixed kernel.

Chains that start at an interior MLE of a large enough sample run
delayed-acceptance MH (Christen & Fox 2005, "MCMC using an approximation").
Stage 1 prices a proposal on q, the Laplace quadratic of the log-target about
the start, and passes it when ln u < min(0, dq).  Only passing chains
evaluate the full likelihood, and they accept when
ln u < min(0, dq) + min(0, dpi - dq).  Given a pass, u / e^min(0, dq) is
uniform on (0, 1), so the one accept uniform serves both stages and a step
still consumes three uniforms.  The two-stage kernel is reversible with
respect to the exact posterior whatever q is: a poor quadratic costs mixing,
never correctness.  A chain gets q only when its sample has at least
_SCREEN_MIN_N values, its start is stationary and the information there is
positive-definite; the quadratic screens small, skewed samples too poorly
to pay off.  Every other chain (small samples, boundary and off-mode
starts) runs plain MH, ln u < dpi, bit for bit.

Two loops run the chains, picked by the number of chains in the call.  A
lone chain (every default ``run_chain``) steps on Python floats and calls
numpy only for its likelihood and exponentials: at one chain a vectorized
step is interpreter-bound.  Two or more chains (``run_chain`` with
``chains > 1``, the simulation harness's banks) step together, vectorized
across the bank.  Both take the same floating-point steps in the same order;
every chain draws from its own counter-based stream, and the screen gate
reads only its own chain's sample and start, so results never depend on how
chains are grouped or scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from .distribution import (Sample, _derivatives_z, _log_xl, _loglik_batch, _loglik_row,
                           log_likelihood)
from .mle import SCORE_TOL, EllipsePoints, MleFit, _trace_ellipse, fit_mle
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
_RNG_BLOCK = 512
# Smallest sample whose chains are screened by a Laplace quadratic.
_SCREEN_MIN_N = 500
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

    Step sizes are proposal standard deviations in log-space.  Both steps are
    rescaled by x1.1 every 100 burn-in iterations while the window
    acceptance rate sits outside [0.2, 0.5], then frozen.
    """

    iterations: int = 20000
    burn_in: int = 5000
    thin: int = 5
    step_alpha: float = 0.1
    step_beta: float = 0.1
    seed: int = 1
    chains: int = 1

    def __post_init__(self):
        if not (self.iterations > self.burn_in >= 0):
            raise ValueError("need iterations > burn_in >= 0")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.iterations - self.burn_in < self.thin:
            raise ValueError("no draws would be retained after burn-in and thinning")
        if not (0.0 < self.step_alpha < np.inf and 0.0 < self.step_beta < np.inf):
            raise ValueError("proposal steps must be positive and finite")
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
    # Per chain: final proposal steps (chains, 2) and the share of proposals
    # that reached the full likelihood (1 for plain MH); None when unknown.
    steps: np.ndarray | None = None
    screen_pass: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Posterior pieces
# ---------------------------------------------------------------------------

def _prior_consts(prior: PriorSpec):
    c1 = prior.a1 * np.log(prior.b1) - gammaln(prior.a1)
    c2 = prior.a2 * np.log(prior.b2) - gammaln(prior.a2)
    return c1, c2


def log_prior(alpha: float, beta: float, prior: PriorSpec) -> float:
    """Joint log-density of the independent Gamma priors (-inf off support)."""
    if not (alpha > 0.0 and beta > 0.0 and np.isfinite(alpha) and np.isfinite(beta)):
        return -np.inf
    c1, c2 = _prior_consts(prior)
    return float(
        (prior.a1 - 1.0) * np.log(alpha) - prior.b1 * alpha + c1
        + (prior.a2 - 1.0) * np.log(beta) - prior.b2 * beta + c2
    )


def log_posterior(s: Sample, alpha: float, beta: float, prior: PriorSpec) -> float:
    """Unnormalized log-posterior: log-likelihood plus log-prior."""
    if not (alpha > 0.0 and beta > 0.0 and np.isfinite(alpha) and np.isfinite(beta)):
        return -np.inf
    return log_likelihood(s, alpha, beta) + log_prior(alpha, beta, prior)


def _log_target_z(lna, lnb, prior: PriorSpec, c1: float, c2: float):
    """Prior plus random-walk Jacobian in (ln alpha, ln beta) coordinates.

    log p(alpha) + log p(beta) + ln alpha + ln beta collapses to
    a1*ln(alpha) - b1*alpha + a2*ln(beta) - b2*beta + consts.
    """
    return (prior.a1 * lna - prior.b1 * np.exp(lna) + c1
            + prior.a2 * lnb - prior.b2 * np.exp(lnb) + c2)


# ---------------------------------------------------------------------------
# Metropolis-Hastings core
# ---------------------------------------------------------------------------

def _laplace_screens(lx, ln_xl, prior: PriorSpec, lna, lnb, ll):
    """Per-chain Laplace quadratic of the log-target about its start.

    A chain gets one only when its sample has at least _SCREEN_MIN_N values,
    its start is stationary (||g_z|| <= SCORE_TOL*(1 + |ll|)) and -H_z there
    is positive-definite; every test reads that chain's own row only.  The
    quadratic is the second-order expansion, in z = (ln alpha, ln beta), of
    the log-likelihood plus the prior and Jacobian (_log_target_z), written
    about its own maximum c: (1/2) (z - c)^T H (z - c).  Returns None when
    no chain qualifies, else (c (2, B), coefficients (3, B) of d_a^2,
    d_a d_b and d_b^2); a chain without a quadratic holds zeros, so its q is
    0, stage 1 passes every proposal and stage 2 is plain MH, ln u < dpi.
    """
    b_chains, n = lx.shape
    if n < _SCREEN_MIN_N:
        return None
    centre = np.zeros((2, b_chains))
    coef = np.zeros((3, b_chains))
    for k in range(b_chains):
        g, h = _derivatives_z(lx[k], ln_xl[k], (lna[k], lnb[k]))
        stationary = np.hypot(*g) <= SCORE_TOL * (1.0 + abs(ll[k]))
        if not (stationary and h[0, 0] < 0.0 and h[0, 0] * h[1, 1] > h[0, 1] ** 2):
            continue
        # d/dz of a*z - b*e^z is a - b*e^z; its second derivative is -b*e^z.
        scaled = np.array([prior.b1 * np.exp(lna[k]), prior.b2 * np.exp(lnb[k])])
        g = g + np.array([prior.a1, prior.a2]) - scaled
        h = h - np.diag(scaled)
        centre[:, k] = (lna[k], lnb[k]) - np.linalg.solve(h, g)
        coef[:, k] = 0.5 * h[0, 0], h[0, 1], 0.5 * h[1, 1]
    if not coef.any():
        return None
    return centre, coef


def _quadratic(la, lb, screen):
    """Screen quadratic q at (la, lb); screen is (centre, coefficients) as
    ``_laplace_screens`` returns them, per chain or for one chain."""
    (ca, cb), (qaa, qab, qbb) = screen
    da = la - ca
    db = lb - cb
    return da * (qaa * da + qab * db) + qbb * db * db


def _adapted(steps, hits):
    """Proposal steps after a burn-in window that accepted ``hits`` moves.

    Steps grow by _ADAPT_FACTOR when the window's acceptance exceeds 0.5 and
    shrink by it below 0.2, clipped to _STEP_BOUNDS; steps is (2, B) for a
    bank with hits (B,), or (2,) for one chain.
    """
    rate = hits / _ADAPT_WINDOW
    factor = np.where(rate > 0.5, _ADAPT_FACTOR,
                      np.where(rate < 0.2, 1.0 / _ADAPT_FACTOR, 1.0))
    return np.clip(steps * factor, *_STEP_BOUNDS)


def _uniform_blocks(streams, iterations):
    """Yield (normals (B, block, 2), ln u (B, block)) for blocks of steps.

    Each step consumes three uniforms per chain from that chain's stream:
    two normals for the proposal, then the accept draw.
    """
    for t in range(0, iterations, _RNG_BLOCK):
        block = min(_RNG_BLOCK, iterations - t)
        u = np.empty((len(streams), block, 3))
        for i, stream in enumerate(streams):
            u[i] = stream.uniforms(3 * block).reshape(block, 3)
        yield normal_quantile(u[:, :, :2]), np.log(u[:, :, 2])


def _mh_chains(lx, ln_xl, prior: PriorSpec, cfg: McmcConfig, streams, init):
    """Run one MH chain per row of ``lx``.

    lx: (B, n) log-data; ln_xl: (B,) log truncation points (``_log_xl``, so
    -inf where x_l = 0), one per chain; streams: B counter-based streams;
    init: (B, 2) start states.  Chains with a Laplace screen (see
    ``_laplace_screens``) run delayed acceptance; the others run plain MH.
    One chain steps on Python floats (``_mh_one``), two or more step
    vectorized across the bank (``_mh_bank``).  Both loops share the start,
    screens, quadratic, adaptation rule, stream layout and
    ``_log_target_z``, and take the same floating-point steps in the same
    order, so chain k of any bank equals that chain run alone.  Returns
    (draws (B, retained, 2), acceptance_rate (B,), steps (B, 2),
    screen_pass (B,)), where screen_pass is the share of proposals that
    reached the full likelihood (1 for plain chains).
    """
    lx = np.ascontiguousarray(lx, dtype=np.float64)
    sumlx = lx.sum(axis=1)
    c1, c2 = _prior_consts(prior)
    # (2, B): ln alpha and ln beta of every chain.
    state = np.log(np.ascontiguousarray(np.transpose(init), dtype=np.float64))
    ll = _loglik_batch(lx, sumlx, ln_xl, state[0], state[1])
    target = ll + _log_target_z(state[0], state[1], prior, c1, c2)
    screens = _laplace_screens(lx, ln_xl, prior, state[0], state[1], ll)
    if lx.shape[0] > 1:
        return _mh_bank(lx, sumlx, ln_xl, prior, c1, c2, cfg, streams, state, target,
                        screens)
    screen = None if screens is None else tuple(tuple(a[:, 0].tolist()) for a in screens)
    (lna,), (lnb,) = state.tolist()
    return _mh_one(lx[0], float(sumlx[0]), float(ln_xl[0]), prior, c1, c2, cfg, streams[0],
                   lna, lnb, float(target[0]), screen)


def _mh_one(lx, sumlx, ln_xl, prior, c1, c2, cfg, stream, lna, lnb, target, screen):
    """``_mh_chains`` for one chain, stepping on Python floats.

    At one chain a vectorized step is a few dozen numpy calls on 1-element
    arrays and costs more than its likelihood.  Here only the likelihood
    (``_loglik_row``) and the exponentials of ``_log_target_z`` call numpy:
    np.exp, not math.exp, so each bit matches the bank loop.  A plain chain
    runs stage 2 on q = 0: given ln u < 0, ln u < min(0, dpi) is ln u < dpi.
    """
    burn_in, thin = cfg.burn_in, cfg.thin
    steps = np.array([cfg.step_alpha, cfg.step_beta])
    q = q_p = 0.0 if screen is None else _quadratic(lna, lnb, screen)
    kept = []
    accepted = passed = window_start = t = 0
    for z, ln_u in _uniform_blocks([stream], cfg.iterations):
        z = z[0]
        inc = (z * steps).tolist()
        for i, lu in enumerate(ln_u[0].tolist()):
            t += 1
            lna_p = lna + inc[i][0]
            lnb_p = lnb + inc[i][1]
            if screen is not None:
                q_p = _quadratic(lna_p, lnb_p, screen)
            dq = q_p - q
            bound = min(dq, 0.0)
            if lu < bound:
                passed += 1
                target_p = (_loglik_row(lx, sumlx, ln_xl, lna_p, lnb_p)
                            + _log_target_z(lna_p, lnb_p, prior, c1, c2))
                if lu < bound + min(target_p - target - dq, 0.0):
                    lna, lnb, target, q = lna_p, lnb_p, target_p, q_p
                    accepted += 1
            if t <= burn_in:
                if t % _ADAPT_WINDOW == 0:
                    steps = _adapted(steps, accepted - window_start)
                    window_start = accepted
                    inc = (z * steps).tolist()
            elif (t - burn_in) % thin == 0:
                kept.append((lna, lnb))

    return (np.exp(np.array(kept))[None], np.array([accepted / cfg.iterations]),
            steps[None], np.array([passed / cfg.iterations]))


def _mh_bank(lx, sumlx, ln_xl, prior, c1, c2, cfg, streams, state, target, screens):
    """``_mh_chains`` for a bank of chains, one vectorized step for all.

    Proposal increments are formed once per block of uniforms (again after
    each adaptation), accepted moves are copied in place, and a window's
    hits are read off the running acceptance counts.
    """
    b_chains = lx.shape[0]
    burn_in, thin = cfg.burn_in, cfg.thin
    steps = np.repeat([[cfg.step_alpha], [cfg.step_beta]], b_chains, axis=1)
    if screens is not None:
        q = _quadratic(state[0], state[1], screens)
    draws = np.empty((b_chains, cfg.retained, 2))
    accepted = np.zeros(b_chains, dtype=np.int64)
    passed = np.zeros(b_chains, dtype=np.int64)
    window_start = accepted.copy()
    t = kept = 0
    for z, ln_u in _uniform_blocks(streams, cfg.iterations):
        z = np.ascontiguousarray(z.transpose(1, 2, 0))  # (block, 2, B)
        ln_u = np.ascontiguousarray(ln_u.T)
        inc = z * steps
        for i in range(len(inc)):
            t += 1
            prop = state + inc[i]
            lu = ln_u[i]
            if screens is None:
                target_p = (_loglik_batch(lx, sumlx, ln_xl, prop[0], prop[1])
                            + _log_target_z(prop[0], prop[1], prior, c1, c2))
                accept = lu < target_p - target
            else:
                # Stage 1 prices the move on the quadratic alone.
                q_p = _quadratic(prop[0], prop[1], screens)
                dq = q_p - q
                bound = np.minimum(dq, 0.0)
                screen = lu < bound
                passed += screen
                npass = np.count_nonzero(screen)
                accept = None
                if npass:
                    # Stage 2 reuses the uniform: given ln u < min(0, dq),
                    # u / e^min(0, dq) is uniform on (0, 1).
                    rows = slice(None) if npass == b_chains else np.flatnonzero(screen)
                    la, lb = prop[0, rows], prop[1, rows]
                    target_p = target.copy()
                    target_p[rows] = (_loglik_batch(lx[rows], sumlx[rows], ln_xl[rows], la, lb)
                                      + _log_target_z(la, lb, prior, c1, c2))
                    accept = screen & (lu < bound + np.minimum(target_p - target - dq, 0.0))
                    np.copyto(q, q_p, where=accept)
            if accept is not None:
                np.copyto(state, prop, where=accept)
                np.copyto(target, target_p, where=accept)
                accepted += accept
            if t <= burn_in:
                if t % _ADAPT_WINDOW == 0:
                    steps = _adapted(steps, accepted - window_start)
                    window_start = accepted.copy()
                    np.multiply(z, steps, out=inc)
            elif (t - burn_in) % thin == 0:
                draws[:, kept] = state.T
                kept += 1

    np.exp(draws, out=draws)
    screen_pass = np.ones(b_chains) if screens is None else passed / cfg.iterations
    return draws, accepted / cfg.iterations, steps.T.copy(), screen_pass


def _chain_start(s: Sample, fit: MleFit):
    """MLE start when the interior maximum exists, boundary start otherwise.

    A boundary fit has no scale, so the chain starts at the sample median and
    the boundary exponent.
    """
    if not fit.boundary:
        return fit.alpha, fit.beta
    return float(np.median(s.values)), fit.beta


def run_chain(s: Sample, prior: PriorSpec | None = None, cfg: McmcConfig | None = None,
              init=None) -> PosteriorResult:
    """Sample the posterior of (alpha, beta) and summarize it.

    Chains start at ``init`` when given (a finite positive (alpha, beta),
    else ValueError), otherwise at the MLE when it exists (at the sample
    median and the boundary exponent otherwise).  Chain k draws from the stream
    (cfg.seed, 1 + k) with its counter at zero, so a given seed replays
    exactly.  Multiple chains are merged in chain order.
    """
    prior = PriorSpec.diffuse() if prior is None else prior
    cfg = McmcConfig() if cfg is None else cfg
    if init is None:
        init = _chain_start(s, fit_mle(s))
    elif not (np.shape(init) == (2,) and all(np.isfinite(v) and v > 0.0 for v in init)):
        raise ValueError(f"init must be a finite positive (alpha, beta), got {init}")
    streams = [RngStream(cfg.seed, 1 + k) for k in range(cfg.chains)]
    lx = np.repeat(s.log_values[None, :], cfg.chains, axis=0)
    ln_xl = np.full(cfg.chains, _log_xl(s.x_l))
    init_arr = np.tile(np.asarray(init, dtype=np.float64), (cfg.chains, 1))

    draws_by_chain, acc, steps, screen_pass = _mh_chains(lx, ln_xl, prior, cfg, streams,
                                                         init_arr)
    draws = draws_by_chain.reshape(-1, 2)
    ess_a = float(sum(_ess(draws_by_chain[k, :, 0]) for k in range(cfg.chains)))
    ess_b = float(sum(_ess(draws_by_chain[k, :, 1]) for k in range(cfg.chains)))
    res = summarize_draws(draws, float(np.mean(acc)), ess_a, ess_b)
    return replace(res, steps=steps, screen_pass=screen_pass)


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
