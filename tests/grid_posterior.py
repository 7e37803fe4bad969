"""Exact posterior moments on a dense grid, the oracle for every MH kernel.

The grid spans (ln alpha, ln beta).  A coarse pass starts from the MLE
plus or minus ``half_width`` Wald standard deviations (of ln alpha and
ln beta, from the observed information; one value, or one per axis) and
doubles the reach of any edge whose marginal still holds weight, so it finds
the whole posterior, including the long tail toward alpha -> 0 that left
truncation leaves.  A fine pass then covers the box where the coarse
marginals exceed TAIL, so the mesh stays fine where the mass is: each axis
gets POINTS nodes, or more where its box is so wide that POINTS would space
them by more than FINE_STEP.  Each node holds log_posterior plus the
Jacobian ln alpha + ln beta; normalized, the weights give the marginal mean
and variance of alpha and beta and their 2.5% and 97.5% quantiles
(trapezoid CDF, inverted linearly).
"""

import math

import numpy as np

from ltll.mcmc import log_posterior

COARSE, POINTS = 101, 301
# Widest fine-pass step in ln alpha or ln beta.  A box that reaches far down
# the alpha -> 0 tail needs it: on an n = 39 sample at x_L = 3 with
# beta0/beta_C = 1.003 the box spans ln alpha from -21.8 to 2.0, and alpha's
# 97.5% quantile reads 3.517 at 301 nodes (step 0.080), 3.494 at 601, 3.489
# at 901 (step 0.027) and 3.487 at 1201; 20 chains pooled put the CDF at
# 0.97722 (+5.4 standard errors) at the first and 0.97478 (-0.5) at the last.
FINE_STEP = 0.025
# Weight of a marginal node, relative to the total: an edge above EDGE has
# not reached the end of the posterior; coarse nodes at or below TAIL lie
# outside the fine box (at most COARSE * TAIL of the mass in all).
EDGE, TAIL = 1e-12, 1e-9
_GROWTHS = 8


def _marginals(s, prior, za, zb):
    lp = np.array([[log_posterior(s, math.exp(a), math.exp(b), prior) + a + b
                    for b in zb] for a in za])
    w = np.exp(lp - lp.max())
    w /= w.sum()
    return w.sum(axis=1), w.sum(axis=0)


def grid_posterior(s, prior, fit, half_width=10.0):
    """(exact, zsd) for a sample with an interior MLE ``fit``.

    exact[j] = (mean, variance, (q_2.5%, q_97.5%)) of alpha (j = 0) and
    beta (j = 1); zsd holds the posterior sd of ln alpha and ln beta about
    the MLE.
    """
    z0 = np.log([fit.alpha, fit.beta])
    cov = fit.info.inverse()
    reach = np.asarray(half_width) * np.sqrt([cov.a11, cov.a22]) / np.exp(z0)
    reach = np.array([-reach, reach], dtype=float).T  # (axis, side)
    for _ in range(_GROWTHS):
        grids = [np.linspace(z0[j] + reach[j, 0], z0[j] + reach[j, 1], COARSE) for j in (0, 1)]
        marginals = _marginals(s, prior, *grids)
        open_edges = np.array([[m[0] > EDGE, m[-1] > EDGE] for m in marginals])
        if not open_edges.any():
            break
        reach[open_edges] *= 2.0
    else:
        raise AssertionError("the grid never reached the end of the posterior")
    box = []
    for grid, marg in zip(grids, marginals):
        inside = np.flatnonzero(marg > TAIL)
        lo, hi = grid[max(inside[0] - 1, 0)], grid[min(inside[-1] + 1, COARSE - 1)]
        box.append(np.linspace(lo, hi, max(POINTS, math.ceil((hi - lo) / FINE_STEP) + 1)))
    exact = {}
    zsd = []
    for j, (grid, marg) in enumerate(zip(box, _marginals(s, prior, *box))):
        theta = np.exp(grid)
        mean = float(marg @ theta)
        var = float(marg @ (theta - mean) ** 2)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (marg[1:] + marg[:-1]))])
        cdf /= cdf[-1]
        q = [float(np.exp(np.interp(p, cdf, grid))) for p in (0.025, 0.975)]
        exact[j] = (mean, var, q)
        zsd.append(math.sqrt(float(marg @ (grid - z0[j]) ** 2)))
    return exact, np.array(zsd)


def _batch_mcse(values, n_chains, batches=40):
    """Mean over chains and the batch-means standard error of that mean."""
    b = values.reshape(n_chains * batches, -1).mean(axis=1)
    return float(values.mean()), float(b.std(ddof=1) / math.sqrt(b.size))


def grid_mismatches(draws, n_chains, exact, tol=4.0):
    """Checks of retained draws (n_chains * m, 2), merged in chain order,
    against ``exact`` that miss by more than ``tol`` batch-means MCSE: the
    mean, the variance about the exact mean (so the sd) and the CDF at the
    exact 2.5% and 97.5% quantiles.  Returns (param, check, got, want, se)
    for each miss; an empty list means every check passed."""
    draws = draws.reshape(n_chains, -1, 2)
    misses = []
    for j in (0, 1):
        mean, var, (q_lo, q_hi) = exact[j]
        x = draws[:, :, j]
        for name, values, want in [("mean", x, mean), ("var", (x - mean) ** 2, var),
                                   ("cdf 2.5%", (x <= q_lo).astype(float), 0.025),
                                   ("cdf 97.5%", (x <= q_hi).astype(float), 0.975)]:
            got, se = _batch_mcse(values, n_chains)
            if abs(got - want) > tol * se:
                misses.append((j, name, got, want, se))
    return misses
