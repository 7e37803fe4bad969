"""Central finite differences on R^2: an independent oracle for analytic derivatives.

Only function values enter, so these checks share no algebra with the
package's analytic score, Hessian and observed information.
"""

import numpy as np

from ltll.numerics import SymMatrix2


def _default_steps(theta, scale):
    return tuple(max(scale, scale * abs(t)) for t in theta)


def finite_diff_gradient(f, theta, h=None):
    """Central-difference gradient of f: R^2 -> R at theta, O(h^2) accurate."""
    t1, t2 = float(theta[0]), float(theta[1])
    h1, h2 = _default_steps((t1, t2), 1e-6) if h is None else (float(h[0]), float(h[1]))
    vals = (
        f((t1 + h1, t2)), f((t1 - h1, t2)),
        f((t1, t2 + h2)), f((t1, t2 - h2)),
    )
    if not all(np.isfinite(v) for v in vals):
        raise ValueError("function not finite at a gradient stencil point")
    return (vals[0] - vals[1]) / (2.0 * h1), (vals[2] - vals[3]) / (2.0 * h2)


def finite_diff_hessian(f, theta, h=None) -> SymMatrix2:
    """Symmetric central-difference Hessian of f: R^2 -> R at theta.

    The cross term is averaged over the two stencil orientations, so the
    result is symmetric by construction.  Steps default to 1e-4*max(1,|theta|)
    per coordinate: second differences need a larger step than gradients to
    keep cancellation error below truncation error.
    """
    t1, t2 = float(theta[0]), float(theta[1])
    h1, h2 = _default_steps((t1, t2), 1e-4) if h is None else (float(h[0]), float(h[1]))
    f0 = f((t1, t2))
    fpp = f((t1 + h1, t2 + h2))
    fpm = f((t1 + h1, t2 - h2))
    fmp = f((t1 - h1, t2 + h2))
    fmm = f((t1 - h1, t2 - h2))
    fp0 = f((t1 + h1, t2))
    fm0 = f((t1 - h1, t2))
    f0p = f((t1, t2 + h2))
    f0m = f((t1, t2 - h2))
    vals = (f0, fpp, fpm, fmp, fmm, fp0, fm0, f0p, f0m)
    if not all(np.isfinite(v) for v in vals):
        raise ValueError("function not finite at a Hessian stencil point")
    d11 = (fp0 - 2.0 * f0 + fm0) / (h1 * h1)
    d22 = (f0p - 2.0 * f0 + f0m) / (h2 * h2)
    d12 = (fpp - fpm - fmp + fmm) / (4.0 * h1 * h2)
    return SymMatrix2(d11, d12, d22)
