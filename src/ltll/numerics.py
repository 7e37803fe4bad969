"""Small numerics shared by the layers, plus a splittable random-number source.

The package needs numpy and the standard library only.  This module holds a
counter-based uniform generator, the standard normal quantile (the
standard library's, vectorized over arrays), the closed-form chi-squared(2)
quantile, and a symmetric 2x2 matrix type.

Everything here is deterministic: functions are pure, and random draws are a
pure function of (master_seed, stream_id, counter).  The generator is
counter-based so that parallel replications can share a master seed while
drawing from provably disjoint, reproducible streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

__all__ = [
    "RngStream",
    "SymMatrix2",
    "chi2_quantile_2dof",
    "normal_quantile",
]


# ---------------------------------------------------------------------------
# Counter-based random number generation
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1B54A32D192ED03

_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_C1 = np.uint64(0xBF58476D1CE4E5B9)
_U64_C2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53
# The top word 2**53 - 1 plus 0.5 rounds to 2**53; no other word maps here.
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: avalanche each 64-bit word of a uint64 array."""
    z = z ^ (z >> np.uint64(30))
    z *= _U64_C1
    z ^= z >> np.uint64(27)
    z *= _U64_C2
    return z ^ (z >> np.uint64(31))


def _stream_key(master_seed: int, stream_id: int) -> int:
    # Masked Python ints into a uint64 array: numpy scalars warn on overflow.
    ab = _mix64_array(np.array([(master_seed + _GOLDEN) & _MASK64,
                                (stream_id + _STREAM_SALT) & _MASK64], dtype=np.uint64))
    return int(_mix64_array(ab[:1] ^ ab[1:])[0])


@dataclass
class RngStream:
    """Counter-based uniform source keyed by (master_seed, stream_id).

    The i-th output of a stream is ``mix64(key + (i+1)*GOLDEN)`` where the key
    is a hash of (master_seed, stream_id); draws therefore depend only on the
    key and the counter, never on execution order elsewhere.  Streams with
    equal keys replay identical sequences, and distinct stream ids under one
    master seed are statistically independent.
    """

    master_seed: int
    stream_id: int = 0
    counter: int = 0
    _key: int = field(init=False, repr=False)

    def __post_init__(self):
        if not (0 <= self.master_seed <= _MASK64 and 0 <= self.stream_id <= _MASK64):
            raise ValueError("master_seed and stream_id must be unsigned 64-bit integers")
        self._key = _stream_key(self.master_seed, self.stream_id)

    def uniforms(self, k: int) -> np.ndarray:
        """Next ``k`` uniforms, strictly inside (0, 1)."""
        idx = np.arange(self.counter + 1, self.counter + k + 1, dtype=np.uint64)
        words = _mix64_array(np.uint64(self._key) + idx * _U64_GOLDEN)
        self.counter += k
        u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53
        return np.minimum(u, _BELOW_ONE, out=u)


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

def chi2_quantile_2dof(p: float) -> float:
    """Quantile of the chi-squared distribution with 2 degrees of freedom.

    With 2 dof the CDF is 1 - exp(-q/2), so the quantile is exactly
    -2*ln(1-p).
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability must lie strictly in (0, 1), got {p}")
    return -2.0 * np.log1p(-p)


_inv_cdf = np.vectorize(NormalDist().inv_cdf, otypes=[np.float64])


def normal_quantile(p):
    """Standard normal quantile (inverse CDF) for p in (0, 1).

    Accepts scalars or arrays; a scalar argument returns a float.  The value
    is ``statistics.NormalDist().inv_cdf``, Wichura's AS241, one call per
    element.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("normal_quantile requires 0 < p < 1")
    out = _inv_cdf(p)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# 2x2 symmetric matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymMatrix2:
    """Symmetric 2x2 matrix stored as its three free entries."""

    a11: float
    a12: float
    a22: float

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a12

    @property
    def is_positive_definite(self) -> bool:
        return self.a11 > 0.0 and self.det() > 0.0

    def inverse(self) -> "SymMatrix2":
        d = self.det()
        if d == 0.0:
            raise np.linalg.LinAlgError("singular 2x2 matrix")
        return SymMatrix2(self.a22 / d, -self.a12 / d, self.a11 / d)

    def quad_form(self, d1: float, d2: float) -> float:
        """Evaluate (d1, d2) M (d1, d2)^T."""
        return self.a11 * d1 * d1 + 2.0 * self.a12 * d1 * d2 + self.a22 * d2 * d2

    def eigh(self):
        """Eigenvalues (descending) and matching unit eigenvectors as columns."""
        mid = 0.5 * (self.a11 + self.a22)
        disc = np.hypot(0.5 * (self.a11 - self.a22), self.a12)
        w = np.array([mid + disc, mid - disc])
        ang = 0.5 * np.arctan2(2.0 * self.a12, self.a11 - self.a22)
        c, s = np.cos(ang), np.sin(ang)
        vecs = np.array([[c, -s], [s, c]])
        return w, vecs

    def to_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])

    @classmethod
    def from_array(cls, m) -> "SymMatrix2":
        m = np.asarray(m, dtype=np.float64)
        return cls(float(m[0, 0]), 0.5 * float(m[0, 1] + m[1, 0]), float(m[1, 1]))
