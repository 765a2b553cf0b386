"""Small dense norm helpers: operator norms (largest singular value) and
Euclidean row norms.

Accuracy target is 1e-12 relative. A 2x2 matrix [[a, b], [c, e]] has the
largest singular value (|(a + e, b - c)| + |(a - e, b + c)|) / 2, a sum of
two non-negative terms, so it keeps a few ulps of accuracy even where the
two singular values nearly coincide (the closed form from the
discriminant of M^T M lost up to 2e-11 there). Its squares over- or
underflow for norms beyond about 1e154 or below 1e-154; such matrices are
first scaled by a power of two, which is exact.
"""

from __future__ import annotations

import numpy as np

# 2x2 norms outside this range may have over- or underflowed squares (a
# norm read as 0 may be one)
_NORM_LO, _NORM_HI = 1e-150, 1e150


def _norms_2x2(p: np.ndarray) -> np.ndarray:
    """Largest singular values of a (n, 2, 2) stack."""
    a, b = p[:, 0, 0], p[:, 0, 1]
    c, e = p[:, 1, 0], p[:, 1, 1]
    s, t, u, v = a + e, b - c, a - e, b + c
    return (np.sqrt(s * s + t * t) + np.sqrt(u * u + v * v)) / 2.0


def batch_operator_norms(p: np.ndarray) -> np.ndarray:
    """Largest singular value per matrix of a (n, d, d) stack."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 2:
        return batch_operator_norms(p[None])[0]
    d = p.shape[-1]
    if d == 1:
        return np.abs(p[:, 0, 0])
    if d == 2:
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            out = _norms_2x2(p)
        extreme = (out > _NORM_HI) | (out < _NORM_LO)
        if extreme.any():
            q = p[extreme]
            exp = np.frexp(np.abs(q).max(axis=(1, 2)))[1]
            out[extreme] = np.ldexp(_norms_2x2(np.ldexp(q, -exp[:, None, None])), exp)
        return out
    return np.linalg.svd(p, compute_uv=False)[..., 0]


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (n, d) array, finite wherever the row
    and its norm are. sqrt(sum x^2) overflows once an entry passes about
    1e154; such rows are first scaled by a power of two, which is exact, and
    every other row keeps the bits of the plain form."""
    with np.errstate(over="ignore"):
        out = np.sqrt((x * x).sum(axis=1))
    big = np.isinf(out)
    if big.any():
        q = x[big]
        exp = np.frexp(np.abs(q).max(axis=1))[1]
        scaled = np.ldexp(q, -exp[:, None])
        out[big] = np.ldexp(np.sqrt((scaled * scaled).sum(axis=1)), exp)
    return out
