"""Small dense norm helpers: operator norms (largest singular value) and
Euclidean row norms.

Accuracy target is 1e-12 relative. The 2x2 closed form is used where it is
provably accurate and falls back to LAPACK SVD when the two singular values
nearly coincide (where the closed form loses half the mantissa). Its squared
Frobenius norm is squared again, which over- or underflows for entries
beyond about 1e77 or below 1e-77; such matrices are first scaled by a power
of two, which is exact.
"""

from __future__ import annotations

import numpy as np

# below this relative discriminant the 2x2 closed form cancels; use SVD
_DISC_REL_FLOOR = 1e-10
# squared Frobenius norms outside this range over- or underflow when squared
_F_LO, _F_HI = 1e-150, 1e150


def _norms_2x2(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest singular values of a (n, 2, 2) stack, and the squared
    Frobenius norms the closed form used."""
    a, b = p[:, 0, 0], p[:, 0, 1]
    c, e = p[:, 1, 0], p[:, 1, 1]
    f = a * a + b * b + c * c + e * e
    det = a * e - b * c
    disc2 = f * f - 4.0 * det * det
    out = np.sqrt((f + np.sqrt(np.maximum(disc2, 0.0))) / 2.0)
    shaky = disc2 < _DISC_REL_FLOOR * f * f
    if shaky.any():
        out[shaky] = np.linalg.svd(p[shaky], compute_uv=False)[:, 0]
    return out, f


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
            out, f = _norms_2x2(p)
        extreme = (f > _F_HI) | (f < _F_LO)
        if extreme.any():
            q = p[extreme]
            exp = np.frexp(np.abs(q).max(axis=(1, 2)))[1]
            scaled, _ = _norms_2x2(np.ldexp(q, -exp[:, None, None]))
            out[extreme] = np.ldexp(scaled, exp)
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


def operator_norm(m: np.ndarray) -> float:
    return float(batch_operator_norms(np.asarray(m, dtype=float)[None])[0])
