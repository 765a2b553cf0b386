"""Small dense row kernels: operator norms (largest singular value),
Euclidean row norms and the entry-row multiply-add.

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
    """Largest singular values of a (n, 2, 2) stack, in four arrays of n
    reused for every step of the formula."""
    a, b = p[:, 0, 0], p[:, 0, 1]
    c, e = p[:, 1, 0], p[:, 1, 1]
    s, t, u, v = a + e, b - c, a - e, b + c
    for x, y in ((s, t), (u, v)):
        np.square(x, out=x)
        x += np.square(y, out=y)
        np.sqrt(x, out=x)
    s += u
    s /= 2.0
    return s


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
    finite = np.isfinite(p).all(axis=(1, 2))
    if finite.all():
        return np.linalg.svd(p, compute_uv=False)[..., 0]
    # svd raises on a non-finite matrix; its norm is inf, or NaN with a NaN
    out = np.abs(p).max(axis=(1, 2))
    out[finite] = np.linalg.svd(p[finite], compute_uv=False)[..., 0]
    return out


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis of x, finite wherever the row and
    its norm are. sqrt(sum x^2) overflows once an entry passes about 1e154;
    such rows are first scaled by a power of two, which is exact, and every
    other row keeps the bits of the plain form."""
    with np.errstate(over="ignore"):
        out = np.sqrt((x * x).sum(axis=-1))
    big = np.isinf(out)
    if big.any():
        q = x[big]
        exp = np.frexp(np.abs(q).max(axis=-1))[1]
        scaled = np.ldexp(q, -exp[:, None])
        out[big] = np.ldexp(np.sqrt((scaled * scaled).sum(axis=-1)), exp)
    return out


def dot_rows(out: np.ndarray, xs, ys, term: np.ndarray) -> np.ndarray:
    """out = sum_k xs[k] * ys[k] over the shorter of two sequences of rows,
    added in k order, with each product after the first formed in the
    scratch row ``term``. Every entry is the plain k-order sum of its terms,
    with no BLAS kernel."""
    np.multiply(xs[0], ys[0], out=out)
    for x, y in zip(xs[1:], ys[1:]):
        out += np.multiply(x, y, out=term)
    return out
