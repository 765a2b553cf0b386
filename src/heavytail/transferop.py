"""Discretized transfer operators on the circle (d = 2 only).

The operator acts on functions f of the unit circle by
``(T f)(x) = E |A x|^s f(A.x)`` with ``A.x = Ax/|Ax|``. Every H law is
exactly symmetric, so A^T x = A x and the adjoint operator is the same
build. Its spectral radius equals k(s); the leading right eigenvector of
the discretized matrix (acting on measures) approximates the stationary
angular measure, and the leading right eigenvector of its transpose
approximates the eigenfunction.

Discretization: n_bins arcs of equal width; column j holds Monte-Carlo
estimates of E[|A x_j|^s 1{A.x_j in bin i}] for the bin center x_j. Bin
edges are half-open with ties going to the lower-index bin. Directions x
and -x are distinct bins (the circle is not projectivized). Each column
owns a derived substream, so builds parallelize deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mc
from .linalg import row_norms
from .models import ModelSpec, iter_h_blocks


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_spectrum=None):
        super().__init__(message)
        self.last_spectrum = last_spectrum


@dataclass(frozen=True)
class DiscretizedOperator:
    """Nonnegative transition-weight matrix approximating the transfer operator.

    ``matrix[i, j]`` estimates E[|A x_j|^s 1{A.x_j in bin i}]; at s = 0 each
    column sums to 1 up to Monte-Carlo noise (a Markov operator).
    """

    s: float
    n_bins: int
    matrix: np.ndarray
    build_samples: int
    skipped: int = 0  # draws with |A x_j| = 0, excluded


@dataclass(frozen=True)
class OperatorSpectrum:
    """Leading eigenvalue with eigenfunction and angular eigenmeasure.

    The eigenmeasure is a probability vector over bins; the eigenfunction is
    normalized so that sum(eigenfunction * eigenmeasure) = 1.
    """

    leading_eigenvalue: float
    eigenfunction: np.ndarray
    eigenmeasure: np.ndarray
    iterations: int


def bin_centers(n_bins: int) -> np.ndarray:
    """The angles of the centres of the n_bins equal arcs."""
    return (np.arange(n_bins) + 0.5) * (2 * np.pi / n_bins)


def _bin_index(angles: np.ndarray, n_bins: int) -> np.ndarray:
    """Half-open bins [i*delta, (i+1)*delta); exact edge hits go down."""
    delta = 2 * np.pi / n_bins
    idx = np.ceil(angles / delta).astype(int) - 1
    return np.clip(idx, 0, n_bins - 1)


def build_operator(spec: ModelSpec, s: float, n_bins: int, samples: int,
                   seed: int = 0, workers: int | None = None) -> DiscretizedOperator:
    """Monte-Carlo build of the discretized operator (d = 2 models only).

    ``samples`` draws per column; column j uses substream j of ``seed``.
    """
    if spec.d != 2:
        raise ValueError(f"the circle discretization needs d = 2 models, got d={spec.d}")
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    centers = bin_centers(n_bins)
    matrix = np.zeros((n_bins, n_bins))
    xi = spec.xi

    def build_column(j: int) -> tuple[np.ndarray, int]:
        rng = mc.substream(seed, j)
        x = np.array([np.cos(centers[j]), np.sin(centers[j])])
        col = np.zeros(n_bins)
        col_skipped = 0
        for h in iter_h_blocks(spec, samples, rng):
            ax = x[None, :] - xi * np.einsum("mij,j->mi", h, x)
            norms = row_norms(ax)
            ok = norms > 0
            col_skipped += int((~ok).sum())
            ax, norms = ax[ok], norms[ok]
            angles = np.mod(np.arctan2(ax[:, 1], ax[:, 0]), 2 * np.pi)
            np.add.at(col, _bin_index(angles, n_bins), norms ** s)
        # zero-norm draws contribute zero weight; the divisor stays the
        # requested draw count so the column estimates the full expectation
        return col / samples, col_skipped

    results = mc.parallel_tasks(build_column, n_bins, workers)
    skipped = 0
    for j, (col, col_skipped) in enumerate(results):
        matrix[:, j] = col
        skipped += col_skipped
    return DiscretizedOperator(s=s, n_bins=n_bins, matrix=matrix,
                               build_samples=samples, skipped=skipped)


def power_iterate(op: DiscretizedOperator, tol: float = 1e-12,
                  max_iter: int = 20_000) -> OperatorSpectrum:
    """Leading eigenvalue, eigenfunction and eigenmeasure by power iteration.

    The measure iterate runs on ``matrix``, the function iterate on its
    transpose; convergence is declared when successive Rayleigh quotients
    differ by less than ``tol`` (relative). Non-convergence raises with the
    last iterate attached.
    """
    m = op.matrix
    n = op.n_bins
    mu = np.full(n, 1.0 / n)
    f = np.ones(n)
    lam = 0.0
    for it in range(1, max_iter + 1):
        mu_next = m @ mu
        lam_next = mu_next.sum()        # Rayleigh quotient against 1 (mu sums to 1)
        f_next = m.T @ f
        f_scale = f_next.max()
        if lam_next <= 0 or f_scale <= 0:
            raise PowerIterationError("operator iterate collapsed to zero")
        mu_next /= lam_next
        f_next /= f_scale
        if abs(lam_next - lam) <= tol * abs(lam_next):
            inner = float(f_next @ mu_next)
            spec_out = OperatorSpectrum(
                leading_eigenvalue=float(lam_next),
                eigenfunction=f_next / inner,
                eigenmeasure=mu_next,
                iterations=it,
            )
            return spec_out
        mu, f, lam = mu_next, f_next, lam_next
    last = OperatorSpectrum(float(lam), f / max(float(f @ mu), 1e-300), mu, max_iter)
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} iterations", last)


def eigenfunction_representation_check(spectrum: OperatorSpectrum,
                                       s: float) -> tuple[float, float]:
    """Max relative deviation of e(x) from c * sum_y |<x, y>|^s d(measure).

    The adjoint is the same build, so one spectrum supplies both e and the
    measure. The proportionality constant c is fitted by least squares;
    returns (max relative deviation, fitted c).
    """
    centers = bin_centers(len(spectrum.eigenfunction))
    x = np.stack([np.cos(centers), np.sin(centers)], axis=1)
    inner = np.abs(x @ x.T) ** s
    g = inner @ spectrum.eigenmeasure
    e = spectrum.eigenfunction
    c = float((e @ g) / (g @ g))
    deviation = np.abs(c * g - e) / np.abs(e)
    return float(deviation.max()), c
