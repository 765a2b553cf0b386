"""Matrix products Pi_n = A_1...A_n, partial sums R_n, and stop rules.

Every estimator here runs on one batched kernel, ``ProductState``. Products
are accumulated left-to-right (Pi_n = Pi_{n-1} A_n) so that the k-th
additive increment of R is Pi_{k-1} B_k. Heavy-tail regimes can overflow
doubles, so each product is stored as exp(log_scale) * pi, and pi is divided
by its operator norm whenever its peak entry leaves [1e-150, 1e150];
log ||Pi_n|| is then exact up to float rounding regardless of magnitude.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from . import mc
from .linalg import batch_operator_norms, dot_rows, row_norms
from .models import (BLOCK, MAX_SUPPORT_ATOMS, ConfigurationError, ModelSpec,
                     h_sum_support, independent_gaussian_b, pair_a, sample_h_sums,
                     sample_pairs)

_RENORM_HI = 1e150
_RENORM_LO = 1e-150


class ProductState:
    """Pi_n = exp(log_scale) * pi and R_n = sum_k Pi_{k-1} B_k for a batch
    of independent paths, starting from Pi_0 = I and R_0 = 0.

    The state is stored entry-major: ``pi_entries`` is (d, d, m) and
    ``r_entries`` (d, m), so each matrix or vector entry is one contiguous
    row over the m paths, and a step is a few whole-row multiply-adds in
    place of m tiny matrix products. ``pi`` and ``r`` are (m, d, d) and
    (m, d) views of them. Every entry of a product is the plain k-order
    sum of its terms, with no BLAS kernel: for a C-ordered a, the bits of
    ``np.einsum("mik,mkj->mij", pi, a)``.

    With ``gaussian_b`` the B's are standard Gaussian vectors independent of
    the A's and are never drawn: each step adds Pi_{k-1} Pi_{k-1}^T to a
    pending covariance S, and ``add_gaussian_b`` adds one N(0, S) draw per
    path to R and clears S. Given the A's, that draw has exactly the law of
    the pending sum of Pi_{k-1} B_k. S is stored as exp(2 cov_log_scale) *
    cov, also entry-major (d, d, m); cov_log_scale rises to log_scale
    whenever log_scale passes it, and a step adds (f pi)(f pi)^T with
    f = exp(log_scale - cov_log_scale) <= 1, so cov overflows only where R
    would and the terms of contracting paths underflow to 0. ``cov_factor``
    holds f, and is None while every f is 1.
    """

    def __init__(self, d: int, draws: int, gaussian_b: bool = False):
        self.pi_entries = np.zeros((d, d, draws))
        for i in range(d):
            self.pi_entries[i, i] = 1.0
        self.log_scale = np.zeros(draws)
        self.r_entries = np.zeros((d, draws))
        self._spare = np.empty_like(self.pi_entries)  # the next step's product
        self._term = np.empty(draws)                   # one product term
        # the next step's R: ``step`` writes it here and swaps the two
        self._r_spare = None if gaussian_b else np.empty_like(self.r_entries)
        self.cov = None
        if gaussian_b:
            self.cov = np.zeros((d, d, draws))
            self.cov_log_scale = np.zeros(draws)
            self.cov_factor = None

    @property
    def pi(self) -> np.ndarray:
        """The (m, d, d) view of ``pi_entries``."""
        return self.pi_entries.transpose(2, 0, 1)

    @property
    def r(self) -> np.ndarray:
        """The (m, d) view of ``r_entries``."""
        return self.r_entries.T

    def step(self, a: np.ndarray, b: np.ndarray | None = None) -> None:
        """R += Pi b (unless b is None), then Pi <- Pi a, for (m, d, d) a and
        (m, d) b, read as entry rows of any strides (contiguous for Bartlett
        draws). R is written into a second buffer, not updated in place, so
        the previous R stays readable until the next step. With
        ``gaussian_b``, b is None and Pi Pi^T is added to the pending
        covariance instead."""
        pi, d = self.pi_entries, len(self.pi_entries)
        if b is not None:
            # exp(0) = 1 and x * 1.0 == x, so the scale waits for a re-base
            scale = np.exp(self.log_scale) if self.log_scale.any() else None
            bt, r = b.T, self._r_spare
            for i in range(d):
                dot_rows(r[i], pi[i], bt, self._term)
                if scale is not None:
                    r[i] *= scale
                r[i] += self.r_entries[i]
            self.r_entries, self._r_spare = r, self.r_entries
        elif self.cov is not None:
            p = pi if self.cov_factor is None else pi * self.cov_factor
            # the spare rows are free until Pi a is formed below
            for i in range(d):
                for j in range(i, d):
                    # S is symmetric, and x * y == y * x bit for bit
                    t = dot_rows(self._spare[i, j], p[i], p[j], self._term)
                    self.cov[i, j] += t
                    if j > i:
                        self.cov[j, i] += t
        at, new = a.transpose(1, 2, 0), self._spare
        for i in range(d):
            for j in range(d):
                dot_rows(new[i, j], pi[i], at[:, j], self._term)
        self.pi_entries, self._spare = new, pi
        # running maximum over the d * d entry rows; a NaN or a zero peak
        # fails the quick bounds test and is left to the re-base mask
        rows = new.reshape(d * d, -1)
        peak = np.abs(rows[0])
        for row in rows[1:]:
            np.maximum(peak, np.abs(row, out=self._term), out=peak)
        rescale = ()
        if peak.size and not (_RENORM_LO <= peak.min() and peak.max() <= _RENORM_HI):
            rescale = np.flatnonzero((peak > _RENORM_HI) | ((peak > 0) & (peak < _RENORM_LO)))
        if len(rescale):
            sub = new[:, :, rescale]
            nm = batch_operator_norms(sub.transpose(2, 0, 1))
            new[:, :, rescale] = sub / nm
            self.log_scale[rescale] += np.log(nm)
            if self.cov is not None:
                ls, c = self.log_scale[rescale], self.cov_log_scale[rescale]
                up = np.maximum(ls, c)
                self.cov[:, :, rescale] *= np.exp(2.0 * (c - up))
                self.cov_log_scale[rescale] = up
                if self.cov_factor is None:
                    self.cov_factor = np.ones(len(self.log_scale))
                self.cov_factor[rescale] = np.exp(ls - up)

    def add_gaussian_b(self, rng: np.random.Generator) -> None:
        """R += exp(cov_log_scale) cov^(1/2) z with z ~ N(0, I_d) per path,
        then clear the pending covariance."""
        z = rng.standard_normal(self.r.shape)
        if z.shape[1] == 1:
            inc = np.sqrt(self.cov[0]) * z.T
        else:
            inc = np.einsum("mij,mj->im", _psd_factor(self.cov.transpose(2, 0, 1)), z)
        self.r_entries = self.r_entries + np.exp(self.cov_log_scale) * inc
        self.cov[:] = 0.0
        self.cov_log_scale = self.log_scale.copy()
        self.cov_factor = None

    def log_norms(self) -> np.ndarray:
        """log ||Pi_n|| per path (log 1e-300 for a zero product)."""
        return self.log_scale + np.log(np.maximum(batch_operator_norms(self.pi), 1e-300))

    def keep(self, mask: np.ndarray) -> None:
        """Drop the paths where mask is False (not for a ``gaussian_b``
        state). The kept paths move to the front of each entry row in place,
        and every array becomes a view of that front: the state's arrays are
        allocated once, when it is built."""
        k = np.count_nonzero(mask)
        for row in itertools.chain(*self.pi_entries, self.r_entries, (self.log_scale,)):
            row[:k] = row[mask]
        self.pi_entries, self._spare = self.pi_entries[..., :k], self._spare[..., :k]
        self.r_entries, self._r_spare = self.r_entries[:, :k], self._r_spare[:, :k]
        self.log_scale, self._term = self.log_scale[:k], self._term[:k]


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """F with F F^T = S for each symmetric positive semidefinite S of a
    (m, d, d) stack, from eigh with the eigenvalues clipped at 0, so a
    singular or zero S is fine (Cholesky fails on both)."""
    w, v = np.linalg.eigh(cov)
    return v * np.sqrt(np.maximum(w, 0.0))[:, None, :]


class StopStatus(str, Enum):
    TOL_PROD = "tol_prod"          # product norm fell below tolerance
    N_MAX = "n_max"                # iteration cap hit, product had contracted below 1
    NON_CONTRACTION = "non_contraction"  # iteration cap hit without contraction
    DIVERGED = "diverged"          # non-finite entries encountered


@dataclass(frozen=True)
class StopRule:
    """Stop when ||Pi_n|| <= tol_prod, else at n_max."""

    tol_prod: float = 1e-12
    n_max: int = 100_000


@dataclass
class StationaryBatch:
    """Truncated stationary draws for a batch of independent trajectories."""

    r: np.ndarray              # (n, d) truncated series values
    n_steps: np.ndarray        # (n,) stop step per trajectory
    log_pi_final: np.ndarray   # (n,) log ||Pi|| at the stop step
    status: np.ndarray         # (n,) StopStatus values (object array of str)

    @property
    def abs_r(self) -> np.ndarray:
        return row_norms(self.r)


def sample_r_batch(spec: ModelSpec, draws: int, rng: np.random.Generator,
                   stop: StopRule = StopRule()) -> StationaryBatch:
    """Draw ``draws`` independent truncated stationary-series values R.

    Each trajectory runs until ||Pi_n|| <= tol_prod or n_max. Trajectories
    whose product never contracted below 1 by n_max are flagged
    NON_CONTRACTION (suggesting a nonnegative Lyapunov exponent or too small
    an n_max). A trajectory that meets a non-finite value is flagged
    DIVERGED and keeps its last finite R. The product state holds only the
    active trajectories, so cost is proportional to the realized total
    number of steps.
    """
    d = spec.d
    state = ProductState(d, draws)
    r = np.zeros((draws, d))
    n_steps = np.zeros(draws, dtype=int)
    log_final = np.zeros(draws)
    status = np.full(draws, StopStatus.N_MAX.value, dtype=object)
    active = np.arange(draws)
    log_tol = np.log(stop.tol_prod) if stop.tol_prod > 0 else -np.inf

    n = 0
    while active.size and n < stop.n_max:
        n += 1
        h, b = sample_pairs(spec, active.size, rng)
        r_prev = state.r
        with np.errstate(over="ignore", invalid="ignore"):
            state.step(pair_a(spec, h, out=h), b)
            log_norm = state.log_norms()
        bad = ~np.isfinite(log_norm) | ~functools.reduce(
            np.logical_and, map(np.isfinite, state.r_entries))
        ended = bad | (log_norm <= log_tol) | (n == stop.n_max)
        if ended.any():
            # a path that neither diverged nor met tol_prod ended at n_max;
            # each status write overrides the one before it
            idx, lf = active[ended], log_norm[ended]
            n_steps[idx] = n
            log_final[idx] = lf
            r[idx] = state.r[ended]
            status[idx[lf >= 0]] = StopStatus.NON_CONTRACTION.value
            status[idx[lf <= log_tol]] = StopStatus.TOL_PROD.value
            idx = active[bad]
            status[idx] = StopStatus.DIVERGED.value
            log_final[idx] = np.inf
            r[idx] = r_prev[bad]
            alive = ~ended
            state.keep(alive)
            active = active[alive]
    return StationaryBatch(r=r, n_steps=n_steps, log_pi_final=log_final, status=status)


def sample_r_parallel(spec: ModelSpec, draws: int, seed: mc.Seed,
                      stop: StopRule = StopRule(),
                      workers: int | None = None) -> StationaryBatch:
    """``sample_r_batch`` over ``workers`` substreams, merged in worker order.

    Worker i draws its ``mc._chunk_sizes`` share on ``mc.substream(seed, i)``,
    so one worker draws exactly ``sample_r_batch(spec, draws,
    mc.substream(seed, 0), stop)``.
    """
    workers = mc.resolve_workers(workers)
    sizes = mc._chunk_sizes(draws, workers)
    parts = mc.parallel_tasks(
        lambda i: sample_r_batch(spec, sizes[i], mc.substream(seed, i), stop),
        workers, workers)
    return StationaryBatch(*(np.concatenate([getattr(p, f.name) for p in parts])
                             for f in fields(StationaryBatch)))


# A non-scalar tilt computes |A_i x| for each of the m points of the sum
# support on every path-step, where the plain sampler sums b atoms and
# multiplies d x d matrices. It is used while m <= NON_SCALAR_TILT_FACTOR
# * (b + d): at that limit a tilted step took 1.2 to 4.2 times a plain one
# (d = 2..4, b = 1..8), and at m = 1287 (d = 2, b = 8) it took 63 times.
NON_SCALAR_TILT_FACTOR = 4


class AlphaTilt:
    """The alpha-tilt of a finite-support H law, for importance sampling E|R_n|^alpha.

    A tilted step draws atom i of the b-fold sum support (``h_sum_support``)
    with probability p_i |A_i x|^alpha / c(x), c(x) = sum_i p_i |A_i x|^alpha,
    where x is the unit direction of A_{k-1} ... A_1 e_1. The step's
    likelihood ratio (tilted over model law) is |A_i x|^alpha / c(x); over
    the first K steps it telescopes to |A_K ... A_1 e_1|^alpha / prod_k c(x_k).
    In d = 1, and when every atom is a multiple of I, c is the constant
    k(alpha) and x is not tracked. Where every |A_i x| is equal the tilt is
    the model law itself and the ratio is exactly 1.
    """

    def __init__(self, atoms: np.ndarray, probs: np.ndarray, alpha: float):
        self.atoms = atoms                      # (m, d, d): A_i = I - xi H_i
        self.probs = probs
        self.alpha = float(alpha)
        self.nominal_cdf = _inner_cdf(probs)
        self.scalar = np.array_equal(atoms, atoms[:, :1, :1] * np.eye(atoms.shape[1]))
        if self.scalar:
            cdf, ratio = self._tilt(np.abs(atoms[:, 0, 0])[None, :])
            self.tilted_cdf, self.ratio = cdf[0], ratio[0]
            self.cdf_pairs = np.stack([self.nominal_cdf, self.tilted_cdf], axis=1)

    @classmethod
    def for_spec(cls, spec: ModelSpec, alpha: float) -> "AlphaTilt | None":
        """The exact tilt of spec's H law, or None: without a finite sum
        support, or with non-scalar atoms and more than
        NON_SCALAR_TILT_FACTOR * (b + d) support points."""
        if not spec.has_finite_h_support:
            return None
        limit = (MAX_SUPPORT_ATOMS if spec.h_law.rotation_invariant
                 else NON_SCALAR_TILT_FACTOR * (spec.b + spec.d))
        support = h_sum_support(spec, limit)
        if support is None:
            return None
        h, probs = support
        return cls(pair_a(spec, h), probs, alpha)

    def _tilt(self, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tilted inner CDFs and per-atom ratios |A_i x|^alpha / c(x) by row."""
        v = norms ** self.alpha
        c = v @ self.probs
        cdf = np.cumsum(v * self.probs, axis=1)[:, :-1]
        flat = (v.max(axis=1) == v.min(axis=1)) | ~(c > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cdf /= c[:, None]
            ratio = v / c[:, None]
        cdf[flat] = self.nominal_cdf
        ratio[flat] = 1.0
        return cdf, ratio

    def draw(self, u: np.ndarray, tilted: np.ndarray,
             x: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """Atom indices for uniforms u, tilted where the mask ``tilted`` is
        set, with each step's likelihood ratio. Updates the directions x in
        place."""
        if self.scalar and self.nominal_cdf.size <= _COUNT_BREAKPOINTS:
            # each row counts the breakpoints of its own CDF, chosen by its
            # mask: the indices of picking the tilted rows apart, bit for
            # bit, with no gather or scatter of rows. Per element and
            # breakpoint at 5e4 draws, the two masks took 0.35 ns where a
            # take of the pair by the int8 view of the mask took 4.8 ns.
            nominal = ~tilted
            idx = np.zeros(u.size, dtype=np.intp)
            for at_nominal, at_tilted in self.cdf_pairs:
                idx += (u >= at_tilted) & tilted | (u >= at_nominal) & nominal
            return idx, self.ratio.take(idx)
        idx = _pick(self.nominal_cdf, u)
        if self.scalar:
            t = np.flatnonzero(tilted)
            idx[t] = _pick(self.tilted_cdf, u[t])
            return idx, self.ratio.take(idx)
        ratio = np.empty(u.size)
        step = max(1, BLOCK // self.probs.size)  # rows per block, bounding memory
        for lo in range(0, u.size, step):
            rows = slice(lo, lo + step)
            ax = np.einsum("mij,nj->nmi", self.atoms, x[rows])
            norms = row_norms(ax)
            cdf, rat = self._tilt(norms)
            t = np.flatnonzero(tilted[rows])
            idx[lo + t] = (cdf[t] <= u[lo + t, None]).sum(axis=1)
            k = np.arange(ax.shape[0])
            chosen = idx[rows]
            ratio[rows] = rat[k, chosen]
            nm = norms[k, chosen]
            moved = nm > 0
            x[lo + np.flatnonzero(moved)] = ax[k, chosen][moved] / nm[moved, None]
        return idx, ratio


def _inner_cdf(probs: np.ndarray) -> np.ndarray:
    """Inner breakpoints of a discrete CDF, for ``_pick``."""
    cdf = np.cumsum(probs)
    return cdf[:-1] / cdf[-1]


# On 5e4 uniforms, counting breakpoints took 50 us against searchsorted's
# 490 us for one breakpoint and 1.6 ms against 2.3 ms for 32; the two cross
# between 48 and 64 breakpoints (2 vCPU, numpy 2.4). searchsorted is slow
# here because unsorted keys defeat its branch prediction.
_COUNT_BREAKPOINTS = 32


def _pick(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index i for each uniform u, with probability probs[i] on _inner_cdf(probs):
    the number of breakpoints <= u."""
    if cdf.size > _COUNT_BREAKPOINTS:
        return cdf.searchsorted(u, side="right")
    idx = np.zeros(u.size, dtype=np.intp)
    for c in cdf:
        idx += u >= c
    return idx


class TiltedPaths:
    """One batch of paths from the defensive mixture of alpha-tilts.

    Each path picks a grid point n_j uniformly and a tilt length K uniformly
    on {0..n_j-1}, and draws its first K atoms from the tilt. The weight of
    the prefix of length n is 1 / [(1/J) sum_j (1/n_j)(sum_{K<min(n,n_j)} L_K
    + max(n_j - n, 0) L_n)], where L_K is the tilt ratio of the first K
    steps; it is at most J / sum_j (1/n_j). ``partial_sum_norms`` fills
    ``weights[:, j]`` with the weight of the prefix of length n_grid[j].
    L, its running sum S_n = sum_{K<n} L_K and the sum of S_{n_j}/n_j over
    the grid points passed are stored divided by exp(log_shift), so they
    cannot overflow.
    """

    def __init__(self, tilt: AlphaTilt, n_grid: list[int], draws: int,
                 rng: np.random.Generator):
        self.tilt = tilt
        self.grid = _sorted_grid(n_grid)
        grid = np.asarray(self.grid)
        self.k = rng.integers(grid[rng.integers(len(grid), size=draws)])
        self.lr = np.ones(draws)
        self.lr_sum = np.zeros(draws)
        self.passed = np.zeros(draws)
        self.log_shift = np.zeros(draws)
        self.x = None if tilt.scalar else np.tile(np.eye(tilt.atoms.shape[1])[0], (draws, 1))
        self.weights = np.empty((draws, len(self.grid)))

    def step(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The A matrices of step n; steps n <= K are tilted."""
        u = rng.random(self.lr.size)
        idx, ratio = self.tilt.draw(u, self.k >= n, self.x)
        self.lr_sum += self.lr
        self.lr *= ratio
        if self.lr.max(initial=0.0) > _RENORM_HI:
            big = self.lr > _RENORM_HI
            f = self.lr[big]
            self.lr[big] = 1.0
            self.lr_sum[big] /= f
            self.passed[big] /= f
            self.log_shift[big] += np.log(f)
        return self.tilt.atoms.take(idx, axis=0)

    def record(self, pos: int) -> None:
        """Store the weight of the prefix ending at grid point ``pos``."""
        n = self.grid[pos]
        self.passed += self.lr_sum / n
        denom = self.passed + sum((self.lr_sum + (nj - n) * self.lr) / nj
                                  for nj in self.grid[pos + 1:])
        self.weights[:, pos] = np.exp(-self.log_shift) / (denom / len(self.grid))


def _sorted_grid(n_grid: list[int]) -> list[int]:
    grid = sorted(int(n) for n in n_grid)
    if not grid:
        raise ConfigurationError("the n-grid is empty")
    if grid[0] < 1:
        raise ConfigurationError(f"n-grid values must be >= 1, got {grid[0]}")
    return grid


def partial_sum_norms(spec: ModelSpec, n_grid: list[int], draws: int,
                      rng: np.random.Generator,
                      paths: TiltedPaths | None = None) -> np.ndarray:
    """|R_n| for each n in n_grid, nested over the same trajectories.

    Returns shape (draws, len(n_grid)). All grid points reuse one set of
    trajectories (nested partial sums), which is what makes consecutive
    moment estimates comparable.

    With ``paths`` (built on the same n_grid and draws), H comes from their
    defensive mixture of alpha-tilts and B from the model's B law, and
    ``paths.weights`` gets the likelihood ratio of each prefix, so
    mean(paths.weights * |R_n|**alpha) estimates E|R_n|^alpha without bias.

    A standard Gaussian B independent of H (``independent_gaussian_b``) is
    not drawn step by step: at each grid point R gets one N(0, S) draw per
    path, S the covariance sum_k Pi_{k-1} Pi_{k-1}^T over the steps since the
    last grid point (``ProductState``), which given the A's is the exact law
    of those steps' B terms.
    """
    n_grid = _sorted_grid(n_grid)
    if paths is not None and (paths.grid != n_grid or paths.lr.size != draws):
        raise ValueError("paths were built for another n-grid or draw count")
    gaussian_b = independent_gaussian_b(spec)
    state = ProductState(spec.d, draws, gaussian_b)
    out = np.empty((draws, len(n_grid)))
    pos = 0
    for n in range(1, n_grid[-1] + 1):
        b = None
        if paths is not None:
            a = paths.step(n, rng)
            if not gaussian_b:
                b = spec.b_law.sample(draws, rng)
        elif gaussian_b:
            h = sample_h_sums(spec, draws, rng)
            a = pair_a(spec, h, out=h)
        else:
            h, b = sample_pairs(spec, draws, rng)
            a = pair_a(spec, h, out=h)
        state.step(a, b)
        if n < n_grid[pos]:
            continue
        if gaussian_b:
            state.add_gaussian_b(rng)
        norms = row_norms(state.r)
        while pos < len(n_grid) and n == n_grid[pos]:
            out[:, pos] = norms
            if paths is not None:
                paths.record(pos)
            pos += 1
    return out


def moment_growth_curve(spec: ModelSpec, alpha: float, n_grid: list[int],
                        samples: int, seed: int,
                        workers: int | None = None) -> list[tuple[int, mc.McEstimate]]:
    """E|R_n|^alpha for each n in n_grid, nested over shared trajectories.

    For a finite-support H law the estimate is importance-sampled from the
    defensive mixture of alpha-tilts (``AlphaTilt``, ``TiltedPaths``;
    Collamore, Diao & Vidyashankar 2014): the rare product excursions that
    carry the mean near the tail index are drawn often and weighted down,
    and the weights are bounded, so the reported stderr is honest. Other
    laws get plain Monte Carlo with a RuntimeWarning: continuous H, a sum
    support too large to expand, or non-scalar atoms whose sum support is
    too large to tilt at each step (``AlphaTilt.for_spec``). Its stderr is
    a sample stderr and can understate the error by many sigma when alpha
    is near the tail index.
    """
    n_grid = _sorted_grid(n_grid)
    tilt = AlphaTilt.for_spec(spec, alpha)
    if tilt is None:
        warnings.warn("no exact alpha-tilt affordable for this H law; E|R_n|^alpha "
                      "is plain Monte Carlo, whose stderr can understate the error "
                      "by many sigma when alpha is near the tail index",
                      RuntimeWarning, stacklevel=2)

    def task(rng, m):
        if tilt is None:
            return partial_sum_norms(spec, n_grid, m, rng) ** alpha
        paths = TiltedPaths(tilt, n_grid, m, rng)
        norms = partial_sum_norms(spec, n_grid, m, rng, paths)
        np.power(norms, alpha, out=norms)
        return np.multiply(norms, paths.weights, out=norms)

    values = mc.parallel_map(task, samples, seed, workers)
    return [(n, mc.estimate_from_values(values[:, j])) for j, n in enumerate(n_grid)]


@dataclass(frozen=True)
class TailBoundReport:
    """Empirical exceedance curve of |R_n| with a top-decade power fit."""

    n: int
    t_grid: np.ndarray
    exceedance: np.ndarray       # P(|R_n| > t) per t
    counts: np.ndarray           # exceedance counts per t
    slope: float                 # log-log fit over the top decade of t
    widened_uncertainty: bool    # < 50 exceedances in the top decade


def finite_iteration_tail(spec: ModelSpec, n: int, t_grid, samples: int, seed: int,
                          workers: int | None = None) -> TailBoundReport:
    """Exceedance curve of |R_n| plus its fitted log-log slope.

    The slope is fitted over the largest decade of t (t >= max(t)/10) using
    grid points with at least one exceedance; fewer than 50 exceedances at
    the top of that decade flags widened uncertainty.
    """
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if not (t_grid.size and (t_grid > 0).all()):
        raise ConfigurationError("the t-grid must be non-empty with every t > 0")

    def task(rng, m):
        return partial_sum_norms(spec, [n], m, rng)[:, 0]

    abs_r = mc.parallel_map(task, samples, seed, workers)
    counts = np.array([(abs_r > t).sum() for t in t_grid])
    exceed = counts / len(abs_r)
    top = t_grid >= t_grid[-1] / 10.0
    usable = top & (counts > 0)
    if usable.sum() >= 2:
        slope = float(np.polyfit(np.log(t_grid[usable]), np.log(exceed[usable]), 1)[0])
    else:
        slope = np.nan
    widened = bool(counts[top].min() < 50) if top.any() else True
    return TailBoundReport(n=n, t_grid=t_grid, exceedance=exceed, counts=counts,
                           slope=slope, widened_uncertainty=widened)
