"""Tail-index solver: roots of h(xi, s) = 1 in s and in xi.

The root in s of h(xi, .) - 1 is the tail index alpha(xi); the root in xi of
h(., 1) - 1 is the critical step ratio xi_1 beyond which the stationary law
loses its mean. Both solves run on a common-random-numbers frozen draw of H
(exact enumeration for finite-support laws), so the function solved is
deterministic. The solvers take that draw, a ``FirstColumnSample``, and
nothing else; ``alpha_curve`` and ``contour_grid`` decide which samples to
draw.

On the frozen draw, h(xi, s) = sum_i w_i v_i^s is a positive combination of
exponentials in s, hence convex in s, with h(xi, 0) = 1; and each
v_i = |(I - xi*H_i) u| is the norm of an affine function of xi, so h(., 1)
is convex in xi with h(0, 1) = 1. The set where h < 1 is therefore an
interval starting at 0, and the signs of h - 1 at the two ends of the search
interval decide whether a root exists on it, and that it is unique. When
they differ, ``scipy.optimize.brentq`` finds it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.optimize import brentq

from . import mc
from .models import ModelSpec
from .spectral import S_MAX_DEFAULT, FirstColumnSample

XI1_REFINE_WINDOW = 0.05   # within 5% of xi_1 the root is shallow; refine
XI1_REFINE_SAMPLES = 4     # sample multiplier inside the window


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    NO_ROOT_BELOW_S_MAX = "no_root_below_s_max"
    GAMMA_NON_NEGATIVE = "gamma_non_negative"
    FAILED = "failed"              # the solver raised; recorded by alpha_curve


class RangeError(RuntimeError):
    """No sign change on the search interval, or its precondition failed."""


@dataclass(frozen=True)
class AlphaSolve:
    """Result of solving h(xi, alpha) = 1 for one xi."""

    xi: float
    alpha: float
    residual: float
    bracket: tuple[float, float]
    stderr_alpha: float
    status: SolveStatus
    gamma: float = np.nan
    gamma_stderr: float = np.nan


@dataclass(frozen=True)
class AlphaCurve:
    solves: tuple[AlphaSolve, ...]
    xi1: float
    monotonicity_report: tuple[tuple[float, float, bool], ...]
    # (xi_left, xi_right, decreasing-beyond-combined-uncertainty) per adjacent pair


def solve_alpha(cols: FirstColumnSample, s_max: float = S_MAX_DEFAULT,
                xi: float | None = None) -> AlphaSolve:
    """Root of s -> h(xi, s) - 1 on (0, s_max], frozen-draw deterministic.

    xi defaults to that of the sample's law. Status is gamma_non_negative
    when the Lyapunov estimate at xi is nonnegative beyond noise (no positive
    root exists, by convexity). Otherwise, if h is below 1 at
    s_lo = min(1e-4, s_max / 2) and at least 1 at s_max, brentq solves on
    [s_lo, s_max] and ``bracket`` is that interval; if not, the status is
    no_root_below_s_max. A term |(I - xi*H) u|^s that overflows counts as
    +inf. stderr_alpha propagates the Monte-Carlo uncertainty of h through
    the local slope: stderr(h at root) / |dh/ds at root|.
    """
    xi = cols.spec.xi if xi is None else xi
    gam = cols.gamma(xi)

    def no_root(status: SolveStatus) -> AlphaSolve:
        return AlphaSolve(xi=xi, alpha=np.nan, residual=np.nan,
                          bracket=(np.nan, np.nan), stderr_alpha=np.nan,
                          status=status, gamma=gam.mean, gamma_stderr=gam.stderr)

    if gam.mean >= 3.0 * gam.stderr:
        return no_root(SolveStatus.GAMMA_NON_NEGATIVE)

    def f(s: float) -> float:
        with np.errstate(over="ignore"):
            return cols.h_row(xi, (s,))[0] - 1.0

    lo, hi = min(1e-4, s_max / 2), float(s_max)
    if not f(lo) < 0 <= f(hi):
        return no_root(SolveStatus.NO_ROOT_BELOW_S_MAX)
    root = brentq(f, lo, hi)
    h_at = cols.h(root, xi)
    slope = cols.dh_ds(root, xi).mean
    stderr_alpha = h_at.stderr / abs(slope) if slope else np.inf
    return AlphaSolve(xi=xi, alpha=float(root), residual=float(h_at.mean - 1.0),
                      bracket=(lo, hi), stderr_alpha=float(stderr_alpha),
                      status=SolveStatus.CONVERGED, gamma=gam.mean,
                      gamma_stderr=gam.stderr)


def solve_xi1(cols: FirstColumnSample) -> float:
    """Unique xi_1 > 0 with h(xi_1, 1) = 1, by brentq in xi.

    Precondition E<H e_1, e_1> > 0 is estimated on the frozen draw and must
    hold beyond 3 standard errors. The same frozen columns evaluate h(xi, 1)
    for every xi (the columns do not depend on xi), so g(xi) = h(xi, 1) - 1
    is convex with g(0) = 0, and g(hi/1024) < 0 <= g(hi) with
    hi = 16 / E<H e_1, e_1> decides whether the root is on that interval.
    """
    h11 = cols.mean_h11()
    if not (h11.mean > 3.0 * h11.stderr):
        raise RangeError(
            f"E<H e_1,e_1> = {h11.mean:.4g} +- {h11.stderr:.2g} is not positive "
            "beyond 3 standard errors; no critical xi is guaranteed")

    def g(xi: float) -> float:
        return cols.h(1.0, xi).mean - 1.0

    hi = 16.0 / max(h11.mean, 1e-12)
    lo = hi / 1024.0
    if not g(lo) < 0 <= g(hi):
        raise RangeError(f"no sign change of h(., 1) - 1 on [{lo:.4g}, {hi:.4g}]")
    return float(brentq(g, lo, hi))


def alpha_curve(spec: ModelSpec, xi_grid, samples: int = 200_000, seed: int = 0,
                workers: int | None = None) -> AlphaCurve:
    """alpha(xi) over a xi-grid, with xi_1 and a strict-decrease report.

    Every solve shares one frozen draw (common random numbers across xi):
    xi_1 and the points outside the refine window use ``samples`` columns
    from ``seed``. Within 5% of xi_1 the implicit function is badly
    conditioned (the slope of h at s=1 vanishes), so those points share one
    sample four times as large, drawn from the same seed, and only if some
    point lies in the window.

    The points are solved on ``workers`` threads. Each depends only on the
    frozen samples and xi_1, so the curve does not depend on scheduling.
    """
    xi_grid = tuple(float(x) for x in xi_grid)
    cols = FirstColumnSample(spec, samples, seed, workers)
    xi1 = solve_xi1(cols)
    near = [abs(xi - xi1) <= XI1_REFINE_WINDOW * xi1 for xi in xi_grid]
    refined = (FirstColumnSample(spec, samples * XI1_REFINE_SAMPLES, seed, workers)
               if any(near) else None)

    def point(i: int) -> AlphaSolve:
        xi = xi_grid[i]
        try:
            return solve_alpha(refined if near[i] else cols, xi=xi)
        except (RangeError, ValueError, ArithmeticError) as exc:
            # a numerical failure is recorded and the curve continues; any
            # other exception is a bug and propagates
            warnings.warn(f"alpha solve failed at xi={xi}: {exc}", RuntimeWarning)
            return AlphaSolve(xi=xi, alpha=np.nan, residual=np.nan,
                              bracket=(np.nan, np.nan), stderr_alpha=np.nan,
                              status=SolveStatus.FAILED)

    solves = mc.parallel_tasks(point, len(xi_grid), cols.workers)
    report = []
    for left, right in zip(solves, solves[1:]):
        # a no-root point means the root lies beyond s_max: order it as +inf;
        # a failed point has no order (NaN)
        def effective(s: AlphaSolve) -> float:
            if s.status is SolveStatus.CONVERGED:
                return s.alpha
            if s.status is SolveStatus.NO_ROOT_BELOW_S_MAX:
                return np.inf
            return np.nan
        a_l, a_r = effective(left), effective(right)
        if np.isnan(a_l) or np.isnan(a_r):
            decreasing = False
        elif np.isinf(a_l) or np.isinf(a_r):
            decreasing = a_l > a_r or (np.isinf(a_l) and np.isinf(a_r))
        else:
            unc = float(np.hypot(left.stderr_alpha, right.stderr_alpha))
            decreasing = bool(a_l - a_r > unc)
        report.append((left.xi, right.xi, decreasing))
    return AlphaCurve(solves=tuple(solves), xi1=xi1,
                      monotonicity_report=tuple(report))


# ---------------------------------------------------------------------------
# Contour grids (h over (parameter, s) with the h = 1 isoline)


@dataclass(frozen=True)
class ContourGrid:
    param_grid: tuple[float, ...]
    s_grid: tuple[float, ...]
    h: np.ndarray                # raw values, shape (len(param_grid), len(s_grid))
    h_clipped: np.ndarray        # clipped at clip_level for display
    isoline: tuple[np.ndarray, ...]  # polylines in (param, s) coordinates


def contour_grid(spec: ModelSpec, param: str, param_grid, s_grid,
                 samples: int = 100_000, seed: int = 0,
                 workers: int | None = None, clip_level: float = 2.0) -> ContourGrid:
    """h over a (b, s) or (eta, s) grid plus the h = 1 isoline.

    An eta-grid shares one frozen draw of H columns from ``seed`` across the
    whole grid (xi only rescales the columns). A b-grid changes the law with
    each column, so column i draws its own sample from the seed path
    ``(seed, i)``. Within a column every s shares the v computed once.
    The columns of an eta-grid are filled on ``workers`` threads; each is a
    function of the shared sample and its parameter, so the grid does not
    depend on scheduling. A b-grid fills its columns in turn, since each
    column already draws its sample on ``workers`` threads.
    Values are clipped at ``clip_level`` for display; raw values are kept
    alongside. Failed cells are recorded as NaN.
    """
    if param not in ("b", "eta"):
        raise ValueError("param must be 'b' or 'eta'")
    param_grid = tuple(float(p) for p in param_grid)
    s_grid = tuple(float(s) for s in s_grid)
    if param == "eta":
        shared = FirstColumnSample(spec, samples, seed, workers)

    def column(i: int) -> np.ndarray:
        p = param_grid[i]
        if param == "eta":
            cols, xi = shared, p / spec.b
        elif p != int(p) or p < 1:
            warnings.warn(f"skipping non-integer batch size {p}", RuntimeWarning)
            return np.full(len(s_grid), np.nan)
        else:
            spec_b = replace(spec, b=int(p))
            cols = FirstColumnSample(spec_b, samples, (seed, i), workers)
            xi = spec_b.xi
        return cols.h_row(xi, s_grid)

    # a pool around the b-columns' own sampling pools put more threads on
    # their own malloc arenas, and some runs then peaked 15-35 MiB higher
    pool_workers = workers if param == "eta" else 1
    h = np.array(mc.parallel_tasks(column, len(param_grid), pool_workers)).reshape(
        len(param_grid), len(s_grid))
    isoline = marching_squares(np.asarray(param_grid), np.asarray(s_grid), h, 1.0)
    return ContourGrid(param_grid=param_grid, s_grid=s_grid, h=h,
                       h_clipped=np.minimum(h, clip_level), isoline=isoline)


# ---------------------------------------------------------------------------
# Marching squares (level-set polylines on a rectilinear grid)


def _interp(p1, p2, v1, v2, level):
    t = 0.5 if v2 == v1 else (level - v1) / (v2 - v1)
    return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))


def marching_squares(x: np.ndarray, y: np.ndarray, z: np.ndarray,
                     level: float) -> tuple[np.ndarray, ...]:
    """Isoline segments of z(x, y) at ``level``, chained into polylines.

    z is indexed [i, j] = (x[i], y[j]). Cells containing NaNs are skipped.
    Saddle cells are disambiguated by the cell-center average. Returns
    polylines as (k, 2) arrays of (x, y) points.
    """
    segments = []
    for i in range(len(x) - 1):
        for j in range(len(y) - 1):
            corners = [z[i, j], z[i + 1, j], z[i + 1, j + 1], z[i, j + 1]]
            if any(not np.isfinite(c) for c in corners):
                continue
            pts = [(x[i], y[j]), (x[i + 1], y[j]), (x[i + 1], y[j + 1]), (x[i], y[j + 1])]
            idx = 0
            for k, c in enumerate(corners):
                if c > level:
                    idx |= 1 << k
            if idx in (0, 15):
                continue

            def cross(e1, e2):
                a = _interp(pts[e1[0]], pts[e1[1]], corners[e1[0]], corners[e1[1]], level)
                b = _interp(pts[e2[0]], pts[e2[1]], corners[e2[0]], corners[e2[1]], level)
                segments.append((a, b))

            if idx in (5, 10):  # saddle: split by center value
                center = sum(corners) / 4.0
                cut_around_c1_c3 = (center > level) == (idx == 5)
                if cut_around_c1_c3:
                    cross((0, 1), (1, 2))
                    cross((2, 3), (0, 3))
                else:
                    cross((0, 1), (0, 3))
                    cross((1, 2), (2, 3))
                continue
            # complement cases cross the same edge pair
            table = {1: ((0, 1), (0, 3)), 2: ((0, 1), (1, 2)), 3: ((1, 2), (0, 3)),
                     4: ((1, 2), (2, 3)), 6: ((0, 1), (2, 3)), 7: ((2, 3), (0, 3))}
            cross(*table[min(idx, 15 - idx)])
    return _chain_segments(segments)


def _chain_segments(segments) -> tuple[np.ndarray, ...]:
    def key(p):
        return (round(p[0], 9), round(p[1], 9))

    # zero-length segments arise when the level passes exactly through a
    # grid node; they carry no geometry and break endpoint chaining
    segments = [(a, b) for a, b in segments if key(a) != key(b)]
    unused = list(range(len(segments)))
    by_end: dict = {}
    for si in unused:
        a, b = segments[si]
        by_end.setdefault(key(a), []).append(si)
        by_end.setdefault(key(b), []).append(si)
    seen = set()
    polylines = []
    for si in unused:
        if si in seen:
            continue
        seen.add(si)
        a, b = segments[si]
        chain = [a, b]
        for grow_head in (False, True):
            while True:
                tip = chain[0] if grow_head else chain[-1]
                cands = [c for c in by_end.get(key(tip), []) if c not in seen]
                if not cands:
                    break
                ci = cands[0]
                seen.add(ci)
                ca, cb = segments[ci]
                nxt = cb if key(ca) == key(tip) else ca
                if grow_head:
                    chain.insert(0, nxt)
                else:
                    chain.append(nxt)
        polylines.append(np.asarray(chain))
    return tuple(polylines)
