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
they differ, ``_brentq`` finds it: scipy's C ``brentq`` step for step, given
the two end values the sign test already computed, so no solve loads
``scipy.optimize``. ``alpha_curve`` solves xi_1 and all its points on one
draw, so its alphas and xi_1 agree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import mc
from .models import ConfigurationError, ModelSpec
from .spectral import S_MAX_DEFAULT, FirstColumnSample


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    NO_ROOT_BELOW_S_MAX = "no_root_below_s_max"
    GAMMA_NON_NEGATIVE = "gamma_non_negative"
    FAILED = "failed"              # _brentq did not converge, or the solve raised


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


_XTOL, _RTOL, _MAXITER = 2e-12, 4 * math.ulp(1.0), 100  # brentq's defaults


def _div(x: float, y: float) -> float:
    # IEEE division, as in C: x / +-0 is +-inf, or NaN for x = 0 or NaN
    return x / y if y else x * math.copysign(math.inf, y)


def _brentq(f, a: float, b: float, fa: float, fb: float) -> tuple[float, bool]:
    """Root of f on [a, b], given fa = f(a) and fb = f(b), and whether it
    converged.

    This is scipy's C ``brentq`` (Brent 1973, ch. 4) step for step, with its
    defaults: the same contrapoint bookkeeping, inverse quadratic
    extrapolation or secant interpolation, step test, bisection and stopping
    test, so the iterates, the root and the flag are scipy's bit for bit.
    The arithmetic is IEEE double, as in C: an overflow is inf and a zero
    denominator gives inf or NaN, which fail the step test and bisect. A
    NaN value of f, and end values of one sign, raise ValueError, as scipy
    does.
    """
    def checked(x: float, fx) -> float:
        fx = float(fx)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = checked(xpre, fa), checked(xcur, fb)
    if fpre == 0:
        return xpre, True
    if fcur == 0:
        return xcur, True
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre  # the contrapoint: f(xblk) and f(xcur) differ in sign
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # inverse quadratic
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = checked(xcur, f(xcur))
    return xcur, False


def solve_alpha(cols: FirstColumnSample, s_max: float = S_MAX_DEFAULT,
                xi: float | None = None) -> AlphaSolve:
    """Root of s -> h(xi, s) - 1 on (0, s_max], frozen-draw deterministic.

    xi defaults to that of the sample's law. Status is gamma_non_negative
    when the Lyapunov estimate at xi is nonnegative beyond noise (no positive
    root exists, by convexity). Otherwise, if h is below 1 at
    s_lo = min(1e-4, s_max / 2) and at least 1 at s_max, ``_brentq`` solves
    on [s_lo, s_max] and ``bracket`` is that interval; if not, the status is
    no_root_below_s_max; if it does not converge on that interval (an
    end value can be +inf: a term |(I - xi*H) u|^s that overflows counts as
    +inf), it is failed. stderr_alpha propagates the Monte-Carlo uncertainty
    of h through the local slope: stderr(h at root) / |dh/ds at root|.
    """
    xi = cols.spec.xi if xi is None else xi
    gam = cols.gamma(xi)

    def no_root(status: SolveStatus, bracket=(np.nan, np.nan)) -> AlphaSolve:
        return AlphaSolve(xi=xi, alpha=np.nan, residual=np.nan, bracket=bracket,
                          stderr_alpha=np.nan, status=status, gamma=gam.mean,
                          gamma_stderr=gam.stderr)

    if gam.mean >= 3.0 * gam.stderr:
        return no_root(SolveStatus.GAMMA_NON_NEGATIVE)

    def f(s: float) -> float:
        with np.errstate(over="ignore"):
            return cols.h_row(xi, (s,))[0] - 1.0

    lo, hi = min(1e-4, s_max / 2), float(s_max)
    if not (f_lo := f(lo)) < 0 <= (f_hi := f(hi)):
        return no_root(SolveStatus.NO_ROOT_BELOW_S_MAX)
    root, converged = _brentq(f, lo, hi, f_lo, f_hi)
    if not converged:
        return no_root(SolveStatus.FAILED, (lo, hi))
    h_at = cols.h(root, xi)
    slope = cols.dh_ds(root, xi).mean
    stderr_alpha = h_at.stderr / abs(slope) if slope else np.inf
    return AlphaSolve(xi=xi, alpha=float(root), residual=float(h_at.mean - 1.0),
                      bracket=(lo, hi), stderr_alpha=float(stderr_alpha),
                      status=SolveStatus.CONVERGED, gamma=gam.mean,
                      gamma_stderr=gam.stderr)


def solve_xi1(cols: FirstColumnSample) -> float:
    """Unique xi_1 > 0 with h(xi_1, 1) = 1, by ``_brentq`` in xi.

    Precondition E<H e_1, e_1> > 0 is estimated on the frozen draw and must
    hold beyond 3 standard errors. The same frozen draw evaluates h(xi, 1)
    for every xi (the draw does not depend on xi), so g(xi) = h(xi, 1) - 1
    is convex with g(0) = 0, and g(hi/1024) < 0 <= g(hi) with
    hi = 16 / E<H e_1, e_1> decides whether the root is on that interval.
    No sign change there, and a solve that does not converge, raise
    RangeError.
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
    if not (g_lo := g(lo)) < 0 <= (g_hi := g(hi)):
        raise RangeError(f"no sign change of h(., 1) - 1 on [{lo:.4g}, {hi:.4g}]")
    root, converged = _brentq(g, lo, hi, g_lo, g_hi)
    if not converged:
        raise RangeError(f"the root of h(., 1) - 1 on [{lo:.4g}, {hi:.4g}] did not converge")
    return root


def alpha_curve(spec: ModelSpec, xi_grid, samples: int = 200_000, seed: int = 0,
                workers: int | None = None) -> AlphaCurve:
    """alpha(xi) over a xi-grid, with xi_1 and a strict-decrease report.

    xi_1 and every grid point are solved on one frozen draw of ``samples``
    columns from ``seed`` (common random numbers across xi). On that draw
    h(xi, s) is convex in s and in xi, so alpha - 1 has the sign of
    xi_1 - xi, and the converged alphas fall strictly as xi grows.

    The points are solved on ``workers`` threads. Each depends only on the
    frozen sample, so the curve does not depend on scheduling.
    """
    xi_grid = tuple(float(x) for x in xi_grid)
    cols = FirstColumnSample(spec, samples, seed, workers)
    xi1 = solve_xi1(cols)

    def point(i: int) -> AlphaSolve:
        xi = xi_grid[i]
        try:
            return solve_alpha(cols, xi=xi)
        except (RangeError, ValueError, ArithmeticError) as exc:
            # a numerical failure is recorded and the curve continues; any
            # other exception is a bug and propagates
            warnings.warn(f"alpha solve failed at xi={xi}: {exc}", RuntimeWarning)
            return AlphaSolve(xi=xi, alpha=np.nan, residual=np.nan,
                              bracket=(np.nan, np.nan), stderr_alpha=np.nan,
                              status=SolveStatus.FAILED)

    solves = mc.parallel_tasks(point, len(xi_grid), cols.workers)
    # a no-root point has its root beyond s_max: order it as +inf; with
    # gamma >= 0 there is no positive root: order it as 0; a failed point
    # has no order (NaN)
    boundary = {SolveStatus.NO_ROOT_BELOW_S_MAX: np.inf,
                SolveStatus.GAMMA_NON_NEGATIVE: 0.0, SolveStatus.FAILED: np.nan}
    report = []
    for left, right in zip(solves, solves[1:]):
        if left.status is right.status is SolveStatus.CONVERGED:
            unc = float(np.hypot(left.stderr_alpha, right.stderr_alpha))
            decreasing = bool(left.alpha - right.alpha > unc)
        else:
            # compared exactly; two equal boundary values count as decreasing
            a_l, a_r = (boundary.get(s.status, s.alpha) for s in (left, right))
            decreasing = bool(a_l > a_r or (a_l == a_r and left.status is right.status))
        report.append((left.xi, right.xi, decreasing))
    return AlphaCurve(solves=tuple(solves), xi1=xi1,
                      monotonicity_report=tuple(report))


# ---------------------------------------------------------------------------
# Contour grids (h over (parameter, s) with the h = 1 isoline)


@dataclass(frozen=True)
class ContourGrid:
    param_grid: tuple[float, ...]
    s_grid: tuple[float, ...]
    h: np.ndarray                # shape (len(param_grid), len(s_grid))
    isoline: tuple[np.ndarray, ...]  # polylines in (param, s) coordinates


def contour_grid(spec: ModelSpec, param: str, param_grid, s_grid,
                 samples: int = 100_000, seed: int = 0,
                 workers: int | None = None) -> ContourGrid:
    """h over a (b, s) or (eta, s) grid plus the h = 1 isoline.

    An eta-grid shares one frozen draw of H columns from ``seed`` across the
    whole grid (xi only rescales the columns). A b-grid changes the law with
    each column, so column i draws its own sample from the seed path
    ``(seed, i)``. Within a column every s shares the v computed once.
    The columns of an eta-grid are filled on ``workers`` threads; each is a
    function of the shared sample and its parameter, so the grid does not
    depend on scheduling. A b-grid fills its columns in turn, since each
    column already draws its sample on ``workers`` threads.
    An eta <= 0 or a b < 1 on the grid is a ConfigurationError;
    a non-integer b >= 1 is warned about and its column recorded as NaN.
    """
    if param not in ("b", "eta"):
        raise ValueError("param must be 'b' or 'eta'")
    param_grid = tuple(float(p) for p in param_grid)
    lowest = min(param_grid)
    if param == "eta" and not lowest > 0:
        raise ConfigurationError(f"eta must be > 0 on the parameter grid, got {lowest:g}")
    if param == "b" and not lowest >= 1:
        raise ConfigurationError(f"b must be >= 1 on the parameter grid, got {lowest:g}")
    s_grid = tuple(float(s) for s in s_grid)
    if param == "eta":
        shared = FirstColumnSample(spec, samples, seed, workers)

    def column(i: int) -> np.ndarray:
        p = param_grid[i]
        if param == "eta":
            cols, xi = shared, p / spec.b
        elif p != int(p):
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
    return ContourGrid(param_grid=param_grid, s_grid=s_grid, h=h, isoline=isoline)


# ---------------------------------------------------------------------------
# Marching squares (level-set polylines on a rectilinear grid)


def _interp(p1, p2, v1, v2, level):
    t = 0.5 if v2 == v1 else (level - v1) / (v2 - v1)
    return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))


def marching_squares(x: np.ndarray, y: np.ndarray, z: np.ndarray,
                     level: float) -> tuple[np.ndarray, ...]:
    """Isoline segments of z(x, y) at ``level``, chained into polylines.

    z is indexed [i, j] = (x[i], y[j]). Cells containing NaNs are skipped.
    Saddle cells are disambiguated by the cell-center average. Segments are
    chained where they cross the same grid edge, so a loop of any size
    closes, ending where it starts. Returns polylines as (k, 2) arrays of
    (x, y) points.
    """
    segments = []
    for i in range(len(x) - 1):
        for j in range(len(y) - 1):
            corners = [z[i, j], z[i + 1, j], z[i + 1, j + 1], z[i, j + 1]]
            if any(not np.isfinite(c) for c in corners):
                continue
            nodes = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            pts = [(x[a], y[b]) for a, b in nodes]
            idx = 0
            for k, c in enumerate(corners):
                if c > level:
                    idx |= 1 << k
            if idx in (0, 15):
                continue

            def cross(*edges):
                # each end: (the grid edge it crosses, the crossing point)
                segments.append(tuple(
                    (frozenset((nodes[p], nodes[q])),
                     _interp(pts[p], pts[q], corners[p], corners[q], level))
                    for p, q in edges))

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
    # a grid edge is crossed by the segments of at most two cells
    by_edge: dict = {}
    for si, ends in enumerate(segments):
        for edge, _ in ends:
            by_edge.setdefault(edge, []).append(si)
    seen = set()
    polylines = []
    for si in range(len(segments)):
        if si in seen:
            continue
        seen.add(si)
        chain = list(segments[si])
        for grow_head in (False, True):
            while True:
                tip = chain[0] if grow_head else chain[-1]
                cands = [c for c in by_edge[tip[0]] if c not in seen]
                if not cands:
                    break
                seen.add(cands[0])
                ca, cb = segments[cands[0]]
                nxt = cb if ca[0] == tip[0] else ca
                if grow_head:
                    chain.insert(0, nxt)
                else:
                    chain.append(nxt)
        polylines.append(np.asarray([point for _, point in chain]))
    return tuple(polylines)
