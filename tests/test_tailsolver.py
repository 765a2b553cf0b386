import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heavytail.models import (MixtureLaw, ModelSpec, Variant, h_sum_support, rank1_gauss,
                              sample_h_columns, symm)
from heavytail import mc, tailsolver
from heavytail.spectral import FirstColumnSample, quadrature_oracle_d1
from heavytail.tailsolver import (AlphaSolve, RangeError, SolveStatus, alpha_curve,
                                  contour_grid, marching_squares, solve_alpha,
                                  solve_xi1)


def mixture_spec(eta=1.0, b=1):
    law = MixtureLaw((0.5 * np.eye(1), 2.5 * np.eye(1)), (0.5, 0.5))
    return symm(d=1, b=b, eta=eta, h_law=law)


def test_mixture_alpha_exact():
    # h(s) = (0.5^s + 1.5^s)/2 crosses 1 at s = 1 since 0.5 + 1.5 = 2
    solve = solve_alpha(FirstColumnSample(mixture_spec(), 100, seed=0))
    assert solve.status is SolveStatus.CONVERGED
    assert solve.alpha == pytest.approx(1.0, abs=1e-3)
    assert abs(solve.residual) <= 1e-3
    assert solve.bracket[0] <= solve.alpha <= solve.bracket[1]


def test_deterministic_contraction_has_no_root():
    # H = I, xi = 0.5: h(s) = 0.5^s < 1 for all s > 0
    spec = symm(d=1, b=1, eta=0.5, h_law=MixtureLaw((np.eye(1),)))
    solve = solve_alpha(FirstColumnSample(spec, 100, seed=1))
    assert solve.status is SolveStatus.NO_ROOT_BELOW_S_MAX


def test_gamma_non_negative_status():
    # H = -I (expanding): gamma = log|1 + xi| > 0
    spec = symm(d=1, b=1, eta=0.5, h_law=MixtureLaw((-np.eye(1),)))
    solve = solve_alpha(FirstColumnSample(spec, 100, seed=2))
    assert solve.status is SolveStatus.GAMMA_NON_NEGATIVE
    assert solve.gamma >= 0


def test_rank1gauss_alpha_against_quadrature_root():
    # eta = 2/3 makes E(1 - eta a^2)^2 = 1 - 2 eta + 3 eta^2 = 1: root is 2.0
    from scipy.optimize import brentq
    oracle_root = brentq(lambda s: quadrature_oracle_d1(2 / 3, "s", s) - 1.0,
                         1.0, 4.0, xtol=1e-10)
    assert oracle_root == pytest.approx(2.0, abs=1e-8)
    solve = solve_alpha(FirstColumnSample(rank1_gauss(1, 1, 2 / 3), 400_000, seed=3))
    assert solve.status is SolveStatus.CONVERGED
    assert solve.alpha == pytest.approx(2.0, abs=0.05)


def test_convexity_uniqueness_audit():
    # on the solving stream: h < 1 at alpha/2 and > 1 at 1.5*alpha
    spec = rank1_gauss(1, 1, 2 / 3)
    cols = FirstColumnSample(spec, 200_000, seed=4)
    solve = solve_alpha(cols)
    assert cols.h(solve.alpha / 2).mean < 1.0
    assert cols.h(min(solve.alpha * 1.5, 30.0)).mean > 1.0


def test_xi1_mixture_exact():
    xi1 = solve_xi1(FirstColumnSample(mixture_spec(), 100, seed=5))
    assert xi1 == pytest.approx(1.0, abs=1e-3)


def test_xi1_deterministic_scalar():
    # H = c: h(xi, 1) = |1 - xi c|, so xi_1 = 2/c
    for c in (0.5, 2.0):
        spec = symm(d=1, b=1, eta=1.0, h_law=MixtureLaw((c * np.eye(1),)))
        xi1 = solve_xi1(FirstColumnSample(spec, 10, seed=6))
        assert xi1 == pytest.approx(2 / c, abs=1e-3)


def test_xi1_requires_positive_mean_h11():
    spec = symm(d=1, b=1, eta=1.0, h_law=MixtureLaw((-np.eye(1),)))
    with pytest.raises(RangeError):
        solve_xi1(FirstColumnSample(spec, 10, seed=7))


def test_alpha_curve_mixture_decreasing():
    # bounded H support: below xi = 0.8 both |A| values are < 1, so the root
    # exceeds s_max (reported as such, standing in for alpha -> infinity);
    # past that the exact roots decrease toward 1 at xi_1 = 1
    spec = mixture_spec()
    curve = alpha_curve(spec, [0.5, 0.85, 0.9, 0.999], samples=100, seed=8)
    assert curve.solves[0].status is SolveStatus.NO_ROOT_BELOW_S_MAX
    alphas = [s.alpha for s in curve.solves[1:]]
    assert alphas[0] > alphas[1] > alphas[2]
    assert alphas[2] == pytest.approx(1.0, abs=5e-2)
    assert curve.xi1 == pytest.approx(1.0, abs=1e-3)
    assert all(ok for _, _, ok in curve.monotonicity_report)


def test_alpha_curve_at_xi1_returns_one():
    curve = alpha_curve(mixture_spec(), [1.0], samples=100, seed=9)
    assert curve.solves[0].alpha == pytest.approx(1.0, abs=1e-3)


def test_alpha_curve_records_a_failed_point_without_order(monkeypatch):
    real = tailsolver.solve_alpha

    def flaky(cols, *args, xi=None, **kwargs):
        if xi == 0.9:
            raise ValueError("injected")
        return real(cols, *args, xi=xi, **kwargs)

    monkeypatch.setattr(tailsolver, "solve_alpha", flaky)
    with pytest.warns(RuntimeWarning, match="alpha solve failed at xi=0.9"):
        curve = alpha_curve(mixture_spec(), [0.85, 0.9, 0.999], samples=100, seed=8)
    failed = curve.solves[1]
    assert failed.status is SolveStatus.FAILED and np.isnan(failed.alpha)
    assert [s.status for s in curve.solves[::2]] == [SolveStatus.CONVERGED] * 2
    # a failed point is unordered: neither neighbouring pair reads decreasing
    assert [ok for _, _, ok in curve.monotonicity_report] == [False, False]


def test_alpha_curve_orders_a_gamma_non_negative_point_as_zero():
    # gamma(xi) = (log|1 - xi/2| + log|1 - 5 xi/2|) / 2 >= 0 at xi = 2.5 and 3,
    # so no positive root exists there: alpha has fallen to 0
    curve = alpha_curve(mixture_spec(), [0.5, 0.9, 2.5, 3.0], samples=100, seed=8)
    assert [s.status for s in curve.solves] == [
        SolveStatus.NO_ROOT_BELOW_S_MAX, SolveStatus.CONVERGED,
        SolveStatus.GAMMA_NON_NEGATIVE, SolveStatus.GAMMA_NON_NEGATIVE]
    assert [ok for _, _, ok in curve.monotonicity_report] == [True, True, True]


def test_alpha_curve_compares_a_pair_with_a_boundary_end_exactly(monkeypatch):
    S = SolveStatus
    solves = {0.1: (S.NO_ROOT_BELOW_S_MAX, np.nan), 0.2: (S.NO_ROOT_BELOW_S_MAX, np.nan),
              0.3: (S.CONVERGED, 2.0), 0.4: (S.GAMMA_NON_NEGATIVE, np.nan),
              0.5: (S.GAMMA_NON_NEGATIVE, np.nan), 0.6: (S.CONVERGED, 1.0),
              0.7: (S.FAILED, np.nan), 0.8: (S.FAILED, np.nan)}

    def fake(cols, *args, xi=None, **kwargs):
        status, alpha = solves[xi]
        # a stderr far above every gap: only a pair of converged points uses it
        return AlphaSolve(xi=xi, alpha=alpha, residual=np.nan, bracket=(np.nan, np.nan),
                          stderr_alpha=10.0, status=status)

    monkeypatch.setattr(tailsolver, "solve_alpha", fake)
    curve = alpha_curve(mixture_spec(), list(solves), samples=100, seed=8)
    # +inf, +inf; +inf > 2; 2 > 0; 0, 0; 0 < 1; failed; failed
    assert [ok for _, _, ok in curve.monotonicity_report] == [
        True, True, True, True, False, False, False]


def test_alpha_curve_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(tailsolver, "solve_alpha", broken)
    with pytest.raises(TypeError, match="bug"):
        alpha_curve(mixture_spec(), [0.5, 0.9], samples=100, seed=8)


def test_alpha_curve_solves_every_point_on_one_sample(monkeypatch):
    # continuous law: xi_1 and every point, those within 5% of xi_1
    # included, are solved on the same frozen columns
    built = []

    class Recorded(FirstColumnSample):
        def __init__(self, spec, samples, seed, *args, **kwargs):
            super().__init__(spec, samples, seed, *args, **kwargs)
            built.append((self.n, seed))

    monkeypatch.setattr(tailsolver, "FirstColumnSample", Recorded)
    spec = rank1_gauss(d=2, b=8, eta=1.5)
    grid = [0.12, 0.16, 0.205, 0.21, 0.215, 0.24]
    curve = alpha_curve(spec, grid, samples=20_000, seed=40)
    assert built == [(20_000, 40)]

    cols = FirstColumnSample(spec, 20_000, seed=40)
    assert curve.xi1 == solve_xi1(cols)
    inside = [abs(xi - curve.xi1) <= 0.05 * curve.xi1 for xi in grid]
    assert inside == [False, False, True, True, True, False]
    for xi, got in zip(grid, curve.solves):
        assert got.status is SolveStatus.CONVERGED
        assert got == solve_alpha(cols, xi=xi)


def test_alpha_curve_on_two_workers_equals_serial_solves():
    # the points are solved on a thread pool; each must equal the serial
    # solve on the same frozen sample, field by field (NaN-aware: reprs
    # print every float to round trip). The grid covers every status.
    spec = rank1_gauss(d=2, b=8, eta=1.5)
    grid = [0.02, 0.12, 0.205, 0.21, 0.3]
    curve = alpha_curve(spec, grid, samples=20_000, seed=40, workers=2)
    cols = FirstColumnSample(spec, 20_000, seed=40, workers=2)
    assert curve.xi1 == solve_xi1(cols)
    want = [solve_alpha(cols, xi=xi) for xi in grid]
    assert [repr(s) for s in curve.solves] == [repr(s) for s in want]
    assert [s.status for s in curve.solves] == [
        SolveStatus.NO_ROOT_BELOW_S_MAX, SolveStatus.CONVERGED, SolveStatus.CONVERGED,
        SolveStatus.CONVERGED, SolveStatus.GAMMA_NON_NEGATIVE]


def test_alpha_curve_agrees_with_xi1_on_both_sides():
    # on one frozen sample, alpha - 1 has the sign of xi_1 - xi, and the
    # converged alphas fall strictly, also at 0.21, 3e-5 past xi_1 =
    # 0.20997, where alpha is 1 within its stderr
    curve = alpha_curve(rank1_gauss(d=2, b=8, eta=1.5), [0.205, 0.21, 0.215],
                        samples=200_000, seed=2, workers=2)
    converged = [s for s in curve.solves if s.status is SolveStatus.CONVERGED]
    assert [s.xi for s in converged] == [0.205, 0.21, 0.215]
    for s in converged:
        assert np.sign(s.alpha - 1.0) == np.sign(curve.xi1 - s.xi)
    alphas = [s.alpha for s in converged]
    assert all(a > b for a, b in zip(alphas, alphas[1:]))


def test_alpha_below_one_past_xi1():
    # mixture: gamma(xi) stays negative a bit beyond xi_1 = 1, with alpha < 1
    spec = mixture_spec()
    cols = FirstColumnSample(spec, 100, seed=10)
    xi_past = 1.1
    assert cols.gamma(xi_past).mean < 0
    solve = solve_alpha(cols, xi=xi_past)
    assert solve.status is SolveStatus.CONVERGED
    assert solve.alpha < 1.0
    # direct scan confirms the crossing is below 1
    assert cols.h(0.99, xi_past).mean > 1.0


def test_root_found_when_a_term_overflows_at_s_max():
    # (1e11 + 1)^30 overflows: the term counts as +inf at s_max, so the end
    # signs differ and the root of p (1e11 + 1)^s + (1 - p) 0.5^s = 1 is found
    from scipy.optimize import brentq
    p = 1e-6
    law = MixtureLaw(([[-1e11]], [[0.5]]), (p, 1 - p))
    exact = brentq(lambda s: p * (1e11 + 1) ** s + (1 - p) * 0.5 ** s - 1.0,
                   0.1, 1.0, xtol=1e-15)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve = solve_alpha(FirstColumnSample(symm(1, 1, 1.0, law), 10, seed=0))
    assert solve.status is SolveStatus.CONVERGED
    assert abs(solve.alpha - exact) <= 1e-9
    assert caught == []


def test_alpha_curve_keeps_the_values_of_the_scan_and_polish_solver():
    # statuses, alphas and xi_1 as the earlier scan, bisection and Newton /
    # secant polish solver gave them on this sample; the grid covers every
    # status and two points within 5% of xi_1 (0.205 and 0.21), pinned as
    # the brentq solver gave them on this same sample
    curve = alpha_curve(rank1_gauss(d=2, b=8, eta=1.5), [0.02, 0.12, 0.205, 0.21, 0.3],
                        samples=20_000, seed=40, workers=1)
    assert abs(curve.xi1 - 0.210454023237162) <= 1e-8
    assert [s.status for s in curve.solves] == [
        SolveStatus.NO_ROOT_BELOW_S_MAX, SolveStatus.CONVERGED, SolveStatus.CONVERGED,
        SolveStatus.CONVERGED, SolveStatus.GAMMA_NON_NEGATIVE]
    alphas = [s.alpha for s in curve.solves[1:4]]
    assert np.allclose(alphas, [6.178295879464162, 1.1660874680063933,
                                1.0134294495128635], rtol=0, atol=1e-8)


def test_small_xi_exceeds_s_max():
    # xi -> 0+: the root runs off past s_max (alpha -> infinity)
    solve = solve_alpha(FirstColumnSample(mixture_spec(), 100, seed=11), xi=0.01)
    assert solve.status is SolveStatus.NO_ROOT_BELOW_S_MAX


# --- rotation invariance -------------------------------------------------------

# Non-commuting diagonal atoms: h along e_1 is not k(s). At eta = 1.9 the
# e_1 Lyapunov value is negative while the recursion's is positive.
NOT_INVARIANT = symm(d=2, b=1, eta=0.5, h_law=MixtureLaw(
    (np.diag([1.0, 3.0]), np.diag([0.2, 0.1])), (0.5, 0.5)))


def _solver_calls(spec):
    return [lambda: solve_alpha(FirstColumnSample(spec, 2000, seed=0)),
            lambda: solve_xi1(FirstColumnSample(spec, 2000, seed=0)),
            lambda: alpha_curve(spec, [spec.xi], samples=2000, seed=0),
            lambda: contour_grid(spec, "eta", [spec.eta], [1.0], samples=2000, seed=0)]


@pytest.mark.parametrize("eta", [0.5, 1.9])
def test_solvers_warn_on_a_law_that_is_not_rotation_invariant(eta):
    for call in _solver_calls(replace(NOT_INVARIANT, eta=eta)):
        with pytest.warns(RuntimeWarning, match="rotation-invariant"):
            call()


@pytest.mark.parametrize("spec", [
    rank1_gauss(2, 8, 1.5), mixture_spec(),
    ModelSpec(Variant.RANK1, d=1, b=1, eta=1.0, a_law=MixtureLaw(
        (np.array([1.0]), np.array([-1.0]), np.array([2.0])), (0.4, 0.4, 0.2)))],
    ids=["rank1gauss", "d1-symm-mixture", "d1-rank1-mixture"])
def test_solvers_silent_on_rotation_invariant_laws(spec):
    for call in _solver_calls(spec):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert not [w for w in caught if "rotation-invariant" in str(w.message)]


# --- contours ----------------------------------------------------------------

def test_contour_xi_zero_column_is_one():
    grid = contour_grid(rank1_gauss(2, 5, 0.75), "eta", [1e-12, 0.5],
                        [0.0, 1.0, 2.0], samples=20_000, seed=12)
    assert np.allclose(grid.h[0], 1.0, atol=1e-10)
    assert grid.h_clipped.max() <= 2.0


def test_contour_b_grid_monotone_crossings():
    # larger batch permits larger s at the h = 1 crossing (d=2, eta=0.75)
    grid = contour_grid(rank1_gauss(2, 1, 0.75), "b", [2, 4, 8],
                        np.arange(0.25, 8.01, 0.25), samples=60_000, seed=13)
    crossings = []
    for i in range(3):
        row = grid.h[i]
        above = np.where(row > 1.0)[0]
        crossings.append(grid.s_grid[above[0]] if len(above) else np.inf)
    assert crossings[0] < crossings[1] < crossings[2]
    assert len(grid.isoline) >= 1


def test_contour_eta_grid_crossing_decreases():
    grid = contour_grid(rank1_gauss(2, 5, 0.75), "eta", [0.5, 1.0, 1.4],
                        np.arange(0.25, 10.01, 0.25), samples=60_000, seed=14)
    crossings = []
    for i in range(3):
        above = np.where(grid.h[i] > 1.0)[0]
        crossings.append(grid.s_grid[above[0]] if len(above) else np.inf)
    assert crossings[0] > crossings[1] > crossings[2]


def _serial_contour(spec, param, param_grid, s_grid, samples, seed, workers):
    # column by column, with v from the column formula on the columns H e_1
    # the samples are built from, drawn again with the same seed and workers,
    # and each cell of these Monte-Carlo samples the mean of exp(s log v)
    h = np.full((len(param_grid), len(s_grid)), np.nan)
    for i, p in enumerate(param_grid):
        if param == "eta":
            spec_p, seed_p, xi = spec, seed, p / spec.b
        elif p != int(p):
            continue
        else:
            spec_p, seed_p = replace(spec, b=int(p)), (seed, i)
            xi = spec_p.xi
        assert h_sum_support(spec_p) is None
        cols = mc.parallel_map(lambda rng, m: sample_h_columns(spec_p, m, rng),
                               samples, seed_p, workers)
        e_1 = np.eye(spec.d)[0]
        log_v = np.log(np.sqrt(((e_1[:, None] - xi * np.ascontiguousarray(cols.T)) ** 2)
                               .sum(axis=0)))
        for j, s in enumerate(s_grid):
            h[i, j] = 1.0 if s == 0 else float(np.mean(np.exp(s * log_v)))
    return h


@pytest.mark.parametrize("param, param_grid", [("eta", [0.3, 0.75, 1.2, 1.5, 2.0]),
                                               ("b", [1, 2, 2.5, 4, 7])])
def test_contour_on_two_workers_equals_serial_columns(param, param_grid):
    spec = rank1_gauss(2, 5, 0.75)
    s_grid = [0.0, 0.5, 1.0, 2.5, 4.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the b = 2.5 column
        grid = contour_grid(spec, param, param_grid, s_grid, samples=5000, seed=21,
                            workers=2)
    want = _serial_contour(spec, param, param_grid, s_grid, 5000, 21, 2)
    assert np.array_equal(grid.h, want, equal_nan=True)
    assert np.isnan(grid.h).any() == (param == "b")


# --- marching squares --------------------------------------------------------

def test_marching_squares_circle():
    x = np.linspace(-2, 2, 81)
    y = np.linspace(-2, 2, 81)
    z = x[:, None] ** 2 + y[None, :] ** 2
    lines = marching_squares(x, y, z, 1.0)
    pts = np.vstack(lines)
    radii = np.sqrt((pts ** 2).sum(axis=1))
    assert abs(radii - 1.0).max() < 0.01
    # a closed curve chains into one polyline
    assert len(lines) == 1
    assert len(pts) > 50


_GAPS = st.lists(st.floats(0.01, 1.0), min_size=2, max_size=15)


@settings(max_examples=200, deadline=None)
@given(x_gaps=_GAPS, y_gaps=_GAPS, cu=st.floats(0, 1), cv=st.floats(0, 1),
       t=st.floats(0, 1, exclude_min=True, exclude_max=True))
def test_marching_squares_closes_the_level_set_of_a_convex_bump(x_gaps, y_gaps, cu,
                                                                cv, t):
    # z = (x - cx)^2 + (y - cy)^2 on a random rectilinear grid, at a level
    # between its minimum and its minimum on the grid's boundary: the nodes
    # below the level are one convex, 4-connected block with no saddle cell,
    # so the isoline is one closed polyline
    x, y = np.cumsum([0.0, *x_gaps]), np.cumsum([0.0, *y_gaps])
    # a center between the first and last interior grid lines puts the
    # minimum at an interior node, strictly below every boundary node
    cx, cy = x[1] + cu * (x[-2] - x[1]), y[1] + cv * (y[-2] - y[1])
    z = (x[:, None] - cx) ** 2 + (y[None, :] - cy) ** 2
    rim = np.concatenate([z[0], z[-1], z[:, 0], z[:, -1]])
    level = z.min() + t * (rim.min() - z.min())
    assume(z.min() < level < rim.min())
    lines = marching_squares(x, y, z, level)
    assert len(lines) == 1
    line = lines[0]
    assert np.allclose(line[0], line[-1], rtol=0, atol=1e-9)
    # every vertex lies on a grid edge, where z interpolates to the level
    for px, py in line:
        if px in x:
            i, j = int(np.flatnonzero(x == px)[0]), np.searchsorted(y, py) - 1
            along, ends = (py - y[j]) / (y[j + 1] - y[j]), (z[i, j], z[i, j + 1])
        else:
            j, i = int(np.flatnonzero(y == py)[0]), np.searchsorted(x, px) - 1
            along, ends = (px - x[i]) / (x[i + 1] - x[i]), (z[i, j], z[i + 1, j])
        assert 0 <= along <= 1
        assert ends[0] + along * (ends[1] - ends[0]) == pytest.approx(level, abs=1e-9)


def test_marching_squares_linear_exact():
    x = np.array([0.0, 1.0])
    y = np.array([0.0, 1.0])
    z = np.array([[0.0, 0.0], [1.0, 1.0]])  # z = x
    lines = marching_squares(x, y, z, 0.25)
    pts = np.vstack(lines)
    assert np.allclose(pts[:, 0], 0.25)


def _cut_corner(line):
    """The corner of the unit cell whose two edges the segment crosses."""
    (corner,) = [(cx, cy) for cx in (0.0, 1.0) for cy in (0.0, 1.0)
                 if all(px == cx or py == cy for px, py in line)]
    return corner


# z[i, j] at (x[i], y[j]); corner k of the cell is bit k of its index:
# (0, 0), (1, 0), (1, 1), (0, 1). Index 5 has (0, 0) and (1, 1) above the
# level, index 10 has (1, 0) and (0, 1). Where the centre is above the
# level, the corners above it join across the cell and the two below it
# are cut off; where it is below, the two above are.
@pytest.mark.parametrize("z, cut", [
    ([[2.0, -1.0], [-1.0, 2.0]], [(0.0, 1.0), (1.0, 0.0)]),   # 5, centre above
    ([[1.0, -2.0], [-2.0, 1.0]], [(0.0, 0.0), (1.0, 1.0)]),   # 5, centre below
    ([[-1.0, 2.0], [2.0, -1.0]], [(0.0, 0.0), (1.0, 1.0)]),   # 10, centre above
    ([[-2.0, 1.0], [1.0, -2.0]], [(0.0, 1.0), (1.0, 0.0)]),   # 10, centre below
])
def test_marching_squares_saddle_cells(z, cut):
    unit = np.array([0.0, 1.0])
    lines = marching_squares(unit, unit, np.array(z), 0.0)
    assert len(lines) == 2 and all(len(line) == 2 for line in lines)
    assert sorted(map(_cut_corner, lines)) == cut


def test_marching_squares_skips_nan_cells():
    z = np.array([[0.0, np.nan], [2.0, 2.0]])
    lines = marching_squares(np.array([0.0, 1.0]), np.array([0.0, 1.0]), z, 1.0)
    assert lines == ()


def test_alpha_monotone_in_eta_and_batch():
    # with alpha > 1, the tail index falls as the step grows and rises as
    # the batch grows (Gaussian rank-one model)
    lo_eta = solve_alpha(FirstColumnSample(rank1_gauss(2, 8, 1.0), 200_000, seed=15))
    hi_eta = solve_alpha(FirstColumnSample(rank1_gauss(2, 8, 1.5), 200_000, seed=16))
    assert lo_eta.status is SolveStatus.CONVERGED and lo_eta.alpha > 1
    assert hi_eta.status is SolveStatus.CONVERGED and hi_eta.alpha > 1
    unc = np.hypot(lo_eta.stderr_alpha, hi_eta.stderr_alpha)
    assert lo_eta.alpha - hi_eta.alpha > unc

    small_b = solve_alpha(FirstColumnSample(rank1_gauss(2, 4, 0.75), 200_000, seed=17))
    large_b = solve_alpha(FirstColumnSample(rank1_gauss(2, 8, 0.75), 200_000, seed=18))
    assert small_b.status is SolveStatus.CONVERGED and small_b.alpha > 1
    assert large_b.status is SolveStatus.CONVERGED and large_b.alpha > 1
    unc = np.hypot(small_b.stderr_alpha, large_b.stderr_alpha)
    assert large_b.alpha - small_b.alpha > unc


def test_small_root_bracketed_below_first_grid_step():
    # rare huge expansion atom pushes the root well below the coarse scan
    law = MixtureLaw((1.5 * np.eye(1), 1e8 * np.eye(1)), (0.995, 0.005))
    spec = symm(d=1, b=1, eta=1.0, h_law=law)
    solve = solve_alpha(FirstColumnSample(spec, 10, seed=20))
    assert solve.status is SolveStatus.CONVERGED
    assert 0 < solve.alpha < 0.25
    h = lambda s: 0.995 * 0.5 ** s + 0.005 * (1e8 - 1) ** s
    assert abs(h(solve.alpha) - 1.0) <= 1e-3


def test_xi1_precondition_does_not_pass_on_one_draw():
    # one draw gives a NaN stderr, so E<H e_1, e_1> is never positive beyond
    # 3 standard errors on it
    with pytest.raises(RangeError, match="beyond 3 standard errors"):
        solve_xi1(FirstColumnSample(rank1_gauss(2, 8, 1.5), 1, seed=0))


# ---------------------------------------------------------------------------
# _brentq against scipy.optimize.brentq


def _exp_sum(w, r, c):
    # sum_i w_i exp(r_i x) - c, the shape of h(xi, .) - 1; an overflow is +inf
    def f(x):
        with np.errstate(over="ignore"):
            return float(np.dot(w, np.exp(np.multiply(r, x)))) - c
    return f


_COEF = st.floats(-4, 4, allow_nan=False)
_WEIGHTS = st.lists(st.floats(0.01, 2), min_size=1, max_size=4)


@st.composite
def _brackets(draw):
    """(f, a, b) on which scipy's brentq runs: f(a) and f(b) differ in sign,
    or one of them is 0."""
    kind = draw(st.sampled_from(["exp_sum", "cubic", "step", "inf_end", "zero_end"]))
    a = draw(st.floats(-3, 0.5))
    b = a + draw(st.floats(0.01, 6))
    if kind in ("exp_sum", "inf_end"):
        w = draw(_WEIGHTS)
        f = _exp_sum(w, draw(st.lists(_COEF, min_size=len(w), max_size=len(w))),
                     draw(st.floats(0.05, 4)))
        if kind == "inf_end":
            a, b = draw(st.floats(1e-6, 1)), 10.0 ** draw(st.floats(3, 300))
    elif kind == "cubic":
        c3, c2, c1, c0 = (draw(_COEF) for _ in range(4))
        f = lambda x: ((c3 * x + c2) * x + c1) * x + c0  # noqa: E731
    elif kind == "step":
        k, m = 10.0 ** draw(st.floats(0, 8)), draw(st.floats(a, b))
        f = lambda x: math.tanh(k * (x - m)) + 0.25 * math.tanh(x)  # noqa: E731
    else:
        root, scale = (b if draw(st.booleans()) else a), draw(st.sampled_from([-1.0, 1.0]))
        f = lambda x: scale * (x - root)  # noqa: E731
    fa, fb = f(a), f(b)
    assume(not math.isnan(fa) and not math.isnan(fb))
    assume(fa == 0 or fb == 0 or (fa < 0) != (fb < 0))
    return f, a, b


@settings(max_examples=400, deadline=None)
@given(bracket=_brackets())
def test_brentq_is_scipys_bit_for_bit(bracket):
    from scipy.optimize import brentq
    f, a, b = bracket
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    want, info = brentq(f, a, b, full_output=True, disp=False)
    root, converged = tailsolver._brentq(counted, a, b, f(a), f(b))
    assert (root.hex(), converged) == (float(want).hex(), info.converged)
    # the end values are given, so every call is one iteration's
    assert len(calls) == info.function_calls - 2


def test_brentq_raises_on_nan_and_on_ends_of_one_sign():
    from scipy.optimize import brentq

    def hole(x):
        return math.nan if 0.4 < x < 0.6 else x - 0.5

    def shifted(x):
        return x * x + 1.0

    for f, a, b in ((hole, 0.0, 1.0), (shifted, -1.0, 2.0)):
        with pytest.raises(ValueError):
            brentq(f, a, b)
        with pytest.raises(ValueError):
            tailsolver._brentq(f, a, b, f(a), f(b))
    with pytest.raises(ValueError, match="NaN"):
        tailsolver._brentq(hole, 0.0, 1.0, math.nan, 0.5)


def test_xi1_that_does_not_converge_is_a_range_error(monkeypatch):
    cols = FirstColumnSample(rank1_gauss(2, 8, 1.5), 2_000, seed=0)
    monkeypatch.setattr(tailsolver, "_MAXITER", 1)
    with pytest.raises(RangeError, match="did not converge"):
        solve_xi1(cols)
