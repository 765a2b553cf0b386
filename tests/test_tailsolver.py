import warnings
from dataclasses import replace

import numpy as np
import pytest

from heavytail.models import MixtureLaw, ModelSpec, Variant, rank1_gauss, symm
from heavytail import tailsolver
from heavytail.spectral import FirstColumnSample, quadrature_oracle_d1
from heavytail.tailsolver import (XI1_REFINE_SAMPLES, XI1_REFINE_WINDOW,
                                  RangeError, SolveStatus, alpha_curve,
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


def test_alpha_curve_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(tailsolver, "solve_alpha", broken)
    with pytest.raises(TypeError, match="bug"):
        alpha_curve(mixture_spec(), [0.5, 0.9], samples=100, seed=8)


def test_alpha_curve_shares_one_sample_outside_and_one_inside_window(monkeypatch):
    # continuous law: xi_1 and every point outside the refine window are
    # solved on the same frozen columns; the points inside share one 4x sample
    built = []

    class Recorded(FirstColumnSample):
        def __init__(self, spec, samples, seed, *args, **kwargs):
            super().__init__(spec, samples, seed, *args, **kwargs)
            built.append((self.n, seed))

    monkeypatch.setattr(tailsolver, "FirstColumnSample", Recorded)
    spec = rank1_gauss(d=2, b=8, eta=1.5)
    grid = [0.12, 0.16, 0.205, 0.21, 0.215, 0.24]
    curve = alpha_curve(spec, grid, samples=20_000, seed=40)
    assert built == [(20_000, 40), (20_000 * XI1_REFINE_SAMPLES, 40)]

    cols = FirstColumnSample(spec, 20_000, seed=40)
    refined = FirstColumnSample(spec, 20_000 * XI1_REFINE_SAMPLES, seed=40)
    assert curve.xi1 == solve_xi1(cols)
    inside = [abs(xi - curve.xi1) <= XI1_REFINE_WINDOW * curve.xi1 for xi in grid]
    assert inside == [False, False, True, True, True, False]
    for xi, near, got in zip(grid, inside, curve.solves):
        want = solve_alpha(refined if near else cols, xi=xi)
        assert got.status is SolveStatus.CONVERGED
        assert got == want


def test_alpha_curve_on_two_workers_equals_serial_solves():
    # the points are solved on a thread pool; each must equal the serial
    # solve on the same frozen samples, field by field (NaN-aware: reprs
    # print every float to round trip). The grid covers every status.
    spec = rank1_gauss(d=2, b=8, eta=1.5)
    grid = [0.02, 0.12, 0.205, 0.21, 0.3]
    curve = alpha_curve(spec, grid, samples=20_000, seed=40, workers=2)
    cols = FirstColumnSample(spec, 20_000, seed=40, workers=2)
    refined = FirstColumnSample(spec, 20_000 * XI1_REFINE_SAMPLES, seed=40, workers=2)
    xi1 = solve_xi1(cols)
    assert curve.xi1 == xi1
    want = []
    for xi in grid:
        if abs(xi - xi1) <= XI1_REFINE_WINDOW * xi1:
            want.append(solve_alpha(refined, xi=xi))
        else:
            want.append(solve_alpha(cols, xi=xi))
    assert [repr(s) for s in curve.solves] == [repr(s) for s in want]
    assert [s.status for s in curve.solves] == [
        SolveStatus.NO_ROOT_BELOW_S_MAX, SolveStatus.CONVERGED, SolveStatus.CONVERGED,
        SolveStatus.CONVERGED, SolveStatus.GAMMA_NON_NEGATIVE]
    assert sum(abs(xi - xi1) <= XI1_REFINE_WINDOW * xi1 for xi in grid) == 2


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
    # status and the refine window (0.205 and 0.21)
    curve = alpha_curve(rank1_gauss(d=2, b=8, eta=1.5), [0.02, 0.12, 0.205, 0.21, 0.3],
                        samples=20_000, seed=40, workers=1)
    assert abs(curve.xi1 - 0.210454023237162) <= 1e-8
    assert [s.status for s in curve.solves] == [
        SolveStatus.NO_ROOT_BELOW_S_MAX, SolveStatus.CONVERGED, SolveStatus.CONVERGED,
        SolveStatus.CONVERGED, SolveStatus.GAMMA_NON_NEGATIVE]
    alphas = [s.alpha for s in curve.solves[1:4]]
    assert np.allclose(alphas, [6.178295879464162, 1.1709251581503617,
                                1.0180288347495876], rtol=0, atol=1e-8)


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
    # column by column, with v from the column formula
    h = np.full((len(param_grid), len(s_grid)), np.nan)
    for i, p in enumerate(param_grid):
        if param == "eta":
            cols, xi = FirstColumnSample(spec, samples, seed, workers), p / spec.b
        elif p != int(p):
            continue
        else:
            spec_b = replace(spec, b=int(p))
            cols = FirstColumnSample(spec_b, samples, (seed, i), workers)
            xi = spec_b.xi
        v = np.sqrt(((cols.u[:, None] - xi * cols.cols) ** 2).sum(axis=0))
        for j, s in enumerate(s_grid):
            h[i, j] = 1.0 if s == 0 else float(np.average(v ** s, weights=cols.weights))
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


def test_marching_squares_linear_exact():
    x = np.array([0.0, 1.0])
    y = np.array([0.0, 1.0])
    z = np.array([[0.0, 0.0], [1.0, 1.0]])  # z = x
    lines = marching_squares(x, y, z, 0.25)
    pts = np.vstack(lines)
    assert np.allclose(pts[:, 0], 0.25)


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
