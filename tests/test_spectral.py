import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from heavytail import mc
from heavytail.cli import EXIT_OK, main
from heavytail.models import (GoeLaw, MixtureLaw, ModelSpec, Variant, h_sum_support,
                              iter_h_blocks, rank1_gauss, sample_h_columns, symm)
from heavytail import spectral
from heavytail.spectral import FirstColumnSample, ProductSample, quadrature_oracle_d1


# --- quadrature oracle -------------------------------------------------------

def test_quadrature_small_eta_limits():
    assert quadrature_oracle_d1(1e-8, "s", 1.0) == pytest.approx(1.0, abs=1e-6)
    assert quadrature_oracle_d1(1e-8, "log") == pytest.approx(0.0, abs=1e-6)


def test_quadrature_gaussian_moments_eta1_s2():
    # E(1 - a^2)^2 = 1 - 2 E a^2 + E a^4 = 1 - 2 + 3 = 2
    assert quadrature_oracle_d1(1.0, "s", 2.0) == pytest.approx(2.0, abs=1e-8)


def test_quadrature_matches_monte_carlo():
    rng = mc.substream(1)
    a = rng.standard_normal(2_000_000)
    vals = np.abs(1 - 0.5 * a * a)
    se = vals.std() / np.sqrt(len(vals))
    assert quadrature_oracle_d1(0.5, "s", 1.0) == pytest.approx(vals.mean(), abs=4 * se)


def test_quadrature_non_integrable_rejected():
    with pytest.raises(ValueError):
        quadrature_oracle_d1(0.5, "s", -1.0)


# --- closed form -------------------------------------------------------------

def test_h_closed_form_xi_zero_is_one():
    spec = rank1_gauss(d=2, b=4, eta=1e-300)  # xi effectively 0
    cols = FirstColumnSample(spec, 100, seed=0)
    assert cols.h(2.5, xi=0.0).mean == 1.0


def test_h_closed_form_deterministic_identity():
    # H = I, xi = 0.5: |0.5 e_1|^2 = 0.25 with zero variance
    spec = symm(d=3, b=1, eta=0.5, h_law=MixtureLaw((np.eye(3),)))
    est = FirstColumnSample(spec, 10, seed=0).h(2.0)
    assert est.mean == pytest.approx(0.25, rel=1e-15)
    assert est.stderr == 0.0


def test_h_closed_form_s0_exactly_one():
    for spec in (rank1_gauss(1, 1, 0.5), rank1_gauss(3, 2, 0.7)):
        est = FirstColumnSample(spec, 1000, seed=3).h(0.0)
        assert est.mean == 1.0
        assert est.stderr == 0.0


def test_h_closed_form_matches_quadrature_d1():
    spec = rank1_gauss(d=1, b=1, eta=0.5)
    est = FirstColumnSample(spec, 500_000, seed=4).h(1.0)
    oracle = quadrature_oracle_d1(0.5, "s", 1.0)
    assert abs(est.mean - oracle) < 4 * est.stderr


def test_h_closed_form_warns_off_rotation_invariance():
    law = MixtureLaw((np.diag([1.0, 2.0]),))
    spec = symm(d=2, b=1, eta=0.5, h_law=law)
    with pytest.warns(RuntimeWarning, match="rotation-invariant"):
        FirstColumnSample(spec, 10, seed=0).h(1.0)


def test_h_negative_s_rejected():
    spec = rank1_gauss(1, 1, 0.5)
    with pytest.raises(ValueError):
        FirstColumnSample(spec, 10, seed=0).h(-0.5)


def test_closed_form_direction_invariance():
    # replacing e_1 by another unit direction moves the estimate < 4 stderr
    spec = rank1_gauss(d=3, b=2, eta=0.4)
    e1 = FirstColumnSample(spec, 200_000, seed=5).h(1.5)
    u = np.array([1.0, -2.0, 0.5])
    eu = FirstColumnSample(spec, 200_000, seed=6, direction=u).h(1.5)
    assert abs(e1.mean - eu.mean) < 4 * np.hypot(e1.stderr, eu.stderr)


def test_log_convexity_on_common_stream():
    spec = rank1_gauss(d=2, b=8, eta=0.3)
    cols = FirstColumnSample(spec, 200_000, seed=7)
    s_vals = [0.5, 1.25, 2.0]
    ests = [cols.h(s) for s in s_vals]
    mid = np.log(ests[1].mean)
    chord = 0.5 * (np.log(ests[0].mean) + np.log(ests[2].mean))
    tol = 3 * sum(e.stderr / e.mean for e in ests)
    assert mid <= chord + tol


# --- product limit -----------------------------------------------------------

def test_k_product_limit_deterministic():
    spec = symm(d=2, b=1, eta=0.5, h_law=MixtureLaw((np.eye(2),)))
    for s in (0.5, 1.0, 3.0):
        est = ProductSample(spec, n=7, samples=20, seed=8).k(s)
        assert est.mean == pytest.approx(0.5 ** s, rel=1e-12)
    assert ProductSample(spec, n=3, samples=5, seed=8).k(0.0).mean == 1.0


def test_k_product_limit_decreases_toward_closed_form():
    spec = rank1_gauss(d=2, b=8, eta=0.3)
    href = FirstColumnSample(spec, 400_000, seed=9).h(1.0).mean
    prev = np.inf
    for n in (5, 10, 20, 40):
        est = ProductSample(spec, n=n, samples=30_000, seed=9).k(1.0)
        assert est.mean <= prev + 5 * est.stderr  # decreasing up to noise
        prev = est.mean
    assert (prev - href) / href < 0.02
    assert prev > href - 5 * est.stderr  # overestimates, up to noise


def test_k_product_limit_log_domain_no_overflow():
    # strongly expanding deterministic model: ||Pi_n||^s would overflow
    spec = symm(d=1, b=1, eta=1.0, h_law=MixtureLaw((-9.0 * np.eye(1),)))
    est = ProductSample(spec, n=50, samples=10, seed=10).k(30.0)
    assert est.mean == pytest.approx(10.0 ** 30, rel=1e-9)


def test_product_log_norms_records_the_half_length_product():
    # the first n // 2 steps draw the same numbers as a product of that length
    spec = rank1_gauss(d=2, b=3, eta=0.6)
    full = spectral.product_log_norms(spec, 9, 50, mc.substream(24))
    half = spectral.product_log_norms(spec, 4, 50, mc.substream(24))
    assert full.shape == (50, 2)
    assert np.array_equal(full[:, 0], half[:, 1])
    assert np.array_equal(spectral.product_log_norms(spec, 1, 5, mc.substream(24))[:, 0],
                          np.zeros(5))


def test_product_ratio_deterministic_and_nan_below_two():
    spec = symm(d=2, b=1, eta=0.5, h_law=MixtureLaw((np.eye(2),)))
    products = ProductSample(spec, n=7, samples=20, seed=8)
    for s in (0.5, 1.0, 3.0):
        assert products.ratio(s).mean == pytest.approx(0.5 ** s, rel=1e-12)
    assert products.ratio(0.0).mean == 1.0
    short = ProductSample(spec, n=1, samples=5, seed=8).ratio(1.0)
    assert np.isnan(short.mean) and np.isnan(short.stderr)


def test_product_ratio_cancels_the_prefactor():
    # rotation invariance: k(2) = h(xi, 2) = 1 - 2 xi b + xi^2 (b^2 + (d + 1) b)
    d, b, eta = 2, 8, 0.3
    spec = rank1_gauss(d, b, eta)
    exact = 1 - 2 * spec.xi * b + spec.xi ** 2 * (b * b + (d + 1) * b)
    assert exact == pytest.approx(0.52375, rel=1e-12)
    products = ProductSample(spec, n=40, samples=100_000, seed=3)
    k40, ratio = products.k(2.0), products.ratio(2.0)
    assert abs(ratio.mean - exact) < 4 * ratio.stderr
    assert k40.mean - exact > 4 * k40.stderr


def _kcurve_rows(argv):
    """The CSV rows ``kcurve`` writes to standard output, split on commas."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["kcurve", *map(str, argv)]) == EXIT_OK
    return [line.split(",") for line in out.getvalue().splitlines()[1:]]


def test_product_curve_equals_a_separate_sample_bit_for_bit():
    spec = rank1_gauss(d=2, b=4, eta=0.4)
    rows = _kcurve_rows(["--model", "rank1gauss", "--d", 2, "--b", 4, "--eta", 0.4,
                         "--method", "product", "--n", 12, "--s-grid", "0.5,1.0,2.5",
                         "--samples", 2000, "--seed", 23, "--workers", 2])
    products = ProductSample(spec, n=12, samples=2000, seed=23, workers=2)
    # a CSV float is repr(x), which parses back to x exactly
    assert len(rows) == 3
    for row, s in zip(rows, (0.5, 1.0, 2.5)):
        k, r = products.k(s), products.ratio(s)
        assert [float(row[0]), float(row[1]), float(row[2]), row[3], int(row[4]),
                float(row[5]), float(row[6])] == [s, k.mean, k.stderr, "product_limit",
                                                  k.n, r.mean, r.stderr]


@settings(max_examples=15, deadline=None)
@given(grid=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=12),
       workers=st.integers(1, 3))
def test_product_curve_draws_once_per_worker(grid, workers):
    calls = []
    real = spectral.product_log_norms

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "product_log_norms", counted)
        rows = _kcurve_rows(["--model", "rank1gauss", "--d", 2, "--b", 2, "--eta", 0.5,
                             "--method", "product", "--n", 4,
                             "--s-grid", ",".join(map(repr, grid)), "--samples", 12,
                             "--seed", 25, "--workers", workers])
    assert len(calls) == workers
    assert len(rows) == len(grid) and all(len(r) == 7 for r in rows)


# --- Lyapunov ----------------------------------------------------------------

def test_lyapunov_deterministic_half():
    spec = symm(d=2, b=1, eta=0.5, h_law=MixtureLaw((np.eye(2),)))
    est = FirstColumnSample(spec, 100, seed=11).gamma()
    assert est.mean == pytest.approx(np.log(0.5), rel=1e-12)
    assert est.stderr == 0.0


def test_lyapunov_xi_zero():
    spec = rank1_gauss(d=2, b=2, eta=1e-12)
    est = FirstColumnSample(spec, 10_000, seed=12).gamma()
    assert abs(est.mean) < 1e-10


def test_lyapunov_methods_agree_with_quadrature():
    spec = rank1_gauss(d=1, b=1, eta=0.2)
    oracle = quadrature_oracle_d1(0.2, "log")
    closed = FirstColumnSample(spec, 400_000, seed=13).gamma()
    assert abs(closed.mean - oracle) < 4 * closed.stderr
    sub = ProductSample(spec, n=200, samples=3000, seed=14).gamma()
    tol = 4 * np.hypot(closed.stderr, sub.stderr)
    assert abs(sub.mean - closed.mean) < tol


def test_mean_norm_below_one_implies_negative_gamma():
    # E||A|| < 1 forces a negative exponent (convexity through k(1) < 1)
    spec = rank1_gauss(d=2, b=8, eta=0.3)
    rng = mc.substream(15)
    from heavytail.linalg import batch_operator_norms
    from heavytail.models import pair_a, sample_h_sums
    norms = batch_operator_norms(pair_a(spec, sample_h_sums(spec, 50_000, rng)))
    assert norms.mean() + 3 * norms.std() / np.sqrt(len(norms)) < 1.0
    est = FirstColumnSample(spec, 100_000, seed=15).gamma()
    assert est.mean < -3 * est.stderr


def test_k_prime_zero_equals_gamma():
    # finite-difference slope of h at 0 matches the Lyapunov estimate
    spec = rank1_gauss(d=2, b=8, eta=0.3)
    cols = FirstColumnSample(spec, 300_000, seed=16)
    delta = 1e-3
    slope = (cols.h(delta).mean - 1.0) / delta
    gam = cols.gamma()
    # common random numbers: the slope's noise is that of gamma itself
    assert slope == pytest.approx(gam.mean, abs=4 * gam.stderr + 1e-3)


# --- s-derivative ------------------------------------------------------------

def test_dh_ds_at_zero_equals_gamma_same_stream():
    spec = rank1_gauss(d=2, b=3, eta=0.4)
    cols = FirstColumnSample(spec, 50_000, seed=17)
    assert cols.dh_ds(0.0).mean == cols.gamma().mean  # identical draws


def test_dh_ds_deterministic():
    spec = symm(d=2, b=1, eta=0.5, h_law=MixtureLaw((np.eye(2),)))
    for s in (0.5, 1.0, 2.0):
        est = FirstColumnSample(spec, 10, seed=18).dh_ds(s)
        assert est.mean == pytest.approx(0.5 ** s * np.log(0.5), rel=1e-12)


def test_dh_ds_matches_finite_difference():
    spec = rank1_gauss(d=1, b=1, eta=0.3)
    cols = FirstColumnSample(spec, 400_000, seed=19)
    s, ds = 1.5, 1e-3
    fd = (cols.h(s + ds).mean - cols.h(s - ds).mean) / (2 * ds)
    assert cols.dh_ds(s).mean == pytest.approx(fd, abs=1e-4)


# --- curves ------------------------------------------------------------------

def test_spectral_curve_closed_form_crn():
    rows = _kcurve_rows(["--model", "rank1gauss", "--d", 2, "--b", 8, "--eta", 0.3,
                         "--s-grid", "0.0,0.5,1.0", "--samples", 50_000, "--seed", 20])
    assert float(rows[0][1]) == 1.0
    assert [r[3] for r in rows] == ["closed_form"] * 3


def test_spectral_curve_caps_large_s():
    with pytest.warns(RuntimeWarning, match="s_max"):
        rows = _kcurve_rows(["--model", "rank1gauss", "--d", 1, "--b", 1, "--eta", 0.5,
                             "--s-grid", "1.0,31.0", "--samples", 100, "--seed", 21])
    assert np.isfinite(float(rows[0][1]))
    assert np.isnan(float(rows[1][1]))
    assert rows[1][4] == "0"


def test_exact_backend_for_finite_mixture():
    law = MixtureLaw((0.5 * np.eye(1), 2.5 * np.eye(1)), (0.5, 0.5))
    spec = symm(d=1, b=1, eta=1.0, h_law=law)
    cols = FirstColumnSample(spec, 10, seed=22)
    assert cols.exact
    # h(s) = (0.5^s + 1.5^s)/2 exactly
    for s in (0.5, 1.0, 2.0):
        assert cols.h(s).mean == pytest.approx((0.5 ** s + 1.5 ** s) / 2, rel=1e-15)
        assert cols.h(s).stderr == 0.0


def test_direction_on_finite_support_is_exact():
    # non-scalar atoms, b = 2: h in direction u is the weighted sum over the
    # three-point sum support of |(I - xi*H) u|^s, with stderr 0
    law = MixtureLaw((np.diag([0.5, 2.0]), np.array([[1.0, 0.5], [0.5, 1.0]])),
                     (0.3, 0.7))
    spec = symm(d=2, b=2, eta=0.6, h_law=law)
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    cols = FirstColumnSample(spec, 10, seed=23, direction=[1.0, 1.0])
    assert cols.exact and cols.n == 3
    for s in (0.5, 1.5):
        exact = sum(p * np.linalg.norm(u - spec.xi * h @ u) ** s
                    for h, p in zip(*h_sum_support(spec)))
        est = cols.h(s)
        assert est.stderr == 0.0
        assert est.mean == pytest.approx(exact, rel=1e-14)


def test_subadditive_stderr_scaling():
    # per-trajectory spread of (1/n) log||Pi_n|| shrinks like n^(-1/2), so
    # the standard error scales like n^(-1/2) * samples^(-1/2)
    spec = rank1_gauss(d=1, b=1, eta=0.2)
    base = ProductSample(spec, n=50, samples=2000, seed=30).gamma()
    finer_n = ProductSample(spec, n=200, samples=2000, seed=31).gamma()
    assert finer_n.stderr == pytest.approx(base.stderr / 2, rel=0.25)
    more_samples = ProductSample(spec, n=50, samples=8000, seed=32).gamma()
    assert more_samples.stderr == pytest.approx(base.stderr / 2, rel=0.25)


def test_zero_norm_atom_excluded_with_warning():
    # deterministic H = 2I at xi = 0.5 makes (I - xi H) e_1 exactly zero
    spec = symm(d=1, b=1, eta=0.5, h_law=MixtureLaw((2.0 * np.eye(1),)))
    cols = FirstColumnSample(spec, 10, seed=23)
    with pytest.warns(RuntimeWarning, match="excluded"):
        est = cols.gamma()
    assert est.skipped == 1


# --- v(xi), kept per thread ---------------------------------------------------

EPS = np.finfo(float).eps


def _columns(spec, samples, seed, workers=1, direction=None):
    """The unit u and the (d, n) columns H u that a ``FirstColumnSample`` of
    these arguments reduces to (t, r), drawn again with its task."""
    u = np.eye(spec.d)[0] if direction is None else np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    support = h_sum_support(spec)
    if support is not None:
        return u, (support[0] @ u).T

    def task(rng, m):
        if direction is None:
            return sample_h_columns(spec, m, rng)
        return np.concatenate([h @ u for h in iter_h_blocks(spec, m, rng)])
    cols = mc.parallel_map(task, samples, seed, workers).reshape(-1, spec.d)
    return u, np.ascontiguousarray(cols.T)


def _v_columns(u, cols, xi):
    """The column formula |u - xi H u| per draw, summed over d in index order."""
    return np.sqrt(((u[:, None] - xi * cols) ** 2).sum(axis=0))


def _assert_v_matches_columns(sample, u, cols, xi, bitwise):
    """v is sqrt((1 - xi t)^2 + (xi r)^2) on the kept (t, r) bit for bit, and
    the column formula to 8 eps (1 + xi |H u|), or bit for bit when
    ``bitwise``; returns the worst |dv| / (eps (1 + xi |H u|))."""
    got = sample.v(xi)
    pairs = np.sqrt((1 - xi * sample.t) ** 2 + (xi * sample.r) ** 2)
    assert np.array_equal(got.view(np.int64), pairs.view(np.int64))
    want = _v_columns(u, cols, xi)
    if bitwise:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    ratio = np.abs(got - want) / (EPS * (1 + xi * np.sqrt((cols ** 2).sum(axis=0))))
    assert np.all(ratio <= 8.0), ratio.max()
    return float(ratio.max(initial=0.0))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("direction", [None, "tilted"])
def test_v_bitwise_equal_to_column_formula_and_read_only(d, direction):
    # bitwise at d = 1 along any u and at d = 2 along e_1; else within the
    # rounding bound, and bitwise the (t, r) formula
    spec = rank1_gauss(d, 3, 0.7)
    u = None if direction is None else np.arange(1.0, d + 1.0)
    cols = FirstColumnSample(spec, 5001, seed=41, direction=u)
    unit, columns = _columns(spec, 5001, 41, direction=u)
    for xi in (0.0, 0.1, 0.37, 2.5):
        _assert_v_matches_columns(cols, unit, columns, xi,
                                  bitwise=d == 1 or (d == 2 and direction is None))
        got = cols.v(xi)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 1.0


def test_v_retains_at_most_workers_arrays():
    import gc
    import weakref

    cols = FirstColumnSample(rank1_gauss(2, 8, 1.5), 2000, seed=42, workers=2)
    refs = [weakref.ref(cols.v(xi)) for xi in np.linspace(0.01, 0.4, 40)]
    gc.collect()
    alive = [r for r in refs if r() is not None]
    assert len(alive) == 1  # one thread keeps the array of its last xi only
    assert cols.v(0.4) is alive[-1]()  # the most recent xi is kept


def test_v_concurrent_distinct_xi_from_threads():
    # more threads than workers, with frequent thread switches: every call
    # must still return the values of its own xi, and a thread's arrays are
    # freed once it has ended
    import gc
    import sys
    import threading
    import weakref

    spec = rank1_gauss(2, 8, 1.5)
    cols = FirstColumnSample(spec, 3000, seed=43, workers=2)
    u, columns = _columns(spec, 3000, 43, workers=2)
    grids = [np.linspace(0.01, 0.4, 25) + k * 1e-3 for k in range(6)]
    want = {xi: _v_columns(u, columns, xi) for g in grids for xi in g}
    errors, refs = [], []

    def sweep(grid):
        for _ in range(3):
            for xi in grid:
                got = cols.v(xi)
                refs.append(weakref.ref(got))
                if not np.array_equal(got, want[xi]):
                    errors.append(xi)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(g,)) for g in grids]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # no v array that a joined thread was given is still alive
    gc.collect()
    assert len(refs) == 6 * 3 * 25
    assert [r for r in refs if r() is not None] == []


def _mixture(atoms):
    return MixtureLaw(tuple(atoms), tuple(np.full(len(atoms), 1 / len(atoms))))


@seed(24)
@settings(max_examples=80, deadline=None)
@given(data=st.data(), d=st.integers(1, 5),
       law=st.sampled_from(["rank1gauss", "goe", "rank1-mixture", "exact"]),
       b=st.integers(1, 3), samples=st.integers(1, 400), workers=st.integers(1, 2),
       tilted=st.booleans(), sample_seed=st.integers(0, 2**32 - 1),
       xi=st.floats(0.01, 3.0))
def test_pairs_give_the_column_formula_for_every_law_and_direction(
        data, d, law, b, samples, workers, tilted, sample_seed, xi):
    entries = st.floats(-3.0, 3.0)

    def atoms(size):
        return st.lists(st.lists(entries, min_size=size, max_size=size),
                        min_size=1, max_size=3)
    if law == "rank1gauss":
        spec = rank1_gauss(d, b, 1.0)
    elif law == "goe":
        spec = symm(d, b, 1.0, GoeLaw(d))
    elif law == "rank1-mixture":
        a_law = _mixture([np.array(a) for a in data.draw(atoms(d))])
        spec = ModelSpec(Variant.RANK1, d, b, 1.0, a_law=a_law)
    else:
        squares = [np.reshape(m, (d, d)) for m in data.draw(atoms(d * d))]
        spec = symm(d, b, 1.0, _mixture([(m + m.T) / 2 for m in squares]))
    direction = np.array(data.draw(st.lists(entries, min_size=d, max_size=d))) if tilted else None
    assume(direction is None or np.linalg.norm(direction) > 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # laws not rotation-invariant
        sample = FirstColumnSample(spec, samples, sample_seed, workers, direction)
        h11 = sample.mean_h11().mean
    u, cols = _columns(spec, samples, sample_seed, workers, direction)
    assert sample.exact == (law == "exact")
    assert not hasattr(sample, "cols")
    assert sample.t.nbytes + sample.r.nbytes == 16 * sample.n == 16 * cols.shape[1]

    # t is <H u, u> summed in index order, and mean_h11 is its moment: at
    # e_1 also the moment of u @ cols, as the columns gave it
    t = sum(c * uj for c, uj in zip(cols, u))
    assert np.array_equal(sample.t, t)

    def moment(values):
        if sample.exact:
            return float(values @ sample.weights)
        return mc.estimate_from_values(values).mean
    assert h11 == moment(t)
    if direction is None:
        assert h11 == moment(u @ cols)

    bitwise = d == 1 or (d == 2 and direction is None)
    # 1 / t of a draw puts its 1 - xi t near 0, where v is smallest
    near_root = [1 / sample.t[0]] if sample.t[0] > 1e-3 else []
    for x in (0.0, xi, *near_root):
        _assert_v_matches_columns(sample, u, cols, x, bitwise)


# --- log-domain moments against the direct v ** s forms ----------------------


def _direct(v, s):
    """The v ** s forms the log-domain moments replace, and the mean |term|
    of each, which scales its rounding bound."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        powers = v ** s
        slopes = powers * np.log(v)
    terms = {"h": powers, "dh_ds": slopes}
    return ({k: mc.estimate_from_values(t) for k, t in terms.items()},
            {k: np.abs(t[np.isfinite(t)]).mean() for k, t in terms.items()})


def _rounding_bound(v, s):
    # a term exp(s log v) is v ** s to within about (2 + s |log v|) eps
    # relative (the rounding of log v, of s log v, of exp and of pow); the
    # means add their own summation error, so the check allows twice that
    return 2.0 * (2.0 + s * np.abs(np.log(v[v > 0])).max()) * EPS


def _assert_log_domain_matches_direct(cols, xi, s, v_kept):
    v = cols.v(xi).copy()
    want, scale = _direct(v, s)
    bound = _rounding_bound(v_kept, s)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the excluded draws
        got = {"h": cols.h(s, xi), "dh_ds": cols.dh_ds(s, xi)}
    for k in got:
        assert (got[k].n, got[k].skipped) == (want[k].n, want[k].skipped), k
        assert abs(got[k].mean - want[k].mean) <= bound * scale[k], k
    return got


# Over hypothesis seeds 0-199 (60 examples each), every example passed at
# half this bound, one seed failed at 0.4 of it and 23 at 0.3; the zero-norm
# and overflow checks below passed all 200 seeds at 0.4 and half the bound.
@seed(20)
@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), b=st.integers(1, 8), samples=st.integers(2, 3000),
       sample_seed=st.integers(0, 2**32 - 1), xi=st.floats(0.01, 2.0),
       s=st.floats(0.0, 30.0))
def test_log_domain_moments_match_direct_powers(d, b, samples, sample_seed, xi, s):
    cols = FirstColumnSample(rank1_gauss(d, b, 1.0), samples, sample_seed)
    got = _assert_log_domain_matches_direct(cols, xi, s, cols.v(xi))
    # h_row fills its grid through one scratch array: each cell is h's mean
    grid = [0.0, s, 0.5 * s, s]
    assert np.array_equal(cols.h_row(xi, grid), [cols.h(t, xi).mean for t in grid])
    assert cols.h_row(xi, [s])[0] == got["h"].mean
    assert cols.gamma(xi).mean == mc.estimate_from_values(np.log(cols.v(xi))).mean


@seed(21)
@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 3), zeros=st.integers(1, 20), k=st.integers(0, 3),
       s=st.floats(0.0, 30.0))
def test_log_domain_skips_zero_norms_as_the_direct_forms(d, zeros, k, s):
    # t = 1 / xi and r = 0 with xi a power of two give v = 0 exactly: v^s is
    # 0 and kept (s > 0), its term in dh/ds (0 * -inf) and gamma (-inf) skipped
    xi = 2.0 ** -k
    cols = FirstColumnSample(rank1_gauss(d, 2, 1.0), 500, seed=50)
    cols.t[:zeros], cols.r[:zeros] = 1 / xi, 0.0
    assert np.count_nonzero(cols.v(xi) == 0.0) == zeros
    got = _assert_log_domain_matches_direct(cols, xi, s, cols.v(xi))
    assert got["dh_ds"].skipped == zeros
    assert got["h"].skipped == 0
    with pytest.warns(RuntimeWarning, match="excluded"):
        assert cols.gamma(xi).skipped == zeros


@seed(22)
@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 3), huge=st.integers(1, 20), xi=st.floats(0.01, 2.0),
       s=st.floats(20.0, 30.0))
def test_log_domain_skips_overflow_as_the_direct_forms(d, huge, xi, s):
    # a t of 1e40 puts s log v above 1,700, far past the double range
    # (709.8); the Gaussian draws stay below s log v = 200
    cols = FirstColumnSample(rank1_gauss(d, 2, 1.0), 500, seed=51)
    cols.t[:huge] = 1e40
    got = _assert_log_domain_matches_direct(cols, xi, s, cols.v(xi)[huge:])
    assert got["h"].skipped == got["dh_ds"].skipped == huge
    assert cols.h_row(xi, [s])[0] == np.inf


@seed(23)
@settings(max_examples=40, deadline=None)
@given(atoms=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=4),
       b=st.integers(1, 3), eta=st.floats(0.05, 1.5), s=st.floats(0.0, 30.0))
def test_exact_moments_stay_direct_powers_bit_for_bit(atoms, b, eta, s):
    spec = symm(1, b, eta, MixtureLaw(tuple(np.array([[a]]) for a in atoms),
                                      tuple(np.full(len(atoms), 1 / len(atoms)))))
    cols = FirstColumnSample(spec, 10, seed=0)
    assert cols.exact
    v, w = cols.v(spec.xi), cols.weights
    assume(np.all(v > 0))
    with np.errstate(over="ignore"):
        powers = v ** s
    assume(np.all(np.isfinite(powers)))
    assert cols.h_row(spec.xi, [s])[0] == (1.0 if s == 0 else np.average(powers, weights=w))
    if s > 0:
        assert cols.h(s).mean == float(powers @ w)
    assert cols.dh_ds(s).mean == float((powers * np.log(v)) @ w)
    assert cols.gamma().mean == float(np.log(v) @ w)


def test_one_draw_monte_carlo_estimates_have_nan_stderr():
    # one draw has no spread: a Monte-Carlo stderr is NaN, never 0, so no
    # 3-sigma gate passes on it; an enumerated estimate stays exact
    assert np.isnan(mc.estimate_from_values(np.array([2.0])).stderr)
    cols = FirstColumnSample(rank1_gauss(2, 8, 1.5), 1, seed=0)
    assert all(np.isnan(e.stderr) for e in (cols.h(1.0), cols.gamma(), cols.mean_h11()))
    prod = ProductSample(rank1_gauss(2, 8, 0.3), 4, 1, seed=0)
    assert all(np.isnan(e.stderr) for e in (prod.k(1.0), prod.ratio(1.0), prod.gamma()))
    exact = FirstColumnSample(symm(1, 1, 0.5, MixtureLaw((np.eye(1),))), 1, seed=0)
    assert exact.h(1.0).stderr == 0.0
