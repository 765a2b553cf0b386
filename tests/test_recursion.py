import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from scipy import stats
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from heavytail import mc, recursion
from heavytail.cli import main
from heavytail.linalg import batch_operator_norms, row_norms
from heavytail.models import (ConfigurationError, MixtureLaw, ModelSpec, Variant,
                              independent_gaussian_b, pair_a, rank1_gauss, sample_pairs,
                              symm)
from heavytail.recursion import (AlphaTilt, ProductState, StopRule, StopStatus,
                                 TiltedPaths, finite_iteration_tail,
                                 moment_growth_curve, partial_sum_norms,
                                 sample_r_batch, sample_r_parallel)


def half_identity_spec(d=2):
    # A = 0.5 I, B = e_1 deterministically
    return symm(d=d, b=1, eta=0.5, h_law=MixtureLaw((np.eye(d),)),
                b_law=MixtureLaw((np.eye(d)[0],), (1.0,)))


def const_steps(state, a_mat, b_vec, n):
    """n steps of a one-path ProductState with fixed A and B."""
    a = np.asarray(a_mat, dtype=float)[None]
    b = np.asarray(b_vec, dtype=float)[None]
    for _ in range(n):
        state.step(a, b)


def test_operator_norm_accuracy():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = rng.standard_normal((3, 3))
        assert batch_operator_norms(m) == pytest.approx(
            np.linalg.svd(m, compute_uv=False)[0], rel=1e-12)
    m2 = rng.standard_normal((500, 2, 2))
    ref = np.linalg.svd(m2, compute_uv=False)[:, 0]
    assert np.allclose(batch_operator_norms(m2), ref, rtol=1e-12)
    # near-equal singular values (rotation matrices)
    th = rng.random(100) * 2 * np.pi
    rots = np.stack([np.stack([np.cos(th), -np.sin(th)], axis=1),
                     np.stack([np.sin(th), np.cos(th)], axis=1)], axis=1)
    assert np.allclose(batch_operator_norms(rots), 1.0, rtol=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-80, 1e80, 1e150, 1e300])
def test_operator_norm_at_extreme_scales(scale):
    # the 2x2 form squares sums of entries, which over- or underflow past
    # about 1e154; such matrices are rescaled by powers of two
    m = np.random.default_rng(7).standard_normal((200, 2, 2))
    ref = np.linalg.svd(m, compute_uv=False)[:, 0]
    assert np.allclose(batch_operator_norms(m * scale) / scale, ref,
                       rtol=1e-12, atol=0)


def test_operator_norm_of_non_finite_3x3_matrices():
    # svd raises on a non-finite matrix; such a norm is inf, or NaN with a
    # NaN entry, and the finite matrices beside it keep svd's value
    m = np.random.default_rng(8).standard_normal((4, 3, 3))
    ref = np.linalg.svd(m, compute_uv=False)[:, 0]
    m[1, 2, 0], m[2, 0, 1], m[2, 1, 1] = np.inf, -np.inf, np.nan
    norms = batch_operator_norms(m)
    assert norms[1] == np.inf and np.isnan(norms[2])
    assert np.array_equal(norms[[0, 3]], ref[[0, 3]])


@settings(max_examples=100, deadline=None)
@given(theta=hnp.arrays(float, 8, elements=st.floats(0, 2 * np.pi)),
       noise=hnp.arrays(float, (8, 2, 2), elements=st.floats(-1, 1)),
       log_eps=st.floats(-17, -1), log_scale=st.floats(-140, 140),
       flip=st.booleans())
def test_operator_norm_near_equal_singular_values(theta, noise, log_eps, log_scale, flip):
    # a rotation (or reflection) plus a small perturbation has two nearly
    # equal singular values; the kernel passes the transposed view of its
    # entry-major (2, 2, m) product, so both layouts are checked
    c, s = np.cos(theta), np.sin(theta)
    rot = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
    if flip:
        rot[:, 1] *= -1.0
    m = 10.0 ** log_scale * (rot + 10.0 ** log_eps * noise)
    ref = np.linalg.svd(m, compute_uv=False)[:, 0]
    view = np.ascontiguousarray(m.transpose(1, 2, 0)).transpose(2, 0, 1)
    for stack in (m, view):
        assert np.allclose(batch_operator_norms(stack), ref, rtol=1e-12, atol=0)


def _einsum_matmul(x, y):
    """x @ y for (m, d, d) x and (m, d, e) y, by np.einsum("mik,mkj->mij").
    einsum adds the terms of a strided contraction axis in k order, but those
    of a contiguous one in SIMD pairs, so y is copied to C order and needs
    e >= 2 (or d = 1)."""
    return np.einsum("mik,mkj->mij", x, np.ascontiguousarray(y))


def _einsum_reference(a_steps, b_steps, gaussian_b):
    """ProductState's recursion with every product an einsum; returns pi,
    log_scale, r, and the covariance and its log scale."""
    m, d = a_steps[0].shape[:2]
    pi = np.broadcast_to(np.eye(d), (m, d, d)).copy()
    log_scale, cov_log_scale, factor = np.zeros(m), np.zeros(m), np.ones(m)
    r, cov = np.zeros((m, d)), np.zeros((m, d, d))
    for a, b in zip(a_steps, b_steps):
        if gaussian_b:
            p = pi * factor[:, None, None]
            cov += _einsum_matmul(p, p.transpose(0, 2, 1))
        else:
            pi_b = _einsum_matmul(pi, np.stack([b, b], axis=2))[:, :, 0]
            r = pi_b * np.exp(log_scale)[:, None] + r
        pi = _einsum_matmul(pi, a)
        peak = np.abs(pi).max(axis=(1, 2))
        hit = (peak > 1e150) | ((peak > 0) & (peak < 1e-150))
        nm = batch_operator_norms(pi[hit])
        pi[hit] /= nm[:, None, None]
        log_scale[hit] += np.log(nm)
        up = np.maximum(log_scale[hit], cov_log_scale[hit])
        cov[hit] *= np.exp(2.0 * (cov_log_scale[hit] - up))[:, None, None]
        factor[hit] = np.exp(log_scale[hit] - up)
        cov_log_scale[hit] = up
    return pi, log_scale, r, cov, cov_log_scale


@pytest.mark.parametrize("gaussian_b", [False, True], ids=["b", "gaussian-b"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_product_state_bitwise_equal_to_einsum(d, gaussian_b):
    # rows 0-9 grow by about 1e20 a step and rows 10-19 shrink by 1e-20, so
    # both re-base by step 8 while R stays finite; the rest do not re-base
    rng = np.random.default_rng(40 + d)
    m, steps = 30, 14
    scale = np.ones(m)
    scale[:10], scale[10:20] = 1e20, 1e-20
    a_steps = [scale[:, None, None] * rng.standard_normal((m, d, d)) for _ in range(steps)]
    b_steps = [rng.standard_normal((m, d)) for _ in range(steps)]
    state = ProductState(d, m, gaussian_b)
    for a, b in zip(a_steps, b_steps):
        state.step(a, None if gaussian_b else b)
    pi, log_scale, r, cov, cov_log_scale = _einsum_reference(a_steps, b_steps, gaussian_b)
    assert (log_scale[:20] != 0).all() and (log_scale[20:] == 0).all()
    assert np.array_equal(state.pi, pi)
    assert np.array_equal(state.log_scale, log_scale)
    if gaussian_b:
        assert (cov[:20] != 0).any()
        assert np.array_equal(state.cov.transpose(2, 0, 1), cov)
        assert np.array_equal(state.cov_log_scale, cov_log_scale)
    else:
        assert np.array_equal(state.r, r)


@settings(max_examples=60, deadline=None)
@given(mats=hnp.arrays(float, st.tuples(st.integers(8, 16), st.just(2), st.just(2)),
                       elements=st.floats(0.1, 1.0)),
       k=st.integers(20, 80), sign=st.sampled_from([-1, 1]))
def test_log_norms_invariant_under_renormalization(mats, k, sign):
    # Scaling every A_j by c = 10^(+-k) takes the product past 1e150 or below
    # 1e-150 within 8 steps, so the scaled path renormalizes and the plain
    # one does not. Positive entries leave no cancellation, so both round
    # to within a few ulps.
    c = 10.0 ** (sign * k)
    plain, scaled = ProductState(2, 1), ProductState(2, 1)
    for n, a in enumerate(mats, start=1):
        plain.step(a[None])
        scaled.step(c * a[None])
        assert scaled.log_norms()[0] == pytest.approx(
            plain.log_norms()[0] + n * np.log(c), rel=1e-12)
        unit = [s.pi[0] / batch_operator_norms(s.pi[0]) for s in (plain, scaled)]
        assert np.allclose(unit[1], unit[0], rtol=1e-12, atol=0)
    assert plain.log_scale[0] == 0.0 and scaled.log_scale[0] != 0.0


def test_geometric_series_r3():
    # A = 0.5 I, B = e_1: R_n = (2 - 2^(1-n)) e_1
    batch = sample_r_batch(half_identity_spec(), 1, mc.substream(0),
                           StopRule(tol_prod=0.0, n_max=3))
    assert batch.r[0, 0] == pytest.approx(1.75, rel=1e-12)
    assert batch.r[0, 1] == 0.0
    assert batch.n_steps[0] == 3
    assert batch.status[0] == StopStatus.N_MAX.value


def test_identity_accumulates_linearly():
    state = ProductState(2, 1)
    const_steps(state, np.eye(2), [1.0, 0.0], 17)
    assert state.r[0, 0] == pytest.approx(17.0, rel=1e-14)


def test_forward_iterate_tracked():
    # X_1 = A X_0 + B = Pi_1 X_0 + R_1
    x0 = np.array([3.0])
    state = ProductState(1, 1)
    const_steps(state, 0.5 * np.eye(1), [1.0], 1)
    x1 = np.exp(state.log_scale[0]) * state.pi[0] @ x0 + state.r[0]
    assert x1[0] == pytest.approx(2.5)  # 0.5*3 + 1


def test_divergence_freezes_trajectory():
    # A = 1 + 1e308, B = 1e308: R_1 = 1e308 is finite, R_2 overflows, so the
    # path stops at step 2 as diverged and keeps its last finite R
    spec = symm(d=1, b=1, eta=1.0, h_law=MixtureLaw((np.array([[-1e308]]),)),
                b_law=MixtureLaw((np.array([1e308]),), (1.0,)))
    batch = sample_r_batch(spec, 1, mc.substream(0), StopRule(n_max=10))
    assert batch.status[0] == StopStatus.DIVERGED.value
    assert batch.n_steps[0] == 2
    assert batch.r[0, 0] == 1e308
    assert batch.log_pi_final[0] == np.inf


def test_submultiplicative_log_norms():
    spec = rank1_gauss(d=2, b=2, eta=0.4)
    rng = mc.substream(1)
    state = ProductState(2, 1)
    prev = 0.0
    for _ in range(50):
        h, b = sample_pairs(spec, 1, rng)
        a = pair_a(spec, h)
        state.step(a, b)
        log_norm = state.log_norms()[0]
        assert log_norm <= prev + np.log(batch_operator_norms(a[0])) + 1e-10
        prev = log_norm


def test_r_recomputable_from_history():
    # replaying the recorded (A_j, B_j) history reproduces R to 1e-10 relative
    spec = rank1_gauss(d=2, b=8, eta=0.1)
    rng = mc.substream(2)
    history = []
    state = ProductState(2, 1)
    for _ in range(50):
        h, b = sample_pairs(spec, 1, rng)
        a = pair_a(spec, h)
        history.append((a[0], b[0]))
        state.step(a, b)
    # brute-force re-expansion: R = sum Pi_{k-1} B_k with fresh products
    pi = np.eye(2)
    r = np.zeros(2)
    for a, b in history:
        r = r + pi @ b
        pi = pi @ a
    assert np.linalg.norm(state.r[0] - r) <= 1e-10 * max(np.linalg.norm(r), 1.0)


def test_sample_r_geometric_stop():
    batch = sample_r_batch(half_identity_spec(), 1, mc.substream(3))
    assert batch.status[0] == StopStatus.TOL_PROD.value
    assert batch.n_steps[0] == 40  # 2^-40 < 1e-12
    assert abs(batch.r[0, 0] - 2.0) < 1e-11
    assert batch.r[0, 1] == 0.0


def _matmul_stop_rule_reference(spec, draws, rng, stop):
    """sample_r_batch's stop rule on stacked @ products, for a law whose
    products neither re-base nor diverge: (r, n_steps, status)."""
    d = spec.d
    pi = np.broadcast_to(np.eye(d), (draws, d, d)).copy()
    r_run, r = np.zeros((draws, d)), np.zeros((draws, d))
    n_steps = np.zeros(draws, dtype=int)
    status = np.full(draws, StopStatus.N_MAX.value, dtype=object)
    active = np.arange(draws)
    for n in range(1, stop.n_max + 1):
        h, b = sample_pairs(spec, active.size, rng)
        r_run = r_run + (pi @ b[:, :, None])[:, :, 0]
        pi = pi @ pair_a(spec, h)
        done = np.linalg.svd(pi, compute_uv=False)[:, 0] <= stop.tol_prod
        status[active[done]] = StopStatus.TOL_PROD.value
        n_steps[active[done]] = n
        r[active[done]] = r_run[done]
        pi, r_run, active = pi[~done], r_run[~done], active[~done]
        if not active.size:
            break
    n_steps[active], r[active] = stop.n_max, r_run
    return r, n_steps, status


def test_sample_r_batch_matches_a_matmul_reference():
    # the d = 2 finite-support law of the CLI's one-worker digests
    h_law = MixtureLaw((np.array([[1.0, 0.5], [0.5, 1.0]]),
                        np.array([[0.2, 0.0], [0.0, 1.6]])), (0.5, 0.5))
    spec = symm(d=2, b=2, eta=0.8, h_law=h_law)
    stop = StopRule()
    batch = sample_r_batch(spec, 2000, mc.substream(4, 0), stop)
    r, n_steps, status = _matmul_stop_rule_reference(spec, 2000, mc.substream(4, 0), stop)
    assert (status == StopStatus.TOL_PROD.value).all()
    assert np.array_equal(batch.n_steps, n_steps)
    assert np.array_equal(batch.status, status)
    assert (row_norms(batch.r - r) <= 1e-9 * row_norms(r)).all()


def _exact_norm_stop_reference(spec, draws, rng, stop):
    """sample_r_batch with A from pair_a, einsum products re-based as
    ProductState re-bases them, and the exact norm of every path on every
    step: (r, n_steps, log_pi_final, status)."""
    d = spec.d
    pi = np.broadcast_to(np.eye(d), (draws, d, d)).copy()
    log_scale, r_run = np.zeros(draws), np.zeros((draws, d))
    r, n_steps, log_final = np.zeros((draws, d)), np.zeros(draws, dtype=int), np.zeros(draws)
    status = np.full(draws, StopStatus.N_MAX.value, dtype=object)
    active = np.arange(draws)
    log_tol = np.log(stop.tol_prod) if stop.tol_prod > 0 else -np.inf
    for n in range(1, stop.n_max + 1):
        if not active.size:
            break
        h, b = sample_pairs(spec, active.size, rng)
        with np.errstate(over="ignore", invalid="ignore"):
            pi_b = _einsum_matmul(pi, np.stack([b, b], axis=2))[:, :, 0]
            r_prev, r_run = r_run, pi_b * np.exp(log_scale)[:, None] + r_run
            pi = _einsum_matmul(pi, pair_a(spec, h))
            peak = np.abs(pi).max(axis=(1, 2))
            hit = (peak > 1e150) | ((peak > 0) & (peak < 1e-150))
            nm = batch_operator_norms(pi[hit])
            pi[hit] /= nm[:, None, None]
            log_scale[hit] += np.log(nm)
            log_norm = log_scale + np.log(np.maximum(batch_operator_norms(pi), 1e-300))
        bad = ~np.isfinite(log_norm) | ~np.isfinite(r_run).all(axis=1)
        ended = bad | (log_norm <= log_tol) | (n == stop.n_max)
        for k in np.flatnonzero(ended):
            i = active[k]
            n_steps[i], log_final[i], r[i] = n, log_norm[k], r_run[k]
            if bad[k]:
                status[i], log_final[i], r[i] = StopStatus.DIVERGED.value, np.inf, r_prev[k]
            elif log_norm[k] <= log_tol:
                status[i] = StopStatus.TOL_PROD.value
            elif log_norm[k] >= 0:
                status[i] = StopStatus.NON_CONTRACTION.value
        pi, log_scale, r_run, active = (x[~ended] for x in (pi, log_scale, r_run, active))
    return r, n_steps, log_final, status


def _stop_rule_law(d, kind, scales, b, eta):
    """A law for the stop-rule property: scalar atoms (A = c I, products
    that re-base past 1e+-150 or overflow), diagonal atoms (zero
    off-diagonal entries), the Bartlett law or the a-draw rank1 law."""
    if kind == "rank1gauss":
        return rank1_gauss(d=d, b=b, eta=eta)
    if kind == "rank1":
        a_law = MixtureLaw(tuple(np.eye(d)[i % d] * c for i, c in enumerate(scales)),
                           (1.0 / len(scales),) * len(scales))
        return ModelSpec(Variant.RANK1, d=d, b=b, eta=eta, a_law=a_law)
    # xi = 1: A = I - H has the atom values c on the diagonal
    if kind == "scalar":
        atoms = tuple((1.0 - c) * np.eye(d) for c in scales)
    else:
        atoms = tuple(np.diag([1.0 - c] + [1.0 - c * (j + 2) / 2 for j in range(d - 1)])
                      for c in scales)
    return symm(d=d, b=1, eta=1.0, h_law=MixtureLaw(atoms, (1.0 / len(atoms),) * len(atoms)),
                b_law=MixtureLaw((np.linspace(1.0, 2.0, d), -np.ones(d)), (0.5, 0.5)))


# Atom values of A: contracting, expanding, sign-changing and 0, with
# products that leave [1e-150, 1e150] within a few steps or overflow (A is
# I - H here, so no atom of A is closer to 0 than about 1e-16 but 0)
_A_VALUES = st.sampled_from([0.5, -0.5, 0.9, 1.0, -1.0, 2.0, 0.0, 1e-10, 1e60, 3e100, -1e200])


# Every example passes (bit for bit) over hypothesis seeds 0-199 at 150
# examples each; the property is exact, not statistical.
@seed(20261022)
@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([1, 2, 3]),
       kind=st.sampled_from(["scalar", "diagonal", "rank1gauss", "rank1"]),
       scales=st.lists(_A_VALUES, min_size=1, max_size=2),
       b=st.integers(1, 4), eta=st.sampled_from([0.3, 1.0, 1.5, 2.5]),
       tol=st.sampled_from([0.0, 1e-300, 1e-12, 0.5, 4.0]), tol_power=st.integers(0, 40),
       n_max=st.integers(1, 60), draws=st.integers(1, 40), rng_seed=st.integers(0, 2**16))
# products re-based below 1e-150 that meet tol_prod after the re-base, or
# that would underflow to 0 without it (tol_prod 0)
@example(d=2, kind="scalar", scales=[1e-10], b=1, eta=1.0, tol=1e-300, tol_power=0,
         n_max=60, draws=3, rng_seed=0)
@example(d=1, kind="diagonal", scales=[1e-10, 0.5], b=1, eta=1.0, tol=0.0, tol_power=0,
         n_max=60, draws=20, rng_seed=1)
# overflow to NaN at d = 3
@example(d=3, kind="rank1", scales=[-1e200], b=1, eta=0.3, tol=0.0, tol_power=0,
         n_max=3, draws=2, rng_seed=3)
def test_stop_rule_equals_exact_norms_on_every_step(d, kind, scales, b, eta, tol, tol_power,
                                                    n_max, draws, rng_seed):
    # sample_r_batch (in-place path compaction, a swapped R buffer, a scale
    # multiply that waits for the first re-base) against a plain loop with
    # one array per step, bit for bit. tol_prod is a fixed value, or
    # (tol_power > 0) a power of the first atom's |A|, on the product's entries
    spec = _stop_rule_law(d, kind, scales, b, eta)
    if tol_power:
        with np.errstate(over="ignore", under="ignore"):
            tol = float(np.power(abs(scales[0]), tol_power))
    stop = StopRule(tol_prod=tol, n_max=n_max)
    with np.errstate(over="ignore", invalid="ignore"):
        batch = sample_r_batch(spec, draws, np.random.default_rng(rng_seed), stop)
        want = _exact_norm_stop_reference(spec, draws, np.random.default_rng(rng_seed), stop)
    for got, ref in zip((batch.r, batch.n_steps, batch.log_pi_final), want):
        assert got.tobytes() == ref.tobytes()
    assert list(batch.status) == list(want[3])


def test_sample_r_parallel_concatenates_worker_substreams():
    # worker i draws its chunk on substream(seed, i); one worker is the
    # single-stream batch, and fewer draws than workers leave a chunk empty
    spec = rank1_gauss(d=2, b=3, eta=0.5)
    seed = (11, 2)
    stop = StopRule(n_max=200)
    parts = [sample_r_batch(spec, m, mc.substream(seed, i), stop)
             for i, m in enumerate(mc._chunk_sizes(7, 2))]
    cases = [(2, 7, parts), (1, 7, [sample_r_batch(spec, 7, mc.substream(seed, 0), stop)]),
             (2, 1, [sample_r_batch(spec, 1, mc.substream(seed, 0), stop)])]
    for workers, draws, want in cases:
        got = sample_r_parallel(spec, draws, seed, stop, workers)
        for field in ("r", "n_steps", "log_pi_final", "status"):
            assert np.array_equal(getattr(got, field),
                                  np.concatenate([getattr(p, field) for p in want]))


def test_sample_r_non_contraction_warning(tmp_path, capsys):
    # A = -I: ||Pi_n|| = 1 at every step (gamma = 0 boundary), no decay
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--model", "symm-det-identity", "--eta", "2",
                 "--samples", "3", "--n-max", "50", "--out", str(out)])
    assert code == 0
    assert "3/3 trajectories did not contract" in capsys.readouterr().err
    rows = out.read_text().strip().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["50"] * 3


def test_abs_r_finite_where_its_square_overflows(tmp_path):
    # A = -9 I: |R_300| ~ 9^300 ~ 1e286 is finite, |R|^2 is not
    out = tmp_path / "sim.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--model", "symm-det-identity", "--d", "2",
                     "--eta", "10", "--samples", "2", "--n-max", "300",
                     "--out", str(out)])
    assert code == 0
    for row in out.read_text().strip().splitlines()[1:]:
        _, n, r1, r2, abs_r, _ = (float(x) for x in row.split(","))
        assert n == 300
        assert 1e154 < abs_r < np.inf
        assert abs_r == pytest.approx(np.hypot(r1, r2), rel=1e-15)


def test_partial_sum_norms_finite_where_square_overflows():
    spec = symm(d=2, b=1, eta=10.0, h_law=MixtureLaw((np.eye(2),)))
    vals = partial_sum_norms(spec, [10, 300], 3, mc.substream(12))
    assert np.isfinite(vals).all() and (vals[:, 1] > 1e154).all()


def _det_identity(d, eta):
    # H = I, standard Gaussian B: A = (1 - eta) I
    return symm(d=d, b=1, eta=eta, h_law=MixtureLaw((np.eye(d),)))


def _quiet_partial_sums(spec, grid, draws, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return partial_sum_norms(spec, grid, draws, mc.substream(seed))


def test_partial_sum_norms_d1_finite_where_square_overflows():
    # A = -9: |R_300| ~ 9^300 ~ 1e286, with its variance far past 1e308.
    # H draws no variates, so R_10 = s_10 z_1 and R_300 = R_10 + t z_2 with
    # s_10^2 = sum_{k<10} 81^k, t^2 = sum_{10<=k<300} 81^k ~ 81^300 / 80,
    # z_1 and z_2 the stream's first two blocks of normals; the product is
    # renormalized twice on the way
    vals = _quiet_partial_sums(_det_identity(1, 10.0), [10, 300], 3, 12)
    rng = mc.substream(12)
    z1, z2 = rng.standard_normal(3), rng.standard_normal(3)
    r10 = np.sqrt((81.0 ** 10 - 1) / 80) * z1
    assert np.allclose(vals[:, 0], np.abs(r10), rtol=1e-13, atol=0)
    assert np.allclose(vals[:, 1], np.abs(r10 + 9.0 ** 300 / np.sqrt(80) * z2),
                       rtol=1e-11, atol=0)
    assert (vals[:, 1] > 1e154).all()


@pytest.mark.parametrize("d", [1, 2])
def test_partial_sum_norms_under_a_contracting_product(d):
    # A = 1e-6 I: the product passes 1e-300 by step 51 and the terms after
    # step 10 are below rounding, so R_300 keeps the bits of R_10
    vals = _quiet_partial_sums(_det_identity(d, 0.999999), [1, 10, 300], 5, 14)
    assert np.isfinite(vals).all()
    assert np.allclose(vals[:, 1], vals[:, 0], rtol=1e-4, atol=0)
    assert np.array_equal(vals[:, 2], vals[:, 1])


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("grid", [[1, 5, 40], [3, 4, 40]])
def test_partial_sum_norms_of_a_zero_product(d, grid):
    # A = 0: R_n = B_1 for every n, and every pending covariance after the
    # first grid point is the zero matrix
    vals = _quiet_partial_sums(_det_identity(d, 1.0), grid, 6, 15)
    assert (vals[:, 0] > 0).all()
    assert np.array_equal(vals, np.repeat(vals[:, :1], len(grid), axis=1))


def test_gaussian_b_draw_stays_in_the_range_of_a_singular_covariance():
    # A = P, the projection on (1, 1)/sqrt(2): Pi_k = P for k >= 1, so
    # every pending covariance after the first step is k P, which is
    # singular; its draw must leave R_1 - R_2 as it was
    m = 20_000
    proj = np.broadcast_to(np.full((2, 2), 0.5), (m, 2, 2))
    state = ProductState(2, m, gaussian_b=True)
    rng = mc.substream(16)
    state.step(proj)  # Pi_0 Pi_0^T = I
    state.add_gaussian_b(rng)
    start = state.r
    for _ in range(4):
        state.step(proj)
    state.add_gaussian_b(rng)
    inc = state.r - start
    assert np.allclose(inc[:, 0], inc[:, 1], rtol=0, atol=1e-14)
    # 4 P has the entries 2: each coordinate of the draw has variance 2
    assert abs(inc[:, 0].var() - 2.0) < 4 * 2.0 * np.sqrt(2 / m)
    assert (state.cov == 0).all()


def test_independent_gaussian_b_selects_symm_laws_with_gaussian_b():
    h_law = MixtureLaw((np.eye(2),))
    assert independent_gaussian_b(symm(d=2, b=1, eta=0.5, h_law=h_law))
    assert not independent_gaussian_b(half_identity_spec())
    assert not independent_gaussian_b(rank1_gauss(d=2, b=2, eta=0.5))


@pytest.mark.parametrize("d, atoms, probs", [
    (1, (0.5, 2.5), (0.5, 0.5)),           # the criterion-07 law
    (2, (0.5, 2.2, 1.0), (0.4, 0.4, 0.2)),  # scalar atoms h I
], ids=["d1", "d2"])
def test_tilted_second_moment_matches_exact_sum(d, atoms, probs):
    # alpha = 2 oracle: given the A's, R_n is N(0, sum_{k<n} Pi_k Pi_k^T),
    # so E|R_n|^2 = sum_{k<n} E||Pi_k||_F^2 = d sum_{k<n} (E a^2)^k for
    # scalar atoms a = 1 - h
    h_law = MixtureLaw(tuple(h * np.eye(d) for h in atoms), probs)
    spec = symm(d=d, b=1, eta=1.0, h_law=h_law)
    ea2 = sum(p * (1 - h) ** 2 for h, p in zip(atoms, probs))
    curve = moment_growth_curve(spec, alpha=2.0, n_grid=[5, 20, 50],
                                samples=100_000, seed=33 + d)
    for n, est in curve:
        exact = d * sum(ea2 ** k for k in range(n))
        assert abs(est.mean - exact) < 4 * est.stderr, (n, est.mean, exact)


@pytest.mark.parametrize("h_law", [
    MixtureLaw((0.5 * np.eye(1), 2.5 * np.eye(1)), (0.5, 0.5)),
    MixtureLaw((np.diag([0.5, 1.5]), np.array([[-0.5, 0.5], [0.5, 0.5]])),
               (0.4, 0.6)),
], ids=["d1", "d2"])
def test_gaussian_b_per_interval_matches_per_step_draws(h_law, monkeypatch):
    # two-sample KS of |R_n| at each grid point against the drawn-B path,
    # which runs once independent_gaussian_b is off
    spec = symm(d=h_law.d, b=1, eta=1.0, h_law=h_law)
    grid, n = [5, 20, 50], 20_000
    vals = partial_sum_norms(spec, grid, n, mc.substream(41))
    monkeypatch.setattr(recursion, "independent_gaussian_b", lambda spec: False)
    drawn = partial_sum_norms(spec, grid, n, mc.substream(51))
    for j in range(len(grid)):
        assert stats.ks_2samp(vals[:, j], drawn[:, j]).pvalue > 0.01


def test_row_norms_keep_plain_bits_below_overflow():
    x = mc.substream(13).standard_normal((1000, 3)) * 10.0 ** np.arange(-100, 150, 0.25)[:, None]
    assert np.array_equal(row_norms(x), np.sqrt((x * x).sum(axis=1)))
    big = np.array([[1e300, -1e300], [3e200, 4e200], [np.inf, 1.0]])
    assert np.allclose(row_norms(big)[:2], np.hypot(big[:2, 0], big[:2, 1]), rtol=1e-15)
    assert row_norms(big)[2] == np.inf
    # an (n, m, d) stack reduces over its last axis: plain bits, and a row
    # past 1e154 scaled
    stack = x[:999].reshape(333, 3, 3).copy()
    stack[5, 1] = [3e200, 4e200, 0.0]
    norms = row_norms(stack)
    assert norms.shape == (333, 3) and norms[5, 1] == pytest.approx(5e200, rel=1e-15)
    plain = np.ones(norms.shape, dtype=bool)
    plain[5, 1] = False
    with np.errstate(over="ignore"):
        assert np.array_equal(norms[plain], np.sqrt((stack * stack).sum(axis=2))[plain])


def test_sample_r_stationary_mean_zero_d1():
    # E R = E B / (1 - E A) = 0 since E B = 0 for the Gaussian rank-one model
    spec = rank1_gauss(d=1, b=1, eta=0.1)
    batch = sample_r_batch(spec, 100_000, mc.substream(5))
    mean = batch.r[:, 0].mean()
    stderr = batch.r[:, 0].std(ddof=1) / np.sqrt(len(batch.r))
    assert abs(mean) < 4 * stderr


def test_truncation_error_bounded_by_product_norm():
    # extend 100 trajectories
    # 2x past the stop rule; the observed gap obeys
    # |R_ext - R_stop| <= ||Pi_stop|| * sum ||shifted products|| |B|
    spec = rank1_gauss(d=1, b=1, eta=0.3)
    rng = mc.substream(6)
    stop = StopRule(tol_prod=1e-6, n_max=10_000)
    for _ in range(100):
        state = ProductState(1, 1)
        n_stop = 0
        while np.exp(state.log_norms()[0]) > stop.tol_prod:
            h, b = sample_pairs(spec, 1, rng)
            state.step(pair_a(spec, h), b)
            n_stop += 1
        r_stop = state.r[0].copy()
        pi_stop = np.exp(state.log_norms()[0])
        shifted_pi = np.eye(1)
        bound = 0.0
        for _ in range(n_stop):  # extend to twice the stopping step
            h, b = sample_pairs(spec, 1, rng)
            a = pair_a(spec, h)
            bound += batch_operator_norms(shifted_pi) * np.linalg.norm(b[0])
            shifted_pi = shifted_pi @ a[0]
            state.step(a, b)
        gap = np.linalg.norm(state.r[0] - r_stop)
        assert gap <= pi_stop * bound + 1e-300


def test_moment_growth_deterministic_contrast():
    # A = 0.5, B = 1 (d=1): E|R_n| = 2 - 2^(1-n), flat, not linear
    spec = symm(d=1, b=1, eta=0.5, h_law=MixtureLaw((np.eye(1),)),
                b_law=MixtureLaw((np.ones(1),), (1.0,)))
    curve = moment_growth_curve(spec, alpha=1.0, n_grid=[1, 3, 10], samples=4,
                                seed=7)
    expected = {1: 1.0, 3: 1.75, 10: 2 - 2.0 ** -9}
    for n, est in curve:
        assert est.mean == pytest.approx(expected[n], rel=1e-12)
        assert est.stderr == 0.0


def test_moment_growth_zero_forcing():
    spec = symm(d=1, b=1, eta=0.5, h_law=MixtureLaw((np.eye(1),)),
                b_law=MixtureLaw((np.zeros(1),), (1.0,)))
    curve = moment_growth_curve(spec, alpha=1.3, n_grid=[2, 5], samples=3, seed=8)
    assert all(est.mean == 0.0 for _, est in curve)


def test_partial_sums_nested_consistency():
    spec = rank1_gauss(d=1, b=1, eta=0.2)
    grid = [3, 7]
    vals = partial_sum_norms(spec, grid, 5, mc.substream(9))
    # recompute |R_3| by stepping the same stream manually
    rng = mc.substream(9)
    r = np.zeros((5, 1))
    pi = np.ones((5, 1, 1))
    for n in range(1, 8):
        h, b = sample_pairs(spec, 5, rng)
        r += pi[:, :, 0] * b
        pi = pi * pair_a(spec, h)
        if n == 3:
            assert np.allclose(np.abs(r[:, 0]), vals[:, 0])
    assert np.allclose(np.abs(r[:, 0]), vals[:, 1])


def test_partial_sums_repeated_grid_point_and_bad_grid():
    spec = rank1_gauss(d=1, b=1, eta=0.2)
    vals = partial_sum_norms(spec, [7, 3, 3], 5, mc.substream(9))
    ref = partial_sum_norms(spec, [3, 7], 5, mc.substream(9))
    assert np.array_equal(vals, ref[:, [0, 0, 1]])
    with pytest.raises(ConfigurationError, match=">= 1"):
        partial_sum_norms(spec, [0, 5], 5, mc.substream(9))


def test_finite_iteration_tail_bounded_support():
    # n=1 with bounded A, B: no exceedances beyond the support bound
    h_law = MixtureLaw((0.5 * np.eye(1), 1.5 * np.eye(1)), (0.5, 0.5))
    spec = symm(d=1, b=1, eta=1.0, h_law=h_law,
                b_law=MixtureLaw((np.ones(1), -np.ones(1)), (0.5, 0.5)))
    report = finite_iteration_tail(spec, n=1,
                                   t_grid=[0.5, 0.9, 1.01, 2.0], samples=2000,
                                   seed=10)
    assert report.exceedance[report.t_grid > 1.0].max(initial=0.0) == 0.0
    # t -> 0+: exceedance approaches 1
    report_low = finite_iteration_tail(spec, n=1,
                                       t_grid=[1e-9, 0.5], samples=2000, seed=10)
    assert report_low.exceedance[0] == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("t_grid", [[], [0.0, 1.0], [1.0, -1.0], [np.nan, 1.0]])
def test_finite_iteration_tail_refuses_an_empty_or_non_positive_t_grid(t_grid):
    spec = symm(d=1, b=1, eta=1.0, h_law=MixtureLaw((0.5 * np.eye(1),)))
    with pytest.raises(ConfigurationError, match="t-grid"):
        finite_iteration_tail(spec, n=1, t_grid=t_grid, samples=10, seed=0)


def test_finite_iteration_tail_slope_mixture():
    h_law = MixtureLaw((0.5 * np.eye(1), 2.5 * np.eye(1)), (0.5, 0.5))
    spec = symm(d=1, b=1, eta=1.0, h_law=h_law)
    batch = partial_sum_norms(spec, [20], 100_000, mc.substream(11))[:, 0]
    t_hi = np.quantile(batch, 1 - 100 / len(batch))
    report = finite_iteration_tail(spec, n=20,
                                   t_grid=np.geomspace(t_hi / 10, t_hi, 10),
                                   samples=100_000, seed=11)
    assert report.slope <= -1.3
    assert not report.widened_uncertainty


def test_trajectory_thinning_records_every_kth():
    # log ||Pi_n|| read out at steps 5 and 10 of a 12-step path
    state = ProductState(1, 1)
    seen = {}
    for n in range(1, 13):
        const_steps(state, 0.5 * np.eye(1), [1.0], 1)
        if n % 5 == 0:
            seen[n] = state.log_norms()[0]
    assert list(seen) == [5, 10]
    assert seen[5] == pytest.approx(5 * np.log(0.5), rel=1e-14)
    assert seen[10] == pytest.approx(10 * np.log(0.5), rel=1e-14)


def test_log_scale_renormalization_roundtrip():
    # products far below the float floor keep exact log norms
    state = ProductState(1, 1)
    const_steps(state, 1e-60 * np.eye(1), [0.0], 8)  # raw product 1e-480
    assert state.log_norms()[0] == pytest.approx(8 * np.log(1e-60), rel=1e-12)
    assert state.log_scale[0] != 0.0


def test_moment_curve_matches_exact_path_enumeration():
    # Binary-A mixture with Gaussian forcing: conditioned on the A-path,
    # R_n is centered Gaussian with variance sum_k Pi_{k-1}^2, so E|R_n| =
    # sqrt(2/pi) E_paths sqrt(sum_k W_k) with W multiplying over a^2 in
    # {0.25, 2.25}. Enumerating all 2^n paths gives an exact oracle; frozen
    # values below were computed by that enumeration.
    h_law = MixtureLaw((0.5 * np.eye(1), 2.5 * np.eye(1)), (0.5, 0.5))
    spec = symm(d=1, b=1, eta=1.0, h_law=h_law)
    exact = {6: 2.193636303987105, 10: 3.0262898702272323,
             14: 3.792883489256939}
    curve = moment_growth_curve(spec, alpha=1.0, n_grid=[6, 10, 14],
                                samples=400_000, seed=21)
    for n, est in curve:
        assert abs(est.mean - exact[n]) < 4 * est.stderr, (n, est.mean)


def _enumerated_moment(a_atoms, probs, n, alpha):
    """Exact E|R_n|^alpha under B ~ N(0, I_d), by enumerating all A-paths.

    Given the path, R_n = sum_k Pi_{k-1} B_k is centered Gaussian with
    covariance sum_k Pi_{k-1} Pi_{k-1}^T. For d = 1 its alpha-th absolute
    moment is sigma^alpha 2^(alpha/2) Gamma((alpha+1)/2) / sqrt(pi); for
    alpha = 2 it is the trace of the covariance in any d.
    """
    total = 0.0
    for path in itertools.product(range(len(probs)), repeat=n - 1):
        pi = np.eye(a_atoms.shape[1])
        cov = pi @ pi.T
        weight = 1.0
        for i in path:
            pi = pi @ a_atoms[i]
            cov = cov + pi @ pi.T
            weight *= probs[i]
        if alpha == 2.0:
            total += weight * np.trace(cov)
        else:
            total += weight * (cov[0, 0] ** (alpha / 2) * 2 ** (alpha / 2)
                               * math.gamma((alpha + 1) / 2) / math.sqrt(math.pi))
    return total


def test_tilted_moment_curve_matches_enumeration_b2_mixture():
    # b = 2 summands of a two-atom law: the tilt runs over the three-point
    # multinomial sum support {1, 3, 5} with probabilities {0.09, 0.42, 0.49},
    # so A = 1 - H/2 takes the values {0.5, -0.5, -1.5}.
    h_law = MixtureLaw((0.5 * np.eye(1), 2.5 * np.eye(1)), (0.3, 0.7))
    spec = symm(d=1, b=2, eta=1.0, h_law=h_law)
    a_atoms = np.array([[[0.5]], [[-0.5]], [[-1.5]]])
    probs = [0.09, 0.42, 0.49]
    curve = moment_growth_curve(spec, alpha=1.5, n_grid=[3, 6, 9],
                                samples=200_000, seed=24)
    for n, est in curve:
        exact = _enumerated_moment(a_atoms, probs, n, 1.5)
        assert abs(est.mean - exact) < 4 * est.stderr, (n, est.mean, exact)


def test_tilted_moment_curve_matches_enumeration_d2_non_scalar():
    # Non-scalar atoms, one of norm above 1: the tilt follows the direction
    # of A_k ... A_1 e_1, and c(x) changes with it.
    h1 = np.diag([0.5, 1.5])
    h2 = np.array([[-0.5, 0.5], [0.5, 0.5]])
    spec = symm(d=2, b=1, eta=1.0, h_law=MixtureLaw((h1, h2), (0.4, 0.6)))
    a_atoms = np.stack([np.eye(2) - h1, np.eye(2) - h2])
    curve = moment_growth_curve(spec, alpha=2.0, n_grid=[4, 8, 11],
                                samples=100_000, seed=25)
    for n, est in curve:
        exact = _enumerated_moment(a_atoms, [0.4, 0.6], n, 2.0)
        assert abs(est.mean - exact) < 4 * est.stderr, (n, est.mean, exact)


def test_tilted_moment_curve_matches_enumeration_d2_non_scalar_b2():
    # b = 2 summands of a non-scalar two-atom law: the direction-dependent
    # tilt runs over the sum support {2 h1, h1 + h2, 2 h2} with multinomial
    # probabilities {0.16, 0.48, 0.36}.
    h1 = np.diag([0.5, 1.5])
    h2 = np.array([[-0.5, 0.5], [0.5, 0.5]])
    spec = symm(d=2, b=2, eta=1.0, h_law=MixtureLaw((h1, h2), (0.4, 0.6)))
    tilt = AlphaTilt.for_spec(spec, 2.0)
    assert tilt is not None and not tilt.scalar
    a_atoms = np.stack([np.eye(2) - spec.xi * h for h in (2 * h1, h1 + h2, 2 * h2)])
    curve = moment_growth_curve(spec, alpha=2.0, n_grid=[4, 7, 10],
                                samples=100_000, seed=30)
    for n, est in curve:
        exact = _enumerated_moment(a_atoms, [0.16, 0.48, 0.36], n, 2.0)
        assert abs(est.mean - exact) < 4 * est.stderr, (n, est.mean, exact)


def test_non_scalar_tilt_only_for_small_sum_support():
    # A non-scalar tilt computes a norm for each support point on every
    # step; past NON_SCALAR_TILT_FACTOR * (b + d) points it would cost many
    # plain steps, so plain Monte Carlo runs instead, with the warning.
    limit = recursion.NON_SCALAR_TILT_FACTOR * (1 + 2)
    mats = [np.diag([0.1 * i, -0.1 * i]) for i in range(1, limit + 2)]
    at_limit = symm(d=2, b=1, eta=1.0,
                    h_law=MixtureLaw(tuple(mats[:limit]), (1 / limit,) * limit))
    assert AlphaTilt.for_spec(at_limit, 1.0).atoms.shape[0] == limit
    over = symm(d=2, b=1, eta=1.0, h_law=MixtureLaw(
        tuple(mats), (1 / (limit + 1),) * (limit + 1)))
    assert AlphaTilt.for_spec(over, 1.0) is None
    # six atoms at b = 8 have C(13, 8) = 1287 sum support points
    six_b8 = symm(d=2, b=8, eta=1.0,
                  h_law=MixtureLaw(tuple(mats[:6]), (1 / 6,) * 6))
    assert AlphaTilt.for_spec(six_b8, 1.0) is None
    with pytest.warns(RuntimeWarning, match="plain Monte Carlo"):
        curve = moment_growth_curve(six_b8, alpha=1.0, n_grid=[3], samples=100, seed=31)
    assert curve[0][1].n == 100
    # scalar atoms are tilted at any support size h_sum_support expands
    scalar_b8 = symm(d=2, b=8, eta=1.0, h_law=MixtureLaw(
        tuple(0.1 * i * np.eye(2) for i in range(1, 7)), (1 / 6,) * 6))
    assert AlphaTilt.for_spec(scalar_b8, 1.0).scalar


@pytest.mark.parametrize("atoms", [2, 3, recursion._COUNT_BREAKPOINTS + 1,
                                   recursion._COUNT_BREAKPOINTS + 2, 200])
def test_pick_matches_searchsorted(atoms):
    # counting breakpoints and binary search must pick the same atoms
    rng = np.random.default_rng(atoms)
    cdf = recursion._inner_cdf(rng.random(atoms))
    u = np.concatenate([rng.random(5000), cdf, [0.0]])
    assert np.array_equal(recursion._pick(cdf, u), cdf.searchsorted(u, side="right"))


def test_scalar_tilt_above_the_counting_limit(monkeypatch):
    # b = 40 draws of a two-atom scalar law: 41 sum support points, so 40
    # breakpoints, more than the counting branch of draw takes
    spec = symm(1, 40, 1.0, MixtureLaw(([[0.5 / 40]], [[2.5 / 40]]), (0.5, 0.5)))
    tilt = AlphaTilt.for_spec(spec, 2.0)
    assert tilt.scalar and tilt.nominal_cdf.size == 40 > recursion._COUNT_BREAKPOINTS
    assert not np.array_equal(tilt.tilted_cdf, tilt.nominal_cdf)
    rng = np.random.default_rng(34)
    u = np.concatenate([rng.random(5000), tilt.nominal_cdf, tilt.tilted_cdf, [0.0]])
    tilted = rng.random(u.size) < 0.5
    idx, ratio = tilt.draw(u, tilted, None)
    want = np.where(tilted, tilt.tilted_cdf.searchsorted(u, side="right"),
                    tilt.nominal_cdf.searchsorted(u, side="right"))
    assert np.array_equal(idx, want) and np.array_equal(ratio, tilt.ratio[want])
    monkeypatch.setattr(recursion, "_COUNT_BREAKPOINTS", 64)
    counted = tilt.draw(u, tilted, None)
    assert np.array_equal(counted[0], idx) and np.array_equal(counted[1], ratio)


def _tilted_norms(spec, alpha, grid, draws, seed):
    rng = mc.substream(seed)
    paths = TiltedPaths(AlphaTilt.for_spec(spec, alpha), grid, draws, rng)
    return partial_sum_norms(spec, grid, draws, rng, paths), paths.weights


@pytest.mark.parametrize("a_atoms", [
    (0.5 * np.eye(2), -0.5 * np.eye(2)),                     # scalar atoms
    (0.5 * np.eye(2), 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])),  # |A x| = 0.5
])
def test_tilt_with_equal_atom_norms_has_unit_weights(a_atoms):
    h_law = MixtureLaw(tuple(np.eye(2) - a for a in a_atoms), (0.3, 0.7))
    spec = symm(d=2, b=1, eta=1.0, h_law=h_law)
    _, weights = _tilted_norms(spec, 1.0, [2, 5, 9], 1000, 26)
    assert (weights == 1.0).all()


def test_tilt_weights_survive_rescaling(monkeypatch):
    # alpha = 3 tilts towards |A| = 1.5 with step ratio ~1.93, so a low
    # rescaling threshold shifts L and its sums many times on these paths;
    # the draws do not depend on it, and the weights must not either.
    h_law = MixtureLaw((0.5 * np.eye(1), 2.5 * np.eye(1)), (0.5, 0.5))
    spec = symm(d=1, b=1, eta=1.0, h_law=h_law)
    grid = [5, 20, 40]
    norms, weights = _tilted_norms(spec, 3.0, grid, 2000, 28)
    monkeypatch.setattr(recursion, "_RENORM_HI", 10.0)
    norms2, weights2 = _tilted_norms(spec, 3.0, grid, 2000, 28)
    assert np.allclose(norms2, norms, rtol=1e-12, atol=0)
    assert np.allclose(weights2, weights, rtol=1e-12, atol=0)


def test_partial_sums_refuse_paths_for_another_grid():
    h_law = MixtureLaw((0.5 * np.eye(1), 2.5 * np.eye(1)), (0.5, 0.5))
    spec = symm(d=1, b=1, eta=1.0, h_law=h_law)
    rng = mc.substream(32)
    paths = TiltedPaths(AlphaTilt.for_spec(spec, 1.0), [3, 6], 10, rng)
    with pytest.raises(ValueError, match="another n-grid"):
        partial_sum_norms(spec, [3, 7], 10, rng, paths)


def test_moment_curve_without_exact_tilt_warns():
    with pytest.warns(RuntimeWarning, match="plain Monte Carlo"):
        curve = moment_growth_curve(rank1_gauss(d=1, b=1, eta=0.2), alpha=1.0,
                                    n_grid=[3], samples=100, seed=27)
    assert curve[0][1].n == 100
