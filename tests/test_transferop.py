import numpy as np
import pytest

from heavytail.models import DeterministicLaw, rank1_gauss, symm
from heavytail.spectral import FirstColumnSample
from heavytail.transferop import (PowerIterationError, build_operator,
                                  eigenfunction_representation_check,
                                  power_iterate)


def scaled_identity_spec(scale: float):
    # A = scale * I via a deterministic H: A = I - xi*H with H = (1-scale)/xi * I
    return symm(d=2, b=1, eta=1.0 - scale, h_law=DeterministicLaw(np.eye(2)))


def test_identity_model_gives_identity_operator():
    spec = scaled_identity_spec(1.0 - 1e-15)  # A = I up to 1e-15
    op = build_operator(spec, s=1.0, n_bins=16, samples=64, seed=0)
    assert np.allclose(op.matrix, np.eye(16), atol=1e-12)
    spectrum = power_iterate(op)
    assert spectrum.leading_eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(spectrum.eigenmeasure, 1 / 16)


def test_half_identity_scales_weights():
    spec = scaled_identity_spec(0.5)
    op = build_operator(spec, s=1.0, n_bins=16, samples=64, seed=1)
    assert np.allclose(op.matrix, 0.5 * np.eye(16), atol=1e-12)
    assert power_iterate(op).leading_eigenvalue == pytest.approx(0.5, abs=1e-12)


def test_markov_columns_at_s0():
    spec = rank1_gauss(d=2, b=8, eta=0.3)
    op = build_operator(spec, s=0.0, n_bins=32, samples=4000, seed=2)
    assert (op.matrix >= 0).all()
    sums = op.matrix.sum(axis=0)
    assert np.allclose(sums, 1.0, atol=1e-12)  # every draw lands in one bin


def test_requires_d2():
    with pytest.raises(ValueError):
        build_operator(rank1_gauss(d=3, b=8, eta=0.3), 1.0, 8, 10, seed=3)


def test_eigenvalue_matches_closed_form():
    spec = rank1_gauss(d=2, b=8, eta=0.3)
    op = build_operator(spec, s=1.0, n_bins=256, samples=8000, seed=4)
    spectrum = power_iterate(op)
    href = FirstColumnSample(spec, 500_000, seed=5).h(1.0)
    assert abs(spectrum.leading_eigenvalue - href.mean) / href.mean < 0.02
    # eigenfunction strictly positive, eigenmeasure a probability vector
    assert (spectrum.eigenfunction > 0).all()
    assert (spectrum.eigenmeasure >= 0).all()
    assert spectrum.eigenmeasure.sum() == pytest.approx(1.0, rel=1e-12)
    assert spectrum.eigenfunction @ spectrum.eigenmeasure == pytest.approx(1.0, rel=1e-12)


def test_eigenmeasure_uniformity_rank1gauss():
    spec = rank1_gauss(d=2, b=8, eta=0.3)
    op = build_operator(spec, s=1.0, n_bins=64, samples=8000, seed=6)
    nu = power_iterate(op).eigenmeasure
    # rotation invariance: the angular measure is uniform; cross-bin spread
    # is pure Monte-Carlo noise, so the max deviation stays near that scale
    noise = nu.std()
    assert np.abs(nu - 1 / 64).max() <= 4 * noise
    # no quarter-arc starves: every quarter carries >= 1% mass
    quarter = 64 // 4
    masses = [nu[i * quarter:(i + 1) * quarter].sum() for i in range(4)]
    assert min(masses) >= 0.01


def test_representation_constant_for_scaled_identity():
    spec = scaled_identity_spec(0.6)
    spectrum = power_iterate(build_operator(spec, s=1.0, n_bins=32, samples=256, seed=7))
    dev, c = eigenfunction_representation_check(spectrum, s=1.0)
    assert dev < 1e-9  # rotational symmetry: both sides constant
    assert c > 0


def test_representation_s0_reduces_to_constant():
    spec = rank1_gauss(d=2, b=8, eta=0.3)
    op = build_operator(spec, s=0.0, n_bins=32, samples=4000, seed=8)
    dev, _ = eigenfunction_representation_check(power_iterate(op), s=0.0)
    assert dev < 0.05


def test_representation_rank1gauss_s1():
    spec = rank1_gauss(d=2, b=8, eta=0.3)
    op = build_operator(spec, s=1.0, n_bins=256, samples=4000, seed=10)
    dev, _ = eigenfunction_representation_check(power_iterate(op), s=1.0)
    assert dev < 0.05


def test_power_iteration_nonconvergence_carries_last_iterate():
    from heavytail.transferop import DiscretizedOperator
    mat = np.array([[0.0, 2.0], [1.0, 0.0]])  # Rayleigh quotient oscillates
    op = DiscretizedOperator(s=1.0, n_bins=2, matrix=mat, build_samples=1)
    with pytest.raises(PowerIterationError) as err:
        power_iterate(op, tol=0.0, max_iter=7)
    assert err.value.last_spectrum is not None


def test_bin_ties_go_to_lower_index():
    from heavytail.transferop import _bin_index
    n = 8
    delta = 2 * np.pi / n
    assert _bin_index(np.array([0.0]), n)[0] == 0
    assert _bin_index(np.array([delta]), n)[0] == 0          # exact edge: down
    assert _bin_index(np.array([delta * 1.0001]), n)[0] == 1
    assert _bin_index(np.array([2 * np.pi - 1e-9]), n)[0] == n - 1


def test_build_operator_worker_invariant():
    # per-column substreams make the build independent of the worker count
    spec = rank1_gauss(d=2, b=4, eta=0.4)
    a = build_operator(spec, s=1.0, n_bins=12, samples=400, seed=21, workers=1)
    b = build_operator(spec, s=1.0, n_bins=12, samples=400, seed=21, workers=4)
    assert np.array_equal(a.matrix, b.matrix)
