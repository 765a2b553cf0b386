import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from heavytail import mc
from heavytail.empirics import (EstimationError, IntegrabilityTarget,
                                angular_exceedance_test, chi2_diagonal_check,
                                hill_estimate, hill_stability_scan,
                                integrability_probe, stam_p2_check,
                                unit_inner_product_density)
from heavytail.models import DeterministicLaw, rank1_gauss, symm


def pareto_sample(alpha, n, seed):
    u = mc.substream(seed).random(n)
    return (1 - u) ** (-1 / alpha)  # inverse CDF of Pareto(alpha), scale 1


# --- Hill --------------------------------------------------------------------

def test_hill_exact_pareto():
    x = pareto_sample(2.0, 100_000, seed=0)
    fit = hill_estimate(x, 1000)
    assert fit.alpha_hat == pytest.approx(2.0, abs=0.13)
    assert fit.ci[0] < 2.0 < fit.ci[1]
    assert fit.amplitude > 0


def test_hill_consistency_across_k():
    x = pareto_sample(1.5, 200_000, seed=1)
    for k in (100, 1000, 10_000):
        fit = hill_estimate(x, k)
        assert abs(fit.alpha_hat - 1.5) <= 3 * 1.5 / np.sqrt(k)


def test_hill_thin_tail_drifts_upward():
    # exponential data: the apparent index grows as k shrinks
    x = -np.log(mc.substream(2).random(300_000))
    fits = hill_stability_scan(x, fractions=(0.001, 0.01, 0.1))
    alphas = [f.alpha_hat for f in fits]
    assert alphas[0] > alphas[1] > alphas[2]


def test_hill_rejects_zeros_and_ties():
    with pytest.raises(EstimationError):
        hill_estimate(np.zeros(1000), 10)
    with pytest.raises(EstimationError):
        hill_estimate(np.ones(1000), 10)


def test_hill_ci_widens_as_k_shrinks():
    x = pareto_sample(2.0, 100_000, seed=3)
    wide = hill_estimate(x, 100)
    narrow = hill_estimate(x, 10_000)
    assert (wide.ci[1] - wide.ci[0]) > (narrow.ci[1] - narrow.ci[0])


# --- angular -----------------------------------------------------------------

def synthetic_radial(n, seed, concentrated=False):
    rng = mc.substream(seed)
    radii = (1 - rng.random(n)) ** -1.0
    if concentrated:
        theta = rng.standard_normal(n) * 0.1
    else:
        theta = rng.random(n) * 2 * np.pi
    return np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1)


def test_angular_uniform_null_passes():
    rep = angular_exceedance_test(synthetic_radial(200_000, seed=4))
    assert not rep.inconclusive
    assert rep.passed


def test_angular_concentrated_fails():
    rep = angular_exceedance_test(synthetic_radial(200_000, seed=5,
                                                   concentrated=True))
    assert not rep.passed
    assert rep.ks_pvalue < 0.01 and rep.resultant_pvalue < 0.01


def test_angular_too_few_exceedances_inconclusive():
    rep = angular_exceedance_test(synthetic_radial(1000, seed=6))
    assert rep.inconclusive


# --- integrability ladders ---------------------------------------------------

def test_ladder_deterministic_det():
    # H = I, xi = 0.5, d = 2: det A = 0.25, so the ladder is constant 4^delta
    spec = symm(d=2, b=1, eta=0.5, h_law=DeterministicLaw(np.eye(2)))
    rep = integrability_probe(spec, IntegrabilityTarget.DET_A, delta=0.25,
                              samples=500, seed=7)
    assert np.allclose(rep.truncated_means, 0.25 ** -0.25)
    assert rep.stabilized


def test_ladder_monotone_in_cap():
    spec = rank1_gauss(d=2, b=8, eta=0.3)
    rep = integrability_probe(spec, IntegrabilityTarget.DET_A, delta=0.25,
                              samples=50_000, seed=8)
    means = np.asarray(rep.truncated_means)
    assert (np.diff(means) >= 0).all()


def test_offdiagonal_b1_matches_quadrature():
    # |<H e_2, e_1>| = |a_1 a_2| for b=1: E|a_1 a_2|^(-1/2) = (E|a|^(-1/2))^2
    spec = rank1_gauss(d=2, b=1, eta=0.3)
    rep = integrability_probe(spec, IntegrabilityTarget.OFF_DIAGONAL, delta=0.5,
                              samples=400_000, seed=9)
    moment_half, _ = quad(lambda t: t ** -0.5 * np.sqrt(2 / np.pi)
                          * np.exp(-t * t / 2), 0, 40, points=[0], limit=200)
    oracle = moment_half ** 2
    assert rep.stabilized
    assert abs(rep.final_value - oracle) < 4 * rep.stderr_at_max_cap


def test_inv_norm_ladder_runs():
    spec = rank1_gauss(d=2, b=8, eta=0.3)
    rep = integrability_probe(spec, IntegrabilityTarget.INV_NORM_A, delta=0.1,
                              samples=20_000, seed=10)
    assert rep.stabilized
    assert rep.final_value >= 1.0 - 1e-12  # sigma_min <= 1 here (PSD H, small xi)


def test_low_b_regime_warns_for_det_target():
    spec = rank1_gauss(d=2, b=2, eta=0.3)
    with pytest.warns(RuntimeWarning, match="b > d"):
        integrability_probe(spec, IntegrabilityTarget.DET_A, delta=0.1,
                            samples=100, seed=11)


# --- Gaussian density checks -------------------------------------------------

def test_chi2_diagonal_moments_and_ks():
    spec = rank1_gauss(d=3, b=8, eta=0.1)
    rep = chi2_diagonal_check(spec, samples=100_000, seed=12)
    for ell in range(3):
        assert rep.means[ell] == pytest.approx(8.0, rel=0.02)
        assert rep.variances[ell] == pytest.approx(16.0, rel=0.05)
        assert rep.ks_pvalues[ell] > 0.01
    spec1 = rank1_gauss(d=1, b=1, eta=0.1)
    rep1 = chi2_diagonal_check(spec1, samples=100_000, seed=13)
    assert rep1.means[0] == pytest.approx(1.0, rel=0.02)
    assert rep1.variances[0] == pytest.approx(2.0, rel=0.05)


def test_inner_product_density_normalized():
    for b in (4, 5, 10):
        total, _ = quad(lambda u: unit_inner_product_density(u, b), -1, 1)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_stam_semicircle_b4():
    rep = stam_p2_check(4, samples=100_000, seed=14)
    assert rep.chi2_pvalue > 0.01
    assert abs(rep.mean) < 4 / np.sqrt(rep.samples * rep.expected_variance) ** 1


def test_stam_variance_identity():
    # Var<Y_1, Y_2> = 1/b; cross-check the density's second moment by quadrature
    b = 5
    second, _ = quad(lambda u: u * u * unit_inner_product_density(u, b), -1, 1)
    assert second == pytest.approx(1 / b, abs=1e-10)
    rep = stam_p2_check(b, samples=200_000, seed=15)
    assert rep.variance == pytest.approx(0.2, rel=0.03)


def test_stam_requires_b_above_3():
    with pytest.raises(ValueError):
        stam_p2_check(3, samples=100, seed=16)


def test_stam_merged_bins_conserve_mass():
    # b = 10 has near-empty edge bins; merging must conserve both observed
    # and expected totals (a wrong-index merge silently drops tail mass and
    # wrecks the test's calibration)
    rep = stam_p2_check(10, samples=50_000, seed=20)
    assert rep.n_bins < 50  # merging actually happened
    ps = [stam_p2_check(10, samples=50_000, seed=s).chi2_pvalue
          for s in range(21, 31)]
    # calibrated under the null: not systematically tiny
    assert np.median(ps) > 0.05


def test_hill_amplitude_in_logs_where_the_power_overflows():
    # top order statistics near 1e200 with alpha_hat = 1.545: top[0] ** alpha
    # is about 1e309 and overflows, while the amplitude (k / n) * top[0] **
    # alpha, about 1e307, is representable
    k, n, alpha = 10, 1000, 1.545
    spacings = (2 / alpha) * np.arange(1, k + 1) / (k + 1)   # mean 1 / alpha
    top = 1e200 * np.exp(np.concatenate([[0.0], spacings]))
    x = np.concatenate([np.geomspace(1.0, 1e199, n - k - 1), top])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = hill_estimate(x, k)
    assert fit.alpha_hat == pytest.approx(alpha, rel=1e-12)
    want = np.exp(np.log(k / n) + fit.alpha_hat * np.log(1e200))
    assert np.isfinite(fit.amplitude) and fit.amplitude == pytest.approx(want, rel=1e-12)
    assert fit.amplitude == pytest.approx(1e307, rel=1e-9)
    # a finite amplitude keeps the bits of the plain product
    small = x / 1e190
    fit = hill_estimate(small, k)
    assert fit.amplitude == (k / n) * np.sort(small)[n - k - 1] ** fit.alpha_hat
