"""Statistical verification layer.

Tail-index estimation (Hill), angular uniformity tests on large-norm
directions, truncated-mean ladders as empirical evidence for negative-moment
finiteness, and distributional checks of the Gaussian rank-one model
(chi-square diagonals, inner-product density of uniform unit vectors).

Hypothesis tests report statistics and p-values; the pass level (default 1%)
is configuration, not a constant baked into the estimators.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import mc
from .linalg import row_norms
from .models import ModelSpec, iter_h_blocks, pair_a, wishart_h

DEFAULT_TEST_LEVEL = 0.01
MIN_EXCEEDANCES = 200  # fewer make an angular test inconclusive
LADDER_REL_TOL = 0.01  # last two rungs closer than this, relative: stabilized
STAM_BINS = 50         # inner-product histogram bins on (-1, 1), before merging


class EstimationError(ValueError):
    """Degenerate input for an estimator (ties/zeros in the tail, etc.)."""


# ---------------------------------------------------------------------------
# Hill estimator


@dataclass(frozen=True)
class TailFit:
    """Hill tail-index fit on the top order statistics.

    ``amplitude`` is the fitted scale C in P(|R| > t) ~ C t^(-alpha); it is a
    descriptive fit, not an estimate of any limiting constant.
    """

    alpha_hat: float
    k_order: int
    ci: tuple[float, float]
    amplitude: float
    n: int


def hill_estimate(samples: np.ndarray, k_order: int) -> TailFit:
    """Hill estimator from the top ``k_order`` order statistics.

    The 95% interval uses asymptotic normality: alpha_hat * (1 +- 1.96/sqrt(k)).
    Raises on zeros or fully tied top statistics, which indicate degenerate
    or non-heavy-tailed input.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if not np.isfinite(x).all():
        raise EstimationError("non-finite values in the sample "
                              "(diverged or non-contracting input?)")
    n = x.size
    if not (0 < k_order < n):
        raise ValueError(f"need 0 < k_order < n, got k_order={k_order}, n={n}")
    top = np.sort(x)[n - k_order - 1:]          # k+1 largest, ascending
    if top[0] <= 0:
        raise EstimationError("nonpositive values in the top order statistics")
    if top[-1] == top[0]:
        raise EstimationError("top order statistics are all tied")
    logs = np.log(top[1:]) - np.log(top[0])
    mean_log = logs.mean()
    if mean_log == 0:
        raise EstimationError("zero log-spacing in the top order statistics")
    alpha = 1.0 / mean_log
    half = 1.96 / np.sqrt(k_order)
    with np.errstate(over="ignore"):
        amplitude = (k_order / n) * top[0] ** alpha
        if not np.isfinite(amplitude):
            # in logs: finite wherever the amplitude itself is representable
            amplitude = np.exp(np.log(k_order / n) + alpha * np.log(top[0]))
    return TailFit(alpha_hat=float(alpha), k_order=int(k_order),
                   ci=(float(alpha * (1 - half)), float(alpha * (1 + half))),
                   amplitude=float(amplitude), n=int(n))


def hill_stability_scan(samples: np.ndarray,
                        fractions=(0.005, 0.01, 0.02)) -> list[TailFit]:
    """Hill fits over several k fractions; divergence across k exposes bias."""
    x = np.asarray(samples, dtype=float).ravel()
    return [hill_estimate(x, max(int(len(x) * f), 2)) for f in fractions]


# ---------------------------------------------------------------------------
# Angular uniformity of exceedance directions (d = 2)


@dataclass(frozen=True)
class AngularTestReport:
    n_exceedances: int
    threshold: float
    ks_statistic: float
    ks_pvalue: float
    resultant_statistic: float   # Rayleigh Z = n * (mean resultant length)^2
    resultant_pvalue: float
    level: float
    inconclusive: bool

    @property
    def passed(self) -> bool:
        return (not self.inconclusive and self.ks_pvalue > self.level
                and self.resultant_pvalue > self.level)


def angular_exceedance_test(r_samples: np.ndarray, threshold_quantile: float = 0.99,
                            level: float = DEFAULT_TEST_LEVEL) -> AngularTestReport:
    """Uniformity tests on directions of large-norm samples (d = 2).

    For samples with |R| above the threshold quantile, tests the angle
    atan2(R_2, R_1) against uniformity on [0, 2pi): Kolmogorov-Smirnov plus
    the Rayleigh resultant-length test. Fewer than 200 exceedances
    (``MIN_EXCEEDANCES``) give an inconclusive report rather than a verdict.
    """
    from scipy import stats
    r = np.asarray(r_samples, dtype=float)
    if r.ndim != 2 or r.shape[1] != 2:
        raise ValueError(f"expected (n, 2) samples, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("non-finite sample rows; filter diverged draws first")
    norms = row_norms(r)
    threshold = float(np.quantile(norms, threshold_quantile))
    exceed = r[norms > threshold]
    n = len(exceed)
    if n < MIN_EXCEEDANCES:
        return AngularTestReport(n, threshold, np.nan, np.nan, np.nan, np.nan,
                                 level, inconclusive=True)
    theta = np.mod(np.arctan2(exceed[:, 1], exceed[:, 0]), 2 * np.pi)
    ks = stats.kstest(theta / (2 * np.pi), "uniform")
    c, s = np.cos(theta).sum(), np.sin(theta).sum()
    z = (c * c + s * s) / n
    # Rayleigh test p-value with the standard second-order correction
    p_rayleigh = np.exp(-z) * (1 + (2 * z - z * z) / (4 * n)
                               - (24 * z - 132 * z ** 2 + 76 * z ** 3 - 9 * z ** 4)
                               / (288 * n * n))
    p_rayleigh = float(min(max(p_rayleigh, 0.0), 1.0))
    return AngularTestReport(n, threshold, float(ks.statistic), float(ks.pvalue),
                             float(z), p_rayleigh, level, inconclusive=False)


# ---------------------------------------------------------------------------
# Integrability diagnostics (truncated-mean ladders)


class IntegrabilityTarget(str, Enum):
    DET_A = "det_a"              # E |det A|^(-delta), delta < 1/2
    INV_NORM_A = "inv_norm_a"    # E ||A^{-1}||^delta, small delta
    OFF_DIAGONAL = "off_diagonal"  # E |<H e_2, e_1>|^(-delta), delta < 1


@dataclass(frozen=True)
class IntegrabilityReport:
    """Capped-moment ladder; stabilization is evidence, never proof."""

    target: IntegrabilityTarget
    delta: float
    cap_grid: tuple[float, ...]
    truncated_means: tuple[float, ...]
    stderr_at_max_cap: float
    stabilized: bool             # last two rungs differ by < LADDER_REL_TOL relative

    @property
    def final_value(self) -> float:
        return self.truncated_means[-1]


def _integrability_values(spec: ModelSpec, target: IntegrabilityTarget,
                          delta: float, n: int, rng: np.random.Generator) -> np.ndarray:
    def values(h: np.ndarray) -> np.ndarray:
        if target is IntegrabilityTarget.OFF_DIAGONAL:
            return np.abs(h[:, 1, 0]) ** (-delta)
        a = pair_a(spec, h)
        if target is IntegrabilityTarget.DET_A:
            return np.abs(np.linalg.det(a)) ** (-delta)
        smin = np.linalg.svd(a, compute_uv=False)[:, -1]
        return smin ** (-delta)   # ||A^{-1}||^delta = sigma_min^(-delta)

    return np.concatenate([values(h) for h in iter_h_blocks(spec, n, rng)])


def integrability_probe(spec: ModelSpec, target: IntegrabilityTarget, delta: float,
                        samples: int, cap_grid=(10.0, 100.0, 1000.0, 10000.0),
                        seed: int = 0, workers: int | None = None) -> IntegrabilityReport:
    """Truncated-mean ladder E[min(X^(-delta'), cap)] over increasing caps.

    Targets: |det A| with delta < 1/2, the inverse operator norm (positive
    moment of ||A^{-1}||) with small delta, and the off-diagonal entry
    <H e_2, e_1> with delta < 1. Stabilization of the last two rungs below
    1% relative (``LADDER_REL_TOL``) is reported as evidence of finiteness;
    non-stabilization is a reported outcome, not an error. Infinite draws
    (exact zeros of the base quantity) are capped, never dropped.
    """
    target = IntegrabilityTarget(target)
    if target is IntegrabilityTarget.DET_A and not (0 <= delta < 0.5):
        raise ValueError(f"det-based ladder needs 0 <= delta < 1/2, got {delta}")
    if target is IntegrabilityTarget.OFF_DIAGONAL and not (0 < delta < 1):
        raise ValueError(f"off-diagonal ladder needs 0 < delta < 1, got {delta}")
    if target is IntegrabilityTarget.OFF_DIAGONAL and spec.d < 2:
        raise ValueError("off-diagonal ladder needs d >= 2")
    if (wishart_h(spec) and spec.b <= spec.d + 1
            and target is not IntegrabilityTarget.OFF_DIAGONAL):
        warnings.warn("the Wishart H of a Gaussian a-law has a decaying matrix "
                      "density only for b > d + 1; this probe is outside that regime",
                      RuntimeWarning, stacklevel=2)
    cap_grid = tuple(sorted(float(c) for c in cap_grid))

    def task(rng, m):
        return _integrability_values(spec, target, delta, m, rng)

    values = mc.parallel_map(task, samples, seed, workers)
    values = np.where(np.isfinite(values), values, np.inf)
    means = tuple(float(np.minimum(values, cap).mean()) for cap in cap_grid)
    capped_final = np.minimum(values, cap_grid[-1])
    n = len(values)
    stderr = float(capped_final.std(ddof=1) / np.sqrt(n)) if n > 1 else np.nan
    stabilized = abs(means[-1] - means[-2]) < LADDER_REL_TOL * abs(means[-2]) \
        if len(means) >= 2 else False
    return IntegrabilityReport(target=target, delta=delta, cap_grid=cap_grid,
                               truncated_means=means, stderr_at_max_cap=stderr,
                               stabilized=bool(stabilized))


# ---------------------------------------------------------------------------
# Gaussian-model density checks


@dataclass(frozen=True)
class DiagonalCheckReport:
    b: int
    ks_pvalues: tuple[float, ...]   # one per diagonal entry
    means: tuple[float, ...]
    variances: tuple[float, ...]

    def passed(self, level: float = DEFAULT_TEST_LEVEL) -> bool:
        return all(p > level for p in self.ks_pvalues)


def chi2_diagonal_check(spec: ModelSpec, samples: int, seed: int = 0,
                        workers: int | None = None) -> DiagonalCheckReport:
    """KS test of each unscaled diagonal H_ll against chi-square(b).

    The diagonals of a Wishart_d(b, I) H (rank1 with Gaussian a's, whatever
    the y-law) are chi-square(b) (mean b, variance 2b).
    """
    from scipy import stats
    if not wishart_h(spec):
        raise ValueError("the chi-square diagonal law holds only for a Wishart H "
                         "(rank1 with the Gaussian a-law)")

    def task(rng, m):
        # a copy per block: a view would keep every H block alive until the end
        return np.concatenate([np.diagonal(h, axis1=1, axis2=2).copy()
                               for h in iter_h_blocks(spec, m, rng)])

    diags = mc.parallel_map(task, samples, seed, workers)
    pvals, means, variances = [], [], []
    for ell in range(spec.d):
        col = diags[:, ell]
        ks = stats.kstest(col, lambda t: stats.chi2.cdf(t, df=spec.b))
        pvals.append(float(ks.pvalue))
        means.append(float(col.mean()))
        variances.append(float(col.var(ddof=1)) if samples > 1 else np.nan)
    return DiagonalCheckReport(b=spec.b, ks_pvalues=tuple(pvals),
                               means=tuple(means), variances=tuple(variances))


def unit_inner_product_density(u: np.ndarray, b: int) -> np.ndarray:
    """Density on (-1, 1) of <Y_1, Y_2> for independent uniform unit vectors
    in b dimensions: Gamma(b/2) / (sqrt(pi) Gamma((b-1)/2)) * (1-u^2)^((b-3)/2)."""
    from scipy import special
    if b <= 3:
        raise ValueError(f"the displayed density needs b > 3, got b={b}")
    u = np.asarray(u, dtype=float)
    const = special.gamma(b / 2) / (np.sqrt(np.pi) * special.gamma((b - 1) / 2))
    return const * (1 - u * u) ** ((b - 3) / 2)


def unit_inner_product_cdf(u: np.ndarray, b: int) -> np.ndarray:
    """CDF of the inner-product density via the regularized incomplete Beta."""
    from scipy import special
    u = np.asarray(u, dtype=float)
    tail = special.betainc(0.5, (b - 1) / 2, u * u)
    return 0.5 * (1 + np.sign(u) * tail)


@dataclass(frozen=True)
class InnerProductCheckReport:
    b: int
    chi2_statistic: float
    chi2_pvalue: float
    n_bins: int
    mean: float
    variance: float
    expected_variance: float     # 1/b
    samples: int

    def passed(self, level: float = DEFAULT_TEST_LEVEL) -> bool:
        return self.chi2_pvalue > level


def stam_p2_check(b: int, samples: int, seed: mc.Seed = 0,
                  workers: int | None = None) -> InnerProductCheckReport:
    """Goodness of fit of sampled <Y_1, Y_2> against the (1-u^2)^((b-3)/2) law.

    Y_i are uniform unit vectors in b dimensions (normalized Gaussians); the
    histogram over 50 equal-width bins on (-1, 1) (``STAM_BINS``) is tested by
    chi-square against exact bin masses from the Beta-function CDF.
    """
    from scipy import stats
    if b <= 3:
        raise ValueError(f"need b > 3, got b={b}")

    def task(rng, m):
        y1 = rng.standard_normal((m, b))
        y2 = rng.standard_normal((m, b))
        y1 /= np.linalg.norm(y1, axis=1, keepdims=True)
        y2 /= np.linalg.norm(y2, axis=1, keepdims=True)
        return (y1 * y2).sum(axis=1)

    u = mc.parallel_map(task, samples, seed, workers)
    edges = np.linspace(-1.0, 1.0, STAM_BINS + 1)
    observed = np.histogram(u, bins=edges)[0].astype(float)
    cdf = unit_inner_product_cdf(edges, b)
    expected = len(u) * np.diff(cdf)
    # merge thin edge bins inward to keep expected counts >= 5
    observed, expected = list(observed), list(expected)
    while len(expected) > 2 and expected[0] < 5:
        e, o = expected.pop(0), observed.pop(0)
        expected[0] += e
        observed[0] += o
    while len(expected) > 2 and expected[-1] < 5:
        e, o = expected.pop(), observed.pop()
        expected[-1] += e
        observed[-1] += o
    observed = np.asarray(observed)
    expected = np.asarray(expected)
    expected *= observed.sum() / expected.sum()
    chi2 = stats.chisquare(observed, expected)
    return InnerProductCheckReport(b=b, chi2_statistic=float(chi2.statistic),
                                   chi2_pvalue=float(chi2.pvalue),
                                   n_bins=len(observed), mean=float(u.mean()),
                                   variance=float(u.var(ddof=1)) if samples > 1 else np.nan,
                                   expected_variance=1.0 / b, samples=len(u))
