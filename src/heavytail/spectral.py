"""Moment-generating spectral radius k(s), h(xi, s), and the Lyapunov exponent.

Three routes are provided and cross-checked elsewhere:

* closed form: under a rotation-invariant H law, k(s) equals
  h(xi, s) = E|(I - xi*H) e_1|^s, and gamma = k'(0) = E log|(I - xi*H) e_1|.
* product limit: (E||A_n ... A_1||^s)^(1/n) evaluated at finite n. By the
  bound E||Pi_m||^s <= C_s k(s)^m the finite-n value overestimates k(s)
  (by at most C_s^(1/n)), and it is decreasing in n up to noise, so the
  n-sequence should be reported rather than one extrapolated number. The
  ratio (E||Pi_n||^s / E||Pi_m||^s)^(1/(n-m)) at m = n // 2 cancels the
  prefactor C in E||Pi_n||^s ~ C k(s)^n and is reported beside it.
* quadrature: deterministic oracles for the d=1, b=1 Gaussian reduction.

Every estimate reads one frozen draw (common random numbers): of two numbers
per H column for the closed form (``FirstColumnSample``), of product log-norms
for the product limit (``ProductSample``). So convexity checks and root
finding see a smooth function of s. Finite-support H laws are enumerated
exactly (stderr 0) by the closed form instead. ``FirstColumnSample`` is the
one place that warns when its law is not rotation-invariant, because h along
a direction then need not equal k(s).
"""

from __future__ import annotations

import threading
import warnings

import numpy as np

from . import mc
from .linalg import batch_operator_norms, row_norms
from .models import (ModelSpec, h_sum_support, iter_h_blocks, pair_a,
                     sample_h_columns, sample_pairs)
from .recursion import ProductState

S_MAX_DEFAULT = 30.0
# While |xi| * max(|t|, r) is at most this, no square in ``v`` overflows
_V_SAFE = 1e150
GAUSS_TAIL_CUT = 40.0  # N(0,1) mass beyond |a|=40 is < 1e-300
QUAD_ABS_TOL = 1e-10


def _pairs(rows, u: np.ndarray) -> np.ndarray:
    """The (n, 2) pairs (t, r) of n columns H u given as their d entry rows.
    An r whose squares overflow is recomputed by ``row_norms``, scaled by a
    power of two; every other r keeps the bits of the plain form."""
    t = sum(c * uj for c, uj in zip(rows, u))
    with np.errstate(over="ignore"):
        r = np.sqrt(sum((c - t * uj) ** 2 for c, uj in zip(rows, u)))
    big = np.flatnonzero(np.isinf(r))
    if big.size:
        r[big] = row_norms(np.stack([c[big] - t[big] * uj for c, uj in zip(rows, u)],
                                    axis=-1))
    return np.stack((t, r), axis=-1)


class FirstColumnSample:
    """Frozen draw of the columns H u, the common-random-numbers core.

    u is a unit direction, e_1 unless one is given. Each column is kept as
    ``t`` = <H u, u> and ``r`` = |H u - t u|, 16 bytes per draw at any d. For
    finite-support laws the 'draws' are the exact b-fold sum support with its
    probabilities, making every downstream value deterministic (stderr 0).
    ``v(xi) = |(I - xi*H) u|`` is recomputable for any xi from the frozen
    pairs, so one sample powers whole s- and xi-grids. On a Monte-Carlo
    sample the moments read log v, so each term v^s is exp(s log v); an
    exact sample keeps v^s, so its values stay exact. The sample is safe to
    share between threads: each thread keeps the array of the last xi it
    evaluated, so threads at different xi do not evict each other's arrays.
    """

    def __init__(self, spec: ModelSpec, samples: int, seed: mc.Seed,
                 workers: int | None = None, direction: np.ndarray | None = None):
        if not spec.rotation_invariant:
            warnings.warn(
                "the frozen-column h assumes a rotation-invariant H law; for "
                "this model it is the value along one direction only, which "
                "can lie above or below k(s)", RuntimeWarning, stacklevel=2)
        self.spec = spec
        self.workers = mc.resolve_workers(workers)
        u = np.eye(spec.d)[0] if direction is None else np.asarray(direction, dtype=float)
        self.u = u / np.linalg.norm(u)
        support = h_sum_support(spec)
        if support is not None:
            atoms, self.weights = support
            pairs = _pairs((atoms @ self.u).T, self.u)
        else:
            def task(rng, m):
                cols = (sample_h_columns(spec, m, rng) if direction is None else
                        np.concatenate([h @ self.u for h in iter_h_blocks(spec, m, rng)]))
                return _pairs(cols.T, self.u)
            pairs = mc.parallel_map(task, samples, seed, self.workers).reshape(-1, 2)
            self.weights = None
        self.t, self.r = (np.ascontiguousarray(c) for c in pairs.T)
        self.exact = self.weights is not None
        self.n = self.t.size
        # 1 - xi t and xi r are at most 1 + |xi| * bound in size (``v``)
        self._bound = max(-self.t.min(initial=0.0), self.t.max(initial=0.0),
                          self.r.max(initial=0.0))
        self._last_v = threading.local()  # per thread: (xi, log, array) of its last xi

    def v(self, xi: float, log: bool = False) -> np.ndarray:
        """|(I - xi*H) u| per frozen draw, or its log with ``log``; read-only.

        Each thread keeps the array of the last (xi, log) it asked for, so a
        solve at one xi computes it once however many s it evaluates. A
        thread's array is freed when it asks for another one or when the
        thread ends.
        """
        xi = float(xi)
        last = getattr(self._last_v, "last", None)
        if last is not None and last[:2] == (xi, log):
            return last[2]
        # free the old array first, so the new one does not add to it
        self._last_v.last = last = None
        # |(I - xi H) u|^2 = (1 - xi t)^2 + (xi r)^2, as H u - t u is orthogonal
        # to u: no term is negative, so nothing cancels. At d <= 2 along e_1, t = c_1
        # and r = sqrt(c_2^2) = |c_2| exactly, so v has the column formula's bits.
        out, term = np.multiply(self.t, xi), np.multiply(self.r, xi)
        with np.errstate(over="ignore"):
            np.square(np.subtract(1.0, out, out=out), out=out)
            out += np.square(term, out=term)
        np.sqrt(out, out=out)
        if abs(xi) * self._bound > _V_SAFE:
            # some squares may have overflowed: recompute those draws scaled
            big = np.flatnonzero(np.isinf(out))
            out[big] = row_norms(np.stack((1.0 - xi * self.t[big], xi * self.r[big]),
                                          axis=-1))
        if log:
            with np.errstate(divide="ignore"):
                np.log(out, out=out)
        out.flags.writeable = False
        self._last_v.last = (xi, log, out)
        return out

    def _moment(self, values: np.ndarray, tag: str) -> mc.McEstimate:
        """Mean of per-draw values; non-finite ones are excluded, counted as
        skipped under ``tag`` and warned about."""
        if self.exact:
            keep = np.isfinite(values)
            skipped = int(values.size - keep.sum())
            if skipped:
                w = self.weights[keep]
                mean = float(values[keep] @ w / w.sum()) if w.sum() > 0 else np.nan
            else:
                mean = float(values @ self.weights)
            est = mc.McEstimate(mean, 0.0, self.n - skipped, skipped)
        else:
            est = mc.estimate_from_values(values)
        if est.skipped:
            warnings.warn(f"{est.skipped} draws excluded ({tag})", RuntimeWarning,
                          stacklevel=3)
        return est

    def _base(self, xi: float) -> np.ndarray:
        """log v on a Monte-Carlo sample, v on an exact one (whose moments
        stay exact)."""
        return self.v(xi, log=not self.exact)

    def _powers(self, base: np.ndarray, s: float,
                out: np.ndarray | None = None) -> np.ndarray:
        """v^s per draw from ``base``: exp(s log v) on a Monte-Carlo sample,
        written into ``out`` if given, and v ** s on an exact one. A zero v
        gives 0 for s > 0, and a term past the double range gives inf."""
        with np.errstate(over="ignore", invalid="ignore"):
            if self.exact:
                return base ** s
            out = np.multiply(base, s, out=out)
            return np.exp(out, out=out)

    def h(self, s: float, xi: float | None = None) -> mc.McEstimate:
        if s < 0:
            raise ValueError(f"s must be >= 0, got {s}")
        xi = self.spec.xi if xi is None else xi
        if s == 0:
            return mc.McEstimate(1.0, 0.0, self.n)
        return self._moment(self._powers(self._base(xi), s), "overflow")

    def dh_ds(self, s: float, xi: float | None = None) -> mc.McEstimate:
        """E |(I-xi H)u|^s log|(I-xi H)u| on the frozen draw.

        Zero norms (a probability-zero event under density assumptions) are
        excluded and counted as skipped: their term is 0 * -inf.
        """
        if s < 0:
            raise ValueError(f"s must be >= 0, got {s}")
        xi = self.spec.xi if xi is None else xi
        base = self._base(xi)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_v = np.log(base) if self.exact else base
            terms = self._powers(base, s)
            return self._moment(np.multiply(terms, log_v, out=terms), "zero-norm")

    def gamma(self, xi: float | None = None) -> mc.McEstimate:
        xi = self.spec.xi if xi is None else xi
        base = self._base(xi)
        with np.errstate(divide="ignore"):
            return self._moment(np.log(base) if self.exact else base, "zero-norm")

    def h_row(self, xi: float, s_grid) -> np.ndarray:
        """Mean-only h(xi, s) for each s of ``s_grid``: no stderr, no skip
        count, and a non-finite value is kept as it is. One scratch array
        serves the whole grid."""
        s_grid = [float(s) for s in s_grid]
        if any(s < 0 for s in s_grid):
            raise ValueError(f"s must be >= 0, got {min(s_grid)}")
        base = self._base(xi)
        scratch = None if self.exact else np.empty(self.n)
        return np.array([1.0 if s == 0 else float(np.average(
            self._powers(base, s, scratch), weights=self.weights)) for s in s_grid])

    def mean_h11(self) -> mc.McEstimate:
        """E <H u, u> on the frozen draw (positivity precondition checks)."""
        return self._moment(self.t, "non-finite")


def product_log_norms(spec: ModelSpec, n: int, draws: int,
                      rng: np.random.Generator) -> np.ndarray:
    """log ||A_1 ... A_m|| and log ||A_1 ... A_n|| per draw, m = n // 2, as the
    two columns of a (draws, 2) array; exact in the log domain
    (``ProductState``). ||Pi_0|| = 1, so the first column is 0 when n = 1."""
    state = ProductState(spec.d, draws)
    logs = np.zeros((draws, 2))
    for step in range(1, n + 1):
        h, _b = sample_pairs(spec, draws, rng)
        state.step(pair_a(spec, h, out=h))
        if step in (n // 2, n):
            logs[:, int(step == n)] = state.log_scale + np.log(
                np.maximum(batch_operator_norms(state.pi), 1e-300))
    return logs


def _log_mean_exp(sl: np.ndarray) -> tuple[float, np.ndarray]:
    """log E e^sl and the shifted terms x = e^(sl - max sl), whose mean is
    E e^sl / e^(max sl); the shift keeps huge ||Pi||^s finite."""
    shift = sl.max()
    x = np.exp(sl - shift)
    return float(shift + np.log(x.mean())), x


class ProductSample:
    """Frozen draw of log ||Pi_n|| and log ||Pi_m||, m = n // 2, the
    product-side common-random-numbers core: one draw serves every s.

    ``k(s)`` is the finite-n product limit (E ||Pi_n||^s)^(1/n), biased upward
    by the prefactor C in E ||Pi_n||^s ~ C k(s)^n. ``ratio(s)`` is
    (E ||Pi_n||^s / E ||Pi_m||^s)^(1/(n-m)), in which C cancels. ``gamma()`` is
    the subadditive Lyapunov estimate, the mean of log ||Pi_n|| / n.
    """

    def __init__(self, spec: ModelSpec, n: int, samples: int, seed: mc.Seed,
                 workers: int | None = None):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n, self.m = n, n // 2

        def task(rng, draws):
            return product_log_norms(spec, n, draws, rng)

        logs = mc.parallel_map(task, samples, seed, workers).reshape(-1, 2)
        self.log_m = np.ascontiguousarray(logs[:, 0])
        self.log_n = np.ascontiguousarray(logs[:, 1])
        self.draws = len(self.log_n)

    def _estimate(self, mean: float, stderr: float) -> mc.McEstimate:
        return mc.McEstimate(mean, stderr, self.draws)

    def k(self, s: float) -> mc.McEstimate:
        """(E ||Pi_n||^s)^(1/n); the stderr is the delta method on the mean."""
        if s < 0:
            raise ValueError(f"s must be >= 0, got {s}")
        if s == 0:
            return self._estimate(1.0, 0.0)
        log_mean, x = _log_mean_exp(s * self.log_n)
        k_hat = float(np.exp(log_mean / self.n))
        # delta method: k = (E X)^(1/n) with relative error of the mean / n
        rel_se = x.std(ddof=1) / np.sqrt(len(x)) / x.mean() if len(x) > 1 else np.nan
        return self._estimate(k_hat, float(k_hat * rel_se / self.n))

    def ratio(self, s: float) -> mc.McEstimate:
        """(E ||Pi_n||^s / E ||Pi_m||^s)^(1/(n-m)); NaN for n < 2.

        The stderr is the delta method on the paired per-draw terms
        x_i / mean(x) - y_i / mean(y) of the two shifted moments.
        """
        if s < 0:
            raise ValueError(f"s must be >= 0, got {s}")
        if self.n < 2:
            return self._estimate(np.nan, np.nan)
        log_mean_n, x = _log_mean_exp(s * self.log_n)
        log_mean_m, y = _log_mean_exp(s * self.log_m)
        steps = self.n - self.m
        r_hat = float(np.exp((log_mean_n - log_mean_m) / steps))
        z = x / x.mean() - y / y.mean()
        rel_se = z.std(ddof=1) / np.sqrt(len(z)) if len(z) > 1 else np.nan
        return self._estimate(r_hat, float(r_hat * rel_se / steps))

    def gamma(self) -> mc.McEstimate:
        """Mean of log ||Pi_n|| / n over the draws."""
        return mc.estimate_from_values(self.log_n / self.n)


# ---------------------------------------------------------------------------
# Deterministic quadrature oracles for the d=1, b=1 Gaussian reduction


def quadrature_oracle_d1(eta: float, kind: str, s: float = 1.0) -> float:
    """E|1 - eta*a^2|^s or E log|1 - eta*a^2| for a ~ N(0,1), by quadrature.

    The integrand is singular at a = eta^(-1/2); the integral is split there
    and the Gaussian tail truncated at |a| = 40 (mass < 1e-300). Absolute
    error <= 1e-8. For the power case s must exceed -1 (integrability at the
    singularity).
    """
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    if kind not in ("s", "log"):
        raise ValueError(f"kind must be 's' or 'log', got {kind!r}")
    if kind == "s":
        if s <= -1:
            raise ValueError(f"E|1-eta*a^2|^s is non-integrable for s <= -1 (got s={s})")
        if s == 0:
            return 1.0

    from scipy.integrate import quad
    sq2pi = np.sqrt(2 * np.pi)

    if kind == "s":
        def f(a):
            return abs(1.0 - eta * a * a) ** s * np.exp(-a * a / 2) / sq2pi
    else:
        def f(a):
            u = abs(1.0 - eta * a * a)
            if u == 0.0:
                return 0.0
            return np.log(u) * np.exp(-a * a / 2) / sq2pi

    sing = 1.0 / np.sqrt(eta)
    points = [sing] if sing < GAUSS_TAIL_CUT else None
    total, _err = quad(f, 0.0, GAUSS_TAIL_CUT, points=points,
                       limit=500, epsabs=QUAD_ABS_TOL, epsrel=1e-12)
    return 2.0 * total
