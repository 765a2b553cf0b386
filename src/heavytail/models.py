"""Coefficient models for the affine recursion X_k = A_k X_{k-1} + B_k.

Three model families, all of the form A = I - xi*H with H a random symmetric
d x d matrix and xi = eta/b:

* ``symm``:       H = sum of b i.i.d. symmetric draws from a configurable law
                  (GOE-style Gaussian, deterministic matrix, or finite mixture),
                  B drawn from a configurable vector law (standard Gaussian by
                  default, or finite mixture).
* ``rank1``:      H = sum of b rank-one projections a_i a_i^T,
                  B = xi * sum_i y_i a_i, with configurable (a, y) laws.
* ``rank1gauss``: a name for rank1 with its default laws, a_i ~ N(0, I_d)
                  independent of y_i ~ N(0, 1) (the paper's Gaussian model);
                  it takes no law parameters.

Scaling convention used everywhere in this package: ``H`` is the *summed*
matrix (no eta/b factor) and xi carries the eta/b factor, so
``A = I - xi*H`` holds entrywise by construction.

Samplers are pure functions of (spec, rng); a fixed seed and spec give a
bit-identical sample sequence. Each law is drawn in one place, ``_draw``,
which documents the fixed draw order per batch. Finite-support laws
additionally expose their exact b-fold sum support for zero-variance
downstream evaluation.
"""

from __future__ import annotations

import ast
import configparser
import io
import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations_with_replacement
from typing import Iterator, Sequence

import numpy as np


class Variant(str, Enum):
    SYMM = "symm"
    RANK1 = "rank1"


class ConfigurationError(ValueError):
    """Invalid model/law configuration."""


PROB_SUM_TOL = 1e-12

# Batch samplers allocate in blocks of this many draws to bound memory.
BLOCK = 1 << 16


def _check_probs(probs: Sequence[float]) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0 or (p < 0).any():
        raise ConfigurationError("probabilities must be a nonempty nonnegative vector")
    if abs(p.sum() - 1.0) > PROB_SUM_TOL:
        raise ConfigurationError(f"probabilities sum to {p.sum()!r}, not 1 within {PROB_SUM_TOL}")
    return p


# ---------------------------------------------------------------------------
# Laws: each draws arrays of one shape, H laws by b-fold sums


@dataclass(frozen=True)
class GoeLaw:
    """Rotation-invariant Gaussian symmetric matrix H = (G + G^T)/sqrt(2).

    Entries: diagonal N(0, 2), off-diagonal N(0, 1), independent up to
    symmetry. Sampling consumes d*d standard normals per draw (the full G).
    """

    d: int

    rotation_invariant = True

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.d, self.d)

    def sample_sum(self, n: int, b: int, rng: np.random.Generator) -> np.ndarray:
        g = rng.standard_normal((n, b, self.d, self.d)).sum(axis=1)
        return (g + np.swapaxes(g, -1, -2)) / np.sqrt(2.0)


@dataclass(frozen=True)
class GaussianVectorLaw:
    """Standard Gaussian vector in R^d (d = 1 for a y law). Consumes d
    normals per draw."""

    d: int

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.d,)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal((n, self.d))


@dataclass(frozen=True)
class MixtureLaw:
    """Finite mixture: atom i with probability ``probs[i]``.

    Atoms are symmetric d x d matrices (an H law), d-vectors (a B or a law)
    or scalars (a y law, stored as 1-vectors); they are validated and
    stacked into ``atoms`` at construction. A draw indexes the stack with
    ``rng.choice``. A single atom is a point mass and draws no random
    numbers.
    """

    atoms: np.ndarray
    probs: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        atoms = [np.atleast_1d(np.asarray(a, dtype=float)) for a in self.atoms]
        if not atoms or len({a.shape for a in atoms}) != 1:
            raise ConfigurationError("mixture atoms must be nonempty and share one shape")
        stack = np.stack(atoms)
        if stack.ndim == 3:
            if stack.shape[1] != stack.shape[2]:
                raise ConfigurationError(f"expected square matrices, got shape {stack.shape[1:]}")
            if not np.array_equal(stack, np.swapaxes(stack, 1, 2)):
                raise ConfigurationError("matrix is not exactly symmetric")
        elif stack.ndim != 2:
            raise ConfigurationError(
                f"mixture atoms must be scalars, vectors or matrices, got shape {stack.shape[1:]}")
        p = _check_probs(self.probs)
        if len(p) != len(atoms):
            raise ConfigurationError("need one probability per atom")
        stack.flags.writeable = False
        object.__setattr__(self, "atoms", stack)
        object.__setattr__(self, "probs", tuple(float(x) for x in p))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.atoms.shape[1:]

    @property
    def d(self) -> int:
        return self.atoms.shape[1]

    @property
    def rotation_invariant(self) -> bool:
        # only scalar multiples of the identity commute with every rotation
        a = self.atoms
        return a.ndim == 3 and bool(np.array_equal(a, a[:, :1, :1] * np.eye(self.d)))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if len(self.atoms) == 1:
            return np.broadcast_to(self.atoms[0], (n, *self.shape)).copy()
        return self.atoms[rng.choice(len(self.atoms), size=n, p=np.asarray(self.probs))]

    def sample_sum(self, n: int, b: int, rng: np.random.Generator) -> np.ndarray:
        """n sums of b i.i.d. draws; a point mass M gives b * M."""
        if len(self.atoms) == 1:
            return np.broadcast_to(b * self.atoms[0], (n, *self.shape)).copy()
        idx = rng.choice(len(self.atoms), size=(n, b), p=np.asarray(self.probs))
        return self.atoms[idx].sum(axis=1)


# ---------------------------------------------------------------------------
# Model spec


@dataclass(frozen=True)
class ModelSpec:
    """Which coefficient law to sample, with dimensions and step size.

    ``xi`` is always derived as eta/b, never stored.
    """

    variant: Variant
    d: int
    b: int
    eta: float
    h_law: object | None = None  # symm only
    b_law: object | None = None  # symm only; default standard Gaussian
    a_law: object | None = None  # rank1 only; default standard Gaussian vectors
    y_law: object | None = None  # rank1 only; default standard Gaussian scalars

    def __post_init__(self):
        if self.d < 1 or self.b < 1:
            raise ConfigurationError(f"need d >= 1 and b >= 1, got d={self.d}, b={self.b}")
        if not (0 < self.eta < np.inf):
            raise ConfigurationError(f"need a finite eta > 0, got {self.eta}")
        v = Variant(self.variant)
        object.__setattr__(self, "variant", v)
        if v is Variant.RANK1:
            if self.h_law is not None or self.b_law is not None:
                raise ConfigurationError("rank1 uses a_law/y_law, not h_law/b_law")
            if self.a_law is None:
                object.__setattr__(self, "a_law", GaussianVectorLaw(self.d))
            if self.y_law is None:
                object.__setattr__(self, "y_law", GaussianVectorLaw(1))
            shapes = {"a_law": (self.d,), "y_law": (1,)}
        else:  # SYMM
            if self.a_law is not None or self.y_law is not None:
                raise ConfigurationError("symm uses h_law/b_law, not a_law/y_law")
            if self.h_law is None:
                raise ConfigurationError("symm requires an h_law")
            if self.b_law is None:
                object.__setattr__(self, "b_law", GaussianVectorLaw(self.d))
            shapes = {"h_law": (self.d, self.d), "b_law": (self.d,)}
        for name, shape in shapes.items():
            law_shape = getattr(self, name).shape
            if law_shape != shape:
                raise ConfigurationError(
                    f"{name} draws have shape {law_shape}, need {shape} for d = {self.d}")

    @property
    def xi(self) -> float:
        return self.eta / self.b

    @property
    def rotation_invariant(self) -> bool:
        """Whether the law of H is invariant under orthogonal conjugation."""
        if self.d == 1:
            # conjugation by O(1) = {1, -1} fixes every 1 x 1 matrix
            return True
        if self.variant is Variant.RANK1:
            return wishart_h(self)
        return self.h_law.rotation_invariant

    @property
    def has_finite_h_support(self) -> bool:
        return isinstance(self.h_law, MixtureLaw)


def rank1_gauss(d: int, b: int, eta: float) -> ModelSpec:
    """The Gaussian rank-one model: rank1 with its default laws."""
    return ModelSpec(Variant.RANK1, d=d, b=b, eta=eta)


def symm(d: int, b: int, eta: float, h_law, b_law=None) -> ModelSpec:
    return ModelSpec(Variant.SYMM, d=d, b=b, eta=eta, h_law=h_law, b_law=b_law)


# ---------------------------------------------------------------------------
# Sampling


def wishart_h(spec: ModelSpec) -> bool:
    """Whether H is Wishart_d(b, I): rank1 with the Gaussian a-law, whatever
    the y-law, since H = sum a_i a_i^T does not depend on it."""
    return spec.variant is Variant.RANK1 and isinstance(spec.a_law, GaussianVectorLaw)


def gaussian_rank1(spec: ModelSpec) -> bool:
    """Whether spec is the Gaussian rank-one law (``rank1gauss``): Wishart H
    and a Gaussian y-law, whose draws come from a Bartlett factor."""
    return wishart_h(spec) and isinstance(spec.y_law, GaussianVectorLaw)


def independent_gaussian_b(spec: ModelSpec) -> bool:
    """Whether spec's B is standard Gaussian and drawn independently of H
    (symm with a ``GaussianVectorLaw`` B law), so that given the A's a sum
    of Pi_{k-1} B_k is exactly N(0, sum_k Pi_{k-1} Pi_{k-1}^T)."""
    return spec.variant is Variant.SYMM and isinstance(spec.b_law, GaussianVectorLaw)


# A chi^2_1 diagonal (j = b - 1) is drawn as |N(0, 1)|, which has
# the law of sqrt(chi^2_1) at the cost of one normal. On 5e4 draws (2 vCPU,
# numpy 2.4) chisquare(1) took 2.5 ms against 1.3 ms for two normals, and
# sample_pairs at d = b = 1 took 4.2-5.9 ms with sqrt(chisquare(1)),
# 2.3-3.1 ms with |N(0, 1)| and 2.1-2.9 ms on the a-draw path; at
# d = b = 2 the three took 8.7, 6.5 and 9.6 ms.
def _bartlett_column(spec: ModelSpec, j: int, n: int,
                     rng: np.random.Generator) -> list[np.ndarray]:
    """Column j of n Bartlett factors: [L_jj, L_{j+1,j}, ..., L_{d-1,j}],
    one contiguous array of n draws per entry. L_jj = sqrt(chi^2_{b-j}) is
    drawn first, then the N(0, 1) entries below it."""
    df = spec.b - j
    diag = np.abs(rng.standard_normal(n)) if df == 1 else np.sqrt(rng.chisquare(df, n))
    return [diag, *rng.standard_normal((spec.d - 1 - j, n))]


def _bartlett_factor(spec: ModelSpec, n: int,
                     rng: np.random.Generator) -> list[list[np.ndarray]]:
    """n Bartlett factors L of Wishart_d(b, I): d x min(b, d) and lower
    trapezoidal, so singular for b < d (Srivastava 2003). Drawn column by
    column; entry (i, j), j <= i, is the array ``low[i][j]``."""
    cols = [_bartlett_column(spec, j, n, rng) for j in range(min(spec.b, spec.d))]
    return [[cols[j][i - j] for j in range(min(i + 1, spec.b))] for i in range(spec.d)]


def _dot(xs, ys) -> np.ndarray:
    """sum_k xs[k] * ys[k] over the shorter of two lists of arrays."""
    v = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        v += x * y
    return v


# Rows per copy when per-entry arrays are stacked into rows. At 1e5 draws,
# one np.stack of the d * d = 16 entries of H took 10.3 ms and blocks of
# 4096 rows, which stay in cache, 5.2 ms (0.71 against 0.61 ms at d = 2).
_STACK_ROWS = 4096


def _stack_columns(cols: list[np.ndarray]) -> np.ndarray:
    """The (n, k) array whose column i is cols[i]."""
    out = np.empty((cols[0].size, len(cols)))
    for lo in range(0, out.shape[0], _STACK_ROWS):
        rows = slice(lo, lo + _STACK_ROWS)
        np.stack([c[rows] for c in cols], axis=-1, out=out[rows])
    return out


def _bartlett_h(low: list[list[np.ndarray]]) -> np.ndarray:
    """H = L L^T, shape (n, d, d), built entry by entry. At d = 2 and 1e5
    draws a stacked L @ L^T took 25 ms and einsum("nik,njk->nij") was no
    faster; the entry-wise products took 1.6 ms."""
    d = len(low)
    lower = [[_dot(low[i], low[j]) for j in range(i + 1)] for i in range(d)]
    return _stack_columns([lower[max(i, j)][min(i, j)]
                           for i in range(d) for j in range(d)]).reshape(-1, d, d)


def _draw(spec: ModelSpec, n: int, rng: np.random.Generator,
          with_b: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """n draws of (H, B), with B None and undrawn unless ``with_b``.

    Draw order per batch: symm draws all H's, then all B's. A Bartlett law
    (``gaussian_rank1``) draws its factor L column by column, then z ~
    N(0, I_min(b, d)), and returns (L L^T, xi L z): H is Wishart_d(b, I) and
    B | H is N(0, xi^2 H), the joint law of the sums over a_i ~ N(0, I_d)
    and y_i ~ N(0, 1) (Bartlett 1933; Odell & Feiveson 1966), from at most
    d(d+1)/2 + d variates in place of b(d+1). Other rank1 laws draw all a's
    through ``a_law``, then all y's through ``y_law``. Skipping B changes no
    H, since B is drawn last.
    """
    if spec.variant is Variant.SYMM:
        h = spec.h_law.sample_sum(n, spec.b, rng)
        return h, spec.b_law.sample(n, rng) if with_b else None
    if gaussian_rank1(spec):
        low = _bartlett_factor(spec, n, rng)
        bvec = None
        if with_b:
            z = rng.standard_normal((min(spec.b, spec.d), n))
            bvec = spec.xi * _stack_columns([_dot(row, z) for row in low])
        return _bartlett_h(low), bvec
    a = spec.a_law.sample(n * spec.b, rng).reshape(n, spec.b, spec.d)
    # Reversing the b axis (the summation order) gives negative strides,
    # which keep numpy's matmul in its own small-matrix loop. At d = 2, b = 8
    # BLAS took 2-3x longer: syrk on a.T @ a did not speed up with two worker
    # threads, and gemm on a copy of a raised the peak memory.
    a_rev = a[:, ::-1]
    h = np.swapaxes(a_rev, 1, 2) @ a_rev
    if not with_b:
        return h, None
    y = spec.y_law.sample(n * spec.b, rng).reshape(n, spec.b)
    return h, spec.xi * np.einsum("nb,nbi->ni", y, a)


def sample_h_sums(spec: ModelSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of the summed (unscaled) matrix H, shape (n, d, d): the H of
    ``sample_pairs`` from the same stream, with no B drawn."""
    return _draw(spec, n, rng, with_b=False)[0]


def sample_pairs(spec: ModelSpec, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n coefficient draws as arrays (H: (n,d,d), B: (n,d)), in the draw
    order of ``_draw``. A is not materialized here; use ``pair_a`` when the
    A matrix itself is needed."""
    return _draw(spec, n, rng, with_b=True)


def pair_a(spec: ModelSpec, h: np.ndarray) -> np.ndarray:
    """A = I - xi*H for a batch (or single) summed H."""
    return np.eye(spec.d) - spec.xi * h


def iter_h_blocks(spec: ModelSpec, n: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Yield summed-H batches of at most BLOCK draws totalling n, bounding
    peak memory."""
    for lo in range(0, n, BLOCK):
        yield sample_h_sums(spec, min(BLOCK, n - lo), rng)


def sample_h_columns(spec: ModelSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of the first column H e_1 of the summed matrix, shape (n, d),
    equal to ``sample_h_sums(spec, n, rng)[:, :, 0]`` from the same stream.

    This is the only part of H entering |(I - xi H) e_1|. A Bartlett law
    draws only L's first column, so H e_1 = (c, sqrt(c) g) with
    c ~ chi^2_b and g ~ N(0, I_{d-1}). Other laws take the column of H
    blockwise.
    """
    if gaussian_rank1(spec):
        first = _bartlett_column(spec, 0, n, rng)
        return _stack_columns([first[0] * v for v in first])
    # a copy per block: a view would keep every H block alive until the end
    return np.concatenate([h[:, :, 0].copy() for h in iter_h_blocks(spec, n, rng)])


# ---------------------------------------------------------------------------
# Exact b-fold sum support for finite H laws


MAX_SUPPORT_ATOMS = 100_000


def h_sum_support(spec: ModelSpec, limit: int = MAX_SUPPORT_ATOMS):
    """Exact support of the summed H with probabilities, or None.

    For a finite mixture with m atoms and batch b the support has
    C(m+b-1, b) points (multisets with multinomial weights). Returns None
    when the law has no finite support or the expansion exceeds ``limit``.
    """
    if not spec.has_finite_h_support:
        return None
    atoms, probs = spec.h_law.atoms, spec.h_law.probs
    m = len(atoms)
    if math.comb(m + spec.b - 1, spec.b) > limit:
        return None
    out = []
    fact_b = math.factorial(spec.b)
    for combo in combinations_with_replacement(range(m), spec.b):
        counts = np.bincount(combo, minlength=m)
        weight = fact_b
        prob = 1.0
        for j, c in enumerate(counts):
            weight //= math.factorial(int(c))
            prob *= probs[j] ** int(c)
        total = sum(atoms[j] * int(c) for j, c in enumerate(counts) if c)
        out.append((total, weight * prob))
    return out


# ---------------------------------------------------------------------------
# Law files: structured key-value text with bracketed row-major matrices


def _parse_bracketed_list(text: str) -> list:
    items = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            items.append(ast.literal_eval(part))
        except (SyntaxError, ValueError) as exc:
            raise ConfigurationError(f"cannot parse bracketed list {part!r}: {exc}") from exc
    return items


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.replace(",", " ").split()]


# The law-file key that lists a mixture's atoms, by role
_ATOM_KEYS = {"h": "matrices", "b": "vectors", "a": "vectors", "y": "values"}


def _law_from_section(section, d: int, role: str):
    kind = section.get("kind", "gaussian").strip().lower()

    def need(key: str) -> str:
        if key not in section:
            raise ConfigurationError(
                f"[{section.name}] kind = {kind} needs the key {key!r}")
        return section[key]

    if kind == "mixture" or (role == "h" and kind == "deterministic"):
        text = need(_ATOM_KEYS[role])
        atoms = _parse_floats(text) if role == "y" else _parse_bracketed_list(text)
        if kind == "mixture":
            return MixtureLaw(atoms, tuple(_parse_floats(need("probs"))))
        if len(atoms) != 1:
            raise ConfigurationError("deterministic h_law takes exactly one matrix")
        return MixtureLaw(atoms)
    if role == "h" and kind == "goe":
        return GoeLaw(d)
    if role != "h" and kind == "gaussian":
        return GaussianVectorLaw(1 if role == "y" else d)
    raise ConfigurationError(f"unknown {role}_law kind {kind!r}")


def spec_from_law_text(text: str, overrides: dict | None = None) -> ModelSpec:
    """Build a ModelSpec from law-file text; ``overrides`` replace [model] keys."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"bad law file: {exc}") from exc
    if "model" not in cp:
        raise ConfigurationError("law file needs a [model] section")
    model = dict(cp["model"])
    if overrides:
        model.update({k: str(v) for k, v in overrides.items() if v is not None})
    try:
        name = model["variant"].strip().lower()
        d = int(model["d"])
        b = int(model["b"])
        eta = float(model["eta"])
    except KeyError as exc:
        raise ConfigurationError(f"[model] is missing key {exc}") from exc
    # rank1gauss is rank1 with its default laws, so it takes no law section
    variant = Variant.RANK1 if name == "rank1gauss" else Variant(name)
    if name == "rank1gauss" and ("a_law" in cp or "y_law" in cp):
        raise ConfigurationError("rank1gauss takes no [a_law] or [y_law] section")
    kwargs = {}
    if variant is Variant.SYMM:
        if "h_law" not in cp:
            raise ConfigurationError("symm law file needs an [h_law] section")
        kwargs["h_law"] = _law_from_section(cp["h_law"], d, "h")
        if "b_law" in cp:
            kwargs["b_law"] = _law_from_section(cp["b_law"], d, "b")
    elif variant is Variant.RANK1:
        if "a_law" in cp:
            kwargs["a_law"] = _law_from_section(cp["a_law"], d, "a")
        if "y_law" in cp:
            kwargs["y_law"] = _law_from_section(cp["y_law"], d, "y")
    return ModelSpec(variant, d=d, b=b, eta=eta, **kwargs)


def load_law_file(path: str, overrides: dict | None = None) -> ModelSpec:
    with io.open(path, "r", encoding="utf-8") as fh:
        return spec_from_law_text(fh.read(), overrides)
