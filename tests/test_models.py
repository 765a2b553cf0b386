import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from heavytail import mc, models
from heavytail.models import (ConfigurationError, GaussianVectorLaw, GoeLaw,
                              MixtureLaw, ModelSpec, Variant, h_sum_support, pair_a,
                              rank1_gauss, sample_h_columns, sample_h_sums,
                              sample_pairs, spec_from_law_text, symm)

MIX_LAW_TEXT = """\
[model]
variant = symm
d = 1
b = 1
eta = 1.0

[h_law]
kind = mixture
matrices = [[0.5]] ; [[2.5]]
probs = 0.5, 0.5
"""


def test_xi_is_derived():
    spec = rank1_gauss(d=2, b=3, eta=0.6)
    assert spec.xi == 0.6 / 3


@pytest.mark.parametrize("kwargs", [
    dict(d=0, b=1, eta=0.1), dict(d=1, b=0, eta=0.1), dict(d=1, b=1, eta=0.0),
    dict(d=1, b=1, eta=-1.0),
])
def test_invalid_dimensions_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        ModelSpec(Variant.RANK1, **kwargs)


def test_rank1gauss_rejects_law_parameters():
    with pytest.raises(ConfigurationError):
        ModelSpec(Variant.RANK1, d=1, b=1, eta=0.1, h_law=GoeLaw(1))
    # a rank1gauss law file is rank1 with its default laws: no law section
    text = "[model]\nvariant = rank1gauss\nd = 2\nb = 2\neta = 0.5\n"
    assert spec_from_law_text(text) == rank1_gauss(2, 2, 0.5)
    for section in ("[a_law]\nkind = gaussian\n",
                    "[y_law]\nkind = mixture\nvalues = 1.0\nprobs = 1.0\n"):
        with pytest.raises(ConfigurationError, match="rank1gauss"):
            spec_from_law_text(text + "\n" + section)


def test_construction_identity_rank1gauss():
    # A + xi*H = I in construction order: A is exactly I - xi*H bit for bit
    spec = rank1_gauss(d=2, b=3, eta=0.6)
    h, _ = sample_pairs(spec, 1, mc.substream(0))
    a = pair_a(spec, h)[0]
    assert np.array_equal(a, np.eye(2) - spec.xi * h[0])
    assert np.array_equal(a.T, a)
    assert np.allclose(a + spec.xi * h[0], np.eye(2), atol=1e-14)


def test_symm_deterministic_identity_case():
    spec = symm(d=3, b=1, eta=0.5, h_law=MixtureLaw((np.eye(3),)))
    h, _ = sample_pairs(spec, 1, mc.substream(1))
    assert np.array_equal(pair_a(spec, h)[0], 0.5 * np.eye(3))


def test_chi2_moments_of_unscaled_diagonal():
    # diagonal entries of sum a_i a_i^T are chi-square(b): mean b, var 2b
    spec = rank1_gauss(d=2, b=8, eta=0.1)
    h = sample_h_sums(spec, 100_000, mc.substream(2))
    diag = h[:, 0, 0]
    assert diag.mean() == pytest.approx(8.0, abs=4 * diag.std() / np.sqrt(len(diag)))
    assert diag.var(ddof=1) == pytest.approx(16.0, rel=0.05)


def test_sample_h_raw_direct_products():
    # d=2, b=1: H = a a^T is the rank-one projection of the drawn vector
    spec = rank1_gauss(d=2, b=1, eta=1.0)
    rng = mc.substream(3)
    h = sample_h_sums(spec, 1, rng)[0]
    rng2 = mc.substream(3)
    a = rng2.standard_normal((1, 1, 2))[0, 0]
    assert np.allclose(h, np.outer(a, a))
    assert np.linalg.matrix_rank(h) == 1


def test_offdiagonal_factorization_matches_resampled_form():
    # H_12 of a b-summed Gaussian rank-one matrix decomposes as
    # |x_1| |x_2| <Y_1, Y_2> for the component-wise b-vectors; check moments
    # against a brute-force resampling of that factorization
    b, n = 5, 200_000
    spec = rank1_gauss(d=2, b=b, eta=1.0)
    h = sample_h_sums(spec, n, mc.substream(4))
    h12, h11 = h[:, 1, 0], h[:, 0, 0]

    rng = mc.substream(5)
    x1 = rng.standard_normal((n, b))
    x2 = rng.standard_normal((n, b))
    z1, z2 = np.linalg.norm(x1, axis=1), np.linalg.norm(x2, axis=1)
    u = (x1 * x2).sum(axis=1) / (z1 * z2)
    h12_alt = z1 * z2 * u
    h11_alt = z1 ** 2

    for stat, a_, b_ in [("var", h12.var(), h12_alt.var()),
                         ("m4", (h12 ** 4).mean(), (h12_alt ** 4).mean())]:
        assert a_ == pytest.approx(b_, rel=0.1), stat
    corr = np.corrcoef(np.abs(h12), h11)[0, 1]
    corr_alt = np.corrcoef(np.abs(h12_alt), h11_alt)[0, 1]
    assert corr == pytest.approx(corr_alt, abs=0.02)


def test_rotation_invariance_of_gauss_h():
    # QHQ^T has the same entry moments as H (orders 1..4) for fixed Q
    spec = rank1_gauss(d=2, b=3, eta=1.0)
    n = 100_000
    h = sample_h_sums(spec, n, mc.substream(6))
    th = 0.7
    q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    hq = np.einsum("ij,njk,lk->nil", q, h, q)
    for i in range(2):
        for j in range(2):
            for order in (1, 2, 3, 4):
                a = h[:, i, j] ** order
                b = hq[:, i, j] ** order
                tol = 4 * np.hypot(a.std() / np.sqrt(n), b.std() / np.sqrt(n))
                assert abs(a.mean() - b.mean()) <= tol


def test_psd_of_rank1_h():
    spec = rank1_gauss(d=3, b=2, eta=1.0)
    h = sample_h_sums(spec, 2000, mc.substream(7))
    eigs = np.linalg.eigvalsh(h)
    assert eigs.min() >= -1e-12


def test_fixed_seed_reproducibility():
    spec = rank1_gauss(d=2, b=4, eta=0.3)
    h1, b1 = sample_pairs(spec, 50, mc.substream(8))
    h2, b2 = sample_pairs(spec, 50, mc.substream(8))
    assert np.array_equal(h1, h2) and np.array_equal(b1, b2)


def test_goe_law_is_rotation_invariant_flag():
    assert GoeLaw(2).rotation_invariant
    assert MixtureLaw((2.0 * np.eye(3),)).rotation_invariant
    assert not MixtureLaw((np.diag([1.0, 2.0]),)).rotation_invariant
    assert rank1_gauss(1, 1, 0.5).rotation_invariant


def test_mixture_probability_validation():
    eye = np.eye(1)
    with pytest.raises(ConfigurationError):
        MixtureLaw((eye, 2 * eye), (0.5, 0.5 + 1e-9))
    law = MixtureLaw((eye, 2 * eye), (0.5, 0.5))
    assert law.d == 1


def test_h_sum_support_multiset_expansion():
    law = MixtureLaw((np.eye(1) * 0.5, np.eye(1) * 2.5), (0.25, 0.75))
    spec = symm(d=1, b=2, eta=1.0, h_law=law)
    atoms, probs = h_sum_support(spec)
    assert atoms.shape == (3, 1, 1) and probs.shape == (3,)  # multisets {aa, ab, bb}
    totals = sorted(zip(atoms[:, 0, 0].tolist(), probs.tolist()))
    assert totals[0] == (1.0, pytest.approx(0.0625))
    assert totals[1] == (3.0, pytest.approx(2 * 0.25 * 0.75))
    assert totals[2] == (5.0, pytest.approx(0.5625))
    assert probs.sum() == pytest.approx(1.0)


def test_h_columns_match_full_sums():
    spec = rank1_gauss(d=3, b=2, eta=0.2)
    cols = sample_h_columns(spec, 100, mc.substream(9))
    full = sample_h_sums(spec, 100, mc.substream(9))
    assert np.allclose(cols, full[:, :, 0])


def test_law_file_round_trip_semantics():
    spec = spec_from_law_text(MIX_LAW_TEXT)
    assert spec.variant is Variant.SYMM
    assert spec.d == 1 and spec.b == 1 and spec.eta == 1.0
    atoms, _ = h_sum_support(spec)
    assert set(atoms[:, 0, 0].tolist()) == {0.5, 2.5}
    spec2 = spec_from_law_text(MIX_LAW_TEXT, overrides={"eta": 0.25})
    assert spec2.eta == 0.25


def test_specs_with_a_mixture_law_compare_and_hash_by_value():
    first, second = spec_from_law_text(MIX_LAW_TEXT), spec_from_law_text(MIX_LAW_TEXT)
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1
    for changed in (MIX_LAW_TEXT.replace("[[2.5]]", "[[2.75]]"),
                    MIX_LAW_TEXT.replace("0.5, 0.5", "0.25, 0.75")):
        assert spec_from_law_text(changed) != first
    # atoms that differ only in the sign of a zero are equal, so hash equal
    zero, minus_zero = (spec_from_law_text(MIX_LAW_TEXT.replace("[[0.5]]", z))
                        for z in ("[[0.0]]", "[[-0.0]]"))
    assert zero == minus_zero and hash(zero) == hash(minus_zero)


def test_law_file_bad_probs_rejected():
    bad = MIX_LAW_TEXT.replace("0.5, 0.5", "0.5, 0.6")
    with pytest.raises(ConfigurationError):
        spec_from_law_text(bad)


def test_symm_b_law_mixture():
    b_law = MixtureLaw((np.array([1.0, 0.0]),), (1.0,))
    spec = symm(d=2, b=1, eta=0.5, h_law=MixtureLaw((np.eye(2),)), b_law=b_law)
    _, bvec = sample_pairs(spec, 10, mc.substream(10))
    assert np.array_equal(bvec, np.tile([1.0, 0.0], (10, 1)))


RANK1_LAW_TEXT = """\
[model]
variant = rank1
d = 2
b = 2
eta = 0.5

[a_law]
kind = mixture
vectors = [1.0, 0.0] ; [0.0, 1.0]
probs = 0.5, 0.5

[y_law]
kind = mixture
values = 2.0
probs = 1.0
"""


def test_rank1_mixture_laws_from_file():
    spec = spec_from_law_text(RANK1_LAW_TEXT)
    assert spec.variant is Variant.RANK1
    h, bvec = sample_pairs(spec, 200, mc.substream(11))
    # every a is a basis vector, so H sums two rank-one basis projections
    # and B = xi * sum a_i y_i with y = 2 always
    assert set(np.unique(h)) <= {0.0, 1.0, 2.0}
    assert np.allclose(h, np.swapaxes(h, 1, 2))
    assert np.trace(h.sum(axis=0)) == 200 * 2  # b draws per sample
    # basis-vector draws make B = xi * y * diag(H) exactly (hit counts)
    expected_b = spec.xi * 2.0 * h.diagonal(axis1=1, axis2=2)
    assert np.allclose(bvec, expected_b, atol=1e-15)


def test_rank1_default_laws_match_gauss_variant():
    # rank1 with no laws configured is rank1gauss, and draws its stream
    a = ModelSpec(Variant.RANK1, d=2, b=3, eta=0.4)
    g = rank1_gauss(d=2, b=3, eta=0.4)
    assert a == g and models.gaussian_rank1(g) and len(Variant) == 2
    ha, ba = sample_pairs(a, 20, mc.substream(12))
    hg, bg = sample_pairs(g, 20, mc.substream(12))
    assert np.array_equal(ha, hg) and np.array_equal(ba, bg)


@pytest.mark.parametrize("d, b", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 8), (3, 2), (3, 4)])
def test_bartlett_pairs_exact_moments(d, b):
    # H ~ Wishart_d(b, I) and B | H ~ N(0, xi^2 H): E[H] = b I,
    # E[H_11^2] = b^2 + 2b, E[B B^T] = xi^2 b I, E[B_1^2 H_11] = xi^2 (b^2 + 2b)
    spec = rank1_gauss(d=d, b=b, eta=0.6)
    n, xi2 = 200_000, spec.xi ** 2
    h, bvec = sample_pairs(spec, n, mc.substream(20 + 10 * d + b))
    checks = [(h[:, i, j], b * (i == j)) for i in range(d) for j in range(d)]
    checks += [(bvec[:, i] * bvec[:, j], xi2 * b * (i == j))
               for i in range(d) for j in range(d)]
    checks += [(h[:, 0, 0] ** 2, b * b + 2 * b),
               (bvec[:, 0] ** 2 * h[:, 0, 0], xi2 * (b * b + 2 * b))]
    for values, exact in checks:
        assert abs(values.mean() - exact) <= 4 * values.std() / np.sqrt(n)


@pytest.mark.parametrize("d, b", [(2, 2), (2, 8), (3, 2)])
def test_bartlett_pairs_match_a_draw_law(d, b, monkeypatch):
    # two-sample KS of H_11, H_12, H_22 and B_1 against the a-draw path,
    # which draws rank1's Gaussian a- and y-laws once gaussian_rank1 is off
    spec = rank1_gauss(d=d, b=b, eta=0.6)
    n = 20_000
    h, bvec = sample_pairs(spec, n, mc.substream(40 + b))
    monkeypatch.setattr(models, "gaussian_rank1", lambda spec: False)
    h_a, bvec_a = sample_pairs(ModelSpec(Variant.RANK1, d, b, 0.6), n,
                               mc.substream(50 + b))
    for x, y in [(h[:, 0, 0], h_a[:, 0, 0]), (h[:, 0, 1], h_a[:, 0, 1]),
                 (h[:, 1, 1], h_a[:, 1, 1]), (bvec[:, 0], bvec_a[:, 0])]:
        assert stats.ks_2samp(x, y).pvalue > 0.01


def test_bartlett_columns_equal_first_column_of_sums():
    spec = rank1_gauss(d=3, b=5, eta=0.2)
    cols = sample_h_columns(spec, 100, mc.substream(13))
    full = sample_h_sums(spec, 100, mc.substream(13))
    assert np.array_equal(cols, full[:, :, 0])
    h, _ = sample_pairs(spec, 100, mc.substream(13))
    assert np.array_equal(h, full)


@pytest.mark.parametrize("d, b", [(1, 1), (2, 8), (3, 4), (3, 2)])
def test_bartlett_draws_are_contiguous_entry_rows(d, b):
    # ProductState.step reads A and B, and FirstColumnSample reads H e_1, as
    # rows of one entry over the draws; Bartlett draws are laid out that way
    spec = rank1_gauss(d=d, b=b, eta=0.6)
    h, bvec = sample_pairs(spec, 1000, mc.substream(14))
    assert pair_a(spec, h).transpose(1, 2, 0).flags.c_contiguous
    assert bvec.T.flags.c_contiguous
    assert sample_h_columns(spec, 1000, mc.substream(14)).T.flags.c_contiguous


@pytest.mark.parametrize("spec", [
    rank1_gauss(d=1, b=1, eta=0.6), rank1_gauss(d=2, b=8, eta=1.5), rank1_gauss(d=3, b=2, eta=0.4),
    symm(d=2, b=1, eta=1.0, h_law=MixtureLaw((np.diag([2.0, 0.0]), np.diag([0.0, 2.0])),
                                             (0.5, 0.5)))])
def test_pair_a_written_over_h_keeps_the_bits(spec):
    # A = I - xi*H written over a fresh H is the pure form's array bit for
    # bit, the sign of every zero entry included
    h, _ = sample_pairs(spec, 500, mc.substream(17))
    want = pair_a(spec, h)
    a = pair_a(spec, h, out=h)
    assert a is h
    assert a.tobytes() == want.tobytes()


def test_singular_bartlett_and_a_draw_path_for_non_gaussian_laws():
    # b < d: a singular Bartlett H of rank b, with the same first column
    # and H from every sampler on one stream
    n = 50
    spec = rank1_gauss(d=3, b=2, eta=0.4)
    full = sample_h_sums(spec, n, mc.substream(14))
    assert (np.linalg.matrix_rank(full) == 2).all()
    cols = sample_h_columns(spec, n, mc.substream(14))
    assert np.array_equal(cols, full[:, :, 0])
    h, _ = sample_pairs(spec, n, mc.substream(14))
    assert np.array_equal(h, full)
    # Gaussian a's but a non-Gaussian y law at b >= d: B = xi * 2 * sum a_i
    spec = ModelSpec(Variant.RANK1, d=2, b=3, eta=0.4,
                     y_law=MixtureLaw((2.0,), (1.0,)))
    h, bvec = sample_pairs(spec, n, mc.substream(15))
    a = mc.substream(15).standard_normal((n, 3, 2))
    assert np.allclose(h, np.einsum("nbi,nbj->nij", a, a), rtol=0, atol=1e-12)
    assert np.allclose(bvec, spec.xi * 2.0 * a.sum(axis=1), rtol=0, atol=1e-12)
    # mixture a-law at b = d: H counts basis-vector hits, as no Bartlett H can
    spec = spec_from_law_text(RANK1_LAW_TEXT)
    h = sample_h_sums(spec, n, mc.substream(16))
    assert np.array_equal(h, np.round(h))


# A law-file section per role: its [model] variant, the other sections it
# needs, and the key that lists the mixture's atoms
ROLE_TEXT = {
    "h": ("symm", "", "matrices"),
    "b": ("symm", "[h_law]\nkind = goe\n\n", "vectors"),
    "a": ("rank1", "", "vectors"),
    "y": ("rank1", "", "values"),
}


@pytest.mark.parametrize("role", ["b", "a", "y"])
def test_gaussian_law_section_is_the_default_law(role):
    variant, other, _ = ROLE_TEXT[role]
    text = f"[model]\nvariant = {variant}\nd = 2\nb = 3\neta = 0.5\n\n{other}"
    assert (spec_from_law_text(text + f"[{role}_law]\nkind = gaussian\n")
            == spec_from_law_text(text))


@st.composite
def _mixtures(draw):
    """(role, d, atoms, probs): 1-4 symmetric matrices, vectors or scalars."""
    role = draw(st.sampled_from(sorted(ROLE_TEXT)))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    value = st.floats(-1e6, 1e6, allow_nan=False)
    atoms = []
    for _ in range(m):
        if role == "h":
            upper = np.triu(np.array(draw(st.lists(value, min_size=d * d,
                                                   max_size=d * d))).reshape(d, d))
            atoms.append(upper + np.triu(upper, 1).T)
        else:
            size = 1 if role == "y" else d
            atoms.append(np.array(draw(st.lists(value, min_size=size, max_size=size))))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m))
    probs = [w / sum(weights) for w in weights]
    return role, d, atoms, probs


@settings(max_examples=60, deadline=None)
@given(_mixtures())
def test_law_file_mixture_parses_to_its_atoms(mixture):
    role, d, atoms, probs = mixture
    variant, other, key = ROLE_TEXT[role]
    listed = (", ".join(repr(float(a[0])) for a in atoms) if role == "y"
              else " ; ".join(repr(a.tolist()) for a in atoms))
    text = (f"[model]\nvariant = {variant}\nd = {d}\nb = 2\neta = 0.5\n\n{other}"
            f"[{role}_law]\nkind = mixture\n{key} = {listed}\n"
            f"probs = {', '.join(map(repr, probs))}\n")
    law = getattr(spec_from_law_text(text), f"{role}_law")
    assert isinstance(law, MixtureLaw)
    assert np.array_equal(law.atoms, np.stack(atoms))
    assert law.probs == tuple(probs)


@pytest.mark.parametrize("atom", [2.5, np.array([1.0, -2.0]),
                                  np.array([[1.0, 0.5], [0.5, 3.0]])])
def test_one_atom_law_is_a_point_mass_that_draws_nothing(atom):
    law = MixtureLaw((atom,))
    rng = mc.substream(30)
    state = rng.bit_generator.state
    draws = law.sample(5, rng)
    sums = law.sample_sum(5, 3, rng)
    assert rng.bit_generator.state == state
    point = np.atleast_1d(atom)
    assert np.array_equal(draws, np.broadcast_to(point, (5, *point.shape)))
    assert np.array_equal(sums, np.broadcast_to(3 * point, (5, *point.shape)))
    # the deterministic law-file kind is this one-atom mixture
    text = ("[model]\nvariant = symm\nd = 2\nb = 3\neta = 0.5\n\n[h_law]\n"
            "kind = deterministic\nmatrices = [[1.0, 0.5], [0.5, 3.0]]\n")
    h_law = spec_from_law_text(text).h_law
    assert np.array_equal(h_law.atoms, [[[1.0, 0.5], [0.5, 3.0]]]) and h_law.probs == (1.0,)


@pytest.mark.parametrize("role, law", [
    ("h_law", MixtureLaw((np.eye(3),))),
    ("h_law", MixtureLaw((np.ones(2),))),
    ("h_law", GaussianVectorLaw(2)),
    ("b_law", MixtureLaw((np.ones(3),))),
    ("b_law", GoeLaw(2)),
    ("a_law", MixtureLaw((np.ones(3), np.zeros(3)), (0.5, 0.5))),
    ("a_law", GaussianVectorLaw(1)),
    ("y_law", MixtureLaw((np.ones(2),))),
    ("y_law", GaussianVectorLaw(2)),
])
def test_spec_rejects_a_law_of_the_wrong_dimension(role, law):
    variant = Variant.SYMM if role in ("h_law", "b_law") else Variant.RANK1
    laws = {"h_law": GoeLaw(2)} if variant is Variant.SYMM else {}
    with pytest.raises(ConfigurationError, match=role):
        ModelSpec(variant, d=2, b=2, eta=0.5, **{**laws, role: law})


def test_wishart_h_asks_the_a_law_alone():
    y_mix = MixtureLaw((-1.0, 1.0), (0.5, 0.5))
    spec = ModelSpec(Variant.RANK1, d=2, b=8, eta=0.3, y_law=y_mix)
    assert models.wishart_h(spec) and spec.rotation_invariant
    assert not models.gaussian_rank1(spec)
    a_mix = MixtureLaw((np.array([1.0, 0.0]), np.array([0.0, 1.0])), (0.5, 0.5))
    assert not models.wishart_h(ModelSpec(Variant.RANK1, d=2, b=8, eta=0.3, a_law=a_mix))
    assert not models.wishart_h(symm(d=2, b=8, eta=0.3, h_law=GoeLaw(2)))
