import collections
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncjets.cli
import ncjets.jets
from ncjets import linalg
from ncjets.algebra import Algebra
from ncjets.catalog import COMMUTATIVE_NAMES, builtin, names
from ncjets.diffop import (
    MAX_ORDER,
    DefinitionDomainError,
    diff_bar1,
    diff_commutative,
)
from ncjets.jets import (
    VERDICT_ISO,
    InvariantViolation,
    NotLeftLinearError,
    OrderViolationError,
    factorization_residual,
    factorize,
    jet_module,
    representability_bar1,
    representability_check,
    residual_witness_search,
    two_sided_jet1,
)
from ncjets.linalg import (
    GF,
    QQ,
    DimensionMismatch,
    Matrix,
    Subspace,
    closure_under,
    span_of_images,
    unit_vector,
    vector,
)
from ncjets.modules import (
    BimoduleRep,
    HomSpace,
    LegAction,
    TensorOneSided,
    TensorTwoSided,
    hom_AA,
)

from algebra_builders import (
    SEEDED,
    build,
    full_matrices,
    labelled_module,
    module_over,
    opposite,
    signed_basis,
    small_algebras,
    t2_column,
    trunc,
    upper_triangular,
)
from oracle_systems import jet_dim, naive_residual, two_sided_jet_dims, two_sided_mu_normal_form

F = Fraction


def self_module(name):
    return builtin(name).module("self")


def raw_mul(algebra):
    n = algebra.dim
    return [[[algebra.mul[i, j, k] for k in range(n)] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# jet construction


@pytest.mark.parametrize("name", names())
def test_order_zero_jet_collapses_to_the_module(name):
    P = self_module(name)
    jet = jet_module(P, 0)
    assert jet.dim == P.dim
    assert jet.ambient_dim == P.algebra.dim * P.dim


def test_dual_numbers_jet_ladder():
    P = self_module("dual_numbers")
    j1 = jet_module(P, 1)
    j2 = jet_module(P, 2)
    assert j1.dim == 3
    assert j2.dim == 4
    assert j1.dim == jet_dim(raw_mul(P.algebra), 1)
    assert j2.dim == jet_dim(raw_mul(P.algebra), 2)
    # mu^2 is spanned by eps tensor eps, flat index 3
    assert j1.mu.dim == 1
    assert j1.mu.contains(unit_vector(QQ, 4, 3))


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_jet_tower_nests_over_commutative(name):
    P = self_module(name)
    jets = [jet_module(P, k) for k in range(3)]
    for small, big in zip(jets, jets[1:]):
        assert big.mu <= small.mu
        assert big.dim >= small.dim


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_bullet_action_descends_over_commutative(name):
    P = self_module(name)
    assert jet_module(P, 1).bullet_well_defined


@pytest.mark.parametrize("name,expected", [("m2", 0), ("t2", 2), ("quaternions", 0)])
def test_noncommutative_first_jets_collapse(name, expected):
    # over M2 and the quaternions the relations fill the whole tensor space
    P = self_module(name)
    jet = jet_module(P, 1)
    assert jet.dim == expected
    assert jet.dim == jet_dim(raw_mul(P.algebra), 1)


def test_skipped_closure_raises_invariant_violation(monkeypatch):
    # The stub makes every closure a no-op.  The dual numbers' seed already
    # spans mu^2 (1 of 4), and the two-sided jet builds mu^1 with no closure
    # (36 of 64 on M2), so the relations are unchanged and only the
    # generation check loses its closure: the bare jet-map image (dim 2 of 3,
    # 4 of 28) does not fill the quotient.
    monkeypatch.setattr(ncjets.jets, "closure_under", lambda ops, seed: seed)
    with pytest.raises(InvariantViolation, match="generate"):
        jet_module(self_module("dual_numbers"), 1)
    with pytest.raises(InvariantViolation, match="generate"):
        two_sided_jet1(self_module("m2"))


def _units_span(t):
    return Subspace.from_rows(t.field, t.dim, ncjets.jets._units(t))


def _outer(t):
    return list(t.left) + (list(t.right) if isinstance(t, TensorTwoSided) else [])


@pytest.mark.parametrize("name", ["trunc4", "quaternions"])
@pytest.mark.parametrize("ambient", [TensorOneSided, TensorTwoSided])
def test_assembly_closes_a_seed_the_outer_actions_move(name, ambient):
    # the deviations at the generators span a seed (4 of 64 on trunc4's
    # two-sided ambient, 12 of 16 on the quaternions' one-sided one) that
    # the outer actions move, and its closure under every a, not only the
    # generators, is mu: the one-sided jet's closed seed, and on the
    # two-sided ambient the normal form, built with no seed and no closure
    P = self_module(name)
    t = ambient(P)
    at = t.algebra.at_generators
    words = [at(t.deltas), at(t.delta_bars) if ambient is TensorTwoSided else at(t.deltas)]
    seed = _units_span(t)
    for family in words:
        seed = span_of_images(family, seed)
    closed = closure_under(_outer(t), seed)
    assert closed != seed
    jet = two_sided_jet1(P) if ambient is TensorTwoSided else jet_module(P, 1)
    assert jet.mu == closed


def _check_two_sided_seed_is_closed(P):
    # a s(b,p,c) = s(ab,p,c) - s(a,bp,c) and s(b,p,c) d = s(b,p,cd) - s(b,pc,d),
    # for s(b,p,c) = delta_bar^c delta^b (1 tensor p tensor 1): the span over
    # every basis b, c is already mu, the closure of the generator seed
    t = TensorTwoSided(P)
    seed = span_of_images(t.delta_bars, span_of_images(t.deltas, _units_span(t)))
    assert closure_under(_outer(t), seed) == seed
    assert two_sided_jet1(P).mu == seed


@pytest.mark.parametrize("name,kind", [(n, k) for n in names() for k in ("self", "free2")])
def test_two_sided_seed_holds_every_relation(name, kind):
    _check_two_sided_seed_is_closed(builtin(name).module(kind))


@pytest.mark.parametrize("name,kind", [(n, k) for n in names() for k in ("self", "free2")])
def test_two_sided_seed_holds_every_relation_over_gf7(name, kind):
    P = module_over(GF(7), builtin(name).module(kind))
    if P.central:
        _check_two_sided_seed_is_closed(P)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("algebra", [full_matrices(3), upper_triangular(3)], ids=["M3", "T3"])
def test_two_sided_seed_holds_every_relation_at_size_three(field, algebra):
    _check_two_sided_seed_is_closed(BimoduleRep.regular(build(algebra, field)))


@settings(max_examples=25, deadline=None)
@given(small_algebras())
def test_two_sided_seed_holds_every_relation_on_generated_algebras(algebra):
    A = build(algebra)
    for P in (BimoduleRep.regular(A), BimoduleRep.free(A, 2)):
        _check_two_sided_seed_is_closed(P)


@pytest.mark.parametrize("name,kind", [(n, k) for n in names() for k in ("self", "free2")])
def test_each_outer_generator_moves_at_most_the_ambient(monkeypatch, name, kind):
    # the one-sided closure moves each of mu's pivot rows once, the
    # two-sided mu is built without the outer actions, and the generation
    # check moves each of the jet's rows once, so no member moves more rows
    # than the ambient
    moved = collections.Counter()
    real = LegAction.apply_rows

    def counting(self, rows):
        rows = list(rows)
        moved[id(self)] += len(rows)
        return real(self, rows)

    monkeypatch.setattr(LegAction, "apply_rows", counting)
    P = builtin(name).module(kind)
    most = 0
    for build_jet in [lambda: two_sided_jet1(P)] + [lambda k=k: jet_module(P, k) for k in range(3)]:
        moved.clear()
        t = build_jet().ambient
        families = (t.left, t.right) if isinstance(t, TensorTwoSided) else (t.left,)
        for op in itertools.chain(*map(t.algebra.at_generators, families)):
            assert moved[id(op)] <= t.dim, (t, moved[id(op)])
            most = max(most, moved[id(op)])
    assert most or name == "trivial"  # the count sees the members' rows


def test_jet_rejects_negative_order():
    with pytest.raises(OrderViolationError):
        jet_module(self_module("trivial"), -1)


@pytest.mark.parametrize("k", [-1, MAX_ORDER + 1])
def test_orders_outside_the_cap_are_refused_before_any_ambient(monkeypatch, k):
    def no_ambient(*args):
        raise AssertionError("tensor ambient built for an order outside the cap")

    monkeypatch.setattr(ncjets.jets, "TensorOneSided", no_ambient)
    P = self_module("m2")
    with pytest.raises(OrderViolationError):
        jet_module(P, k)
    with pytest.raises(OrderViolationError):
        residual_witness_search(P, P, k)


@pytest.mark.parametrize("k", [True, False, 2.0, 1.5, "1", None])
def test_orders_that_are_not_integers_are_refused(k):
    P = self_module("dual_numbers")
    named = re.escape(repr(k))
    with pytest.raises(OrderViolationError, match=named):
        jet_module(P, k)
    with pytest.raises(OrderViolationError, match=named):
        residual_witness_search(P, P, k)
    with pytest.raises(DefinitionDomainError, match=named):
        diff_commutative(P, P, k)
    with pytest.raises(DefinitionDomainError, match=named):
        representability_check(P, P, k, "bar1")


def test_numpy_integer_orders_are_orders():
    P = self_module("dual_numbers")
    assert jet_module(P, np.int64(1)).mu == jet_module(P, 1).mu
    assert diff_commutative(P, P, np.int64(1)).dims == diff_commutative(P, P, 1).dims


# ---------------------------------------------------------------------------
# seeds by level spans against the deviation words


def _trunc(d):
    """K[x]/(x^d) over Q, basis 1, x, ..., x^(d-1)."""
    return Algebra(QQ, *trunc(d))


def _word_seeds(t, families):
    """Every deviation word, one family per letter, applied to every unit: no reduction."""
    rows = ncjets.jets._units(t)
    for family in families:
        rows = [row for d in family for row in d.apply_rows(rows)]
    return rows


def _word_seeded_mu(P, k):
    t = TensorOneSided(P)
    seeds = _word_seeds(t, [t.deltas] * (k + 1))
    return closure_under(t.left, Subspace.from_rows(t.field, t.dim, seeds))


def _word_seeded_two_sided_mu(P):
    t = TensorTwoSided(P)
    seeds = _word_seeds(t, [t.deltas, t.delta_bars])
    outer = t.left + t.right
    return closure_under(outer, Subspace.from_rows(t.field, t.dim, seeds))


@pytest.mark.parametrize("name", names())
def test_level_seeds_span_the_word_seeds(name):
    for P in (self_module(name), builtin(name).module("free2")):
        for k in range(3):
            jet = jet_module(P, k)
            assert jet.mu == _word_seeded_mu(P, k), (P, k)
            if P.dim == P.algebra.dim:
                assert jet.dim == jet_dim(raw_mul(P.algebra), k)
        assert two_sided_jet1(P).mu == _word_seeded_two_sided_mu(P), P


def test_level_seeds_of_trunc6_at_order_2_match_the_words_and_the_oracle():
    P = BimoduleRep.regular(_trunc(6))
    t = TensorOneSided(P)
    assert len(_word_seeds(t, [t.deltas] * 3)) == 1296
    jet = jet_module(P, 2)
    assert jet.mu == _word_seeded_mu(P, 2)
    assert (jet.mu.dim, jet.dim) == (20, 16)
    assert jet.dim == jet_dim(raw_mul(P.algebra), 2)


@pytest.mark.parametrize("d,k", [(2, 1), (3, 2), (6, 2), (8, 3)])
def test_each_seed_level_hands_at_most_the_ambient_to_elimination(monkeypatch, d, k):
    sizes = []
    real = linalg._grow

    def counting(tails, rows, field, where=None):
        rows = list(rows)
        sizes.append(len(rows))
        return real(tails, rows, field, where)

    monkeypatch.setattr(linalg, "_grow", counting)
    P = BimoduleRep.regular(_trunc(d))
    jet_module(P, k)
    assert sizes and max(sizes) <= d * d  # the ambient A tensor P
    sizes.clear()
    two_sided_jet1(P)
    assert sizes and max(sizes) <= d**3  # the ambient A tensor P tensor A


# ---------------------------------------------------------------------------
# factorization


def test_factorize_identity_is_zero_order():
    P = Q = self_module("trunc3")
    ident = Matrix.identity(QQ, 3)
    fact = factorize(P, Q, ident, 0)
    assert fact.unique
    assert fact.compose_with_jet_map() == ident
    # f(a tensor p) = a p: check against the collapse on basis tensors
    quot = fact.jet.mu.quotient()
    for i in range(3):
        for u in range(3):
            out = fact.factor.apply(quot.project([{i * 3 + u: 1}]).col(0))
            expected = P.algebra.multiply(
                unit_vector(QQ, 3, i), unit_vector(QQ, 3, u)
            )
            assert list(out) == list(expected)


def test_factorize_multiplication_operator():
    P = Q = self_module("trunc4")
    mult_x = P.algebra.left_ops[1]
    fact = factorize(P, Q, mult_x, 0)
    assert fact.compose_with_jet_map() == mult_x


def test_coefficient_extraction_is_second_order_on_dual_numbers():
    # delta(x + y eps) = y violates the stage-1 condition eps delta(eps) = 0,
    # so it must be rejected at order 1 and factor at order 2.
    P = Q = self_module("dual_numbers")
    extract = Matrix(QQ, [[0, 1], [0, 0]])
    with pytest.raises(OrderViolationError):
        factorize(P, Q, extract, 1)
    fact = factorize(P, Q, extract, 2)
    assert fact.unique
    assert fact.compose_with_jet_map() == extract


def test_projection_onto_constants_is_first_order_on_dual_numbers():
    P = Q = self_module("dual_numbers")
    proj = Matrix(QQ, [[1, 0], [0, 0]])
    fact = factorize(P, Q, proj, 1)
    assert fact.unique
    assert fact.compose_with_jet_map() == proj


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_factorize_round_trips_stage_bases(name):
    P = Q = self_module(name)
    hs = HomSpace(P, Q)
    filt = diff_commutative(P, Q, 2)
    for k in range(3):
        jet = jet_module(P, k)
        for v in filt.stages[k].basis_vectors():
            delta = hs.unvec(v)
            fact = factorize(P, Q, delta, k, jet=jet)
            assert fact.unique
            assert fact.compose_with_jet_map() == delta


def test_factorize_refuses_a_jet_of_another_order_module_or_kind():
    T = self_module("trunc3")
    ev0 = Matrix(QQ, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])  # p -> p(0), order 2 and not 1
    with pytest.raises(OrderViolationError):
        factorize(T, T, ev0, 1)
    assert factorize(T, T, ev0, 2).compose_with_jet_map() == ev0
    other = BimoduleRep.regular(T.algebra)
    for jet, mismatch in (
        (jet_module(T, 2), "one-sided order-2 jet of P"),
        (two_sided_jet1(T), "two-sided order-1 jet of P"),
        (jet_module(other, 1), "one-sided order-1 jet of another module"),
    ):
        with pytest.raises(ValueError, match=f"one-sided order-1 jet of P, got the {mismatch}"):
            factorize(T, T, ev0, 1, jet=jet)
    for k in (-1, MAX_ORDER + 1):
        with pytest.raises(OrderViolationError):
            factorize(T, T, ev0, k, jet=jet_module(T, 1))


def test_factorize_rejects_noncommutative():
    P = Q = self_module("m2")
    with pytest.raises(DefinitionDomainError):
        factorize(P, Q, Matrix.identity(QQ, 4), 1)


# ---------------------------------------------------------------------------
# representability of left jets


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_commutative_representability_self(name):
    P = Q = self_module(name)
    filt = diff_commutative(P, Q, 2)
    for k in range(3):
        report = representability_check(P, Q, k, "comm-inductive")
        assert report.verdict == VERDICT_ISO
        assert report.hom_side_dim == filt.stages[k].dim
        assert report.image_dim == report.diff_side_dim


def test_commutative_representability_free2_spot_check():
    e = builtin("dual_numbers")
    P = Q = e.module("free2")
    report = representability_check(P, Q, 1, "comm-inductive")
    assert report.verdict == VERDICT_ISO


def test_trivial_algebra_rho_is_the_identity_identification():
    P = Q = self_module("trivial")
    report = representability_check(P, Q, 1, "comm-inductive")
    assert report.verdict == VERDICT_ISO
    assert report.jet_dim == 1
    assert report.hom_side_dim == 1


def test_left_jets_fail_for_m2():
    P = Q = self_module("m2")
    report = representability_check(P, Q, 1, "left-center")
    assert report.verdict != VERDICT_ISO
    assert report.witness is not None
    assert report.diff_side_dim == 16  # stage 1 of left-center is everything
    assert report.hom_side_dim < 16


@pytest.mark.parametrize("name", ["m2", "quaternions"])
def test_bar1_representability_check_compares_the_two_sided_jet(name):
    P = Q = self_module(name)
    report = representability_check(P, Q, 1, "bar1")
    assert (report.tag, report.verdict, report.jet_dim) == ("bar1", VERDICT_ISO, 28)
    assert report == representability_bar1(P, Q)
    for k in (0, 2):
        with pytest.raises(DefinitionDomainError, match="first-order"):
            representability_check(P, Q, k, "bar1")


# ---------------------------------------------------------------------------
# two-sided first jet


@pytest.mark.parametrize("name", ["dual_numbers", "m2"])
def test_two_sided_jet_shape(name):
    P = self_module(name)
    jet = two_sided_jet1(P)
    n = P.algebra.dim
    assert jet.ambient_dim == n * P.dim * n
    assert jet.two_sided
    assert jet.dim == jet.ambient_dim - jet.mu.dim


@pytest.mark.parametrize(
    "name,kind",
    [(name, "self") for name in names()]
    + [(name, "free2") for name in names() if builtin(name).algebra.dim <= 2],
)
def test_two_sided_jet_matches_oracle(name, kind):
    jet = two_sided_jet1(builtin(name).module(kind))
    rank = 1 if kind == "self" else 2
    assert (jet.mu.dim, jet.dim) == two_sided_jet_dims(raw_mul(jet.base.algebra), rank)


@pytest.mark.parametrize(
    "label", [f"{name}/{kind}" for name in names() for kind in ("self", "free2")] + list(SEEDED)
)
def test_two_sided_mu_is_the_oracle_normal_form(label):
    # mu^1 is the span of the rows x - pi(x), the paper's s(b, p, c) over
    # basis triples: the library's echelon, the kernel of two contractions,
    # is the oracle's RREF of those rows over Q and over GF(7), the closure
    # oracle finds the same dims, and dim mu = dim P (dim A - 1)^2, on the
    # catalog and on builder algebras in a seeded basis
    P = labelled_module(label)
    n, rank = P.algebra.dim, P.dim // P.algebra.dim
    mul = raw_mul(P.algebra)
    jet = two_sided_jet1(P)
    assert jet.mu.basis.to_lists() == two_sided_mu_normal_form(mul, rank)  # ints equal Fractions
    assert (jet.mu.dim, jet.dim) == two_sided_jet_dims(mul, rank)
    assert jet.mu.dim == P.dim * (n - 1) ** 2
    mod7 = two_sided_jet1(labelled_module(label, GF(7))).mu.basis.to_lists()
    assert mod7 == two_sided_mu_normal_form(mul, rank, p=7)


@settings(max_examples=25, deadline=None)
@given(small_algebras(), st.sampled_from([QQ, GF(7)]), st.randoms(use_true_random=False))
def test_two_sided_jet_has_the_normal_form_dim_in_every_basis(algebra, field, rng):
    # the jet is A tensor P tensor 1 + 1 tensor P tensor A, of dim
    # dim P (2 dim A - 1), and a change of basis of A moves neither that
    # dim nor whether the inner left action descends
    n, moved = len(algebra[0]), signed_basis(algebra, rng)
    for make in (BimoduleRep.regular, lambda A: BimoduleRep.free(A, 2)):
        jet, jet_moved = (two_sided_jet1(make(build(a, field))) for a in (algebra, moved))
        P = jet.base
        assert jet.dim == P.dim * (2 * n - 1)
        assert jet.mu.dim == P.dim * (n - 1) ** 2
        assert (jet_moved.dim, jet_moved.bullet_well_defined) == (jet.dim, jet.bullet_well_defined)


@pytest.mark.parametrize("name", ["dual_numbers", "trunc3", "m2", "t2", "quaternions"])
def test_two_sided_first_order_representability(name):
    P = Q = self_module(name)
    report = representability_bar1(P, Q)
    assert report.verdict == VERDICT_ISO
    assert report.hom_side_dim == report.diff_side_dim
    assert report.diff_side == diff_bar1(P, Q)


def test_bar1_matches_bimodule_maps_of_the_two_sided_jet():
    P = Q = self_module("m2")
    report = representability_bar1(P, Q)
    assert diff_bar1(P, Q).dim == report.hom_side_dim
    assert hom_AA(P, Q) <= report.image


# ---------------------------------------------------------------------------
# factorization identity residuals


@pytest.mark.parametrize("name", names())
def test_residual_vanishes_at_order_zero_everywhere(name):
    P = Q = self_module(name)
    assert residual_witness_search(P, Q, 0) is None


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_residual_vanishes_over_commutative_algebras(name):
    P = Q = self_module(name)
    for k in (1, 2):
        assert residual_witness_search(P, Q, k) is None


@pytest.mark.parametrize("name", ["m2", "t2"])
def test_residual_witness_found_for_noncommutative(name):
    P = Q = self_module(name)
    w = residual_witness_search(P, Q, 1)
    assert w is not None
    assert any(x != 0 for x in w.residual)
    # deterministic: the search reports the lexicographically first witness
    w2 = residual_witness_search(P, Q, 1)
    assert w2.b_indices == w.b_indices and w2.p_index == w.p_index
    assert w2.f == w.f
    # reproduce the residual directly
    res = factorization_residual(
        P, Q, w.f, list(w.b_indices), unit_vector(QQ, P.dim, w.p_index)
    )
    assert list(res) == list(w.residual)


def test_witness_search_into_a_zero_module_finds_nothing():
    P = self_module("m2")
    A, zero = P.algebra, Matrix.zeros(P.algebra.field, 0, 0)
    Z = BimoduleRep(A, [zero] * A.dim, [zero] * A.dim, name="zero")
    assert TensorOneSided(P).left_linear_maps(Z).dim == 0
    assert residual_witness_search(P, Z, 1) is None


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_residual_matches_the_naive_oracle(field):
    """factorization_residual and the witness search against oracle_systems.naive_residual.

    Every catalog self module at k = 0 and 1: every word, every basis p and
    one fractional p, every RREF map.  Over GF(7) the oracle runs over Q on
    the residues of f and p and is reduced mod 7 after, which is exact: the
    residual is made of sums and products only.
    """
    mod = field.modulus

    def oracle(f, word, p):
        want = naive_residual(mul, f.a.tolist(), word, p.tolist())
        return [int(x) % mod for x in want] if mod else want

    for name in names():
        a = builtin(name).algebra
        mul = raw_mul(a)
        A = Algebra(field, a.basis_names, list(a.unit), a.mul.tolist(), name=a.name)
        P = BimoduleRep.regular(A)
        m, t = P.dim, TensorOneSided(P)
        maps = [
            Matrix(field, v.reshape((m, t.dim), order="F").tolist())
            for v in t.left_linear_maps(P).basis.a
        ]
        ps = [unit_vector(field, m, u) for u in range(m)]
        ps.append(vector(field, [F((-1) ** u, u + 1) for u in range(m)]))
        for k in (0, 1):
            first = None
            for word in itertools.product(range(m), repeat=k + 1):
                for u, p in enumerate(ps):
                    for f in maps:
                        got = factorization_residual(P, P, f, list(word), p)
                        want = oracle(f, word, p)
                        assert got.dtype == field.dtype and list(got) == want, (name, word, u)
                        # over Q an integral cell is an int, never a Fraction
                        assert all(type(x) is not Fraction or x.denominator != 1 for x in got)
                        if first is None and u < m and any(want):
                            first = (word, u, f, want)
            w = residual_witness_search(P, P, k)
            if first is None:
                assert w is None, (name, k)
                continue
            word, u, f, want = first
            assert (w.b_indices, w.p_index, w.f) == (word, u, f), (name, k)
            assert list(w.residual) == want == oracle(w.f, w.b_indices, ps[w.p_index])
            assert w.residual.dtype == field.dtype


def test_residual_is_multilinear_in_the_b_arguments():
    P = Q = self_module("m2")
    w = residual_witness_search(P, Q, 1)
    b0, b1 = w.b_indices
    p = unit_vector(QQ, 4, w.p_index)
    by_index = factorization_residual(P, Q, w.f, [b0, b1], p)
    by_element = factorization_residual(
        P, Q, w.f, [unit_vector(QQ, 4, b0), unit_vector(QQ, 4, b1)], p
    )
    assert list(by_index) == list(by_element)
    doubled = factorization_residual(
        P, Q, w.f, [unit_vector(QQ, 4, b0) * 2, unit_vector(QQ, 4, b1)], p
    )
    assert list(doubled) == [2 * x for x in by_index]


def test_residual_is_linear_in_p_and_refuses_a_p_of_the_wrong_length():
    P = Q = self_module("m2")  # the unit e00 + e11 has two nonzeros
    w = residual_witness_search(P, Q, 1)
    b = list(w.b_indices)
    parts = [factorization_residual(P, Q, w.f, b, unit_vector(QQ, 4, u)) for u in range(4)]
    p = vector(QQ, [1, F(-1, 2), 3, 0])
    got = factorization_residual(P, Q, w.f, b, p)
    assert list(got) == [sum(c * r[q] for c, r in zip(p, parts)) for q in range(4)]
    for bad in ([1, 0, 0], [0] * 5):
        with pytest.raises(DimensionMismatch, match="length 4"):
            factorization_residual(P, Q, w.f, b, bad)


def test_residual_takes_numpy_int_indices_and_refuses_bool_and_out_of_range():
    P = Q = self_module("m2")
    w = residual_witness_search(P, Q, 1)
    b0, b1 = w.b_indices
    p = unit_vector(QQ, 4, w.p_index)
    by_index = factorization_residual(P, Q, w.f, [b0, b1], p)
    by_numpy = factorization_residual(P, Q, w.f, [np.int64(b0), np.intp(b1)], p)
    assert list(by_numpy) == list(by_index)
    for bad in (True, False, np.True_, 4, -1, np.int64(4), np.int64(-1)):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            factorization_residual(P, Q, w.f, [b0, bad], p)


def test_residual_into_the_zero_module_is_the_empty_vector():
    P = self_module("m2")
    zero = BimoduleRep(P.algebra, [Matrix(QQ, [])] * 4, [Matrix(QQ, [])] * 4, name="zero")
    res = factorization_residual(P, zero, Matrix.zeros(QQ, 0, 16), [0, 1], unit_vector(QQ, 4, 0))
    assert res.shape == (0,)


def test_residual_rejects_non_left_linear_maps():
    P = Q = self_module("m2")
    bad = Matrix.zeros(QQ, 4, 16)
    a = bad.a.copy()
    a.flags.writeable = True
    a[0, 1] = 1  # not equivariant
    bad = Matrix._raw(QQ, a)
    with pytest.raises(NotLeftLinearError):
        factorization_residual(P, Q, bad, [0, 0], unit_vector(QQ, 4, 0))


@pytest.mark.parametrize("name", names())
def test_direct_sum_doubles_first_jet_dims(name):
    # the jet of P + P is the direct sum of two jets of P, one- and two-sided
    e = builtin(name)
    small, big = e.module("self"), e.module("free2")
    assert jet_module(big, 1).dim == 2 * jet_module(small, 1).dim
    assert two_sided_jet1(big).dim == 2 * two_sided_jet1(small).dim


# ---------------------------------------------------------------------------
# metamorphic: over A^op the two-sided jet is the same jet with its legs reversed


def _opposite_jet_cases():
    cases = [(name, kind) for name in names() for kind in ("self", "free2")]
    return cases + [("t2", "column")]


def _legs_reversed(mu: Subspace, n: int, m: int) -> Subspace:
    """mu read in A tensor P tensor A with (i, u, j) -> (j, u, i)."""
    rows = [
        {(c % n * m + c // n % m) * n + c // (m * n): x for c, x in row.items()} for row in mu.rows
    ]
    return Subspace.from_rows(mu.field, mu.ambient_dim, rows)


@pytest.mark.parametrize("name,kind", _opposite_jet_cases())
def test_opposite_algebra_reverses_the_two_sided_jet(name, kind):
    P = t2_column() if kind == "column" else builtin(name).module(kind)
    # P over A^op with its actions swapped: the left ambient leg becomes the right one
    P_op = BimoduleRep(opposite(P.algebra), P.right, P.left)
    jet, jet_op = two_sided_jet1(P), two_sided_jet1(P_op)
    assert _legs_reversed(jet_op.mu, P.algebra.dim, P.dim) == jet.mu
    assert jet_op.dim == jet.dim
    report, report_op = representability_bar1(P, P), representability_bar1(P_op, P_op)
    sides = ("verdict", "hom_side_dim", "diff_side_dim")
    assert [getattr(report_op, s) for s in sides] == [getattr(report, s) for s in sides]


# ---------------------------------------------------------------------------
# the actions on a jet, induced from the ambient on request


def _induced_cases():
    cases = [(name, kind) for name in names() for kind in ("self", "free2")]
    return cases + [("t2", "column")]


def _combination(ops, coeffs, zero):
    """sum_k coeffs[k] ops[k], starting from the zero matrix."""
    out = zero
    for c, op in zip(coeffs, ops):
        out = out + op.scale(c)
    return out


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("name,kind", _induced_cases())
def test_induced_actions_are_the_module_structure_of_the_jet(field, name, kind):
    # left: L_i L_j = sum_k mul[i, j, k] L_k, and the unit acts as the identity;
    # right: R_j R_i = sum_k mul[i, j, k] R_k, commuting with every L;
    # bullet, where it descends: B_b . J = J . P.left[b]
    P = module_over(field, t2_column() if kind == "column" else builtin(name).module(kind))
    A = P.algebra
    for jet in [jet_module(P, k) for k in range(3)] + [two_sided_jet1(P)]:
        zero, ident = Matrix.zeros(field, jet.dim, jet.dim), Matrix.identity(field, jet.dim)
        families = [[m.dense for m in jet.induced(jet.ambient.left)]]
        if jet.two_sided:
            families.append([m.dense for m in jet.induced(jet.ambient.right)])
        for side, ops in enumerate(families):
            assert _combination(ops, A.unit, zero) == ident
            for i, j in itertools.product(range(A.dim), repeat=2):
                lhs = ops[j] @ ops[i] if side else ops[i] @ ops[j]
                assert lhs == _combination(ops, A.mul[i, j], zero)
        if jet.two_sided:
            lefts, rights = families
            for L, R in itertools.product(lefts, rights):
                assert L @ R == R @ L
        if jet.bullet_well_defined:
            for B, Pb in zip(jet.induced(jet.ambient.bullet_left), P.left):
                assert B.dense @ jet.jet_map == jet.jet_map @ Pb


def _recording_induced(monkeypatch) -> tuple[list, list]:
    """Record the induced actions each generation closure drives, and every one densified."""
    closures, densified = [], []
    closure, dense = ncjets.jets.closure_under, linalg.InducedOperator.dense

    def recorded_closure(operators, seed):
        induced = [op for op in operators if isinstance(op, linalg.InducedOperator)]
        if induced:
            closures.append(induced)
        return closure(operators, seed)

    def recorded_dense(self):
        densified.append(self)
        return dense.func(self)

    monkeypatch.setattr(ncjets.jets, "closure_under", recorded_closure)
    monkeypatch.setattr(linalg.InducedOperator, "dense", property(recorded_dense))
    return closures, densified


@pytest.mark.parametrize("n", [2, 3])
def test_a_jet_induces_only_its_outer_generator_members(monkeypatch, n):
    # M_n is generated by its 2n - 1 units e_1j and e_j1, so the generation
    # closure drives 2n - 1 induced actions per outer side, all on sparse
    # rows: building a jet densifies none of them
    P = BimoduleRep.regular(build(full_matrices(n)))
    gens = len(P.algebra.generators)
    assert gens == 2 * n - 1
    closures, densified = _recording_induced(monkeypatch)
    for build_jet, sides in [
        (lambda: jet_module(P, 1), 1),
        (lambda: two_sided_jet1(P), 2),
        (lambda: representability_check(P, P, 1, "left-center"), 1),
        (lambda: representability_bar1(P, P), 2),
    ]:
        closures.clear()
        build_jet()
        assert [len(ops) for ops in closures] == [sides * gens]
        assert densified == []


@pytest.mark.parametrize("name", ["dual_numbers", "m2", "t2"])
@pytest.mark.parametrize("two_sided", [False, True])
def test_the_jet_report_induces_the_printed_actions_only(monkeypatch, capsys, name, two_sided):
    # the generation check's generator members stay lazy; each printed action is densified once
    P = self_module(name)
    jet = two_sided_jet1(P) if two_sided else jet_module(P, 1)
    n, gens = P.algebra.dim, len(P.algebra.generators)
    printed = n * (1 + two_sided + jet.bullet_well_defined)
    closures, densified = _recording_induced(monkeypatch)
    argv = ["jet", "-a", name, "-p", "self", "--order", "1", "--json"]
    assert ncjets.cli.run(argv + ["--two-sided"] * two_sided) == 0
    capsys.readouterr()
    assert [len(ops) for ops in closures] == [gens * (1 + two_sided)]
    assert len(densified) == len(set(map(id, densified))) == printed


@pytest.mark.parametrize("tag", ["comm-inductive", "nosuch"])
def test_a_tag_that_cannot_apply_is_refused_before_the_jet_is_built(monkeypatch, tag):
    def no_jet(*args):
        raise AssertionError("jet built for a tag that cannot apply")

    monkeypatch.setattr(ncjets.jets, "jet_module", no_jet)
    P = self_module("m2")
    with pytest.raises(DefinitionDomainError):
        representability_check(P, P, 1, tag)
