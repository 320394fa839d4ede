import re
from fractions import Fraction

import numpy as np
import pytest

import ncjets.jets
from ncjets import linalg
from ncjets.algebra import Algebra
from ncjets.catalog import COMMUTATIVE_NAMES, builtin, names
from ncjets.diffop import (
    MAX_ORDER,
    DefinitionDomainError,
    diff_bar1,
    diff_commutative,
    stage_by_tag,
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
from ncjets.linalg import QQ, DimensionMismatch, Matrix, Subspace, closure_under, unit_vector, vector
from ncjets.modules import BimoduleRep, HomSpace, TensorOneSided, TensorTwoSided, hom_AA

from algebra_builders import opposite, t2_column, trunc
from oracle_systems import jet_dim, two_sided_jet_dims

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
    # Both seeds are already closed, so the stub changes the relations
    # nothing; it makes the generation check's own closure a no-op, and the
    # bare jet-map image (dim 2 of 3 for the dual numbers, 4 of 28 for the
    # two-sided jet of M2) does not fill the quotient.
    monkeypatch.setattr(ncjets.jets, "closure_under", lambda ops, seed: seed)
    with pytest.raises(InvariantViolation, match="generate"):
        jet_module(self_module("dual_numbers"), 1)
    with pytest.raises(InvariantViolation, match="generate"):
        two_sided_jet1(self_module("m2"))


def test_non_invariant_relations_raise_invariant_violation(monkeypatch):
    # a "closure" returning span{1 tensor 1}, which eps tensor - moves
    def broken(ops, seed):
        return Subspace.from_spanning(seed.field, seed.ambient_dim, [unit_vector(QQ, 4, 0)])

    monkeypatch.setattr(ncjets.jets, "closure_under", broken)
    with pytest.raises(InvariantViolation, match="outer actions"):
        jet_module(self_module("dual_numbers"), 1)


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
        stage_by_tag(P, P, k, "bar1")


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

    def counting(tails, rows, field):
        rows = list(rows)
        sizes.append(len(rows))
        return real(tails, rows, field)

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
    for i in range(3):
        for u in range(3):
            tensor_vec = np.zeros(9, dtype=object)
            tensor_vec[i * 3 + u] = 1
            out = fact.factor.apply(fact.jet.projection.apply(tensor_vec))
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
