import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncjets import algebra as algebra_module
from ncjets.algebra import Algebra, AlgebraValidationError
from ncjets.catalog import builtin, names
from ncjets import linalg
from ncjets.jets import _units
from ncjets.linalg import GF, QQ, DimensionMismatch, Matrix, unit_vector, vector
from ncjets.modules import (
    BimoduleRep,
    BimoduleValidationError,
    CentralityRequired,
    HomSpace,
    LegAction,
    TensorOneSided,
    TensorTwoSided,
    generator_preimage,
    hom_A,
    hom_AA,
    require_central,
)

from algebra_builders import (
    FACTORS,
    SEEDED,
    exterior,
    full_matrices,
    group_algebra_s3,
    leg_action_matrix,
    module_over,
    product,
    signed_basis,
    t2_column,
    trunc,
    upper_triangular,
)
from naive_gauss import naive_nullity
from oracle_systems import (
    free_left_ops,
    free_right_ops,
    hom_A_dim,
    hom_AA_dim,
    hom_left_linear,
    hom_left_linear_conditions,
    tensor_outer_ops,
)

F = Fraction


def entry(name):
    return builtin(name)


def raw_mul(algebra):
    n = algebra.dim
    return [[[algebra.mul[i, j, k] for k in range(n)] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# bimodule validation


@pytest.mark.parametrize("name", names())
def test_regular_and_free_bimodules_validate(name):
    e = entry(name)
    assert e.module("self").dim == e.algebra.dim
    assert e.module("free2").dim == 2 * e.algebra.dim
    assert e.module("self").central and e.module("free2").central


def _table(algebra):
    return list(algebra.basis_names), list(algebra.unit), raw_mul(algebra)


# every catalog algebra and every SEEDED builder algebra, as (basis names, unit, table)
_TABLES = {**{name: _table(builtin(name).algebra) for name in names()}, **SEEDED}


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2**31 - 1)], ids=["Q", "GF7", "GF31"])
@pytest.mark.parametrize("label", list(_TABLES))
def test_regular_and_free_are_what_validation_builds(field, label):
    """regular and free skip validation by proof; the validating constructor agrees.

    Each algebra is written in a basis signed and permuted from its label,
    and each module is rebuilt from its actions by the constructor, which
    validates them and their centrality: it must accept them and build
    the same module, cell for cell.
    """
    names_, unit, table = signed_basis(_TABLES[label], random.Random(label))
    A = Algebra(field, names_, unit, table, name=label)
    built = [BimoduleRep.regular(A)] + [BimoduleRep.free(A, rank) for rank in (1, 2, 3)]
    for P, dim in zip(built, (1, 1, 2, 3)):
        assert P.dim == dim * A.dim and P.central and P.algebra is A
        assert P._centrality_witness() is None
        V = BimoduleRep(A, P.left, P.right, name=P.name)
        assert (V.dim, V.name, V.central) == (P.dim, P.name, P.central)
        assert V.left == P.left and V.right == P.right
        for mine, checked in ((P.left_stack, V.left_stack), (P.right_stack, V.right_stack)):
            assert mine.shape == checked.shape and mine.dtype == checked.dtype
            assert np.array_equal(mine, checked)
            assert [type(x) for x in mine.flat] == [type(x) for x in checked.flat]
            assert not mine.flags.writeable


def test_regular_and_free_run_no_check(monkeypatch):
    a = entry("m2").algebra
    A = Algebra(QQ, a.basis_names, list(a.unit), raw_mul(a))  # a fresh one: no center yet

    def refuse(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(BimoduleRep, "_validate", refuse)
    monkeypatch.setattr(BimoduleRep, "_centrality_witness", refuse)
    monkeypatch.setattr(type(QQ), "dot", refuse)  # every product of a check
    P, free2 = BimoduleRep.regular(A), BimoduleRep.free(A, 2)
    assert (P.dim, free2.dim, P.central, free2.central) == (4, 8, True, True)
    assert "center" not in vars(A)
    with pytest.raises(AssertionError, match="a check ran"):
        BimoduleRep(A, P.left, P.right)  # actions from outside are still checked


def test_m2_with_left_matrices_on_the_right_fails():
    a = entry("m2").algebra
    with pytest.raises(BimoduleValidationError) as exc:
        BimoduleRep(a, a.left_ops, a.left_ops)
    assert exc.value.axiom == "right-associativity"
    assert exc.value.witness is not None


def test_noncentral_bimodule_flagged_and_rejected():
    a = entry("dual_numbers").algebra
    # right action sends eps to zero: a legal anti-action, but eps is central
    right = [Matrix.identity(QQ, 2), Matrix.zeros(QQ, 2, 2)]
    with pytest.raises(BimoduleValidationError) as exc:
        BimoduleRep(a, a.left_ops, right)
    assert exc.value.axiom == "centrality"
    loose = BimoduleRep(a, a.left_ops, right, check_central=False)
    assert not loose.central
    with pytest.raises(CentralityRequired):
        require_central(loose)


def _catalog_over(field, name):
    a = entry(name).algebra
    return Algebra(field, a.basis_names, list(a.unit), a.mul.tolist(), name=a.name)


def _witness_of(error, build):
    with pytest.raises(error) as exc:
        build()
    return exc.value.axiom, exc.value.witness


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_validation_witnesses_are_the_first_failures_in_loop_order(field):
    m2, quat, dual = (_catalog_over(field, n) for n in ("m2", "quaternions", "dual_numbers"))
    table = m2.mul.tolist()
    table[1][2] = [0, 0, 0, 0]  # kill e12 * e21
    axiom, witness = _witness_of(
        AlgebraValidationError, lambda: Algebra(field, m2.basis_names, list(m2.unit), table)
    )
    assert (axiom, witness) == ("associativity", (1, 2, 1))
    assert all(type(x) is int for x in witness)
    axiom, witness = _witness_of(
        AlgebraValidationError, lambda: Algebra(field, dual.basis_names, [0, 1], dual.mul.tolist())
    )
    assert (axiom, witness) == ("unit", 0) and type(witness) is int
    for algebra, first in ((m2, (0, 1)), (quat, (1, 2))):
        axiom, witness = _witness_of(
            BimoduleValidationError, lambda: BimoduleRep(algebra, algebra.left_ops, algebra.left_ops)
        )
        assert (axiom, witness) == ("right-associativity", first)
        assert all(type(x) is int for x in witness)
    right = [Matrix.identity(field, 2), Matrix.zeros(field, 2, 2)]
    axiom, witness = _witness_of(BimoduleValidationError, lambda: BimoduleRep(dual, dual.left_ops, right))
    assert axiom == "centrality" and list(witness) == [0, 1]
    # p . a = p sigma(a), sigma swapping the two idempotents: both central basis vectors fail
    prod = _catalog_over(field, "product_QQ")
    twisted = prod.right_ops[::-1]
    axiom, witness = _witness_of(BimoduleValidationError, lambda: BimoduleRep(prod, prod.left_ops, twisted))
    assert axiom == "centrality" and list(witness) == [1, 0]


def _over_p(p):
    """Reduction mod p of a list (p = 0 is Q), and a table entry as a Python scalar."""
    return (lambda xs: [x % p for x in xs]) if p else list, (int if p else (lambda x: x))


def _naive_module_failure(mul, left, right, unit, p):
    """Per-pair loops on Python lists: (axiom, witness) of the first failing axiom, or None."""
    n, d = len(mul), len(left[0])
    red = _over_p(p)[0]

    def mm(a, b):
        return [red([sum(a[r][t] * b[t][c] for t in range(d)) for c in range(d)]) for r in range(d)]

    def combo(mats, coeffs):
        return [red([sum(c * m[r][s] for c, m in zip(coeffs, mats)) for s in range(d)]) for r in range(d)]

    for i in range(n):
        for j in range(n):
            if mm(left[i], left[j]) != combo(left, mul[i][j]):
                return "left-associativity", (i, j)
            if mm(right[i], right[j]) != combo(right, mul[j][i]):
                return "right-associativity", (i, j)
            if mm(left[i], right[j]) != mm(right[j], left[i]):
                return "action-commutation", (i, j)
    ident = [[int(r == s) for s in range(d)] for r in range(d)]
    for side, mats in (("left", left), ("right", right)):
        if combo(mats, unit) != ident:
            return "unit", side
    return None


def _naive_algebra_failure(mul, unit, p):
    """The first (e_i e_j) e_k != e_i (e_j e_k) scanning i, k, j; then the unit, left first."""
    n, red = len(mul), _over_p(p)[0]
    for i in range(n):
        for k in range(n):
            for j in range(n):
                lhs = [sum(mul[i][j][m] * mul[m][k][o] for m in range(n)) for o in range(n)]
                rhs = [sum(mul[j][k][m] * mul[i][m][o] for m in range(n)) for o in range(n)]
                if red(lhs) != red(rhs):
                    return "associativity", (i, j, k)
    for on_left in (True, False):
        for i in range(n):
            prods = [mul[m][i] if on_left else mul[i][m] for m in range(n)]
            acted = [sum(c * v[o] for c, v in zip(unit, prods)) for o in range(n)]
            if red(acted) != [int(o == i) for o in range(n)]:
                return "unit", i
    return None


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["dual_numbers", "trunc3", "product_QQ", "t2", "m2", "quaternions"]),
    p=st.sampled_from([0, 5]),
    free=st.booleans(),
    edits=st.lists(st.tuples(st.booleans(), st.integers(0, 63), st.integers(-2, 2)), max_size=3),
)
def test_module_witness_is_the_first_failure_of_the_per_pair_loops(name, p, free, edits):
    field, scalar = GF(p) if p else QQ, _over_p(p)[1]
    a = _catalog_over(field, name)
    P = BimoduleRep.free(a, 2) if free else BimoduleRep.regular(a)
    left, right = ([m.to_lists() for m in fam] for fam in (P.left, P.right))
    for on_left, cell, value in edits:
        m = (left if on_left else right)[cell % a.dim]
        m[cell // a.dim % P.dim][cell % P.dim] = value % p if p else value
    mul = [[[scalar(x) for x in a.mul[i, j]] for j in range(a.dim)] for i in range(a.dim)]
    want = _naive_module_failure(mul, left, right, [scalar(x) for x in a.unit], p)

    def build():
        fams = ([Matrix(field, m) for m in fam] for fam in (left, right))
        return BimoduleRep(a, *fams, check_central=False)

    if want is None:
        build()
    else:
        assert _witness_of(BimoduleValidationError, build) == want


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["dual_numbers", "trunc3", "t2", "m2", "quaternions"]),
    p=st.sampled_from([0, 5]),
    edits=st.lists(st.tuples(st.integers(0, 63), st.integers(-2, 2)), max_size=3),
    unit_edit=st.none() | st.tuples(st.integers(0, 3), st.integers(-1, 2)),
)
def test_algebra_witness_is_the_first_failure_of_the_per_triple_loops(name, p, edits, unit_edit):
    field, scalar = GF(p) if p else QQ, _over_p(p)[1]
    a = _catalog_over(field, name)
    n = a.dim
    mul = [[[scalar(x) for x in a.mul[i, j]] for j in range(n)] for i in range(n)]
    unit = [scalar(x) for x in a.unit]
    for cell, value in edits:
        mul[cell // (n * n) % n][cell // n % n][cell % n] = value % p if p else value
    if unit_edit is not None:
        unit[unit_edit[0] % n] = unit_edit[1] % p if p else unit_edit[1]
    want = _naive_algebra_failure(mul, unit, p)
    build = lambda: Algebra(field, a.basis_names, unit, mul)  # noqa: E731
    if want is None:
        build()
    else:
        assert _witness_of(AlgebraValidationError, build) == want


# ---------------------------------------------------------------------------
# validation as a left action: the axioms at the generators, the full scan only
# on a failure (an algebra's associativity is its left regular action's axiom)

LIGHT_ALGEBRAS = {  # each has fewer generators than basis elements
    "trunc5": trunc(5),
    "m3": full_matrices(3),
    "t3": upper_triangular(3),
    "qs3": group_algebra_s3(),
    "ext2": exterior(2),
}
BUILDER_ALGEBRAS = [
    *FACTORS,
    *(product(a, b) for a, b in itertools.product(FACTORS, repeat=2) if len(a[0]) + len(b[0]) <= 4),
    *LIGHT_ALGEBRAS.values(),
]


def _reduced(table, p):
    return [[[x % p if p else x for x in v] for v in row] for row in table]


def _edit_cells(rng, p, *stacks):
    """Set one or two cells, drawn uniformly from the stacks, to values in [-2, 2] (mod p)."""
    for _ in range(rng.choice((1, 2))):
        stack = rng.choice(stacks)
        n, d = len(stack), len(stack[0])
        value = rng.randint(-2, 2)
        stack[rng.randrange(n)][rng.randrange(d)][rng.randrange(d)] = value % p if p else value


def _outcome_and_scan(cls, error, build):
    """(axiom, witness) of the error build raises, or None, and whether the full scan ran."""
    calls, scan = [], cls._raise_first_failure

    def spy(self):
        calls.append(self)
        scan(self)

    with mock.patch.object(cls, "_raise_first_failure", spy):
        try:
            build()
        except error as exc:
            return (exc.axiom, exc.witness), bool(calls)
    return None, bool(calls)


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(LIGHT_ALGEBRAS)),
    p=st.sampled_from([0, 7, 2**31 - 1]),
    rng=st.randoms(use_true_random=False),
)
def test_light_check_rejects_exactly_the_algebra_tables_the_oracle_rejects(name, p, rng):
    names_, unit, table = LIGHT_ALGEBRAS[name]
    field = GF(p) if p else QQ
    assert len(Algebra(field, names_, unit, table).generators) < len(names_)
    mul = _reduced(table, p)
    _edit_cells(rng, p, mul)
    want = _naive_algebra_failure(mul, unit, p)
    build = lambda: Algebra(field, names_, unit, mul)  # noqa: E731
    assert _outcome_and_scan(Algebra, AlgebraValidationError, build) == (want, want is not None)


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(LIGHT_ALGEBRAS)),
    p=st.sampled_from([0, 7, 2**31 - 1]),
    rng=st.randoms(use_true_random=False),
)
def test_light_check_rejects_exactly_the_action_stacks_the_oracle_rejects(name, p, rng):
    names_, unit, table = LIGHT_ALGEBRAS[name]
    field = GF(p) if p else QQ
    a = Algebra(field, names_, unit, table)
    left, right = ([m.to_lists() for m in fam] for fam in (a.left_ops, a.right_ops))
    _edit_cells(rng, p, left, right)
    want = _naive_module_failure(_reduced(table, p), left, right, unit, p)

    def build():
        fams = ([Matrix(field, m) for m in fam] for fam in (left, right))
        return BimoduleRep(a, *fams, check_central=False)

    got = _outcome_and_scan(BimoduleRep, BimoduleValidationError, build)
    assert got == (want, want is not None)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("scalars", [(1, 2), (2, 1), (0, 1), (1, 0), (3, 5)])
def test_light_check_over_the_trivial_algebra_rejects_disagreeing_scalars(field, scalars):
    K = Algebra(field, ["1"], [1], [[[1]]])
    assert K.generators == ()
    left, right = ([[s]] for s in scalars)
    want = _naive_module_failure([[[1]]], [left], [right], [1], field.modulus)
    assert want is not None

    def build():
        return BimoduleRep(K, [Matrix(field, left)], [Matrix(field, right)], check_central=False)

    assert _outcome_and_scan(BimoduleRep, BimoduleValidationError, build) == (want, True)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_valid_algebras_and_modules_never_reach_the_full_scan(field, monkeypatch):
    def refuse(self):
        raise RuntimeError(f"the full scan ran on a valid {self!r}")

    monkeypatch.setattr(Algebra, "_raise_first_failure", refuse)
    monkeypatch.setattr(BimoduleRep, "_raise_first_failure", refuse)
    for names_, unit, table in BUILDER_ALGEBRAS:
        a = Algebra(field, names_, unit, table)
        assert BimoduleRep.regular(a).dim == a.dim
        assert BimoduleRep.free(a, 2).dim == 2 * a.dim


def test_tampered_m4_names_its_associativity_witness_through_the_sliced_scan(monkeypatch):
    names_, unit, table = full_matrices(4)
    n = len(names_)
    table[names_.index("m01")][names_.index("m10")] = [0] * n  # kill e01 e10 = e00
    want = _naive_algebra_failure(table, unit, 0)
    sizes, combine, scan = [], algebra_module._combine, Algebra._raise_first_failure

    def scan_noting_sizes(self):  # the size of each product the scan forms
        def noting(*args):
            out = combine(*args)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(algebra_module, "_combine", noting)
        scan(self)

    monkeypatch.setattr(Algebra, "_raise_first_failure", scan_noting_sizes)
    build = lambda: Algebra(QQ, names_, unit, table)  # noqa: E731
    assert _outcome_and_scan(Algebra, AlgebraValidationError, build) == (want, True)
    assert want == ("associativity", (1, 4, 1))  # (e01 e10) e01 = 0, e01 (e10 e01) = e01
    assert sizes and max(sizes) <= n**3  # one slice at a time, never (n, n, n, n)


def test_wrong_length_coordinates_raise_dimension_mismatch():
    a = entry("dual_numbers").algebra
    P = BimoduleRep.regular(a)
    hs, one, two = HomSpace(P, P), TensorOneSided(P), TensorTwoSided(P)
    calls = [
        lambda c: a.multiply(c, [0, 1]),
        lambda c: a.multiply([0, 1], c),
        a.left_mult_matrix,
        a.right_mult_matrix,
        hs.delta,
        hs.delta_bar,
        one.delta,
        two.delta,
        two.delta_bar,
    ]
    for call in calls:
        for coords in ([1, 0, 5], [1], np.array([0, 1, 0], dtype=object)):
            with pytest.raises(DimensionMismatch):
                call(coords)
        call(iter([1, 0]))  # the right length, read once


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("name", names())
def test_free_actions_match_the_kron_oracle(field, name):
    a = builtin(name).algebra
    mul = raw_mul(a)
    algebra = Algebra(field, a.basis_names, list(a.unit), mul, name=a.name)
    for rank in (1, 2, 3):
        P = BimoduleRep.free(algebra, rank)
        assert P.dim == rank * a.dim and P.name == f"free{rank}"
        assert list(P.left) == [Matrix(field, m) for m in free_left_ops(mul, rank)]
        assert list(P.right) == [Matrix(field, m) for m in free_right_ops(mul, rank)]
        assert all(m.a.dtype == field.dtype for m in P.left + P.right)


def test_unvec_refuses_a_vector_of_the_wrong_length():
    P = entry("dual_numbers").module("self")
    hs = HomSpace(P, P)
    assert hs.unvec(hs.vec(P.left[1])) == P.left[1]
    for v in ([1, 0, 0], [0] * 5, np.zeros((2, 2), dtype=object)):
        with pytest.raises(DimensionMismatch, match=r"length 4, got shape \("):
            hs.unvec(v)


# ---------------------------------------------------------------------------
# hom space structure


def test_delta_of_unit_vanishes():
    for name in ("dual_numbers", "m2"):
        e = entry(name)
        hs = HomSpace(e.module("self"), e.module("self"))
        assert leg_action_matrix(hs.delta(e.algebra.unit)).is_zero()
        assert leg_action_matrix(hs.delta_bar(e.algebra.unit)).is_zero()


def test_linear_map_killed_by_delta_over_commutative_algebra():
    e = entry("dual_numbers")
    a = e.algebra
    hs = HomSpace(e.module("self"), e.module("self"))
    phi = a.left_ops[1]  # multiplication by eps is A-linear
    v = hs.vec(phi)
    for d in hs.deltas:
        assert all(x == 0 for x in leg_action_matrix(d).apply(v))


def test_m2_transpose_delta_value():
    e = entry("m2")
    hs = HomSpace(e.module("self"), e.module("self"))
    # transpose swaps e12 and e21 in coordinates
    transpose = Matrix(QQ, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    d = hs.delta(vector(QQ, [0, 1, 0, 0]))  # a = e12
    moved = hs.unvec(leg_action_matrix(d).apply(hs.vec(transpose)))
    out = moved.apply(unit_vector(QQ, 4, 2))  # evaluate at e21
    assert out.tolist() == [-1, 0, 0, 0]  # -e11


def test_delta_delta_bar_commute_on_all_catalog_hom_spaces():
    for name in names():
        e = entry(name)
        hs = HomSpace(e.module("self"), e.module("self"))
        for da in map(leg_action_matrix, hs.deltas):
            for db in map(leg_action_matrix, hs.delta_bars):
                assert da @ db == db @ da


def test_four_structures_are_module_actions():
    e = entry("t2")
    a = e.algebra
    hs = HomSpace(e.module("self"), e.module("self"))
    left = [leg_action_matrix(op) for op in hs.left]
    bullet_left = [leg_action_matrix(op) for op in hs.bullet_left]
    for i in range(a.dim):
        for j in range(a.dim):
            prod = a.mul[i, j]
            left_ij = left[i] @ left[j]
            assert left_ij == _combo(left, prod)
            # bullet-left is contravariant: (phi . a) . b = phi . (a b)
            bl = bullet_left[j] @ bullet_left[i]
            assert bl == _combo(bullet_left, prod)


def _combo(mats, coeffs):
    out = mats[0].scale(coeffs[0])
    for k in range(1, len(mats)):
        out = out + mats[k].scale(coeffs[k])
    return out


# ---------------------------------------------------------------------------
# hom_A / hom_AA


def test_hom_A_m2_is_right_multiplications():
    e = entry("m2")
    sub = hom_A(e.module("self"), e.module("self"))
    assert sub.dim == 4
    assert sub.dim == hom_A_dim(raw_mul(e.algebra))
    hs = HomSpace(e.module("self"), e.module("self"))
    for r in e.algebra.right_ops:
        assert sub.contains(hs.vec(r))


def test_hom_A_commutative_equals_dim():
    for name in ("dual_numbers", "trunc3", "product_QQ"):
        e = entry(name)
        assert hom_A(e.module("self"), e.module("self")).dim == e.algebra.dim


def test_hom_AA_m2_is_scalars():
    e = entry("m2")
    sub = hom_AA(e.module("self"), e.module("self"))
    assert sub.dim == 1
    assert sub.dim == hom_AA_dim(raw_mul(e.algebra))
    hs = HomSpace(e.module("self"), e.module("self"))
    assert sub.contains(hs.vec(Matrix.identity(QQ, 4)))


_FIELDS = [QQ, GF(7), GF(2**31 - 1)]
_FIELD_IDS = ["Q", "GF7", "GF31"]


def _free_sources(A):
    """A^1, A^2 and A^3: regular and free, each marked free."""
    return [BimoduleRep.regular(A), BimoduleRep.free(A, 2), BimoduleRep.free(A, 3)]


def _assert_lift_is_the_joint_kernels(hs):
    assert hs.source.free_rank is not None
    assert hs.linear_maps("left") == generator_preimage(hs, hs.deltas)
    assert hs.linear_maps("right") == generator_preimage(hs, hs.delta_bars)


@pytest.mark.parametrize("field", _FIELDS, ids=_FIELD_IDS)
@pytest.mark.parametrize("label", list(_TABLES))
def test_linear_maps_of_a_free_source_are_the_joint_kernels(field, label):
    # the free lift against the general route, from A^1-A^3 to self and free2,
    # each algebra in a basis signed and permuted from its label
    names_, unit, table = signed_basis(_TABLES[label], random.Random(label))
    A = Algebra(field, names_, unit, table, name=label)
    targets = [BimoduleRep.regular(A), BimoduleRep.free(A, 2)]
    for P in _free_sources(A):
        assert P.free_rank == P.dim // A.dim
        for Q in targets:
            _assert_lift_is_the_joint_kernels(HomSpace(P, Q))


@pytest.mark.parametrize("field", _FIELDS, ids=_FIELD_IDS)
def test_linear_maps_into_the_t2_column_are_the_joint_kernels(field):
    # a target that is not free, with different left and right actions
    Q = t2_column() if field == QQ else module_over(field, t2_column())
    for P in _free_sources(Q.algebra):
        _assert_lift_is_the_joint_kernels(HomSpace(P, Q))


@pytest.mark.parametrize("label", list(_TABLES))
def test_hom_A_and_hom_AA_match_the_oracle_from_free_and_unmarked_sources(label):
    names_, unit, table = signed_basis(_TABLES[label], random.Random(label))
    A = Algebra(QQ, names_, unit, table, name=label)
    R = BimoduleRep.regular(A)
    U = BimoduleRep(A, R.left, R.right)  # the constructor's module: no free mark
    assert (R.free_rank, U.free_rank) == (1, None)
    mul = raw_mul(A)
    assert hom_A(R, R).dim == hom_A_dim(mul) and hom_AA(R, R).dim == hom_AA_dim(mul)
    assert hom_A(U, U) == hom_A(R, R) and hom_AA(U, U) == hom_AA(R, R)


@pytest.mark.parametrize("side", ["Left", "up"])
def test_linear_maps_refuse_a_side_that_is_neither_left_nor_right(side):
    A = entry("t2").algebra
    R = BimoduleRep.regular(A)
    U = BimoduleRep(A, A.left_ops, A.right_ops)  # the constructor's module: no free mark
    for P in (R, U):
        hs = HomSpace(P, R)
        with pytest.raises(ValueError, match=f"got {side!r}"):
            hs.linear_maps(side)
        assert hs.linear_maps("left") != hs.linear_maps("right")


# ---------------------------------------------------------------------------
# tensor ambients


def test_tensor_one_sided_dims_and_unit_delta():
    for name in ("dual_numbers", "m2"):
        e = entry(name)
        t = TensorOneSided(e.module("free2"))
        assert t.dim == e.algebra.dim * 2 * e.algebra.dim
        assert leg_action_matrix(t.delta(e.algebra.unit)).is_zero()


def test_dual_numbers_double_delta_generator():
    e = entry("dual_numbers")
    t = TensorOneSided(e.module("self"))
    one_tensor_one = unit_vector(QQ, 4, 0)  # flat (i, u) = i * 2 + u
    d_eps = leg_action_matrix(t.deltas[1])
    out = d_eps.apply(d_eps.apply(one_tensor_one))
    assert out.tolist() == [0, 0, 0, -2]  # -2 (eps tensor eps)


def test_tensor_two_sided_dims_and_commutation():
    for name in names():
        e = entry(name)
        t = TensorTwoSided(e.module("self"))
        n = e.algebra.dim
        assert t.dim == n * n * n
        assert leg_action_matrix(t.delta_bar(e.algebra.unit)).is_zero()
        for d in map(leg_action_matrix, t.deltas):
            for db in map(leg_action_matrix, t.delta_bars):
                assert d @ db == db @ d


def _embedding(t):
    """p -> 1 tensor p (tensor 1) as a dense matrix, kron-built: the oracle for jets._units."""
    unit_col = Matrix._raw(t.field, t.algebra.unit.reshape(-1, 1))
    ident = Matrix.identity(t.field, t.module.dim)
    return unit_col.kron(ident if isinstance(t, TensorOneSided) else ident.kron(unit_col))


def _rows_apply(op, rows):
    """rows @ op.T for a dense stack of row vectors, through op.apply_rows."""
    moved = op.apply_rows(linalg._sparse_rows(op.field.asarray(rows)))
    return linalg._dense(moved, (len(moved), op.shape[0]), op.field.dtype)


def test_tensor_embed_is_one_tensor_p():
    e = entry("dual_numbers")
    t = TensorOneSided(e.module("self"))
    assert _units(t) == [{0: 1}, {1: 1}]
    emb = _embedding(t)
    assert list(emb.col(0)) == [1, 0, 0, 0]
    assert list(emb.col(1)) == [0, 1, 0, 0]


def _scaled_unit_algebra(field):
    """K x K on the basis e_1, 2 e_2: the unit has coordinates (1, 1/2)."""
    mul = [[[1, 0], [0, 0]], [[0, 0], [0, 2]]]
    return Algebra(field, ["e1", "2e2"], [1, F(1, 2)], mul, name="kk")


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
def test_units_are_the_columns_of_the_kron_built_embedding(field):
    algebras = [_modules_over(field, name)["self"].algebra for name in names()]
    for algebra in algebras + [_scaled_unit_algebra(field)]:
        for P in (BimoduleRep.regular(algebra), BimoduleRep.free(algebra, 2)):
            for t in (TensorOneSided(P), TensorTwoSided(P)):
                emb = _embedding(t)
                assert emb.shape == (t.dim, P.dim)
                assert _units(t) == linalg._sparse_rows(emb.T.a), (algebra.name, t)


def test_order_zero_tensor_compatibility():
    # For every left-linear f on A tensor P, delta_b(f . J) = f . delta^b(1 tensor -)
    for name in names():
        e = entry(name)
        P = Q = e.module("self")
        t = TensorOneSided(P)
        hs = HomSpace(P, Q)
        mul = raw_mul(e.algebra)
        flin = hom_left_linear(tensor_outer_ops(mul), free_left_ops(mul))
        assert flin
        emb = _embedding(t)
        for fv in flin:
            fmat = Matrix._raw(
                QQ, np.asarray(fv, dtype=object).reshape((Q.dim, t.dim), order="F").copy()
            )
            phi = fmat @ emb
            for b in range(e.algebra.dim):
                lhs = hs.unvec(leg_action_matrix(hs.deltas[b]).apply(hs.vec(phi)))
                rhs = fmat @ (leg_action_matrix(t.deltas[b]) @ emb)
                assert lhs == rhs


# ---------------------------------------------------------------------------
# structured leg actions against kron-built matrices


def _modules_over(field, name):
    """Catalog self and free2 modules rebuilt over another field, on one algebra."""
    a = builtin(name).algebra
    algebra = Algebra(field, a.basis_names, list(a.unit), raw_mul(a), name=a.name)
    return {"self": BimoduleRep.regular(algebra), "free2": BimoduleRep.free(algebra, 2)}


def _check_rows_apply(actions, field, seed):
    rng = np.random.default_rng(seed)
    for act in actions:
        rows = rng.integers(-3, 4, size=(3, act.dim)).astype(object)
        expected = field.reduce_array(np.dot(rows, leg_action_matrix(act).a.T))
        assert np.array_equal(_rows_apply(act, rows), expected)


# Each ambient under the shared family names, with each outer and bullet
# family kron-built from identities: (ambient, {family: kron-built matrices}).
# The source and target of the Hom space differ in dim, so a swapped leg
# cannot pass.
_KRON_ORACLES = {
    "hom": lambda P, Q, ia, ip, iq: (
        HomSpace(P, Q),
        {
            "left": [ip.kron(L) for L in Q.left],
            "bullet_left": [L.T.kron(iq) for L in P.left],
            "right": [ip.kron(R) for R in Q.right],
            "bullet_right": [R.T.kron(iq) for R in P.right],
        },
    ),
    "one-sided": lambda P, Q, ia, ip, iq: (
        TensorOneSided(P),
        {
            "left": [L.kron(ip) for L in P.algebra.left_ops],
            "bullet_left": [ia.kron(L) for L in P.left],
        },
    ),
    "two-sided": lambda P, Q, ia, ip, iq: (
        TensorTwoSided(P),
        {
            "left": [L.kron(ip).kron(ia) for L in P.algebra.left_ops],
            "bullet_left": [ia.kron(L).kron(ia) for L in P.left],
            "right": [ia.kron(ip).kron(R) for R in P.algebra.right_ops],
            "bullet_right": [ia.kron(R).kron(ia) for R in P.right],
        },
    ),
}

_DEVIATIONS = {"deltas": ("left", "bullet_left"), "delta_bars": ("right", "bullet_right")}


def _check_against_kron(ambient_name, name, kind, field):
    """Every family of one ambient against its kron-built oracle; returns the ambient and P, Q."""
    modules = _modules_over(field, name)
    P, Q = modules[kind], modules["free2" if kind == "self" else "self"]
    idents = (Matrix.identity(field, d) for d in (P.algebra.dim, P.dim, Q.dim))
    ambient, families = _KRON_ORACLES[ambient_name](P, Q, *idents)
    for dev, (outer, bullet) in _DEVIATIONS.items():
        if outer in families:
            families[dev] = [o - b for o, b in zip(families[outer], families[bullet])]
    for attr, expected in families.items():
        actions = getattr(ambient, attr)
        dense = [leg_action_matrix(a) for a in actions]
        assert dense == expected, (ambient_name, attr)
        assert [leg_action_matrix(a.T) for a in actions] == [m.T for m in dense], (ambient_name, attr)
        _check_rows_apply(actions, field, 3)
    coords = np.arange(1, P.algebra.dim + 1)
    assert leg_action_matrix(ambient.delta(coords)) == _combo(families["deltas"], coords)
    if "delta_bars" in families:
        assert leg_action_matrix(ambient.delta_bar(coords)) == _combo(families["delta_bars"], coords)
    return ambient, P, Q


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("kind", ["self", "free2"])
@pytest.mark.parametrize("name", names())
def test_leg_actions_match_kron_built_families(name, kind, field):
    for ambient_name in ("one-sided", "two-sided"):
        _check_against_kron(ambient_name, name, kind, field)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("kind", ["self", "free2"])
@pytest.mark.parametrize("name", names())
def test_hom_leg_actions_match_kron_built_families(name, kind, field):
    hs, P, Q = _check_against_kron("hom", name, kind, field)
    # phi -> a phi on vec(phi) is the matrix product on phi itself
    phi = Matrix(field, [[(3 * i + j) % 5 - 2 for j in range(P.dim)] for i in range(Q.dim)])
    for L, act in zip(Q.left, hs.left):
        assert hs.unvec(_rows_apply(act, hs.vec(phi).reshape(1, -1))[0]) == L @ phi


def test_one_sided_ambient_refuses_every_right_family():
    P = entry("m2").module("self")
    t = TensorOneSided(P)
    for attr in ("right", "bullet_right", "delta_bars"):
        with pytest.raises(AttributeError, match="TensorOneSided has no right structure"):
            getattr(t, attr)
    with pytest.raises(AttributeError, match="TensorOneSided has no right structure"):
        t.delta_bar([1, 0, 0, 0])
    assert len(t.deltas) == 4 and not hasattr(t, "right")


def test_leg_action_difference_concatenates_terms():
    a = entry("t2").algebra
    left = LegAction(QQ, (3, 3), ((0, a.left_ops[1]),))
    right = LegAction(QQ, (3, 3), ((1, a.left_ops[2]),))
    diff = left - right
    assert [axis for axis, _ in diff.terms] == [0, 1]
    assert diff.terms[1][1] == -a.left_ops[2]
    assert leg_action_matrix(diff) == leg_action_matrix(left) - leg_action_matrix(right)


def test_hom_deviations_are_built_without_demoting(monkeypatch):
    P = entry("m2").module("self")
    calls = []
    monkeypatch.setattr(linalg.RationalField, "demote_array", lambda self, a: calls.append(a.shape))
    hs = HomSpace(P, P)
    deltas, delta_bars = hs.deltas, hs.delta_bars
    assert calls == []
    monkeypatch.undo()
    families = ((deltas, hs.left, hs.bullet_left), (delta_bars, hs.right, hs.bullet_right))
    for diffs, plus, minus in families:
        assert len(diffs) == P.algebra.dim
        for d, l, b in zip(diffs, plus, minus):
            assert leg_action_matrix(d) == leg_action_matrix(l) - leg_action_matrix(b)


# exact values the zero-skipping product treats differently: zero (skipped),
# +-1 (slab add or subtract), and scaled adds by ints, halves and big ints
_LEG_ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, F(3, 2), F(-3, 2), 2**70, -(2**70)])


@st.composite
def _leg_action_cases(draw):
    """A LegAction (one term, several, or a difference) and a stack of rows."""
    field = draw(st.sampled_from([QQ, GF(7), GF(2**31 - 1)]))
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n = math.prod(dims)

    def square(d):
        if draw(st.booleans()) and draw(st.booleans()):
            return [[0] * d for _ in range(d)]
        row = st.lists(_LEG_ENTRIES, min_size=d, max_size=d)
        return draw(st.lists(row, min_size=d, max_size=d))

    def action():
        axes = draw(st.lists(st.integers(0, len(dims) - 1), min_size=1, max_size=3))
        return LegAction(field, dims, tuple((a, Matrix(field, square(dims[a]))) for a in axes))

    act = action()
    if draw(st.booleans()):
        act = act - action()
    rows = draw(st.lists(st.lists(_LEG_ENTRIES, min_size=n, max_size=n), min_size=0, max_size=4))
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = [0] * n
    return field, act, rows


@settings(max_examples=150, deadline=None)
@given(_leg_action_cases())
def test_leg_action_rows_apply_matches_dense_product(case):
    field, act, rows = case
    n = act.dim
    a = Matrix(field, rows).a if rows else np.zeros((0, n), dtype=field.dtype)
    got = _rows_apply(act, a)
    want = np.dot(a.astype(object), leg_action_matrix(act).a.T.astype(object))
    if field != QQ:
        want = want % field.p
    assert got.shape == (len(rows), n)
    assert got.tolist() == want.tolist()


def test_leg_action_refuses_bad_axes():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    for axis in (-1, -2, 2, 5, True, False, 1.0, "1", None):
        with pytest.raises(DimensionMismatch, match=f"axis {axis!r} is not a leg"):
            LegAction(QQ, (2, 2), ((axis, m),))
    # e0 and e3 of K^2 (x) K^2, M on the second leg
    rows = np.array([[1, 0, 0, 0], [0, 0, 0, 1]], dtype=object)
    want = [[1, 3, 0, 0], [0, 0, 2, 4]]
    assert _rows_apply(LegAction(QQ, (2, 2), ((1, m),)), rows).tolist() == want
    numpy_axis = LegAction(QQ, (2, 2), ((np.int64(1), m),))
    assert _rows_apply(numpy_axis, rows).tolist() == want
    assert leg_action_matrix(numpy_axis).shape == (4, 4)


def test_leg_action_refuses_factors_and_differences_over_another_field():
    q = Matrix(QQ, [[1, 2], [3, 4]])
    g = Matrix(GF(7), [[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch, match=r"factor over GF\(7\) on leg 0 .* over QQ"):
        LegAction(QQ, (2, 2), ((1, q), (0, g)))
    with pytest.raises(DimensionMismatch, match=r"factor over QQ"):
        LegAction(GF(7), (2, 2), ((0, q),))
    q_act = LegAction(QQ, (2, 2), ((1, q),))
    g_act = LegAction(GF(7), (2, 2), ((1, g),))
    with pytest.raises(DimensionMismatch, match=r"QQ action - GF\(7\) action"):
        q_act - g_act
    with pytest.raises(DimensionMismatch, match=r"GF\(7\) action - QQ action"):
        g_act - q_act


@pytest.mark.parametrize("kind", ["self", "free2"])
@pytest.mark.parametrize("name", names())
def test_free_lift_left_linear_maps_match_joint_kernel(name, kind):
    # the free lifts against the naive kernel of the kron-built conditions
    P = Q = entry(name).module(kind)
    mul = raw_mul(P.algebra)
    rank = 1 if kind == "self" else 2
    conditions = hom_left_linear_conditions(tensor_outer_ops(mul, rank), free_left_ops(mul, rank))
    flin = TensorOneSided(P).left_linear_maps(Q)
    assert flin.dim == naive_nullity(conditions)
    sparse = [[(c, x) for c, x in enumerate(cond) if x] for cond in conditions]
    for row in flin.basis_vectors():
        assert all(sum(x * row[c] for c, x in cond) == 0 for cond in sparse)
