import random
from fractions import Fraction

import numpy as np
import pytest

from ncjets.algebra import Algebra, AlgebraElement, AlgebraValidationError
from ncjets.catalog import builtin, names
from ncjets.linalg import GF, QQ, Matrix, vector

from algebra_builders import SEEDED, opposite, signed_basis
from oracle_systems import center_dim, center_rref, derivations_dim, derivations_rref

F = Fraction


def m2():
    return builtin("m2").algebra


def dual():
    return builtin("dual_numbers").algebra


def raw_mul(algebra):
    return [
        [[algebra.mul[i, j, k] for k in range(algebra.dim)] for j in range(algebra.dim)]
        for i in range(algebra.dim)
    ]


# ---------------------------------------------------------------------------
# validation


def test_m2_validates_noncommutative():
    a = m2()
    assert a.dim == 4
    assert not a.is_commutative


def test_dual_numbers_validate_commutative():
    assert dual().is_commutative


def test_tampered_m2_reports_associativity_witness():
    table = raw_mul(m2())
    table[1][2] = [0, 0, 0, 0]  # kill e12 * e21
    with pytest.raises(AlgebraValidationError) as exc:
        Algebra(QQ, ["e11", "e12", "e21", "e22"], [1, 0, 0, 1], table)
    assert exc.value.axiom == "associativity"
    assert exc.value.witness is not None


def test_bad_unit_reports_witness():
    table = raw_mul(dual())
    with pytest.raises(AlgebraValidationError) as exc:
        Algebra(QQ, ["1", "eps"], [0, 1], table)  # eps is no unit
    assert exc.value.axiom == "unit"


def test_malformed_shape():
    with pytest.raises(AlgebraValidationError) as exc:
        Algebra(QQ, ["1", "x"], [1, 0], [[[1, 0]]])
    assert exc.value.axiom == "shape"


def test_empty_algebra_is_a_shape_error():
    with pytest.raises(AlgebraValidationError) as exc:
        Algebra(QQ, [], [], [])
    assert exc.value.axiom == "shape"


def test_unit_and_coordinates_may_be_one_shot_iterables():
    a = Algebra(QQ, ["1", "eps"], (x for x in [1, 0]), raw_mul(dual()))
    assert list(a.unit) == [1, 0]
    x = AlgebraElement(a, (c for c in [F(1, 2), 3]))
    assert list(x.coords) == [F(1, 2), 3]
    with pytest.raises(AlgebraValidationError):
        AlgebraElement(a, (c for c in [1, 2, 3]))


def test_a_validated_algebra_is_read_only():
    # BimoduleRep.regular and free take a validated algebra's axioms as proved
    a = m2()
    for array in (a.unit, a.mul, a.left_stack, a.right_stack):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5
    assert list(a.unit) == [1, 0, 0, 1] and a.mul[0, 0, 0] == 1


# ---------------------------------------------------------------------------
# center


def test_center_commutative_is_full():
    for name in ("dual_numbers", "trunc3", "product_QQ"):
        a = builtin(name).algebra
        assert a.center.is_full()


@pytest.mark.parametrize("name", ["m2", "t2", "quaternions"])
def test_center_of_simple_algebras_is_scalars(name):
    a = builtin(name).algebra
    assert a.center.dim == 1
    assert a.center.contains(a.unit)


@pytest.mark.parametrize("name", ["m2", "t2"])
def test_center_matches_naive_oracle(name):
    a = builtin(name).algebra
    assert a.center.dim == center_dim(raw_mul(a))


def test_center_closed_under_multiplication():
    for name in names():
        a = builtin(name).algebra
        basis = a.center.basis_vectors()
        for z in basis:
            for w in basis:
                assert a.center.contains(a.multiply(z, w))


# ---------------------------------------------------------------------------
# multiplication operators


def test_unit_mult_operators_are_identity():
    a = m2()
    one = a.one().coords
    L, R = a.left_mult_matrix(one), a.right_mult_matrix(one)
    assert L == Matrix.identity(QQ, 4)
    assert R == Matrix.identity(QQ, 4)


def test_dual_eps_is_nilpotent():
    a = dual()
    eps = a.basis_element(1).coords
    L, R = a.left_mult_matrix(eps), a.right_mult_matrix(eps)
    assert L == R
    assert (L @ L).is_zero()
    assert not L.is_zero()


def test_m2_e11_left_projection():
    a = m2()
    L = a.left_mult_matrix(a.basis_element(0).coords)
    # e11 e11 = e11, e11 e12 = e12, e11 e21 = 0, e11 e22 = 0
    assert list(L.col(0)) == [1, 0, 0, 0]
    assert list(L.col(1)) == [0, 1, 0, 0]
    assert L.col(2).tolist() == [0, 0, 0, 0]
    assert L.col(3).tolist() == [0, 0, 0, 0]


def test_left_is_homomorphism_right_antihomomorphism():
    a = builtin("quaternions").algebra
    x, y = a.basis_element(1), a.basis_element(2)  # i, j
    Lx, Rx = a.left_mult_matrix(x.coords), a.right_mult_matrix(x.coords)
    Ly, Ry = a.left_mult_matrix(y.coords), a.right_mult_matrix(y.coords)
    xy = (x * y).coords
    Lxy, Rxy = a.left_mult_matrix(xy), a.right_mult_matrix(xy)
    assert Lx @ Ly == Lxy
    assert Ry @ Rx == Rxy


def test_left_right_commute_everywhere():
    for name in names():
        a = builtin(name).algebra
        for i in range(a.dim):
            for j in range(a.dim):
                assert a.left_ops[i] @ a.right_ops[j] == a.right_ops[j] @ a.left_ops[i]


# ---------------------------------------------------------------------------
# derivations


def test_trivial_has_no_derivations():
    assert builtin("trivial").algebra.derivations.dim == 0


def test_m2_derivations_dimension():
    a = m2()
    assert a.derivations.dim == 3
    assert a.derivations.dim == derivations_dim(raw_mul(a))


def test_dual_derivations():
    a = dual()
    assert a.derivations.dim == 1
    assert a.derivations.dim == derivations_dim(raw_mul(a))
    # spanned by d(1) = 0, d(eps) = eps: as a matrix, column eps -> eps
    d = Matrix(QQ, [[0, 0], [0, 1]])
    assert a.derivations.contains(d.a.ravel(order="F"))


@pytest.mark.parametrize("name", names())
def test_derivations_match_naive_oracle(name):
    a = builtin(name).algebra
    assert a.derivations.dim == derivations_dim(raw_mul(a))


def _oracle_cases():
    """Every catalog algebra as it is, and the builder algebras in a basis seeded by their label."""
    cases = {name: builtin(name).algebra for name in names()}
    for label, table in SEEDED.items():
        cases[label] = Algebra(QQ, *signed_basis(table, random.Random(label)), name=label)
    return cases


_ORACLE_CASES = _oracle_cases()


def _oracle_case(field, label):
    """The case algebra rebuilt over field, and the prime the oracle reduces by (None over Q)."""
    a = _ORACLE_CASES[label]
    A = Algebra(field, a.basis_names, list(a.unit), a.mul.tolist(), name=label)
    return A, None if field == QQ else field.p


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("label", list(_ORACLE_CASES))
def test_derivations_are_the_naive_subspace(field, label):
    # d(1) = 0 and the Leibniz rule at the generators give the RREF basis of the full system
    A, p = _oracle_case(field, label)
    assert A.derivations.basis.to_lists() == derivations_rref(raw_mul(A), p)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("label", list(_ORACLE_CASES))
def test_center_is_the_naive_subspace(field, label):
    # z g = g z at the generators gives the RREF basis of z e_i = e_i z at every basis element;
    # the catalog's trivial algebra K has no generators, and its center is the full space
    A, p = _oracle_case(field, label)
    assert A.center.basis.to_lists() == center_rref(raw_mul(A), p)
    assert A.generators or A.center.is_full()


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("label", list(_ORACLE_CASES))
def test_center_of_the_opposite_algebra_is_the_same(field, label):
    # z is central in A exactly when it is central in A^op, whose generators may differ
    A, _ = _oracle_case(field, label)
    assert opposite(A).center == A.center


@pytest.mark.parametrize("name", names())
def test_inner_derivations_satisfy_leibniz(name):
    a = builtin(name).algebra
    for i in range(a.dim):
        ad = a.inner_derivation(a.basis_element(i))
        assert a.derivations.contains(ad.a.ravel(order="F"))


def test_ad_vanishes_exactly_on_center():
    a = m2()
    z = a.one()
    assert a.inner_derivation(z).is_zero()
    e12 = a.basis_element(1)
    assert not a.inner_derivation(e12).is_zero()


# ---------------------------------------------------------------------------
# elements


def test_element_arithmetic():
    a = dual()
    one, eps = a.one(), a.basis_element(1)
    assert (eps * eps).coords.tolist() == [0, 0]
    assert ((one + eps) * (one - eps)).coords.tolist() == [1, 0]


def test_element_repr_uses_basis_names():
    a = dual()
    assert "eps" in repr(a.basis_element(1))
