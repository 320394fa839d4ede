"""End-to-end checks over prime fields.

The bundled catalog pins Q because several dimensions depend on the
characteristic; these tests pin the interesting cases directly.
"""

from ncjets.algebra import Algebra
from ncjets.catalog import builtin
from ncjets.diffop import diff_commutative
from ncjets.jets import (
    jet_module,
    representability_bar1,
    representability_check,
    two_sided_jet1,
)
from ncjets.linalg import GF
from ncjets.modules import BimoduleRep


def dual_numbers_over(field):
    table = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    a = Algebra(field, ["1", "eps"], [1, 0], table, name="dual")
    return BimoduleRep.regular(a)


def test_dual_numbers_over_f5_match_rational_dims():
    P = dual_numbers_over(GF(5))
    assert diff_commutative(P, P, 2).dims == [2, 3, 4]
    assert jet_module(P, 1).dim == 3
    assert representability_check(P, P, 1, "comm-inductive").verdict == "isomorphism"
    assert representability_bar1(P, P).verdict == "isomorphism"


def test_characteristic_two_degenerates():
    # the doubled second-order generator vanishes mod 2, so the order-1
    # stage grows and the first jet stops collapsing
    P = dual_numbers_over(GF(2))
    assert diff_commutative(P, P, 2).dims == [2, 4, 4]
    assert jet_module(P, 1).dim == 4
    assert representability_check(P, P, 1, "comm-inductive").verdict == "isomorphism"


def truncated_polynomial_over(field, degree):
    table = [
        [[1 if k == i + j else 0 for k in range(degree)] for j in range(degree)]
        for i in range(degree)
    ]
    names = ["1"] + [f"x^{k}" for k in range(1, degree)]
    a = Algebra(field, names, [1] + [0] * (degree - 1), table, name=f"trunc{degree}")
    return BimoduleRep.regular(a)


def test_trunc4_jets_over_large_prime_match_rational():
    # membership tests on the jet relations must reduce mod p, or the
    # invariance checks inside the jet builders fail spuriously
    P = truncated_polynomial_over(GF(2**31 - 1), 4)
    R = builtin("trunc4").module("self")
    assert jet_module(P, 2).dim == jet_module(R, 2).dim == 10
    assert two_sided_jet1(P).dim == two_sided_jet1(R).dim == 28
    report, rational = representability_bar1(P, P), representability_bar1(R, R)
    assert report.verdict == rational.verdict == "isomorphism"
    assert report.hom_side_dim == rational.hom_side_dim == 7
