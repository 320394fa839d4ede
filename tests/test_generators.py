"""Algebra.generators, and the library acting by them.

The generators are checked against a naive span closure on raw
structure constants (naive_gauss), and the filtrations and jets that act
by them against the full-basis systems of oracle_systems, on the
algebras of algebra_builders, in their own basis and in a permuted and
signed one, where the greedy choice differs.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ncjets.diffop import (
    TAGS,
    diff_bar1,
    diff_commutative,
    diff_left,
    diff_right,
    filtration_by_tag,
)
from ncjets.jets import (
    VERDICT_ISO,
    jet_module,
    representability_bar1,
    representability_check,
    two_sided_jet1,
)
from ncjets.linalg import closure_under, joint_kernel
from ncjets.modules import BimoduleRep, HomSpace, generator_preimage, hom_A, hom_AA

from algebra_builders import build, change_basis, small_algebras, trunc
from naive_gauss import naive_in_span, naive_rref
from oracle_systems import (
    bar1_dim,
    comm_diff_stage_dims,
    jet_dim,
    left_center_stage0_dim,
    right_stage0_dim,
    two_sided_jet_dims,
)


@st.composite
def algebras_in_some_basis(draw):
    """A small algebra in its own basis, or in a permuted and signed one."""
    algebra = draw(small_algebras())
    if draw(st.booleans()):
        n = len(algebra[0])
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        algebra = change_basis(algebra, perm, signs)
    return algebra


def naive_subalgebra(algebra, kept):
    """Basis rows of the unital subalgebra the e_g, g in kept, generate: span{1} closed by hand."""
    _, unit, table = algebra
    n = len(unit)
    rows = [[Fraction(x) for x in unit]]
    while True:
        products = [
            [sum(v[j] * table[g][j][k] for j in range(n)) for k in range(n)]
            for g in kept
            for v in rows
        ]
        red, pivots = naive_rref(rows + products)
        if len(pivots) == len(rows):
            return rows
        rows = red[: len(pivots)]


def _unit(n, i):
    return [int(k == i) for k in range(n)]


@settings(max_examples=60, deadline=None)
@given(algebras_in_some_basis())
def test_generators_generate_and_follow_the_greedy_rule(algebra):
    n = len(algebra[0])
    kept = build(algebra).generators
    assert len(naive_subalgebra(algebra, kept)) == n
    for i in range(n):
        earlier = [g for g in kept if g < i]
        inside = naive_in_span(naive_subalgebra(algebra, earlier), _unit(n, i))
        assert (i not in kept) == inside, (kept, i)


def test_a_permuted_basis_changes_the_greedy_choice():
    # trunc3 is generated by x; in the basis (x^2, 1, x) greedy keeps x^2 first, then x
    algebra = trunc(3)
    assert build(algebra).generators == (1,)
    assert build(change_basis(algebra, [2, 0, 1], [1, 1, 1])).generators == (0, 2)


@settings(max_examples=25, deadline=None)
@given(algebras_in_some_basis())
def test_kernels_and_closures_by_generators_match_the_basis(algebra):
    A = build(algebra)
    hs = HomSpace(BimoduleRep.regular(A), BimoduleRep.regular(A))
    assert generator_preimage(hs, hs.deltas) == joint_kernel(hs.deltas)
    assert generator_preimage(hs, hs.delta_bars) == joint_kernel(hs.delta_bars)
    seed = joint_kernel(hs.deltas)
    for family in (hs.left, hs.bullet_left, hs.right, hs.bullet_right):
        assert closure_under(A.at_generators(family), seed) == closure_under(family, seed)


@settings(max_examples=20, deadline=None)
@given(algebras_in_some_basis())
def test_dims_match_the_full_basis_oracle(algebra):
    mul = algebra[2]
    P = BimoduleRep.regular(build(algebra))
    if P.algebra.is_commutative:
        assert diff_commutative(P, P, 2).dims == comm_diff_stage_dims(mul, 2)
    assert diff_left(P, P, 0, mode="center").dims == [left_center_stage0_dim(mul)]
    assert diff_right(P, P, 0).dims == [right_stage0_dim(mul)]
    assert diff_bar1(P, P).dim == bar1_dim(mul)
    for k in (0, 1, 2):
        assert jet_module(P, k).dim == jet_dim(mul, k)
    jet = two_sided_jet1(P)
    assert (jet.mu.dim, jet.dim) == two_sided_jet_dims(mul)


def test_the_trivial_algebra_has_no_generators_and_still_works():
    algebra = trunc(1)
    A = build(algebra)
    assert A.generators == ()
    mul = algebra[2]
    for P in (BimoduleRep.regular(A), BimoduleRep.free(A, 2)):
        full = [P.dim**2] * 3
        for tag in TAGS[:-1]:
            assert filtration_by_tag(P, P, 2, tag).dims == full, tag
        assert diff_bar1(P, P).dim == hom_A(P, P).dim == hom_AA(P, P).dim == P.dim**2
        assert representability_check(P, P, 2).verdict == VERDICT_ISO
        assert representability_bar1(P, P).verdict == VERDICT_ISO
        for k in (0, 1, 2):
            assert jet_module(P, k).dim == P.dim
    P = BimoduleRep.regular(A)
    assert diff_commutative(P, P, 2).dims == comm_diff_stage_dims(mul, 2)
    assert [jet_module(P, k).dim for k in (0, 1, 2)] == [jet_dim(mul, k) for k in (0, 1, 2)]
    jet = two_sided_jet1(P)
    assert (jet.mu.dim, jet.dim) == two_sided_jet_dims(mul)
    assert jet.bullet_well_defined
