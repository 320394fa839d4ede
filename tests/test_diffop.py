import pytest
from hypothesis import given, settings

import ncjets.diffop as diffop
from ncjets.catalog import COMMUTATIVE_NAMES, builtin, names
from ncjets.diffop import (
    TAGS,
    DefinitionDomainError,
    compare_definitions,
    diff_bar1,
    diff_commutative,
    diff_left,
    diff_right,
    diff_two_sided,
    filtration_by_tag,
    stage_by_tag,
    two_sided_zero_order_membership,
)
from ncjets.linalg import QQ, Matrix
from ncjets.modules import BimoduleRep, HomSpace, hom_A, hom_AA

from algebra_builders import build, opposite, small_algebras, t2_column
from oracle_systems import (
    comm_diff_stage_dims,
    left_center_stage0_dim,
    right_stage0_dim,
)


def raw_mul(algebra):
    n = algebra.dim
    return [[[algebra.mul[i, j, k] for k in range(n)] for j in range(n)] for i in range(n)]


def self_pair(name):
    e = builtin(name)
    return e.module("self"), e.module("self")


# ---------------------------------------------------------------------------
# commutative filtration


def test_stage_zero_is_hom_A_in_both_modes():
    P, Q = self_pair("trunc3")
    target = hom_A(P, Q)
    for mode in ("inductive", "iterated"):
        assert diff_commutative(P, Q, 0, mode=mode).stages[0] == target


def test_dual_numbers_ladder_matches_oracle():
    P, Q = self_pair("dual_numbers")
    filt = diff_commutative(P, Q, 2)
    assert filt.dims == [2, 3, 4]
    assert filt.dims == comm_diff_stage_dims(raw_mul(P.algebra), 2)


def test_trivial_algebra_everything_is_order_zero():
    P, Q = self_pair("trivial")
    filt = diff_commutative(P, Q, 3)
    assert all(s.is_full() for s in filt.stages)


def test_commutative_definition_rejects_noncommutative():
    P, Q = self_pair("m2")
    with pytest.raises(DefinitionDomainError):
        diff_commutative(P, Q, 1)


def test_order_cap():
    P, Q = self_pair("dual_numbers")
    with pytest.raises(DefinitionDomainError):
        diff_commutative(P, Q, 5)
    assert diff_commutative(P, Q, 5, max_order=8).dims[-1] == 4


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_iterated_equals_inductive_to_order_three(name):
    P, Q = self_pair(name)
    iterated = diff_commutative(P, Q, 3, mode="iterated")
    inductive = diff_commutative(P, Q, 3, mode="inductive")
    for s_it, s_in in zip(iterated.stages, inductive.stages):
        assert s_it == s_in


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_commutative_stage_dims_match_oracle(name):
    P, Q = self_pair(name)
    filt = diff_commutative(P, Q, 2)
    assert filt.dims == comm_diff_stage_dims(raw_mul(P.algebra), 2)


def test_composition_adds_orders():
    P, Q = self_pair("trunc4")
    filt = diff_commutative(P, Q, 3)
    hs = filt.hom_space
    for v1 in filt.stages[1].basis_vectors():
        for v2 in filt.stages[2].basis_vectors():
            comp = hs.unvec(v1) @ hs.unvec(v2)
            assert filt.stages[3].contains(hs.vec(comp))


# ---------------------------------------------------------------------------
# left filtrations


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_left_modes_collapse_over_commutative(name):
    P, Q = self_pair(name)
    comm = diff_commutative(P, Q, 2)
    for mode in ("center", "sum"):
        filt = diff_left(P, Q, 2, mode=mode)
        for s_left, s_comm in zip(filt.stages, comm.stages):
            assert s_left == s_comm


def test_m2_left_stage_zero_is_everything():
    P, Q = self_pair("m2")
    for mode in ("center", "sum"):
        assert diff_left(P, Q, 1, mode=mode).stages[0].is_full()
    assert left_center_stage0_dim(raw_mul(P.algebra)) == 16


def test_left_stage_zero_contains_hom_A():
    for name in names():
        P, Q = self_pair(name)
        assert hom_A(P, Q) <= diff_left(P, Q, 0, mode="center").stages[0]


@pytest.mark.parametrize("name", names())
def test_derivations_are_first_order_left_sum(name):
    P, Q = self_pair(name)
    filt = diff_left(P, Q, 1, mode="sum")
    hs = filt.hom_space
    for d in P.algebra.derivations.basis_vectors():
        assert filt.stages[1].contains(d)
        assert not P.algebra.derivations.is_zero() or True
    # multiplication operators are zero-order
    for i in range(P.algebra.dim):
        assert filt.stages[0].contains(hs.vec(P.algebra.left_ops[i]))


# ---------------------------------------------------------------------------
# right filtration


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_right_collapses_over_commutative(name):
    P, Q = self_pair(name)
    comm = diff_commutative(P, Q, 2)
    filt = diff_right(P, Q, 2)
    for s_r, s_c in zip(filt.stages, comm.stages):
        assert s_r == s_c


def test_m2_right_stage_zero_is_everything():
    P, Q = self_pair("m2")
    assert diff_right(P, Q, 1).stages[0].is_full()
    assert right_stage0_dim(raw_mul(P.algebra)) == 16


def test_identity_is_right_zero_order():
    for name in names():
        P, Q = self_pair(name)
        hs = HomSpace(P, Q)
        filt = diff_right(P, Q, 0)
        assert filt.stages[0].contains(hs.vec(Matrix.identity(QQ, P.dim)))
        for i in range(P.algebra.dim):
            assert filt.stages[0].contains(hs.vec(P.algebra.right_ops[i]))


# ---------------------------------------------------------------------------
# two-sided filtration


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_two_sided_collapses_over_commutative(name):
    P, Q = self_pair(name)
    comm = diff_commutative(P, Q, 2)
    filt = diff_two_sided(P, Q, 2)
    for s_t, s_c in zip(filt.stages, comm.stages):
        assert s_t == s_c


@pytest.mark.parametrize("name", names())
def test_derivations_and_compositions_are_two_sided(name):
    P, Q = self_pair(name)
    filt = diff_two_sided(P, Q, 2)
    hs = filt.hom_space
    ders = P.algebra.derivations.basis_vectors()
    for d in ders:
        assert filt.stages[1].contains(d)
    for d1 in ders:
        for d2 in ders:
            comp = hs.unvec(d1) @ hs.unvec(d2)
            assert filt.stages[2].contains(hs.vec(comp))


def test_two_sided_membership_predicate():
    P, Q = self_pair("m2")
    report = two_sided_zero_order_membership(P, Q, P.algebra.left_ops[1])
    # a left multiplication is killed by delta_bar, so it is right zero order
    assert report["right_zero_order"]
    assert report["in_span"]
    report = two_sided_zero_order_membership(P, Q, P.algebra.right_ops[1])
    assert report["left_zero_order"]


def test_two_sided_stage_zero_contains_both_kernels():
    for name in ("m2", "t2", "quaternions"):
        P, Q = self_pair(name)
        hs = HomSpace(P, Q)
        from ncjets.linalg import joint_kernel

        t0 = diff_two_sided(P, Q, 0).stages[0]
        assert joint_kernel(list(hs.deltas)) <= t0
        assert joint_kernel(list(hs.delta_bars)) <= t0


# ---------------------------------------------------------------------------
# bar1


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_bar1_equals_first_order_over_commutative(name):
    P, Q = self_pair(name)
    assert diff_bar1(P, Q) == diff_commutative(P, Q, 1).stages[1]


@pytest.mark.parametrize("name", names())
def test_bimodule_maps_are_bar1(name):
    P, Q = self_pair(name)
    assert hom_AA(P, Q) <= diff_bar1(P, Q)


def test_stage_by_tag_bar1_requires_order_one():
    P, Q = self_pair("m2")
    with pytest.raises(DefinitionDomainError):
        stage_by_tag(P, Q, 2, "bar1")
    assert stage_by_tag(P, Q, 1, "bar1") == diff_bar1(P, Q)


# ---------------------------------------------------------------------------
# monotonicity and comparison


@pytest.mark.parametrize("name", names())
def test_filtrations_are_monotone(name):
    P, Q = self_pair(name)
    if P.algebra.is_commutative:
        assert diff_commutative(P, Q, 3).is_monotone()
    assert diff_left(P, Q, 2, mode="center").is_monotone()
    assert diff_left(P, Q, 2, mode="sum").is_monotone()
    assert diff_right(P, Q, 2).is_monotone()
    assert diff_two_sided(P, Q, 2).is_monotone()


@pytest.mark.parametrize("name", COMMUTATIVE_NAMES)
def test_compare_reports_commutative_collapse(name):
    P, Q = self_pair(name)
    report = compare_definitions(P, Q, 2)
    assert report["commutative_collapse"] is True
    assert not report["witnesses"]


def test_compare_m2_left_center_vs_left_sum():
    P, Q = self_pair("m2")
    report = compare_definitions(P, Q, 2)
    assert report["relations"]["left-center vs left-sum"] == ["equal", "equal", "equal"]
    for key, witness in report["witnesses"].items():
        assert witness is not None


def test_compare_relations_are_consistent_with_dims():
    P, Q = self_pair("t2")
    report = compare_definitions(P, Q, 2)
    for pair, rels in report["relations"].items():
        t1, t2 = pair.split(" vs ")
        for k, rel in enumerate(rels):
            d1, d2 = report["dims"][t1][k], report["dims"][t2][k]
            if rel == "equal":
                assert d1 == d2
            elif rel == "subset":
                assert d1 <= d2
            elif rel == "superset":
                assert d1 >= d2


# ---------------------------------------------------------------------------
# one Hom space per call


def _count_hom_spaces(monkeypatch) -> list:
    made = []

    class Counted(HomSpace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(diffop, "HomSpace", Counted)
    return made


def test_compare_builds_one_hom_space(monkeypatch):
    P, Q = self_pair("trunc3")
    want = compare_definitions(P, Q, 2)
    made = _count_hom_spaces(monkeypatch)
    assert compare_definitions(P, Q, 2) == want
    assert len(want["tags"]) == 6
    assert len(made) == 1


def test_bar1_builds_one_hom_space_and_one_delta_bar_kernel(monkeypatch):
    P, Q = self_pair("m2")
    want = diff_bar1(P, Q)
    made = _count_hom_spaces(monkeypatch)
    bar_kernels = []
    real = diffop.joint_kernel

    def counting(ops):
        if any(ops is hs.__dict__.get("delta_bars") for hs in made):
            bar_kernels.append(ops)
        return real(ops)

    monkeypatch.setattr(diffop, "joint_kernel", counting)
    assert diff_bar1(P, Q) == want
    assert len(made) == 1
    assert len(bar_kernels) == 1


# ---------------------------------------------------------------------------
# metamorphic: a left module over A^op is a right module over A


def _opposite_cases():
    cases = [(name, "self", "self") for name in names()]
    cases += [(name, "free2", "free2") for name in names() if builtin(name).algebra.dim <= 2]
    return cases + [("t2", "column", "column"), ("t2", "column", "self"), ("t2", "self", "column")]


def _module(name, kind):
    return t2_column() if kind == "column" else builtin(name).module(kind)


def _check_opposite(P, Q):
    # over A^op the left and right actions swap sides
    A_op = opposite(P.algebra)
    P_op, Q_op = (BimoduleRep(A_op, M.right, M.left) for M in (P, Q))
    for tag_op, tag in [("left-sum", "right"), ("right", "left-sum"), ("two-sided", "two-sided")]:
        over_op = filtration_by_tag(P_op, Q_op, 2, tag_op).stages
        over_a = filtration_by_tag(P, Q, 2, tag).stages
        for k in range(3):
            assert over_op[k] == over_a[k], (tag_op, tag, k)


@pytest.mark.parametrize("name,p,q", _opposite_cases())
def test_opposite_algebra_swaps_left_sum_and_right(name, p, q):
    _check_opposite(_module(name, p), _module(name, q))


@settings(max_examples=25, deadline=None)
@given(small_algebras())
def test_opposite_algebra_swaps_left_sum_and_right_on_generated_algebras(algebra):
    A = build(algebra)
    for P in (BimoduleRep.regular(A), BimoduleRep.free(A, 2)):
        _check_opposite(P, P)


# ---------------------------------------------------------------------------
# direct sums


def _check_direct_sum(P, P2):
    # Hom(P + P, P + P) is four copies of Hom(P, P), and every action is diagonal on them
    small, big = (P, P), (P2, P2)
    commutative = P.algebra.is_commutative
    for tag in TAGS[:-1]:
        if tag.startswith("comm-") and not commutative:
            continue
        dims = filtration_by_tag(*small, 2, tag).dims
        assert filtration_by_tag(*big, 2, tag).dims == [4 * d for d in dims], tag
    assert diff_bar1(*big).dim == 4 * diff_bar1(*small).dim


@pytest.mark.parametrize("name", names())
def test_direct_sum_multiplies_every_stage_dim_by_four(name):
    e = builtin(name)
    _check_direct_sum(e.module("self"), e.module("free2"))


@settings(max_examples=25, deadline=None)
@given(small_algebras())
def test_direct_sum_multiplies_every_stage_dim_by_four_on_generated_algebras(algebra):
    A = build(algebra)
    _check_direct_sum(BimoduleRep.regular(A), BimoduleRep.free(A, 2))
