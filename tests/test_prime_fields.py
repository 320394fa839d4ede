"""Checks over prime fields: the int64 kernel, and end-to-end answers.

The bundled catalog pins Q because several dimensions depend on the
characteristic; these tests pin the interesting cases directly, check
that a large prime gives the Q answers, and check the F_p kernel's
products and elimination against plain Python ints.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncjets.algebra import Algebra
from ncjets.catalog import COMMUTATIVE_NAMES, builtin, names
from ncjets.diffop import TAGS, diff_bar1, diff_commutative, filtration_by_tag
from ncjets.jets import (
    _collapse_conditions,
    jet_module,
    representability_bar1,
    representability_check,
    two_sided_jet1,
)
from ncjets.linalg import GF, MAX_INNER, QQ, DimensionMismatch, Matrix, kernel, rref
from ncjets.modules import BimoduleRep, LegAction

from naive_gauss import naive_kernel_basis_mod, naive_rref_mod

P31 = 2**31 - 1
TOP = P31 - 1  # the largest residue: every product of two is just below 2**62


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


# ---------------------------------------------------------------------------
# the int64 kernel cannot overflow


def _py_matmul(a, b, p):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) % p for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@pytest.mark.parametrize("inner", [1, 4096, MAX_INNER, MAX_INNER + 1, 2 * MAX_INNER + 3])
def test_product_of_top_residues_is_exact(inner):
    # int64 arithmetic without the split would wrap from inner = 2 on
    field = GF(P31)
    a = np.full((2, inner), TOP, dtype=np.int64)
    b = np.full((inner, 3), TOP, dtype=np.int64)
    want = inner * TOP * TOP % P31
    got = field.dot(a, b)
    assert got.dtype == np.int64 and got.shape == (2, 3)
    assert (got == want).all()
    assert (field.dot(a, b[:, 0]) == want).all()


def test_product_matches_python_ints_near_the_top():
    field = GF(P31)
    rng = np.random.default_rng(5)
    a = TOP - rng.integers(0, 3, size=(3, 4096))
    b = TOP - rng.integers(0, 3, size=(4096, 2))
    want = _py_matmul(a.tolist(), b.tolist(), P31)
    assert field.dot(a, b).tolist() == want
    # negated residues (|x| < p) are valid left operands too
    assert field.dot(-a, b).tolist() == [[-x % P31 for x in row] for row in want]


def test_tensordot_past_the_chunk_boundary():
    field = GF(P31)
    a = np.full((2, 256, 257), TOP, dtype=np.int64)  # contracted size 65792 > MAX_INNER
    b = np.full((257, 256, 2), TOP, dtype=np.int64)
    got = field.tensordot(a, b, ([1, 2], [1, 0]))
    assert got.shape == (2, 2)
    assert (got == 256 * 257 * TOP * TOP % P31).all()
    with pytest.raises(DimensionMismatch):
        field.tensordot(a, b, ([2], [1]))


def test_leg_action_on_top_residues_matches_dense():
    field = GF(P31)
    dims = (3, 4, 5)
    top = [Matrix(field, [[TOP] * d for _ in range(d)]) for d in dims]
    act = LegAction(field, dims, ((0, top[0]), (2, top[2]))) - LegAction(field, dims, ((1, top[1]),))
    rows = np.full((4, act.dim), TOP, dtype=np.int64)
    dense = act.dense.to_lists()
    want = _py_matmul(rows.tolist(), [list(col) for col in zip(*dense)], P31)
    assert act.rows_apply(rows).tolist() == want
    assert act.dense.rows_apply(rows).tolist() == want


def test_collapse_conditions_on_top_residues_match_python_ints():
    field = GF(P31)
    P = _over(field, builtin("quaternions").module("self"), "self")
    jet = two_sided_jet1(P)
    n, m = P.algebra.dim, P.dim
    # a stand-in relation basis and target module whose sandwiches R_j L_i are all TOP
    mu = Matrix(field, [[TOP] * jet.ambient_dim for _ in range(3)])
    jet = dataclasses.replace(jet, mu=SimpleNamespace(basis=mu, dim=3))
    ident = Matrix.identity(field, m)
    top = Matrix(field, [[TOP] * m for _ in range(m)])
    Q = SimpleNamespace(
        dim=m,
        left=(top,) * n,
        right=(ident,) * n,
        left_stack=np.stack([top.a] * n),
        right_stack=np.stack([ident.a] * n),
    )
    got = _collapse_conditions(jet, Q).a.tolist()
    # row (r, q), column (u, q2): sum over i, j of w[r, i, u, j] (R_j L_i)[q, q2]
    w = np.array(mu.to_lists(), dtype=object).reshape(3, n, m, n)
    rl = [[_py_matmul(R.to_lists(), L.to_lists(), P31) for R in Q.right] for L in Q.left]
    want = [
        [
            sum(w[r, i, u, j] * rl[i][j][q][q2] for i in range(n) for j in range(n)) % P31
            for u in range(m)
            for q2 in range(m)
        ]
        for r in range(3)
        for q in range(m)
    ]
    assert got == want


# ---------------------------------------------------------------------------
# elimination against the mod-p oracle


@st.composite
def mod_p_systems(draw):
    p = draw(st.sampled_from([7, 101, P31]))
    ncols = draw(st.integers(1, 6))
    # zeros and the extreme residues make rank drops and large products likely
    entry = st.one_of(st.sampled_from([0, 0, 0, 1, p - 1]), st.integers(0, p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=5))
    return p, rows


@settings(max_examples=150, deadline=None)
@given(mod_p_systems())
def test_rref_and_kernel_match_mod_p_oracle(system):
    p, rows = system
    field = GF(p)
    m = Matrix(field, rows)
    res = rref(m)
    want, pivots = naive_rref_mod(rows, p)
    assert res.matrix.to_lists() == want
    assert list(res.pivots) == pivots
    assert res.rank == len(pivots)
    ker = kernel(m)
    kbasis = naive_kernel_basis_mod(rows, p)
    kred, kpivots = naive_rref_mod(kbasis, p) if kbasis else ([], [])
    assert ker.basis.to_lists() == kred[: len(kpivots)]
    assert list(ker.pivots) == kpivots
    assert ker.dim == len(m.to_lists()[0]) - len(pivots)


# ---------------------------------------------------------------------------
# metamorphic: a large prime gives the Q answers


def _over(field, module: BimoduleRep, key: str) -> BimoduleRep:
    a = module.algebra
    algebra = Algebra(field, a.basis_names, list(a.unit), a.mul.tolist(), name=a.name)
    return BimoduleRep.regular(algebra) if key == "self" else BimoduleRep.free(algebra, 2)


def _answers(P: BimoduleRep, commutative: bool) -> dict:
    tags = [t for t in TAGS[:-1] if commutative or not t.startswith("comm-")]
    rep_tags = (["comm-inductive"] if commutative else []) + ["left-center"]
    out = {tag: filtration_by_tag(P, P, 2, tag).dims for tag in tags}
    out["bar1"] = diff_bar1(P, P).dim
    out["jet"] = [jet_module(P, k).dim for k in range(3)]
    out["two-sided jet"] = two_sided_jet1(P).dim
    for tag in rep_tags:
        out[f"represent {tag}"] = representability_check(P, P, 1, tag).verdict
    out["represent bar1"] = representability_bar1(P, P).verdict
    return out


CATALOG_CASES = [
    (name, key)
    for name in names()
    for key in ("self", "free2")
    if key == "self" or builtin(name).algebra.dim <= 2
]


@pytest.mark.parametrize("name,key", CATALOG_CASES, ids=[f"{n}/{k}" for n, k in CATALOG_CASES])
def test_large_prime_matches_rationals_on_the_catalog(name, key):
    Q_module = builtin(name).module(key)
    commutative = name in COMMUTATIVE_NAMES
    assert Q_module.algebra.field == QQ
    assert _answers(_over(GF(P31), Q_module, key), commutative) == _answers(Q_module, commutative)
