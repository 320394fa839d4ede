"""Sparse rows end to end.

apply_rows against the dense operators, the subspace operations that run
on sparse rows against the naive oracle (tests/naive_gauss.py), the lazy
dense basis, exact reads of numpy ints, and the jets built on all of it.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncjets import linalg
from ncjets.algebra import Algebra
from ncjets.catalog import builtin
from ncjets.jets import factorization_residual, residual_witness_search, two_sided_jet1
from ncjets.linalg import (
    GF,
    QQ,
    Matrix,
    Subspace,
    closure_under,
    joint_kernel,
    preimage,
    unit_vector,
)
from ncjets.modules import BimoduleRep, LegAction, TensorOneSided

from algebra_builders import leg_action_matrix
from naive_gauss import (
    naive_kernel_basis,
    naive_kernel_basis_mod,
    naive_mat_vec,
    naive_rref,
    naive_rref_mod,
)

F = Fraction
P31 = 2**31 - 1

# each field with the cells its cases draw: Q mixes ints and Fractions, the
# prime fields hold residues, GF(2^31 - 1) the top ones
FIELDS = [
    (QQ, [0, 0, 0, 0, 1, -1, 2, F(3, 2), F(-2, 3), 2**70]),
    (GF(2), [0, 0, 0, 1]),
    (GF(7), [0, 0, 0, 1, 6, 3]),
    (GF(P31), [0, 0, 0, 1, P31 - 1, P31 - 2]),
]
# legs of dim 1 first, last and in the middle among them
DIMS = [(4,), (2, 2), (2, 3), (3, 2), (2, 1, 2), (2, 2, 2), (1, 3), (3, 1), (1, 2, 1)]


def _square(draw, field, entries, d):
    cells = st.lists(st.sampled_from(entries), min_size=d, max_size=d)
    return Matrix(field, draw(st.lists(cells, min_size=d, max_size=d)))


def _sparse_row(draw, entries, n):
    cells = draw(st.lists(st.sampled_from(entries), min_size=n, max_size=n))
    return {c: x for c, x in enumerate(cells) if x}


def _leg_action(draw, field, entries, dims):
    """A multi-term LegAction, sometimes a deviation a - b or a - b - c (so negated factors)."""
    leg = st.integers(0, len(dims) - 1)

    def one():
        if draw(st.booleans()):  # a term on every leg, and one leg twice
            axes = draw(st.permutations([*range(len(dims)), draw(leg)]))
        else:
            axes = draw(st.lists(leg, min_size=1, max_size=3))
        terms = tuple((a, _square(draw, field, entries, dims[a])) for a in axes)
        return LegAction(field, dims, terms)

    act = one()
    for _ in range(draw(st.integers(0, 2))):
        act = act - one()
    return act


@st.composite
def apply_cases(draw):
    """An operator (LegAction or rectangular Matrix), sparse rows for it, and its dense matrix."""
    field, entries = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        op = _leg_action(draw, field, entries, draw(st.sampled_from(DIMS)))
        dense = leg_action_matrix(op)
    else:
        r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        cells = st.lists(st.sampled_from(entries), min_size=c, max_size=c)
        op = dense = Matrix(field, draw(st.lists(cells, min_size=r, max_size=r)))
    rows = [_sparse_row(draw, entries, op.shape[1]) for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        rows.append({})
    return field, op, dense, rows


@settings(max_examples=200, deadline=None)
@given(apply_cases())
def test_apply_rows_matches_the_dense_operator(case):
    field, op, dense, rows = case
    before = [dict(row) for row in rows]
    got = op.apply_rows(rows)
    assert rows == before  # the input rows are read, not consumed
    m, p = dense.to_lists(), field.modulus
    assert len(got) == len(rows)
    for row, out in zip(rows, got):
        want = [sum(m[j][k] * x for k, x in row.items()) for j in range(op.shape[0])]
        if p:
            want = [x % p for x in want]
        assert out == {j: x for j, x in enumerate(want) if x}
        assert all(x != 0 for x in out.values())
        for x in out.values():
            assert type(x) in ((int, Fraction) if p == 0 else (int,))
            assert p == 0 or 0 <= x < p
    assert op.apply_rows([]) == []
    assert op.apply_rows([{}, {}]) == [{}, {}]


@pytest.mark.parametrize("col", [-1, 4, 7])
def test_apply_rows_refuses_columns_outside_the_operator(col):
    m = Matrix(QQ, [[1, 2], [3, 4]])
    wide = Matrix(QQ, [[1, 2, 0, 1], [3, 4, 1, 0]])  # rectangular: width 4
    act = LegAction(QQ, (2, 2), ((1, m),))  # column 4 would read leg index 4 % 2 = 0
    for op, width in [(m, 2), (wide, 4), (act, 4), (act - act, 4)]:
        for rows in ([{0: 1}, {col: 1, 1: 2}], [{col: 3}]):  # one nonzero or several
            with pytest.raises(linalg.DimensionMismatch, match=f"column {col} .* width {width}"):
                op.apply_rows(rows)


def test_a_term_less_leg_action_is_the_zero_operator():
    for field in (QQ, GF(7)):
        op = LegAction(field, (2, 3), ())
        assert leg_action_matrix(op) == Matrix.zeros(field, 6, 6)
        assert op.apply_rows([{0: 1, 5: 2}, {}]) == [{}, {}]
        assert leg_action_matrix(op).apply(field.asarray([1, 0, 0, 0, 0, 2])).tolist() == [0] * 6


def test_a_leg_action_keeps_only_its_factors_columns():
    """One row through a factor on the middle of legs (64, 64, 64): no 262,144-entry table."""
    cells = [[0] * 64 for _ in range(64)]
    cells[3][7], cells[7][7], cells[60][2] = 2, 5, 1
    op = LegAction(GF(P31), (64, 64, 64), ((1, Matrix(GF(P31), cells)),))
    c = (5 * 64 + 7) * 64 + 9  # leg indices (5, 7, 9)
    tracemalloc.start()
    try:
        got = op.apply_rows([{c: 3}])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [{c - 4 * 64: 6, c: 15}]
    assert peak < 256 * 1024  # a list of 262,144 entries alone takes 2 MiB
    assert [(stride, d, len(cols)) for stride, d, cols in op._columns] == [(64, 64, 64)]


def test_apply_reads_numpy_ints_in_object_vectors_exactly():
    v = np.array([np.int64(2**62), np.int64(0)], dtype=object)
    got = Matrix(QQ, [[2, 0], [0, 1]]).apply(v)
    assert got.tolist() == [2**63, 0]
    assert all(type(x) is int for x in got)


def test_factorization_residual_reads_numpy_ints_in_p_exactly():
    P = Q = builtin("m2").module("self")
    w = residual_witness_search(P, Q, 1)
    unit = factorization_residual(P, Q, w.f, list(w.b_indices), unit_vector(QQ, P.dim, w.p_index))
    p = np.array([np.int64(0)] * P.dim, dtype=object)
    p[w.p_index] = np.int64(2**62)
    got = factorization_residual(P, Q, w.f, list(w.b_indices), p)
    assert list(got) == [2**62 * x for x in unit]
    assert any(got) and all(type(x) is int for x in got)


# ---------------------------------------------------------------------------
# subspace operations on sparse rows against the naive oracle


def _naive_rref(field, vectors):
    """The nonzero RREF rows of a list of vectors."""
    if not vectors:
        return []
    red, pivots = naive_rref(vectors) if field == QQ else naive_rref_mod(vectors, field.p)
    return red[: len(pivots)]


def _naive_kernel(field, rows, n):
    """A basis of {v : r . v = 0 for every row r}, every unit vector for no rows."""
    if not rows:
        return [[int(i == j) for j in range(n)] for i in range(n)]
    return naive_kernel_basis(rows) if field == QQ else naive_kernel_basis_mod(rows, field.p)


def _naive_dense(dims, terms):
    """The matrix of sum_(axis, M) I (x) .. M .. (x) I, by comparing leg coordinates."""
    coords = list(itertools.product(*(range(d) for d in dims)))
    out = [[0] * len(coords) for _ in coords]
    for axis, m in terms:
        for a, x in enumerate(coords):
            for b, y in enumerate(coords):
                if all(x[k] == y[k] for k in range(len(dims)) if k != axis):
                    out[a][b] += m[x[axis]][y[axis]]
    return out


@st.composite
def oracle_cases(draw):
    """Sparse operators on one ambient, with each one's naive matrix, and four spanning sets."""
    field, entries = draw(st.sampled_from(FIELDS))
    dims = draw(st.sampled_from(DIMS))
    n = math.prod(dims)
    ops, mats = [], []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            cells = st.lists(st.sampled_from(entries), min_size=n, max_size=n)
            rows = draw(st.lists(cells, min_size=n, max_size=n))
            ops.append(Matrix(field, rows))
            mats.append(rows)
        else:
            act = _leg_action(draw, field, entries, dims)
            ops.append(act)
            mats.append(_naive_dense(dims, [(a, m.to_lists()) for a, m in act.terms]))

    def spanning():
        k = draw(st.integers(0, n))
        cells = st.lists(st.sampled_from(entries), min_size=n, max_size=n)
        return [draw(cells) for _ in range(k)]

    return field, n, ops, mats, spanning(), spanning(), spanning()


@settings(max_examples=120, deadline=None)
@given(oracle_cases())
def test_subspace_operations_match_the_naive_oracle(case):
    field, n, ops, mats, seed_rows, u_rows, w_rows = case

    # closure: re-spin the whole span until it stops growing
    span = _naive_rref(field, seed_rows)
    while True:
        bigger = _naive_rref(field, span + [naive_mat_vec(m, v) for m in mats for v in span])
        if len(bigger) == len(span):
            break
        span = bigger
    assert closure_under(ops, Subspace.from_spanning(field, n, seed_rows)).basis.to_lists() == span

    # joint kernel: the kernel of every operator's rows at once
    stacked = [row for m in mats for row in m]
    want = _naive_rref(field, _naive_kernel(field, stacked, n))
    assert joint_kernel(ops).basis.to_lists() == want

    # preimage: v with a . (op v) = 0 for every annihilator a of the target
    target = _naive_rref(field, u_rows)
    annihilators = _naive_kernel(field, target, n)
    conditions = [
        [sum(a[i] * m[i][j] for i in range(n)) for j in range(n)]
        for m in mats
        for a in annihilators
    ]
    want = _naive_rref(field, _naive_kernel(field, conditions, n))
    assert preimage(ops, Subspace.from_spanning(field, n, u_rows)).basis.to_lists() == want

    # intersection: the kernel of [U^T | -W^T] mapped back through U
    u, w = _naive_rref(field, u_rows), _naive_rref(field, w_rows)
    both = []
    if u and w:
        system = [[x[r] for x in u] + [-y[r] for y in w] for r in range(n)]
        coeffs = _naive_kernel(field, system, len(u) + len(w))
        both = [[sum(c[i] * x[j] for i, x in enumerate(u)) for j in range(n)] for c in coeffs]
    got = Subspace.from_spanning(field, n, u_rows) & Subspace.from_spanning(field, n, w_rows)
    assert got.basis.to_lists() == _naive_rref(field, both)


def test_unread_basis_compares_equal_to_a_read_one():
    for field in (QQ, GF(7)):
        rows = [[0, 2, 1, 0], [1, 0, 0, 3], [1, 2, 1, 3]]
        a = Subspace.from_spanning(field, 4, rows)
        b = Subspace.from_spanning(field, 4, rows[::-1])
        c = Subspace.from_rows(field, 4, [{1: 2, 2: 1}, {0: 1, 3: 3}])
        assert b.basis.rows == 2  # read b's dense basis only
        assert a.dim == c.dim == 2 and a.pivots == (0, 1)
        assert a == b and b == a and a == c and c == b
        assert not a <= Subspace.zero(field, 4) and a <= b
        assert a._basis is None and c._basis is None  # compared without a dense basis
        assert a.basis == b.basis == c.basis


# ---------------------------------------------------------------------------
# the jets on sparse rows


def _matrix_algebra(field, n):
    """M_n over field, basis the matrix units e_rc in row-major order."""
    pairs = [(r, c) for r in range(n) for c in range(n)]
    index = {pair: k for k, pair in enumerate(pairs)}
    mul = [[[0] * len(pairs) for _ in pairs] for _ in pairs]
    for i, (r1, c1) in enumerate(pairs):
        for j, (r2, c2) in enumerate(pairs):
            if c1 == r2:
                mul[i][j][index[r1, c2]] = 1
    unit = [int(r == c) for r, c in pairs]
    return Algebra(field, [f"e{r}{c}" for r, c in pairs], unit, mul, name=f"m{n}")


@pytest.mark.parametrize("field", [QQ, GF(P31)], ids=["Q", "GF(2^31-1)"])
def test_two_sided_jet_of_m3_agrees_across_fields(field):
    jet = two_sided_jet1(BimoduleRep.regular(_matrix_algebra(field, 3)))
    assert (jet.ambient_dim, jet.dim, jet.mu.dim) == (729, 153, 576)


def test_witness_search_demotes_each_free_lift_map_at_most_once(monkeypatch):
    P = Q = builtin("m2").module("self")
    calls = []
    real = linalg.RationalField.demote_array

    def counting(self, a):
        calls.append(a.shape)
        return real(self, a)

    monkeypatch.setattr(linalg.RationalField, "demote_array", counting)
    w = residual_witness_search(P, Q, 1)
    monkeypatch.undo()
    maps = TensorOneSided(P).left_linear_maps(Q).dim
    assert maps == 16
    assert len(calls) <= maps
    # the witness the search reported before it moved its words on sparse rows
    assert (w.b_indices, w.p_index, list(w.residual)) == ((0, 1), 2, [-1, 0, 0, 0])
    assert [(i, j, x) for i, r in enumerate(w.f.to_lists()) for j, x in enumerate(r) if x] == [
        (0, 0, 1),
        (2, 8, 1),
    ]
