import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ncjets import linalg
from ncjets.algebra import _combine
from ncjets.linalg import (
    GF,
    QQ,
    DimensionMismatch,
    Matrix,
    ScalarFormatError,
    Subspace,
    closure_under,
    joint_kernel,
    kernel,
    kernel_of_rows,
    preimage,
    rref,
    unit_vector,
    vector,
)
from ncjets.modules import LegAction

from algebra_builders import leg_action_matrix
from naive_gauss import naive_kernel_basis, naive_kernel_basis_mod, naive_rref, naive_rref_mod

F = Fraction


def mat(rows, field=QQ):
    return Matrix(field, rows)


# ---------------------------------------------------------------------------
# fields and scalars


def test_rational_scalar_roundtrip():
    for s in ["0", "5", "-3", "1/2", "-7/3", "22/7"]:
        x = QQ.parse(s)
        assert QQ.format(x) == s


def test_rational_parse_rejects_junk():
    # "$" alone would accept the strings with a trailing newline
    for s in ["0.5", "1/0", "1/-2", "a", "1 / 2", "", "5 ", "5\n", "1/2\n"]:
        with pytest.raises(ScalarFormatError):
            QQ.parse(s)


@pytest.mark.parametrize(
    "text, value", [("4/2", 2), ("-0", 0), ("+3", 3), ("-6/3", -2), ("0/5", 0), ("7", 7)]
)
def test_rational_parse_gives_an_int_for_an_integral_scalar(text, value):
    x = QQ.parse(text)
    assert x == value and type(x) is int


@pytest.mark.parametrize("text, value", [("6/4", F(3, 2)), ("-2/6", F(-1, 3)), ("+1/2", F(1, 2))])
def test_rational_parse_gives_a_fraction_in_lowest_terms(text, value):
    x = QQ.parse(text)
    assert x == value and type(x) is Fraction
    assert (x.numerator, x.denominator) == (value.numerator, value.denominator)


def test_rational_canonicalization():
    assert QQ.normalize(F(2, 4)) == F(1, 2)
    assert QQ.format(F(-1, -2)) == "1/2"


@pytest.mark.parametrize(
    "x", [0, -7, 2**70, -(2**70), F(1, 2), F(-22, 7), F(4, 2), F(5), np.int64(-3), True, False]
)
def test_rational_format_is_str_of_the_fraction(x):
    assert QQ.format(x) == str(Fraction(x))


@pytest.mark.parametrize(
    "field, rows",
    [
        (QQ, [[0, -7, 1, 2**70, -(2**70)], [F(1, 2), F(-22, 7), F(2**70, 3), 5, 0]]),
        (GF(7), [[0, 1, 3, 5, 6]]),
        (GF(2**31 - 1), [[0, 1, 12345, 2**31 - 3, 2**31 - 2]]),
    ],
)
def test_format_rows_is_format_cell_by_cell(field, rows):
    want = [[field.format(x) for x in row] for row in rows]
    assert field.format_rows(rows) == want
    assert Matrix(field, rows).to_strings() == want


def test_to_strings_of_numpy_int_cells_over_q():
    a = np.empty((2, 3), dtype=object)
    a[:] = [[np.int64(-3), np.int64(2**62), np.int32(7)], [np.int64(0), F(1, 3), 2**70]]
    want = [[QQ.format(x) for x in row] for row in a]
    assert Matrix._wrap(QQ, a).to_strings() == want
    assert QQ.format_rows(a.tolist()) == want


def test_prime_field_basics():
    f5 = GF(5)
    assert f5.parse("7") == 2
    assert f5.parse("3 mod 5") == 3
    assert f5.format(8) == "3 mod 5"
    assert f5.inv(2) == 3
    with pytest.raises(ScalarFormatError):
        f5.parse("3 mod 7")
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)
    for s in ["3 mod 7\n", "4\n", "4 "]:
        with pytest.raises(ScalarFormatError):
            GF(7).parse(s)


def test_prime_field_rejects_composites():
    for p in [0, 1, 4, 9, 2**31]:
        with pytest.raises(ValueError):
            GF(p)


def test_gf_fraction_normalization():
    f7 = GF(7)
    assert f7.normalize(F(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2**31 - 1)], ids=["Q", "GF7", "GF31"])
@pytest.mark.parametrize(
    "bad",
    [0.1, 1.0, True, False, np.bool_(True), np.float64(2.0), np.float32(0.5)],
    ids=repr,
)
def test_inexact_scalars_are_rejected(field, bad):
    with pytest.raises(ScalarFormatError):
        field.normalize(bad)
    with pytest.raises(ScalarFormatError):
        Matrix(field, [[0, bad]])
    with pytest.raises(ScalarFormatError):
        vector(field, [bad])


def test_exact_integer_types_are_accepted():
    assert Matrix(QQ, [[np.int64(3), F(1, 2)]]) == Matrix(QQ, [[3, F(1, 2)]])
    assert GF(7).normalize(np.int32(9)) == 2


@pytest.mark.parametrize("x", [0, 5, -3, 2**70, -(2**70)])
def test_python_ints_normalize_in_one_step(x):
    assert QQ.normalize(x) is x
    for p in (7, 2**31 - 1):
        y = GF(p).normalize(x)
        assert y == x % p and type(y) is int


_NUMPY_INTS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
_NEAR_THE_TOP = [2**62, 2**62 + 1, 2**63 - 1, 2**63, 2**64 - 1, -(2**62), -(2**63), -1, 0, 3]


def _py_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def _numpy_int_systems(draw):
    """A 3x3 system of one numpy int width, values near 2^62 and 2^63 clipped to the width."""
    dtype = draw(st.sampled_from(_NUMPY_INTS))
    info = np.iinfo(dtype)
    near = st.sampled_from(_NEAR_THE_TOP).map(lambda x: min(max(x, int(info.min)), int(info.max)))
    value = st.one_of(near, st.integers(int(info.min), int(info.max)))
    rows = draw(st.lists(st.lists(value, min_size=3, max_size=3), min_size=3, max_size=3))
    return dtype, rows


@settings(max_examples=60, deadline=None)
@given(_numpy_int_systems())
@example((np.int64, [[2**62, 0, 0], [0, 2**62, 0], [0, 0, 1]]))
def test_numpy_int_widths_stay_exact_over_q(case):
    dtype, rows = case
    cells = [[dtype(x) for x in row] for row in rows]
    stacked = np.array(rows, dtype=dtype)
    square = _py_matmul(rows, rows)
    for m in (Matrix(QQ, cells), Matrix(QQ, stacked)):
        assert m.to_lists() == rows
        assert all(type(x) is int for x in m.a.flat)
        assert (m @ m).to_lists() == square
        assert _product(Matrix._wrap(QQ, m.a.T.copy()), m.a).tolist() == square
        on_leg = LegAction(QQ, (3, 3), ((0, m),))
        assert _product(on_leg, m.a.reshape(1, -1)).reshape(3, 3).tolist() == square
        assert rref(m).matrix.to_lists() == naive_rref(rows)[0]
    assert all(type(x) is int for x in vector(QQ, cells[0]))
    on_leg = LegAction(QQ, (3, 3), ((0, Matrix._wrap(QQ, QQ.asarray(stacked))),))
    assert _product(on_leg, QQ.asarray(cells).reshape(1, -1)).reshape(3, 3).tolist() == square
    assert _combine(QQ, stacked[0], QQ.asarray(stacked)[:, None]).tolist() == [square[0]]
    # residuals modulo the line through (1, 1, 1): row v leaves v - v[0] (1, 1, 1)
    line = Subspace.from_spanning(QQ, 3, [[1, 1, 1]])
    want = [[0, v[1] - v[0], v[2] - v[0]] for v in rows]
    for given_rows in (stacked, cells):
        got = line.residuals(given_rows)
        assert got.tolist() == want
        assert all(type(x) is int for x in got.flat)
        assert line.contains_all(given_rows) == (not any(map(any, want)))


# ---------------------------------------------------------------------------
# rref / kernel


def test_rref_identity():
    m = Matrix.identity(QQ, 3)
    res = rref(m)
    assert res.matrix == m
    assert res.pivots == (0, 1, 2)
    assert res.rank == 3


def test_rref_dependent_rows():
    res = rref(mat([[2, 4], [1, 2]]))
    assert res.matrix == mat([[1, 2], [0, 0]])
    assert res.rank == 1


def test_rref_zero():
    m = Matrix.zeros(QQ, 2, 3)
    res = rref(m)
    assert res.matrix == m
    assert res.rank == 0


def test_rref_gf2():
    f2 = GF(2)
    res = rref(Matrix(f2, [[1, 1, 0], [1, 0, 1]]))
    assert res.matrix == Matrix(f2, [[1, 0, 1], [0, 1, 1]])


def test_kernel_identity_and_zero():
    assert kernel(Matrix.identity(QQ, 2)).is_zero()
    assert kernel(Matrix.zeros(QQ, 2, 2)).is_full()


def test_kernel_rank_nullity():
    ker = kernel(mat([[1, 1]]))
    assert ker.dim == 1
    assert ker.contains(vector(QQ, [1, -1]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=4),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_rref_idempotent_and_matches_naive(rows):
    m = mat(rows)
    res = rref(m)
    again = rref(res.matrix)
    assert again.matrix == res.matrix
    naive, naive_piv = naive_rref(rows)
    assert res.matrix.to_lists() == naive
    assert list(res.pivots) == naive_piv


def _assert_canonical_q(a):
    # integral cells are plain ints, never Fraction(n, 1) or a numpy int
    for x in a.ravel():
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1), repr(x)


_Q_ENTRIES = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-20, max_value=20, max_denominator=50),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**70, -(2**70), 2**63, -(2**63) - 1]),
)


@st.composite
def _q_matrices(draw):
    """Up to 8x10 over Q, with zero rows and dependent rows mixed in."""
    nrows = draw(st.integers(min_value=1, max_value=8))
    ncols = draw(st.integers(min_value=1, max_value=10))
    row = st.lists(_Q_ENTRIES, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    if nrows > 1 and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if nrows > 2 and draw(st.booleans()):
        c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=7))
        rows[0] = [x + c * y for x, y in zip(rows[1], rows[2])]
    return rows


@settings(max_examples=150, deadline=None)
@given(_q_matrices())
def test_fraction_free_rref_matches_naive(rows):
    res = rref(mat(rows))
    naive, naive_piv = naive_rref(rows)
    assert res.matrix.to_lists() == naive
    assert list(res.pivots) == naive_piv
    _assert_canonical_q(res.matrix.a)
    # the same values given as Fraction(n, 1) and numpy ints: same RREF, still canonical
    a = np.array(mat(rows).a, dtype=object)
    for k, x in enumerate(a.flat):
        if type(x) is int:
            a.flat[k] = np.int64(x) if k % 2 and -(2**63) <= x < 2**63 else Fraction(x)
    res = rref(Matrix._wrap(QQ, a))  # rref reads the cells as they are
    assert res.matrix.to_lists() == naive and list(res.pivots) == naive_piv
    _assert_canonical_q(res.matrix.a)


def test_fraction_free_rref_negative_and_non_unit_pivots():
    # pivots -3, 2/3 and 22 on the way, zero rows first and in between
    rows = [[0, 0, 0, 0, 0], [-3, 6, 1, 0, 1], [0, 0, 0, 0, 0], [2, -4, 0, 5, 0], [0, 0, -2, 7, 0]]
    res = rref(mat(rows))
    assert res.pivots == (0, 2, 3)
    assert res.matrix.to_lists() == naive_rref(rows)[0]
    assert res.matrix.row(0).tolist()[:4] == [1, -2, 0, 0]
    assert res.matrix.row(3).tolist() == [0] * 5
    _assert_canonical_q(res.matrix.a)


def test_fraction_free_rref_hilbert_growth():
    # [H | I] reduces to [I | H^-1]; the inverse Hilbert matrix is integral with
    # entries far beyond the inputs (1.2e11 at n = 9)
    n = 9
    rows = [[F(1, i + j + 1) for j in range(n)] + [int(i == j) for j in range(n)] for i in range(n)]
    res = rref(mat(rows))
    naive, naive_piv = naive_rref(rows)
    assert res.matrix.to_lists() == naive and list(res.pivots) == naive_piv == list(range(n))
    inv = res.matrix.a[:, n:]
    assert inv[n - 1, n - 1] == (2 * n - 1) * math.comb(2 * n - 2, n - 1) ** 2
    assert max(abs(x) for x in inv.ravel()) > 2**36
    _assert_canonical_q(res.matrix.a)
    assert all(type(x) is int for x in inv.ravel())
    h = np.array([r[:n] for r in rows], dtype=object)
    assert (h.dot(inv) == np.eye(n, dtype=int)).all()


def test_from_spanning_and_rref_never_demote_the_echelon(monkeypatch):
    calls = []
    real = linalg.RationalField.demote_array

    def counting(self, a):
        calls.append(a.shape)
        return real(self, a)

    monkeypatch.setattr(linalg.RationalField, "demote_array", counting)
    rows = np.array([[F(2, 1), F(1, 2), 0], [4, 1, 0], [0, F(6, 3), 3]], dtype=object)
    s = Subspace.from_spanning(QQ, 3, rows)
    res = rref(s.basis)
    assert calls == []
    assert s.basis.to_lists() == [[1, 0, F(-3, 8)], [0, 1, F(3, 2)]]
    _assert_canonical_q(s.basis.a)
    assert res.matrix == s.basis
    assert rows[0, 0] == 2 and type(rows[0, 0]) is Fraction and rows.flags.writeable


# ---------------------------------------------------------------------------
# sparse Gauss-Jordan against the oracle

P31 = 2**31 - 1


def _q_cell_types(draw, x):
    """x as an int, np.int64, Fraction(n, 1) or proper Fraction: the types a Q cell arrives in."""
    if type(x) is Fraction:
        return x
    kinds = ["int", "fraction"] + (["int64"] if -(2**63) <= x < 2**63 else [])
    kind = draw(st.sampled_from(kinds))
    return np.int64(x) if kind == "int64" else Fraction(x) if kind == "fraction" else x


@st.composite
def _sparse_systems(draw):
    """Up to 16x24 at about 10% density over Q or GF(p), p in {2, 7, 2^31-1}.

    Returns (field, canonical rows for the oracle, the array handed to
    rref).  Rows are often sorted by decreasing leading column, so a
    later row opens a pivot left of the earlier ones and that column must
    be cleared from the earlier pivot rows; a combination of two rows
    makes a rank drop likely.
    """
    field = draw(st.sampled_from([QQ, GF(2), GF(7), GF(P31)]))
    nrows, ncols = draw(st.integers(1, 16)), draw(st.integers(1, 24))
    if field == QQ:
        value = st.one_of(
            st.integers(-9, 9),
            st.fractions(min_value=-20, max_value=20, max_denominator=50),
            st.sampled_from([2**70, -(2**70), 2**63, -(2**63) - 1]),
        ).filter(bool)
    else:
        p = field.p
        top = st.sampled_from(sorted({1, p - 1, max(p - 2, 1)}))
        value = st.one_of(top, st.integers(1, p - 1))
    rows = [[0] * ncols for _ in range(nrows)]
    cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1), value)
    for i, j, x in draw(st.lists(cells, max_size=max(1, nrows * ncols // 10))):
        rows[i][j] = x
    if draw(st.booleans()):
        rows.sort(key=lambda r: next((j for j, x in enumerate(r) if x), ncols), reverse=True)
    if nrows > 2 and draw(st.booleans()):
        c = draw(value)
        rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1])]
        if field != QQ:
            rows[-1] = [x % field.p for x in rows[-1]]
    if field == QQ:
        a = np.empty((nrows, ncols), dtype=object)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                a[i, j] = _q_cell_types(draw, x) if x else 0
    else:
        a = np.array(rows, dtype=np.int64)
    return field, rows, a


@settings(max_examples=200, deadline=None)
@given(_sparse_systems())
def test_sparse_gauss_jordan_matches_naive(case):
    field, rows, a = case
    given_cells = a.copy()
    res = rref(Matrix._wrap(field, a))  # rref reads the cells as they are
    out, piv = res.matrix.a, list(res.pivots)
    if field == QQ:
        want, want_piv = naive_rref(rows)
        _assert_canonical_q(out)
    else:
        want, want_piv = naive_rref_mod(rows, field.p)
        assert out.dtype == np.int64
    assert out.shape == a.shape
    assert out.tolist() == want
    assert piv == want_piv
    assert np.array_equal(a, given_cells)  # the input is left as it was
    again = rref(res.matrix)
    assert again.matrix == res.matrix and list(again.pivots) == piv


def test_new_pivot_is_cleared_from_earlier_pivot_rows():
    # each row leads left of the rows before it: every pivot after the
    # first lands in a column the earlier pivot rows hold
    rows = [[0, 0, 0, 2, 1], [0, 0, 3, 1, 0], [0, 5, 1, 0, 0], [7, 1, 0, 0, 0]]
    for field in (QQ, GF(2), GF(7), GF(P31)):
        res = rref(Matrix(field, rows))
        p = getattr(field, "p", None)
        want, want_piv = naive_rref(rows) if p is None else naive_rref_mod(rows, p)
        assert res.matrix.to_lists() == want and list(res.pivots) == want_piv


def _scan_subtract(row, f, other, p):
    for j, v in other.items():
        x = row.get(j, 0) - f * v
        if p:
            x %= p
        if x:
            row[j] = x
        else:
            del row[j]


def _scan_grow(tails, rows, p):
    """Sparse incremental Gauss-Jordan that clears each new pivot column by scanning every tail."""
    pivots = []
    for row in rows:
        for c in [c for c in row if c in tails]:
            _scan_subtract(row, row.pop(c), tails[c], p)
        if not row:
            continue
        c = min(row)
        s = row.pop(c)
        if s != 1:
            if p:
                s = pow(s, -1, p)
            else:
                s = 1 / Fraction(s)
                s = s.numerator if s.denominator == 1 else s
            for k, x in row.items():
                row[k] = x * s % p if p else x * s
        for tail in tails.values():
            if c in tail:
                _scan_subtract(tail, tail.pop(c), row, p)
        tails[c] = row
        pivots.append(c)
    return pivots


def _typed(tails):
    """The echelon as its pivots and tails, in key order, each value with its type."""
    return [(c, [(j, type(x), x) for j, x in tail.items()]) for c, tail in tails.items()]


@st.composite
def _row_streams(draw):
    q_cells = [0, 0, 0, 1, -1, 2, -3, F(1, 2), F(-2, 3), 2**70]
    field, cells = draw(st.sampled_from([(QQ, q_cells), (GF(7), [0, 0, 0, 1, 6, 3])]))
    n = draw(st.integers(1, 9))
    row = st.lists(st.sampled_from(cells), min_size=n, max_size=n).map(
        lambda xs: {j: x for j, x in enumerate(xs) if x}
    )
    return field, draw(st.lists(st.lists(row, max_size=6), min_size=2, max_size=5))


@settings(max_examples=150, deadline=None)
@given(_row_streams())
def test_one_echelon_grown_by_several_calls_keeps_its_column_index(case):
    # as closure_under does: the first call builds its own index, later
    # calls share one built from the echelon so far
    field, batches = case
    tails, ref = {}, {}
    where = None
    for batch in batches:
        pivots = linalg._grow(tails, [dict(row) for row in batch], field, where)
        assert pivots == _scan_grow(ref, [dict(row) for row in batch], field.modulus)
        assert _typed(tails) == _typed(ref)
        rebuilt = {}
        for c, tail in tails.items():
            for j in tail:
                rebuilt.setdefault(j, set()).add(c)
        if where is None:
            where = linalg._occurrences(tails)
        assert where == rebuilt


@given(st.integers().filter(bool), st.integers(1))
def test_rational_inverse_of_ints_and_unit_fractions_is_an_int_only_when_integral(x, d):
    for y in (1, -1):
        assert type(QQ.inv(y)) is int and QQ.inv(y) == y
        assert type(QQ.inv(F(y, d))) is int and QQ.inv(F(y, d)) == y * d
    if x not in (1, -1):
        assert type(QQ.inv(x)) is Fraction and QQ.inv(x) == F(1, x)
    q = F(x, d)
    if abs(q.numerator) != 1:
        assert type(QQ.inv(q)) is Fraction and QQ.inv(q) == 1 / q
    for zero in (0, F(0)):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(zero)


@pytest.mark.parametrize("name", ["naive_gauss.py", "oracle_systems.py"])
def test_oracle_imports_neither_the_library_nor_numpy(name):
    # the referee stays independent of the kernel it judges
    tree = ast.parse((Path(__file__).parent / name).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported, name
    assert not imported & {"ncjets", "numpy", "importlib"}, imported


_SPARSE_ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, F(3, 2), F(-3, 2), 2**70, -(2**70)])


@st.composite
def _product_operands(draw):
    """a (m x k) and b (k x n) over one field, with all-zero rows and columns mixed in."""
    field = draw(st.sampled_from([QQ, GF(7), GF(2**31 - 1)]))
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))

    def operand(r, c):
        cells = draw(st.lists(_SPARSE_ENTRIES, min_size=r * c, max_size=r * c))
        a = np.array(cells, dtype=object).reshape(r, c)
        if r and c and draw(st.booleans()):
            a[draw(st.integers(0, r - 1)), :] = 0
        if r and c and draw(st.booleans()):
            a[:, draw(st.integers(0, c - 1))] = 0
        return field.asarray(a)

    return field, operand(m, k), operand(k, n)


def _product(op, a: np.ndarray) -> np.ndarray:
    """a @ op.T through op.apply_rows on the sparse rows of a."""
    moved = op.apply_rows(linalg._sparse_rows(a))
    return linalg._dense(moved, (a.shape[0], op.shape[0]), op.field.dtype)


@settings(max_examples=120, deadline=None)
@given(_product_operands())
def test_apply_rows_matches_dense_dot(case):
    field, a, b = case
    got = _product(Matrix._wrap(field, b.T.copy()), a)
    want = field.dot(a, b)
    assert got.shape == want.shape == (a.shape[0], b.shape[1])
    assert got.tolist() == want.tolist()
    exact = np.dot(a.astype(object), b.astype(object))
    assert got.tolist() == (exact if field == QQ else exact % field.p).tolist()


def test_identity_zeros_and_full_hold_python_ints_over_q(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg.RationalField, "demote_array", lambda self, a: calls.append(a))
    for a in (Matrix.identity(QQ, 4).a, Matrix.zeros(QQ, 2, 3).a, Subspace.full(QQ, 5).basis.a):
        assert a.dtype == object and a.size
        assert all(type(x) is int for x in a.ravel())
    assert Matrix.zeros(QQ, 0, 3).shape == (0, 3)
    assert calls == []


def test_restriction_and_intersection_never_demote(monkeypatch):
    calls = []
    real = linalg.RationalField.demote_array

    def counting(self, a):
        calls.append(a.shape)
        return real(self, a)

    t = Matrix(QQ, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    ops = [LegAction(QQ, (3, 3), ((0, t),)) - LegAction(QQ, (3, 3), ((1, t.T),))]
    target = Subspace.from_spanning(QQ, 9, [[1, 0, 0, 0, 1, 0, 0, 0, F(1, 2)]])
    u = Subspace.from_spanning(QQ, 3, [[1, F(1, 2), 0], [0, 1, 3]])
    w = Subspace.from_spanning(QQ, 3, [[2, 1, 0], [0, 0, 1]])
    monkeypatch.setattr(linalg.RationalField, "demote_array", counting)
    ker = joint_kernel(ops)
    pre = preimage(ops, target)
    both = u & w
    assert calls == []
    dense = [leg_action_matrix(op) for op in ops]
    assert ker == joint_kernel(dense) and ker.dim == 3
    assert pre == preimage(dense, target)
    assert both.basis.to_lists() == [[1, F(1, 2), 0]]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4),
        min_size=1,
        max_size=3,
    )
)
def test_kernel_matches_naive(rows):
    ker = kernel(mat(rows))
    naive = naive_kernel_basis(rows)
    assert ker.dim == len(naive)
    for v in naive:
        assert ker.contains(vector(QQ, v))


# ---------------------------------------------------------------------------
# subspace lattice


def test_intersection_of_axes():
    e1 = Subspace.from_spanning(QQ, 2, [vector(QQ, [1, 0])])
    e2 = Subspace.from_spanning(QQ, 2, [vector(QQ, [0, 1])])
    assert (e1 & e2).is_zero()


def test_intersection_three_dim():
    u = Subspace.from_spanning(QQ, 3, [unit_vector(QQ, 3, 0), unit_vector(QQ, 3, 1)])
    v = Subspace.from_spanning(QQ, 3, [unit_vector(QQ, 3, 1), unit_vector(QQ, 3, 2)])
    w = u & v
    assert w.dim == 1
    assert w.contains(unit_vector(QQ, 3, 1))


def test_sum_and_subset():
    u = Subspace.from_spanning(QQ, 3, [vector(QQ, [1, 1, 0])])
    v = Subspace.from_spanning(QQ, 3, [vector(QQ, [0, 1, 1])])
    s = u + v
    assert s.dim == 2
    assert u <= s and v <= s
    assert not s <= u


def test_ambient_mismatch():
    u = Subspace.zero(QQ, 2)
    v = Subspace.zero(QQ, 3)
    with pytest.raises(DimensionMismatch):
        u + v
    with pytest.raises(DimensionMismatch):
        u & v


def test_subspace_canonical_equality():
    a = Subspace.from_spanning(QQ, 2, [vector(QQ, [2, 2]), vector(QQ, [1, 1])])
    b = Subspace.from_spanning(QQ, 2, [vector(QQ, [-3, -3])])
    assert a == b


def test_intersection_eliminates_reduced_entries_over_prime_field(monkeypatch):
    # the residual of e0 modulo V is -e1: every row reaching the elimination must hold 6, not -1
    field = GF(7)
    u = Subspace.from_spanning(field, 3, [vector(field, [1, 0, 0]), vector(field, [0, 1, 0])])
    v = Subspace.from_spanning(field, 3, [vector(field, [1, 1, 0]), vector(field, [0, 0, 1])])
    seen = []
    grow = linalg._grow

    def recording_grow(tails, rows, field, where=None):
        rows = list(rows)
        seen.append([dict(row) for row in rows])  # the rows eliminated
        pivots = grow(tails, rows, field, where)
        seen.append([dict(tail) for tail in tails.values()])  # the echelon they built
        return pivots

    monkeypatch.setattr(linalg, "_grow", recording_grow)
    w = u & v
    monkeypatch.undo()
    assert w == Subspace.from_spanning(field, 3, [vector(field, [1, 1, 0])])
    assert seen
    for rows in seen:
        for row in rows:
            assert all(0 <= x < 7 for x in row.values())


def test_prime_field_arrays_are_reduced_int64():
    field = GF(7)
    m = Matrix._raw(field, np.array([[-1, 9], [14, 3]], dtype=object))
    assert m.a.dtype == np.int64 and m.a.tolist() == [[6, 2], [0, 3]]
    assert (m @ m).a.dtype == np.int64
    assert Matrix(field, [[-1, 8]]).a.tolist() == [[6, 1]]
    assert vector(field, [-2, 3]).tolist() == [5, 3]
    assert Matrix(QQ, [[1, F(1, 2)]]).a.dtype == object
    with pytest.raises(ScalarFormatError):
        field.asarray(np.array([0.5]))
    # scalars from outside reach the kernel as object arrays: Fractions invert, floats are refused
    assert field.asarray(np.array([F(1, 2), 2**70, -1], dtype=object)).tolist() == [4, 2**70 % 7, 6]
    with pytest.raises(ScalarFormatError):
        field.asarray(np.array([1, 0.5], dtype=object))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=0, max_size=3),
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=0, max_size=3),
)
def test_dimension_formula(rows_u, rows_v):
    u = Subspace.from_spanning(QQ, 4, [vector(QQ, r) for r in rows_u])
    v = Subspace.from_spanning(QQ, 4, [vector(QQ, r) for r in rows_v])
    assert (u + v).dim + (u & v).dim == u.dim + v.dim


# ---------------------------------------------------------------------------
# quotients


def dense_quotient(q):
    """q's projection as a matrix, read through project, and its section.

    The section is the unit columns at q.free, the coordinates that index
    the quotient.
    """
    field, n = q.subspace.field, q.subspace.ambient_dim
    units = Matrix.identity(field, n).a[:, list(q.free)]
    return q.project([{c: 1} for c in range(n)]), Matrix(field, units)


def test_quotient_by_axis():
    u = Subspace.from_spanning(QQ, 4, [unit_vector(QQ, 4, 3)])
    q = u.quotient()
    assert q.dim == 3
    projection, _ = dense_quotient(q)
    assert all(x == 0 for x in projection.apply(unit_vector(QQ, 4, 3)))


def test_quotient_identities():
    u = Subspace.from_spanning(QQ, 4, [vector(QQ, [1, 2, 0, 1]), vector(QQ, [0, 0, 1, 5])])
    q = u.quotient()
    assert q.dim == 2
    projection, section = dense_quotient(q)
    comp = projection @ section
    assert comp == Matrix.identity(QQ, 2)
    assert kernel(projection) == u


def test_quotient_projection_is_reduced_over_prime_field():
    field = GF(7)
    u = Subspace.from_spanning(field, 3, [vector(field, [1, 2, 3])])
    q = u.quotient()
    projection, _ = dense_quotient(q)
    assert all(0 <= x < 7 for x in projection.a.flat)
    assert projection == projection @ Matrix.identity(field, 3)
    assert kernel(projection) == u


def test_quotient_of_zero_and_full():
    z = Subspace.zero(QQ, 3)
    qz = z.quotient()
    assert qz.dim == 3 and dense_quotient(qz)[0] == Matrix.identity(QQ, 3)
    f = Subspace.full(QQ, 3)
    qf = f.quotient()
    assert qf.dim == 0
    projection, section = dense_quotient(qf)
    assert (projection @ section).shape == (0, 0)


# ---------------------------------------------------------------------------
# closure and preimage


def shift3():
    # e1 -> 0, e2 -> e1, e3 -> e2
    return mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def test_closure_identity_fixes_seed():
    seed = Subspace.from_spanning(QQ, 3, [vector(QQ, [1, 2, 3])])
    assert closure_under([Matrix.identity(QQ, 3)], seed) == seed


def test_closure_nilpotent_shift():
    seed1 = Subspace.from_spanning(QQ, 3, [unit_vector(QQ, 3, 0)])
    assert closure_under([shift3()], seed1) == seed1
    seed3 = Subspace.from_spanning(QQ, 3, [unit_vector(QQ, 3, 2)])
    assert closure_under([shift3()], seed3).is_full()


def test_closure_monotone_idempotent():
    ops = [shift3()]
    small = Subspace.from_spanning(QQ, 3, [unit_vector(QQ, 3, 1)])
    big = small + Subspace.from_spanning(QQ, 3, [unit_vector(QQ, 3, 2)])
    cs, cb = closure_under(ops, small), closure_under(ops, big)
    assert cs <= cb
    assert closure_under(ops, cs) == cs


def _naive_closure(ops, seed):
    """Re-spin the whole basis every pass until the span stops growing."""
    dense = [leg_action_matrix(op) if isinstance(op, LegAction) else op for op in ops]
    current = seed
    while True:
        images = [op.apply(v) for op in dense for v in current.basis_vectors()]
        bigger = Subspace.from_spanning(
            seed.field, seed.ambient_dim, current.basis_vectors() + images
        )
        if bigger.dim == current.dim:
            return bigger
        current = bigger


@st.composite
def closure_cases(draw):
    field = draw(st.sampled_from([QQ, GF(7), GF(101)]))
    dims = draw(st.sampled_from([(4,), (2, 2), (2, 3), (3, 2), (2, 1, 2)]))
    n = int(np.prod(dims))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])

    def square(d):
        rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
        return Matrix(field, rows)

    def leg():
        axis = draw(st.integers(0, len(dims) - 1))
        return LegAction(field, dims, ((axis, square(dims[axis])),))

    makers = {"matrix": lambda: square(n), "leg": leg, "difference": lambda: leg() - leg()}
    kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=1, max_size=3))
    ops = [makers[kind]() for kind in kinds]
    seed_rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3))
    return ops, Subspace.from_spanning(field, n, [vector(field, r) for r in seed_rows])


@settings(max_examples=80, deadline=None)
@given(closure_cases())
def test_frontier_closure_matches_naive_respin(case):
    ops, seed = case
    closed = closure_under(ops, seed)
    assert closed == _naive_closure(ops, seed)
    assert seed <= closed


def _naive_intersection(field, u_rows, w_rows):
    """RREF rows of span(u) & span(w), from the oracle's kernel of [U^T | -W^T]."""
    if not u_rows or not w_rows:
        return []
    n = len(u_rows[0])
    system = [[u[r] for u in u_rows] + [-w[r] for w in w_rows] for r in range(n)]
    rational = field == QQ
    coeffs = naive_kernel_basis(system) if rational else naive_kernel_basis_mod(system, field.p)
    vecs = [[sum(c[i] * u[j] for i, u in enumerate(u_rows)) for j in range(n)] for c in coeffs]
    if not vecs:
        return []
    red, pivots = naive_rref(vecs) if rational else naive_rref_mod(vecs, field.p)
    return red[: len(pivots)]


@st.composite
def _merged_cases(draw):
    """A closure case and two spanning sets over its field: random, zero, full, equal or nested."""
    ops, seed = draw(closure_cases())
    n = draw(st.integers(1, 5))
    entry = st.sampled_from([0, 0, 1, -1, 2, 3])

    def rows():
        return draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n))

    u = rows()
    kind = draw(st.sampled_from(["random", "zero", "full", "equal", "nested"]))
    w = {
        "random": rows,
        "zero": list,
        "full": lambda: [[int(i == j) for j in range(n)] for i in range(n)],
        "equal": lambda: u[::-1],
        "nested": lambda: u + rows(),
    }[kind]()
    if draw(st.booleans()):
        u, w = w, u
    return ops, seed, n, u, w


@settings(max_examples=80, deadline=None)
@given(_merged_cases())
def test_intersection_and_induced_maps_match_the_oracle(case):
    ops, seed, n, u_rows, w_rows = case
    field = seed.field
    u, w = ([vector(field, r) for r in rows] for rows in (u_rows, w_rows))
    u, w = Subspace.from_spanning(field, n, u), Subspace.from_spanning(field, n, w)
    assert (u & w).basis.to_lists() == _naive_intersection(field, u_rows, w_rows)
    quot = closure_under(ops, seed).quotient()
    projection, section = dense_quotient(quot)
    for op in ops:
        dense = leg_action_matrix(op) if isinstance(op, LegAction) else op
        got = quot.induced(op).dense
        assert got == projection @ dense @ section
        if field == QQ:
            _assert_canonical_q(got.a)


def _quotient_rows(data, field, d: int) -> list[dict]:
    """Sparse rows of a quotient of dim d over field: some zero, possibly none at all."""
    if field == QQ:
        value = st.sampled_from([1, -1, 2, 3, Fraction(1, 2), Fraction(-3, 2)])
    else:
        value = st.integers(1, field.p - 1)
    row = st.just({}) if d == 0 else st.dictionaries(st.integers(0, d - 1), value, max_size=d)
    return data.draw(st.lists(row, max_size=4)) + [{}]


@settings(max_examples=80, deadline=None)
@given(closure_cases(), st.data())
def test_induced_operator_rows_match_the_dense_oracle(case, data):
    # apply_rows, lift by the section, the op, reduction modulo the closure,
    # is projection @ dense(op) @ section on every row, and consumes none
    ops, seed = case
    field = seed.field
    quot = closure_under(ops, seed).quotient()
    projection, section = dense_quotient(quot)
    for op in ops:
        dense = leg_action_matrix(op) if isinstance(op, LegAction) else op
        oracle = projection @ dense @ section
        induced = quot.induced(op)
        assert induced.shape == oracle.shape and induced.field == field
        assert induced.apply_rows([]) == []
        rows = _quotient_rows(data, field, quot.dim)
        given_rows = [dict(r) for r in rows]
        want = []
        for r in rows:
            v = field.asarray([r.get(t, 0) for t in range(quot.dim)])
            image = field.reduce_array(field.dot(oracle.a, v)).tolist() if quot.dim else []
            want.append({t: x for t, x in enumerate(image) if x != 0})
        assert induced.apply_rows(rows) == want
        assert rows == given_rows
        for bad in (-1, quot.dim):
            with pytest.raises(DimensionMismatch):
                induced.apply_rows([{bad: 1}])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([QQ, GF(7)]),
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), max_size=3),
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=4),
)
def test_residuals_match_single_vector_reduction(field, basis_rows, rows):
    sub = Subspace.from_spanning(field, 4, [vector(field, r) for r in basis_rows])
    stack = np.array([vector(field, r) for r in rows], dtype=object)
    resid = sub.residuals(stack)
    refs = []
    for v in stack:
        # reference: eliminate one vector against the basis, pivot by pivot
        ref = v.copy()
        for j, c in enumerate(sub.pivots):
            if ref[c] != 0:
                ref = field.reduce_array(ref - ref[c] * sub.basis.a[j])
        refs.append(ref)
    for got, ref, v in zip(resid, refs, stack):
        assert list(got) == list(ref)
        assert sub.contains(v) == (not any(x != 0 for x in ref))
    assert sub.contains_all(stack) == all(not any(x != 0 for x in ref) for ref in refs)


@st.composite
def leg_families(draw):
    """A family of LegActions on one ambient, and a target subspace strictly inside it."""
    field = draw(st.sampled_from([QQ, GF(7), GF(101)]))
    dims = draw(st.sampled_from([(4,), (2, 2), (2, 3), (3, 2), (2, 1, 2), (3, 3)]))
    n = int(np.prod(dims))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])

    def leg():
        axis = draw(st.integers(0, len(dims) - 1))
        d = dims[axis]
        rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
        return LegAction(field, dims, ((axis, Matrix(field, rows)),))

    makers = [leg, lambda: leg() - leg()]
    ops = [draw(st.sampled_from(makers))() for _ in range(draw(st.integers(1, 3)))]
    target_rows = draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=n - 1)
    )
    target = Subspace.from_spanning(field, n, [vector(field, r) for r in target_rows])
    assume(not target.is_zero())
    return ops, target


@settings(max_examples=80, deadline=None)
@given(leg_families())
def test_leg_action_kernels_and_preimages_match_dense(case):
    ops, target = case
    dense = [leg_action_matrix(op) for op in ops]
    assert joint_kernel(ops) == joint_kernel(dense)
    pre = preimage(ops, target)
    assert pre == preimage(dense, target)
    # the projection formula the residual reduction replaces
    q, _ = dense_quotient(target.quotient())
    assert pre == joint_kernel([q @ d for d in dense])
    for d in dense:
        assert target.contains_all(d.apply_rows(pre.rows))


def test_preimage_cases():
    full = Subspace.full(QQ, 2)
    assert preimage([Matrix.identity(QQ, 2)], full).is_full()
    zero = Subspace.zero(QQ, 2)
    assert preimage([Matrix.identity(QQ, 2)], zero).is_zero()
    proj = mat([[1, 0], [0, 0]])
    target = Subspace.from_spanning(QQ, 2, [unit_vector(QQ, 2, 0)])
    assert preimage([proj], target).is_full()


def test_preimage_of_a_family_is_the_intersection():
    swap = mat([[0, 1], [1, 0]])
    target = Subspace.from_spanning(QQ, 2, [unit_vector(QQ, 2, 0)])
    assert preimage([Matrix.identity(QQ, 2)], target) == target
    assert preimage([swap], target) == Subspace.from_spanning(QQ, 2, [unit_vector(QQ, 2, 1)])
    assert preimage([Matrix.identity(QQ, 2), swap], target).is_zero()


def test_preimage_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        preimage([Matrix.identity(QQ, 2)], Subspace.zero(QQ, 3))
    with pytest.raises(DimensionMismatch):
        preimage([Matrix.identity(QQ, 3), Matrix.identity(QQ, 2)], Subspace.zero(QQ, 3))
    with pytest.raises(ValueError):
        preimage([], Subspace.zero(QQ, 3))


def test_outside_is_the_first_basis_row_that_sticks_out():
    line = Subspace.from_spanning(QQ, 3, [vector(QQ, [1, 1, 0])])
    plane = Subspace.from_spanning(QQ, 3, [vector(QQ, [1, 1, 0]), vector(QQ, [0, 0, 1])])
    other = Subspace.from_spanning(QQ, 3, [vector(QQ, [1, 0, 0]), vector(QQ, [0, 0, 1])])
    assert line.outside(plane) is None
    assert list(plane.outside(line)) == [0, 0, 1]
    assert list(plane.outside(other)) == list(plane.basis.a[0])
    assert Subspace.zero(QQ, 3).outside(line) is None
    with pytest.raises(DimensionMismatch):
        line.outside(Subspace.zero(QQ, 2))


def test_constructors_record_pivots():
    assert Subspace.zero(QQ, 3).pivots == ()
    assert Subspace.full(QQ, 3).pivots == (0, 1, 2)
    sub = Subspace.from_spanning(QQ, 4, [vector(QQ, [0, 2, 1, 0]), vector(QQ, [0, 0, 0, 3])])
    assert sub.pivots == (1, 3)


def test_contains_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        Subspace.full(QQ, 3).contains(vector(QQ, [1, 0]))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([QQ, GF(7)]),
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=4),
)
def test_kernel_rows_are_the_quotient_projection(field, rows):
    m = Matrix(field, rows)
    ker = kernel(m)
    projection, _ = dense_quotient(Subspace.from_spanning(field, 4, m.a).quotient())
    assert ker == Subspace.from_spanning(field, 4, projection.a)
    assert not field.reduce_array(np.dot(m.a, ker.basis.a.T)).any()


def test_joint_kernel():
    a = mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    b = mat([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    jk = joint_kernel([a, b])
    assert jk.dim == 1
    assert jk.contains(unit_vector(QQ, 3, 2))


# ---------------------------------------------------------------------------
# one elimination per kernel

# each field with the nonzero cells its kernel systems draw: non-unit and
# fractional over Q, residues and the top ones over the prime fields
KERNEL_FIELDS = [
    (QQ, [1, -1, 2, -3, F(1, 2), F(-2, 3), 2**70]),
    (GF(7), [1, 2, 3, 6]),
    (GF(P31), [1, 2, P31 - 1, P31 - 2]),
]


def _naive_echelon(field, vectors):
    """The naive RREF's nonzero rows and its pivots, over Q or F_p."""
    if not vectors:
        return [], []
    red, pivots = naive_rref(vectors) if field == QQ else naive_rref_mod(vectors, field.p)
    return red[: len(pivots)], pivots


def _naive_null(field, rows, n):
    """A basis of {v in K^n : r . v = 0 for every row r}; every unit vector for no rows."""
    if not rows:
        return [[int(i == j) for j in range(n)] for i in range(n)]
    return naive_kernel_basis(rows) if field == QQ else naive_kernel_basis_mod(rows, field.p)


def _assert_naive_echelon(field, sub, vectors):
    """sub's pivots and tails equal, value for value, those of the naive RREF of vectors."""
    rows, pivots = _naive_echelon(field, vectors)
    assert sub.pivots == tuple(pivots)
    want = {c: {k: x for k, x in enumerate(row) if x and k != c} for c, row in zip(pivots, rows)}
    assert sub._tails == want


def _sparse(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


@st.composite
def _kernel_systems(draw):
    """(field, n, rows, split, target, w): rows with zero, repeated and full-rank blocks.

    rows may be empty; split cuts them between two operators; target and
    w span subspaces of K^len(rows) and K^n for preimage and intersection.
    """
    field, values = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(1, 7))

    def vectors(width, most):
        cell = st.one_of(st.just(0), st.sampled_from(values))
        return draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=most))

    rows = vectors(n, 6)
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.append([0] * n)
    if draw(st.booleans()):  # full rank: a zero kernel
        rows += [[draw(st.sampled_from(values)) if i == j else 0 for j in range(n)] for i in range(n)]
    rows = draw(st.permutations(rows))
    split = draw(st.integers(0, len(rows)))
    target = vectors(len(rows), 3) if rows else []
    return field, n, rows, split, target, vectors(n, 4)


@settings(max_examples=150, deadline=None)
@given(_kernel_systems())
@example((QQ, 3, [], 0, [], []))  # empty input: the whole space
@example((GF(7), 2, [[3, 0], [0, 5], [3, 0]], 1, [[1, 1, 1]], [[2, 4]]))  # a zero kernel
@example((QQ, 3, [[2, 4, 6], [0, 0, 0], [2, 4, 6]], 2, [[0, 1, 0]], [[1, 2, 3], [0, 1, 0]]))
def test_kernels_preimages_and_intersections_match_the_naive_rref(case):
    field, n, rows, split, target, w = case

    def normalized(vectors):
        return [[field.normalize(x) for x in v] for v in vectors]

    rows = normalized(rows)
    null = _naive_null(field, rows, n)
    _assert_naive_echelon(field, kernel_of_rows(field, n, _sparse(rows)), null)
    _assert_naive_echelon(field, kernel(Matrix(field, rows) if rows else Matrix.zeros(field, 1, n)), null)

    # joint kernel: the rows cut between two operators
    ops = [Matrix(field, part) if part else Matrix.zeros(field, 1, n) for part in (rows[:split], rows[split:])]
    _assert_naive_echelon(field, joint_kernel(ops), null)

    # preimage under the rows and their rotation: a . (op v) = 0 for each annihilator a of target
    if rows:
        mats = [rows, rows[1:] + rows[:1]]
        ops = [Matrix(field, m) for m in mats]
        conditions = normalized(
            [sum(a[i] * m[i][j] for i in range(len(rows))) for j in range(n)]
            for m in mats
            for a in _naive_null(field, _naive_echelon(field, target)[0], len(rows))
        )
        got = preimage(ops, Subspace.from_spanning(field, len(rows), _sparse(normalized(target))))
        _assert_naive_echelon(field, got, _naive_null(field, conditions, n))

    # intersection: the kernel of [U^T | -W^T] mapped back through U
    u, v = _naive_echelon(field, rows)[0], _naive_echelon(field, w)[0]
    both = []
    if u and v:
        system = [[x[r] for x in u] + [-y[r] for y in v] for r in range(n)]
        coeffs = _naive_null(field, system, len(u) + len(v))
        both = [[sum(c[i] * x[j] for i, x in enumerate(u)) for j in range(n)] for c in coeffs]
    got = Subspace.from_rows(field, n, _sparse(rows)) & Subspace.from_rows(field, n, _sparse(normalized(w)))
    _assert_naive_echelon(field, got, normalized(both))


def test_kernel_of_rows_grows_one_echelon(monkeypatch):
    calls = []
    grow = linalg._grow

    def counting(tails, rows, field, where=None):
        calls.append(None)
        return grow(tails, rows, field, where)

    monkeypatch.setattr(linalg, "_grow", counting)
    for field in (QQ, GF(7)):
        rows = [{0: 2, 3: 1}, {1: 1, 2: 3, 4: 5}, {0: 4, 3: 2}]
        calls.clear()
        ker = kernel_of_rows(field, 5, rows)
        assert ker.dim == 3 and len(calls) == 1


def test_cancelling_eliminates_only_coefficient_columns(monkeypatch):
    # every row _cancelling hands to _grow lives in the k = dim(current)
    # coefficient coordinates, and each call grows one echelon
    inside, seen = [], []
    grow, cancelling = linalg._grow, linalg._cancelling

    def recording_cancelling(current, *rest):
        inside.append(current.dim)
        seen.append((current.dim, []))
        try:
            return cancelling(current, *rest)
        finally:
            inside.pop()

    def recording_grow(tails, rows, field, where=None):
        rows = list(rows)
        if inside:
            seen[-1][1].append([dict(row) for row in rows])
        return grow(tails, rows, field, where)

    monkeypatch.setattr(linalg, "_cancelling", recording_cancelling)
    monkeypatch.setattr(linalg, "_grow", recording_grow)
    t = Matrix(QQ, [[0, 2, 0], [0, 0, F(1, 3)], [0, 0, 0]])
    ops = [LegAction(QQ, (3, 3), ((0, t),)) - LegAction(QQ, (3, 3), ((1, t.T),))]
    target = Subspace.from_spanning(QQ, 9, [[1, 0, 0, 0, 1, 0, 0, 0, F(1, 2)]])
    u = Subspace.from_spanning(GF(7), 3, [[1, 3, 0], [0, 1, 3]])
    w = Subspace.from_spanning(GF(7), 3, [[2, 1, 0], [0, 0, 1]])
    assert (joint_kernel(ops).dim, preimage(ops, target).dim, (u & w).dim) == (3, 3, 1)
    assert len(seen) == 3
    for dim, grown in seen:
        assert len(grown) == 1  # one elimination per kernel
        assert all(0 <= c < dim for row in grown[0] for c in row)


# ---------------------------------------------------------------------------
# matrix plumbing


def test_matrix_ops_exact():
    a = mat([[F(1, 2), 1], [0, F(1, 3)]])
    b = mat([[2, 0], [1, 1]])
    assert (a @ b) == mat([[2, 1], [F(1, 3), F(1, 3)]])
    assert (a + b - b) == a
    assert a.T.T == a


def test_matrix_immutable():
    a = mat([[1]])
    with pytest.raises((ValueError, AttributeError)):
        a.a[0, 0] = F(2)


def test_kron_shapes():
    a = mat([[1, 2]])
    b = mat([[1], [3]])
    k = a.kron(b)
    assert k.shape == (2, 2)
    assert k == mat([[1, 2], [3, 6]])


def test_gf_matrix_arithmetic():
    f3 = GF(3)
    a = Matrix(f3, [[2, 2], [1, 0]])
    sq = a @ a
    assert sq == Matrix(f3, [[0, 1], [2, 2]])
    assert kernel(Matrix(f3, [[1, 2]])).dim == 1
