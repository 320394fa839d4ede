import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    hom_A,
    hom_AA,
    require_central,
)

from naive_gauss import naive_nullity
from oracle_systems import (
    free_left_ops,
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
        assert hs.delta(e.algebra.unit).dense.is_zero()
        assert hs.delta_bar(e.algebra.unit).dense.is_zero()


def test_linear_map_killed_by_delta_over_commutative_algebra():
    e = entry("dual_numbers")
    a = e.algebra
    hs = HomSpace(e.module("self"), e.module("self"))
    phi = a.left_ops[1]  # multiplication by eps is A-linear
    v = hs.vec(phi)
    for d in hs.deltas:
        assert all(x == 0 for x in d.dense.apply(v))


def test_m2_transpose_delta_value():
    e = entry("m2")
    hs = HomSpace(e.module("self"), e.module("self"))
    # transpose swaps e12 and e21 in coordinates
    transpose = Matrix(QQ, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    d = hs.delta(vector(QQ, [0, 1, 0, 0]))  # a = e12
    moved = hs.unvec(d.dense.apply(hs.vec(transpose)))
    out = moved.apply(unit_vector(QQ, 4, 2))  # evaluate at e21
    assert out.tolist() == [-1, 0, 0, 0]  # -e11


def test_delta_delta_bar_commute_on_all_catalog_hom_spaces():
    for name in names():
        e = entry(name)
        hs = HomSpace(e.module("self"), e.module("self"))
        for da in hs.deltas:
            for db in hs.delta_bars:
                assert da.dense @ db.dense == db.dense @ da.dense


def test_four_structures_are_module_actions():
    e = entry("t2")
    a = e.algebra
    hs = HomSpace(e.module("self"), e.module("self"))
    left = [op.dense for op in hs.left]
    bullet_left = [op.dense for op in hs.bullet_left]
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


# ---------------------------------------------------------------------------
# tensor ambients


def test_tensor_one_sided_dims_and_unit_delta():
    for name in ("dual_numbers", "m2"):
        e = entry(name)
        t = TensorOneSided(e.module("free2"))
        assert t.dim == e.algebra.dim * 2 * e.algebra.dim
        assert t.delta(e.algebra.unit).dense.is_zero()


def test_dual_numbers_double_delta_generator():
    e = entry("dual_numbers")
    t = TensorOneSided(e.module("self"))
    one_tensor_one = unit_vector(QQ, 4, 0)  # flat (i, u) = i * 2 + u
    d_eps = t.deltas[1].dense
    out = d_eps.apply(d_eps.apply(one_tensor_one))
    assert out.tolist() == [0, 0, 0, -2]  # -2 (eps tensor eps)


def test_tensor_two_sided_dims_and_commutation():
    for name in names():
        e = entry(name)
        t = TensorTwoSided(e.module("self"))
        n = e.algebra.dim
        assert t.dim == n * n * n
        assert t.delta_bar(e.algebra.unit).dense.is_zero()
        for d in t.deltas:
            for db in t.delta_bars:
                assert d.dense @ db.dense == db.dense @ d.dense


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
                lhs = hs.unvec(hs.deltas[b].dense.apply(hs.vec(phi)))
                rhs = fmat @ (t.deltas[b].dense @ emb)
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
        expected = field.reduce_array(np.dot(rows, act.dense.a.T))
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
        assert [a.dense for a in actions] == expected, (ambient_name, attr)
        assert all(a.T.dense == a.dense.T for a in actions), (ambient_name, attr)
        _check_rows_apply(actions, field, 3)
    coords = np.arange(1, P.algebra.dim + 1)
    assert ambient.delta(coords).dense == _combo(families["deltas"], coords)
    if "delta_bars" in families:
        assert ambient.delta_bar(coords).dense == _combo(families["delta_bars"], coords)
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
    assert diff.dense == left.dense - right.dense


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
            assert d.dense == l.dense - b.dense


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
    want = np.dot(a.astype(object), act.dense.a.T.astype(object))
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
    assert numpy_axis.dense.shape == (4, 4)


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
