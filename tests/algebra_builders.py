"""Small algebras for the metamorphic tests, written here and not imported from the library.

An algebra is (basis names, unit, table), where table[i][j] is the
coordinate list of e_i e_j: truncated polynomial rings, matrix units,
upper-triangular matrices and direct products of these, all of dim <= 4.
small_algebras draws one with hypothesis; build makes it an Algebra.
"""

from hypothesis import strategies as st

from ncjets.algebra import Algebra
from ncjets.catalog import builtin
from ncjets.linalg import QQ, Matrix
from ncjets.modules import BimoduleRep


def trunc(d: int):
    """K[x]/(x^d)."""
    table = [[[int(k == i + j) for k in range(d)] for j in range(d)] for i in range(d)]
    return [f"x{k}" for k in range(d)], [int(k == 0) for k in range(d)], table


def matrix_units(pairs, label: str):
    """The span of the matrix units e_rc for (r, c) in pairs, closed under products."""
    index = {pc: k for k, pc in enumerate(pairs)}
    n = len(pairs)
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, (r1, c1) in enumerate(pairs):
        for j, (r2, c2) in enumerate(pairs):
            if c1 == r2:
                table[i][j][index[(r1, c2)]] = 1
    unit = [int(r == c) for r, c in pairs]
    return [f"{label}{r}{c}" for r, c in pairs], unit, table


def full_matrices(n: int):
    return matrix_units([(r, c) for r in range(n) for c in range(n)], "m")


def upper_triangular(n: int):
    return matrix_units([(r, c) for r in range(n) for c in range(r, n)], "t")


def product(a, b):
    """The direct product A x B: block-diagonal structure constants, unit (1_A, 1_B)."""
    (na, ua, ta), (nb, ub, tb) = a, b
    m, n = len(na), len(na) + len(nb)
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(m):
        for j in range(m):
            table[i][j][:m] = ta[i][j]
    for i in range(n - m):
        for j in range(n - m):
            table[m + i][m + j][m:] = tb[i][j]
    return [f"a{x}" for x in na] + [f"b{x}" for x in nb], ua + ub, table


FACTORS = [trunc(1), trunc(2), trunc(3), trunc(4), full_matrices(2), upper_triangular(2)]


@st.composite
def small_algebras(draw):
    """One of FACTORS, or the product of two of them of dim <= 4."""
    algebra = draw(st.sampled_from(FACTORS))
    small = [f for f in FACTORS if len(f[0]) + len(algebra[0]) <= 4]
    if small and draw(st.booleans()):
        algebra = product(algebra, draw(st.sampled_from(small)))
    return algebra


def build(algebra, field=QQ) -> Algebra:
    names, unit, table = algebra
    return Algebra(field, names, unit, table, name="generated")


def opposite(A: Algebra) -> Algebra:
    """A^op: e_i * e_j = e_j e_i."""
    mul_op = [[list(A.mul[j, i]) for j in range(A.dim)] for i in range(A.dim)]
    return Algebra(A.field, A.basis_names, list(A.unit), mul_op, name=f"{A.name}^op")


def t2_column() -> BimoduleRep:
    """K^2 with t2 acting by matrices on the left and through e11 -> 1 on the right.

    On the regular bimodules left-sum and right agree, so this is the
    catalog-sized case where swapping them is visible (dims 3 vs 4).
    """
    A = builtin("t2").algebra
    left = [Matrix(QQ, [[1, 0], [0, 0]]), Matrix(QQ, [[0, 1], [0, 0]]), Matrix(QQ, [[0, 0], [0, 1]])]
    right = [Matrix.identity(QQ, 2).scale(c) for c in (1, 0, 0)]
    return BimoduleRep(A, left, right, name="column")
