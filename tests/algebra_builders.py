"""Small algebras for the metamorphic tests, written here and not imported from the library.

An algebra is (basis names, unit, table), where table[i][j] is the
coordinate list of e_i e_j: truncated polynomial rings, matrix units,
upper-triangular matrices and direct products of these, all of dim <= 4,
which small_algebras draws with hypothesis, and the group algebra of S3
and the exterior algebras.  build makes one an Algebra, and change_basis
writes it in a permuted, signed basis.  labelled_module names the
modules the jet and bar1 tests share: the catalog's, over any field, and
the SEEDED builder algebras in a basis seeded by their label.
leg_action_matrix is the dense Matrix of a LegAction, by the oracle's
Kronecker products.
"""

import itertools
import random

from hypothesis import strategies as st

from ncjets.algebra import Algebra
from ncjets.catalog import builtin
from ncjets.linalg import QQ, Matrix
from ncjets.modules import BimoduleRep
from oracle_systems import leg_action_kron


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


def group_algebra_s3():
    """K[S3] on the permutations of (0, 1, 2) in lexicographic order; (gh)(x) = g(h(x))."""
    perms = sorted(itertools.permutations(range(3)))
    table = [
        [[int(k == perms.index(tuple(g[h[x]] for x in range(3)))) for k in range(6)] for h in perms]
        for g in perms
    ]
    return ["".join(map(str, g)) for g in perms], [int(g == (0, 1, 2)) for g in perms], table


def exterior(m: int):
    """The exterior algebra on m anticommuting generators, basis the wedges of subsets by size."""
    subsets = [s for r in range(m + 1) for s in itertools.combinations(range(m), r)]
    n = len(subsets)
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, a in enumerate(subsets):
        for j, b in enumerate(subsets):
            if not set(a) & set(b):
                swaps = sum(x > y for x in a for y in b)  # transpositions that sort a + b
                table[i][j][subsets.index(tuple(sorted(a + b)))] = (-1) ** swaps
    names = ["^".join(f"e{x}" for x in s) or "1" for s in subsets]
    return names, [int(k == 0) for k in range(n)], table


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


def change_basis(algebra, perm, signs):
    """The same algebra in the basis f_i = signs[i] * e_perm[i]."""
    names, unit, table = algebra
    n = len(names)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    new = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k, c in enumerate(table[perm[i]][perm[j]]):
                # e_k = signs[inv[k]] * f_inv[k]
                new[i][j][inv[k]] = c * signs[i] * signs[j] * signs[inv[k]]
    return (
        [names[p] for p in perm],
        [unit[p] * s for p, s in zip(perm, signs)],
        new,
    )


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


def signed_basis(algebra, rng):
    """The algebra in a permuted, signed basis drawn from rng."""
    n = len(algebra[0])
    return change_basis(algebra, rng.sample(range(n), n), [rng.choice((1, -1)) for _ in range(n)])


SEEDED = {
    "M3": full_matrices(3),
    "T3": upper_triangular(3),
    "trunc5": trunc(5),
    "QS3": group_algebra_s3(),
    "ext2": exterior(2),
}


def module_over(field, P: BimoduleRep) -> BimoduleRep:
    """P with its algebra and actions read over another field."""
    a = P.algebra
    A = Algebra(field, a.basis_names, list(a.unit), a.mul.tolist(), name=a.name)
    moved = [[Matrix(field, m.to_lists()) for m in side] for side in (P.left, P.right)]
    return BimoduleRep(A, *moved, name=P.name)


def labelled_module(label: str, field=QQ) -> BimoduleRep:
    """The module a test label names, over field.

    "name/kind" is the catalog module; a SEEDED label is the regular
    bimodule of that algebra in the basis signed_basis draws from
    random.Random(label).
    """
    name, _, kind = label.partition("/")
    if kind:
        P = builtin(name).module(kind)
        return P if field == QQ else module_over(field, P)
    return BimoduleRep.regular(build(signed_basis(SEEDED[label], random.Random(label)), field))


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


def leg_action_matrix(op) -> Matrix:
    """A LegAction as a dense Matrix over its field: oracle_systems.leg_action_kron, reduced."""
    return Matrix(op.field, leg_action_kron(op.dims, op.terms))
