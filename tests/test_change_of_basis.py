"""Metamorphic check: a change of basis of the algebra changes no dim and no verdict.

Every filtration stage, jet and representability verdict is defined by
the algebra and the module, not by the basis they are written in, so a
signed permutation of the algebra's basis must leave every dimension and
verdict the library reports unchanged.  The algebras are generated here:
truncated polynomial rings, matrix units, upper-triangular matrices and
direct products of these, all of dim <= 4.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ncjets.algebra import Algebra
from ncjets.diffop import TAGS, diff_bar1, filtration_by_tag
from ncjets.jets import jet_module, representability_bar1, two_sided_jet1
from ncjets.linalg import QQ
from ncjets.modules import BimoduleRep

# an algebra as (basis names, unit, table): table[i][j] is the coordinate list of e_i e_j


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
def algebras_with_a_change_of_basis(draw):
    algebra = draw(st.sampled_from(FACTORS))
    small = [f for f in FACTORS if len(f[0]) + len(algebra[0]) <= 4]
    if small and draw(st.booleans()):
        algebra = product(algebra, draw(st.sampled_from(small)))
    n = len(algebra[0])
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return algebra, change_basis(algebra, perm, signs)


def invariants(algebra) -> dict:
    names, unit, table = algebra
    P = BimoduleRep.regular(Algebra(QQ, names, unit, table, name="generated"))
    commutative = P.algebra.is_commutative
    out = {
        tag: filtration_by_tag(P, P, 1, tag).dims
        for tag in TAGS[:-1]
        if commutative or not tag.startswith("comm-")
    }
    out["bar1"] = diff_bar1(P, P).dim
    out["jet"] = jet_module(P, 1).dim
    out["two-sided jet"] = two_sided_jet1(P).dim
    out["represent bar1"] = representability_bar1(P, P).verdict
    return out


@settings(max_examples=40, deadline=None)
@given(algebras_with_a_change_of_basis())
def test_change_of_basis_keeps_every_dim_and_verdict(pair):
    algebra, changed = pair
    assert invariants(changed) == invariants(algebra)
