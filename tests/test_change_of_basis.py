"""Metamorphic check: a change of basis of the algebra changes no dim and no verdict.

Every filtration stage, jet and representability verdict is defined by
the algebra and the module, not by the basis they are written in, so a
signed permutation of the algebra's basis must leave every dimension and
verdict the library reports unchanged.  The algebras are drawn by
algebra_builders.small_algebras.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ncjets.diffop import TAGS, diff_bar1, filtration_by_tag
from ncjets.jets import jet_module, representability_bar1, two_sided_jet1
from ncjets.modules import BimoduleRep

from algebra_builders import build, small_algebras


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


@st.composite
def algebras_with_a_change_of_basis(draw):
    algebra = draw(small_algebras())
    n = len(algebra[0])
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return algebra, change_basis(algebra, perm, signs)


def invariants(algebra) -> dict:
    P = BimoduleRep.regular(build(algebra))
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
