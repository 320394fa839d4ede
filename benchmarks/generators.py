"""Ladder algebras for the benchmark, built through the public constructors.

Every generator returns a validated ``ncjets.Algebra`` over the given
field (Q or a prime field), so associativity and the unit axiom are
checked on construction.  ``change_basis`` applies a signed permutation
of the basis; ``seeded`` is the change of basis the workloads apply to
every input: the identity at seed 0, otherwise sign flips drawn from the
seed and the algebra's name.
"""

from __future__ import annotations

import itertools
import random

from ncjets import Algebra, BimoduleRep


def _table(n, rule):
    return [[rule(i, j) for j in range(n)] for i in range(n)]


def _unit_vector(n, i):
    out = [0] * n
    out[i] = 1
    return out


def _matrix_units(field, pairs, name):
    index = {p: k for k, p in enumerate(pairs)}
    n = len(pairs)

    def rule(i, j):
        (r1, c1), (r2, c2) = pairs[i], pairs[j]
        out = [0] * n
        if c1 == r2:
            out[index[(r1, c2)]] = 1
        return out

    unit = [1 if r == c else 0 for r, c in pairs]
    basis = [f"e{r}{c}" for r, c in pairs]
    return Algebra(field, basis, unit, _table(n, rule), name=name)


def matrix_algebra(n: int, field) -> Algebra:
    """M_n: all n x n matrices, basis of matrix units e_rc in row-major order."""
    pairs = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
    return _matrix_units(field, pairs, f"m{n}")


def upper_triangular(n: int, field) -> Algebra:
    """T_n: upper-triangular n x n matrices, basis e_rc with r <= c."""
    pairs = [(r, c) for r in range(1, n + 1) for c in range(r, n + 1)]
    return _matrix_units(field, pairs, f"t{n}")


def truncated_polynomial(d: int, field) -> Algebra:
    """K[x]/(x^d), basis 1, x, ..., x^(d-1)."""

    def rule(i, j):
        return _unit_vector(d, i + j) if i + j < d else [0] * d

    basis = ["1"] + [f"x^{k}" if k > 1 else "x" for k in range(1, d)]
    return Algebra(field, basis, _unit_vector(d, 0), _table(d, rule), name=f"trunc{d}")


def group_algebra_s3(field) -> Algebra:
    """K[S3], basis the six permutations of {0, 1, 2}; (gh)(x) = g(h(x))."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}

    def rule(i, j):
        g, h = perms[i], perms[j]
        return _unit_vector(6, index[tuple(g[h[x]] for x in range(3))])

    basis = ["".join(map(str, p)) for p in perms]
    return Algebra(field, basis, _unit_vector(6, index[(0, 1, 2)]), _table(6, rule), name="qs3")


def exterior_algebra_2(field) -> Algebra:
    """Lambda(K^2), basis 1, e1, e2, e1^e2 with e1 e2 = -e2 e1 = e1^e2."""
    # basis index -> set of generators, product sign from reordering
    sets = [(), (1,), (2,), (1, 2)]
    index = {s: k for k, s in enumerate(sets)}

    def rule(i, j):
        a, b = sets[i], sets[j]
        out = [0] * 4
        if set(a) & set(b):
            return out
        sign = -1 if a == (2,) and b == (1,) else 1
        out[index[tuple(sorted(a + b))]] = sign
        return out

    return Algebra(field, ["1", "e1", "e2", "e1^e2"], _unit_vector(4, 0), _table(4, rule), name="ext2")


def raw_table(algebra: Algebra) -> list:
    """Structure constants as nested lists of field scalars."""
    n = algebra.dim
    return [[[algebra.mul[i, j, k] for k in range(n)] for j in range(n)] for i in range(n)]


def seeded_signs(seed: int, name: str, n: int) -> list[int]:
    """One sign per basis element, drawn from the seed and the algebra's name; all +1 at seed 0."""
    if seed == 0:
        return [1] * n
    rng = random.Random(f"{seed}/{name}")
    return [rng.choice((1, -1)) for _ in range(n)]


def change_basis(algebra: Algebra, perm, signs, field=None) -> Algebra:
    """The same algebra in the basis f_i = signs[i] * e_perm[i], optionally over another field.

    The structure constants must be integers (true of every generator
    here and of the catalog), so they carry over to any prime field.
    """
    field = field or algebra.field
    n = algebra.dim
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    mul = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            prod = algebra.mul[perm[i], perm[j]]
            for k in range(n):
                c = prod[k]
                if c:
                    # e_k = signs[inv[k]] * f_inv[k]
                    mul[i][j][inv[k]] = int(c) * signs[i] * signs[j] * signs[inv[k]]
    unit = [int(algebra.unit[perm[i]]) * signs[i] for i in range(n)]
    names = [("-" if s < 0 else "") + algebra.basis_names[p] for p, s in zip(perm, signs)]
    return Algebra(field, names, unit, mul, name=algebra.name)


def seeded(algebra: Algebra, seed: int, field=None) -> Algebra:
    """The algebra in the seed's basis f_i = s_i e_i.

    The basis order is kept.  A permutation changes the elimination order
    and with it the cost: comm-inductive on trunc8 at r=4 took 0.9 s in
    the natural order and 2.0-3.2 s in four random orders, so a seeded
    permutation would make every seed a different workload.
    """
    signs = seeded_signs(seed, algebra.name, algebra.dim)
    return change_basis(algebra, list(range(algebra.dim)), signs, field)


def modules_of(algebra: Algebra) -> dict:
    """The two canonical bimodules the workloads use: A over itself and free A^2."""
    return {"self": BimoduleRep.regular(algebra), "free2": BimoduleRep.free(algebra, 2)}
