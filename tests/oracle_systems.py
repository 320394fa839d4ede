"""Defining linear systems for the derived dimensions, solved naively.

Everything here works on raw structure-constant tables (nested lists)
with the naive eliminator from naive_gauss, and span closures with one
textbook RREF grown a row at a time (_kept); no package code is touched.
The quoted dimensions in the tests come from these functions.
"""

import math
from collections import defaultdict
from fractions import Fraction

from naive_gauss import (
    naive_kernel_basis,
    naive_kernel_basis_mod,
    naive_mat_vec,
    naive_nullity,
    naive_rref,
    naive_rref_mod,
    naive_span_dim,
)


def _n(mul):
    return len(mul)


def _left_op(mul, i):
    """Matrix of x -> e_i x (columns are mul[i][j])."""
    n = _n(mul)
    return [[Fraction(mul[i][j][k]) for j in range(n)] for k in range(n)]


def _right_op(mul, j):
    n = _n(mul)
    return [[Fraction(mul[i][j][k]) for i in range(n)] for k in range(n)]


def _center_rows(mul):
    """z e_i = e_i z at every basis element: row (i, k) is coordinate k of z e_i - e_i z."""
    n = _n(mul)
    rows = []
    for i in range(n):
        L, R = _left_op(mul, i), _right_op(mul, i)
        for k in range(n):
            rows.append([R[k][c] - L[k][c] for c in range(n)])
    return rows


def center_dim(mul):
    """Nullity of the stacked z e_i = e_i z conditions."""
    return naive_nullity(_center_rows(mul))


def center_rref(mul, p=None):
    """The RREF basis (rows) of the center: over Q, or over F_p for a table of ints mod p."""
    return _kernel_rref(_center_rows(mul), p)


def _kernel_rref(rows, p):
    """The RREF basis of {v : row . v = 0 for every row}, over Q or (p given) over F_p."""
    if p is None:
        return naive_rref(naive_kernel_basis(rows))[0]
    rows = [[int(x) for x in row] for row in rows]
    return naive_rref_mod(naive_kernel_basis_mod(rows, p), p)[0]


def _derivation_rows(mul):
    """The Leibniz system d(e_i e_j) = d(e_i) e_j + e_i d(e_j), one row per (i, j, k).

    Unknowns are the n^2 entries of d, flattened at column * n + row.
    """
    n = _n(mul)
    rows = []
    for i in range(n):
        L_i = _left_op(mul, i)
        for j in range(n):
            R_j = _right_op(mul, j)
            for k in range(n):
                row = [Fraction(0)] * (n * n)
                # d applied to the product e_i e_j
                for c in range(n):
                    coeff = Fraction(mul[i][j][c])
                    if coeff:
                        row[c * n + k] += coeff
                # minus d(e_i) e_j
                for r in range(n):
                    row[i * n + r] -= R_j[k][r]
                # minus e_i d(e_j)
                for r in range(n):
                    row[j * n + r] -= L_i[k][r]
                rows.append(row)
    return rows


def derivations_dim(mul):
    """Nullity of the Leibniz system at every pair of basis elements."""
    return naive_nullity(_derivation_rows(mul))


def derivations_rref(mul, p=None):
    """The RREF basis (rows) of the derivations: over Q, or over F_p for a table of ints mod p."""
    return _kernel_rref(_derivation_rows(mul), p)


# -- Hom-space machinery over the regular bimodule P = Q = A ----------------


def _hom_delta_rows(mul, a):
    """Rows of delta_a on Hom(A, A), vec at column * n + row: a phi(p) - phi(a p)."""
    n = _n(mul)
    L_a = _left_op(mul, a)
    rows = []
    for p in range(n):
        for k in range(n):
            row = [Fraction(0)] * (n * n)
            for r in range(n):
                row[p * n + r] += L_a[k][r]  # a * phi(e_p), component k
            for c in range(n):
                coeff = L_a[c][p]  # a e_p = sum_c coeff e_c
                if coeff:
                    row[c * n + k] -= coeff
            rows.append(row)
    return rows


def _hom_delta_bar_rows(mul, a):
    """Rows of delta_bar_a: phi(p) a - phi(p a)."""
    n = _n(mul)
    R_a = _right_op(mul, a)
    rows = []
    for p in range(n):
        for k in range(n):
            row = [Fraction(0)] * (n * n)
            for r in range(n):
                row[p * n + r] += R_a[k][r]
            for c in range(n):
                coeff = R_a[c][p]
                if coeff:
                    row[c * n + k] -= coeff
            rows.append(row)
    return rows


def hom_A_dim(mul):
    rows = []
    for a in range(_n(mul)):
        rows.extend(_hom_delta_rows(mul, a))
    return naive_nullity(rows)


def hom_AA_dim(mul):
    rows = []
    for a in range(_n(mul)):
        rows.extend(_hom_delta_rows(mul, a))
        rows.extend(_hom_delta_bar_rows(mul, a))
    return naive_nullity(rows)


def _delta_matrix(mul, a):
    """delta_a on Hom(A, A) as a dense (n^2) x (n^2) matrix."""
    return _hom_delta_rows(mul, a)


def _annihilator(span_rows, ambient):
    """Rows c with c . x = 0 for every x in the span."""
    if not span_rows:
        return [[Fraction(1) if i == j else Fraction(0) for j in range(ambient)] for i in range(ambient)]
    return naive_kernel_basis(span_rows)


def comm_diff_stage_dims(mul, rmax):
    """Inductive differential-operator stage dims on Hom(A, A), commutative A."""
    n = _n(mul)
    amb = n * n
    deltas = [_delta_matrix(mul, a) for a in range(n)]
    stage_rows = naive_kernel_basis([row for d in deltas for row in d])
    dims = [naive_span_dim(stage_rows) if stage_rows else 0]
    for _ in range(rmax):
        ann = _annihilator(stage_rows, amb)
        cond = []
        for d in deltas:
            for c in ann:
                cond.append([sum(c[k] * d[k][x] for k in range(amb)) for x in range(amb)])
        stage_rows = naive_kernel_basis(cond) if cond else [
            [Fraction(1) if i == j else Fraction(0) for j in range(amb)] for i in range(amb)
        ]
        dims.append(naive_span_dim(stage_rows))
    return dims


def _left_pair_ops(mul):
    """Hom(A, A) actions (a phi) and (phi . a) as dense matrices, all basis a."""
    return [op(_left_op(mul, a)) for a in range(_n(mul)) for op in (_on_values, _on_arguments)]


def _span_basis(rows):
    """Nonzero rows of the naive RREF: a basis of the span."""
    red, pivots = naive_rref(rows)
    return red[: len(pivots)]


def _sparse_columns(op):
    """Column c of a square dense op as the list of its nonzeros (row, value)."""
    cols = [[] for _ in op]
    for r, row in enumerate(op):
        for c, a in enumerate(row):
            if a != 0:
                cols[c].append((r, a))
    return cols


def _sparse_apply(cols, v):
    """op v, one nonzero of v at a time through its column of op."""
    out = [Fraction(0)] * len(cols)
    for c, x in enumerate(v):
        if x != 0:
            for r, a in cols[c]:
                out[r] += a * x
    return out


def _subtract(row, f, other):
    """row -= f * other on sparse rows {col: value}, in place, dropping the cells that cancel."""
    for k, b in other.items():
        x = row.get(k, 0) - f * b
        if x != 0:
            row[k] = x
        else:
            row.pop(k, None)


def _kept(echelon, v):
    """Reduce the sparse row v by the kept RREF; a nonzero residual joins it.

    echelon maps each pivot column to its row, which is 1 there and 0 at
    every other pivot column, so one pass over v's pivot columns reduces
    it.  A residual is scaled to 1 at its first column, which is cleared
    from the kept rows; it is returned (as a copy), or None when v was in
    the span.
    """
    for c in [c for c in v if c in echelon]:
        _subtract(v, v[c], echelon[c])
    v = {k: x for k, x in v.items() if x != 0}
    if not v:
        return None
    c = min(v)
    scale = Fraction(v[c])
    v = {k: x / scale for k, x in v.items()}
    for row in echelon.values():
        if c in row:
            _subtract(row, row[c], v)
    echelon[c] = v
    return dict(v)


def _span_closure(rows, sparse):
    """dim of the smallest span that holds rows and is closed under the operators.

    The operators come as their sparse columns.  One RREF is kept, and
    each image is reduced against it as it arrives; each pass applies the
    operators only to the rows the previous pass added to it.
    """
    echelon = {}
    frontier = [{k: x for k, x in enumerate(row) if x != 0} for row in rows]
    while frontier:
        added = [new for v in frontier if (new := _kept(echelon, v)) is not None]
        frontier = [_sparse_apply_row(op, v) for op in sparse for v in added]
    return len(echelon)


def _sparse_apply_row(cols, v):
    """op v for a sparse row v {col: value}, through the nonzeros of op's columns."""
    out = {}
    for c, x in v.items():
        for r, a in cols[c]:
            out[r] = out.get(r, 0) + a * x
    return out


def left_center_stage0_dim(mul):
    """dim of the left-pair submodule generated by the joint delta kernel."""
    n = _n(mul)
    deltas = [_delta_matrix(mul, a) for a in range(n)]
    z0 = naive_kernel_basis([row for d in deltas for row in d])
    return _span_closure(z0, [_sparse_columns(op) for op in _left_pair_ops(mul)])


def right_stage0_dim(mul):
    """dim of span{(phi b) : delta_bar_a phi = 0}, right action by all b."""
    n = _n(mul)
    amb = n * n
    dbars = [_hom_delta_bar_rows(mul, a) for a in range(n)]
    w0 = naive_kernel_basis([row for d in dbars for row in d])
    right_ops = []
    for b in range(n):
        R_b = _right_op(mul, b)
        mat = [[Fraction(0)] * amb for _ in range(amb)]
        for p in range(n):
            for k in range(n):
                for r in range(n):
                    mat[p * n + k][p * n + r] += R_b[k][r]
        right_ops.append(mat)
    vecs = [naive_mat_vec(op, v) for op in right_ops for v in w0]
    return naive_span_dim(vecs)


def _on_values(side_op):
    """phi -> side_op phi, side_op applied to every value phi(e_p), as a dense matrix on Hom(P, P)."""
    n = len(side_op)
    amb = n * n
    mat = [[Fraction(0)] * amb for _ in range(amb)]
    for p in range(n):
        for k in range(n):
            for r in range(n):
                mat[p * n + k][p * n + r] += side_op[k][r]
    return mat


def _on_arguments(side_op):
    """phi -> phi side_op, phi(e_x) -> phi(side_op e_x), as a dense matrix on Hom(P, P)."""
    n = len(side_op)
    amb = n * n
    mat = [[Fraction(0)] * amb for _ in range(amb)]
    for x in range(n):
        for k in range(n):
            for y in range(n):
                mat[x * n + y][k * n + y] += side_op[k][x]
    return mat


def bar1_dim(mul):
    """dim of the bar1 class on Hom(A, A), P = Q = A.

    Stage zero is left0 + right0, the spans of b w over the joint delta
    kernel and of w b over the joint delta_bar kernel.  Each side's first
    stage is span{b w : dev_a w in stage zero for every a} + stage zero,
    with (dev, b w) = (delta, a phi) on the left and (delta_bar, phi b) on
    the right; bar1 is the intersection of the two first stages with the
    joint kernel of every delta_bar_c delta_b.  Every operator is applied
    and composed through the nonzeros of its columns.
    """
    n = _n(mul)
    amb = n * n
    identity = [[Fraction(int(i == j)) for j in range(amb)] for i in range(amb)]
    sides = [
        ([_hom_delta_rows(mul, a) for a in range(n)],
         [_sparse_columns(_on_values(_left_op(mul, b))) for b in range(n)]),
        ([_hom_delta_bar_rows(mul, a) for a in range(n)],
         [_sparse_columns(_on_values(_right_op(mul, b))) for b in range(n)]),
    ]

    # each deviation as sparse columns, to pull back through and to compose
    dev_cols = [[_sparse_columns(d) for d in devs] for devs, _ in sides]

    def moved(acts, vecs):
        return [_sparse_apply(op, v) for op in acts for v in vecs]

    stage0 = []
    for devs, acts in sides:
        stage0 += moved(acts, naive_kernel_basis([row for d in devs for row in d]))
    stage0 = _span_basis(stage0)
    ann0 = _annihilator(stage0, amb)
    conditions = []
    for (_, acts), devs in zip(sides, dev_cols):
        # dev w in stage zero  <=>  c . dev w = 0 for every annihilator row c
        pulled = [[sum(c[k] * a for k, a in col) for col in d] for d in devs for c in ann0]
        lift = naive_kernel_basis(pulled) if pulled else identity
        first = _span_basis(moved(acts, lift) + stage0)
        conditions += _annihilator(first, amb) if first else identity
    deltas, delta_bars = dev_cols
    for dbar in delta_bars:
        for d in deltas:
            # column x of delta_bar_c delta_b is delta_bar_c applied to column x of delta_b
            product = [[Fraction(0)] * amb for _ in range(amb)]
            for x, col in enumerate(d):
                for k, a in col:
                    for r, b in dbar[k]:
                        product[r][x] += b * a
            conditions += product
    return naive_nullity(conditions)


# -- the four noncommutative filtrations, every stage from its definition ----


def naive_filtrations(mul, rank, r):
    """RREF stage bases 0..r of the left-center, left-sum, right and two-sided filtrations.

    On Hom_K(P, P), P = A^rank with the diagonal actions, in the library's
    column-major coordinates (phi(e_x)_y at x * dim P + y).  On the left,
    (b w)(p) = b w(p), (w . b)(p) = w(b p) and delta_a w = a w - w . a; on
    the right, (w b)(p) = w(p) b and (delta_bar_a w)(p) = w(p) a - w(p a).
    Every stage comes from its definition over the whole basis of A:
      left-sum:    stage 0 = span{b w : delta_a w = 0 for every a}, stage k =
                   span{b w : delta_a w in stage k-1 for every a} + stage k-1;
      right:       the same with delta_bar_a and w b;
      left-center: span{b w . c} over the w with delta_a w = 0 (stage 0) or
                   with delta_a w in stage k-1, b and c over the basis;
      two-sided:   left-sum's stage 0 plus right's, then the intersection of
                   both sum forms over stage k-1.
    A preimage is the kernel of the conditions c . dev w = 0, c over an
    annihilator basis of the target, and an intersection the joint kernel
    of both annihilators.  Every stage is computed from the one before,
    however many equal it.
    """
    amb = (rank * _n(mul)) ** 2
    identity = [[Fraction(int(i == j)) for j in range(amb)] for i in range(amb)]

    def side(ops):
        """(b w, w . b, deviation) for every basis b, as sparse columns."""
        values = [_on_values(s) for s in ops]
        arguments = [_on_arguments(s) for s in ops]
        devs = [[[x - y for x, y in zip(*rows)] for rows in zip(*pair)] for pair in zip(values, arguments)]
        return [[_sparse_columns(op) for op in family] for family in (values, arguments, devs)]

    left, right = side(free_left_ops(mul, rank)), side(free_right_ops(mul, rank))

    def span(vecs):
        return _span_basis(vecs) if vecs else []

    def moved(acts, vecs):
        return [_sparse_apply(op, v) for op in acts for v in vecs]

    def pullback(devs, stage):
        ann = _annihilator(stage, amb)
        cond = [[sum(c[k] * a for k, a in col) for col in d] for d in devs for c in ann]
        return naive_kernel_basis(cond) if cond else identity

    def intersect(u, v):
        if not (u and v):
            return []
        cond = _annihilator(u, amb) + _annihilator(v, amb)
        return span(naive_kernel_basis(cond)) if cond else u

    def zero(values, _, devs):
        return span(moved(values, pullback(devs, [])))

    def sum_step(values, _, devs, prev):
        return span(moved(values, pullback(devs, prev)) + prev)

    def generated(values, arguments, lift):
        return span(moved(arguments, span(moved(values, lift))))

    def chain(first, step):
        stages = [first]
        for _ in range(r):
            stages.append(step(stages[-1]))
        return stages

    return {
        "left-center": chain(
            generated(*left[:2], pullback(left[2], [])),
            lambda prev: generated(*left[:2], pullback(left[2], prev)),
        ),
        "left-sum": chain(zero(*left), lambda prev: sum_step(*left, prev)),
        "right": chain(zero(*right), lambda prev: sum_step(*right, prev)),
        "two-sided": chain(
            span(zero(*left) + zero(*right)),
            lambda prev: intersect(sum_step(*left, prev), sum_step(*right, prev)),
        ),
    }


def naive_relation(u, v):
    """equal, subset, superset or incomparable, for two spans given by basis rows."""
    both = naive_span_dim(u + v)
    return {
        (True, True): "equal",
        (True, False): "subset",
        (False, True): "superset",
        (False, False): "incomparable",
    }[both == len(v), both == len(u)]


# -- jet dimensions over the regular bimodule -------------------------------


def jet_dim(mul, k):
    """dim of (A tensor A) / mu^(k+1) for P = A, flat index i * n + u."""
    n = _n(mul)
    amb = n * n
    deltas = []
    for b in range(n):
        L_b = _left_op(mul, b)
        mat = [[Fraction(0)] * amb for _ in range(amb)]
        for i in range(n):
            for u in range(n):
                col = i * n + u
                for r in range(n):
                    mat[r * n + u][col] += L_b[r][i]  # (b a) tensor p
                    mat[i * n + r][col] -= L_b[r][u]  # a tensor (b p)
        deltas.append(mat)
    unit_tensor = [[Fraction(0)] * amb for _ in range(n)]
    # 1 tensor e_u, with the unit written in coordinates
    unit_coords = _unit_coords(mul)
    gens = []
    for u in range(n):
        v = [Fraction(0)] * amb
        for i in range(n):
            v[i * n + u] = unit_coords[i]
        gens.append(v)
    # every deviation word applied to every generator, through the nonzeros
    sparse_deltas = [_sparse_columns(d) for d in deltas]
    level = gens
    for _ in range(k + 1):
        level = [_sparse_apply(d, v) for d in sparse_deltas for v in level]
    left_ops = []
    for b in range(n):
        L_b = _left_op(mul, b)
        mat = [[Fraction(0)] * amb for _ in range(amb)]
        for i in range(n):
            for u in range(n):
                for r in range(n):
                    mat[r * n + u][i * n + u] += L_b[r][i]
        left_ops.append(mat)
    mu_dim = _span_closure(level, [_sparse_columns(op) for op in left_ops])
    return amb - mu_dim


def _unit_coords(mul):
    """Solve for the unit: u with u e_j = e_j for all j (and e_j u = e_j)."""
    n = _n(mul)
    rows = []
    rhs = []
    for j in range(n):
        for k in range(n):
            rows.append([Fraction(mul[i][j][k]) for i in range(n)])
            rhs.append(Fraction(1) if j == k else Fraction(0))
    # least-structure solve: append rhs as a column, eliminate, read a solution
    aug = [row + [r] for row, r in zip(rows, rhs)]
    red, pivots = naive_rref(aug)
    if pivots and pivots[-1] == n:
        raise ValueError("no unit")
    u = [Fraction(0)] * n
    for row_idx, c in enumerate(pivots):
        u[c] = red[row_idx][n]
    return u


# -- the two-sided first jet --------------------------------------------------


def two_sided_jet_dims(mul, rank=1):
    """(dim mu^1, dim jet) for P = A^rank inside A tensor P tensor A.

    P has coordinates (copy r, basis k) at r * n + k with the diagonal
    actions; the ambient is flat at (i, u, j) -> (i * m + u) * n + j.
    mu^1 is spanned by delta_bar^c delta^b (1 tensor p tensor 1), closed
    under (a tensor p tensor a') -> (b a tensor p tensor a' c).
    """
    n = _n(mul)
    m = rank * n
    amb = n * m * n

    def flat(i, u, j):
        return (i * m + u) * n + j

    def acting(b, on_left):
        """The outer action of e_b on one side, and outer minus inner, as sparse columns."""
        outer, dev = [], []
        for i in range(n):
            for u in range(m):
                r, k = divmod(u, n)
                for j in range(n):  # column flat(i, u, j)
                    out_col, dev_col = {}, {}
                    for x in range(n):
                        if on_left:
                            out, y = flat(x, u, j), mul[b][i][x]  # (e_b a) p a'
                            inn, z = flat(i, r * n + x, j), mul[b][k][x]  # a (e_b p) a'
                        else:
                            out, y = flat(i, u, x), mul[j][b][x]  # a p (a' e_b)
                            inn, z = flat(i, r * n + x, j), mul[k][b][x]  # a (p e_b) a'
                        out_col[out] = out_col.get(out, 0) + y
                        dev_col[out] = dev_col.get(out, 0) + y
                        dev_col[inn] = dev_col.get(inn, 0) - z
                    outer.append([(row, Fraction(a)) for row, a in out_col.items() if a])
                    dev.append([(row, Fraction(a)) for row, a in dev_col.items() if a])
        return outer, dev

    left = [acting(b, True) for b in range(n)]
    right = [acting(b, False) for b in range(n)]
    deltas = [d for _, d in left]
    delta_bars = [d for _, d in right]
    unit = _unit_coords(mul)
    gens = []
    for u in range(m):
        v = [Fraction(0)] * amb
        for i in range(n):
            for j in range(n):
                v[flat(i, u, j)] = unit[i] * unit[j]
        for d in deltas:
            moved = _sparse_apply(d, v)
            gens += [_sparse_apply(db, moved) for db in delta_bars]
    mu_dim = _span_closure(gens, [o for o, _ in left] + [o for o, _ in right])
    return mu_dim, amb - mu_dim


def two_sided_mu_normal_form(mul, rank=1, p=None):
    """The RREF basis rows of mu^1 inside A tensor P tensor A, P = A^rank, as its normal form.

    Coordinates as in two_sided_jet_dims.  mu^1 is spanned by the rows
    x - pi(x), x over the basis triples e_i tensor p_u tensor e_j, with
    pi(a tensor p tensor c) = 1 tensor ap tensor c + a tensor pc tensor 1
    - 1 tensor apc tensor 1; no closure is taken.  With a prime p the
    rows are reduced mod p and the RREF is taken over F_p, which is mu^1
    of the algebra with the same structure constants over F_p.  The rows
    are built sparse, on ints where the constants are integral.
    """
    n = _n(mul)
    m = rank * n
    amb = n * m * n
    table = [[[_exact(x) for x in cell] for cell in row] for row in mul]
    unit = [_exact(x) for x in _unit_coords(mul)]
    ones = [a for a in range(n) if unit[a] != 0]

    def flat(i, u, j):
        return (i * m + u) * n + j

    def act(u, on_left, b):
        """e_b p_u (on_left) or p_u e_b, as coordinates in P."""
        r, k = divmod(u, n)
        out = [0] * m
        for x in range(n):
            out[r * n + x] = table[b][k][x] if on_left else table[k][b][x]
        return out

    rows = []
    for i in range(n):
        for u in range(m):
            ap = act(u, True, i)
            for j in range(n):
                pc = act(u, False, j)
                apc = [0] * m
                for v in range(m):
                    if pc[v] != 0:
                        apc = [y + pc[v] * z for y, z in zip(apc, act(v, True, i))]
                row = defaultdict(int)
                row[flat(i, u, j)] += 1
                for v in range(m):
                    for a in ones:
                        row[flat(a, v, j)] -= unit[a] * ap[v]
                        row[flat(i, v, a)] -= unit[a] * pc[v]
                        for c in ones:
                            row[flat(a, v, c)] += unit[a] * apc[v] * unit[c]
                rows.append(row)
    zero = Fraction(0) if p is None else 0  # one shared zero: naive_rref converts no cell
    dense = []
    for row in rows:
        line = [zero] * amb
        for c, x in row.items():
            line[c] = Fraction(x) if p is None else _mod(x, p)
        dense.append(line)
    if p is None:
        return _span_basis(dense)
    red, pivots = naive_rref_mod(dense, p)
    return red[: len(pivots)]


def _exact(x):
    """x as an int when it is integral; ints and Fractions mix exactly, and ints are fast."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _mod(x, p):
    """The residue of a rational x mod p."""
    if type(x) is int:
        return x % p
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


# -- left-linear maps, from Kronecker-product conditions ---------------------


def _identity(n):
    # int entries: a product with an int or a Fraction stays exact, and ints are fast
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _kron(a, b):
    """Kronecker product: entry (i * rows_b + k, j * cols_b + l) is a[i][j] b[k][l]."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def leg_action_kron(dims, terms):
    """A structured leg action as dense rows: the sum over its terms of I (x) M (x) I.

    dims are the leg dims and terms the (axis, M) pairs of a
    modules.LegAction, each M read once by its to_lists(); the identities
    fill the legs before and after M, the row-major layout of the legs.
    Nothing of the operator is applied.  The entries are exact and not
    reduced mod p; no terms give the zero matrix.
    """
    n = math.prod(dims)
    out = [[0] * n for _ in range(n)]
    for axis, m in terms:
        before, after = _identity(math.prod(dims[:axis])), _identity(math.prod(dims[axis + 1 :]))
        term = _kron(_kron(before, m.to_lists()), after)
        out = [[x + y for x, y in zip(row, other)] for row, other in zip(out, term)]
    return out


def free_left_ops(mul, rank=1):
    """x -> e_i x on A^rank with the diagonal action, I_rank (x) L_i."""
    return [_kron(_identity(rank), _left_op(mul, i)) for i in range(_n(mul))]


def free_right_ops(mul, rank=1):
    """x -> x e_i on A^rank with the diagonal action, I_rank (x) R_i."""
    return [_kron(_identity(rank), _right_op(mul, i)) for i in range(_n(mul))]


def tensor_outer_ops(mul, rank=1):
    """(b a) tensor p on A tensor A^rank, flat at i * dim P + u: L_b (x) I_P."""
    ident = _identity(rank * _n(mul))
    return [_kron(_left_op(mul, b), ident) for b in range(_n(mul))]


def hom_left_linear_conditions(left_source, left_target):
    """Rows of f s_b - t_b f = 0 on vec(f), for every pair (s_b, t_b) of actions.

    vec is column-major (entry (y, x) of f at x * dim target + y), so
    vec(f s) = (s^T (x) I) vec(f) and vec(t f) = (I (x) t) vec(f).
    """
    rows = []
    for s, t in zip(left_source, left_target):
        on_arguments = _kron(_transpose(s), _identity(len(t)))
        on_values = _kron(_identity(len(s)), t)
        rows += [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(on_arguments, on_values)]
    return rows


def hom_left_linear(left_source, left_target):
    """Basis of the maps f with f(b v) = b f(v), in column-major vec coordinates."""
    return naive_kernel_basis(hom_left_linear_conditions(left_source, left_target))


# -- the factorization identity over the regular bimodule --------------------


def naive_residual(mul, f, word, p):
    """(delta_{b_0} .. delta_{b_k} phi)(p) - f(delta^{b_0} .. delta^{b_k}(1 tensor p)), P = Q = A.

    f is a map A tensor A -> A as nested lists, its columns flat at
    i * n + u, and phi(p) = f(1 tensor p).  On Hom(A, A) the deviation is
    delta_b phi = L_b phi - phi L_b; on A tensor A it is
    delta^b = outer_b - inner_b, with outer_b (e_i tensor e_u) =
    (e_b e_i) tensor e_u and inner_b (e_i tensor e_u) = e_i tensor (e_b e_u).
    The last letter b_k applies first, on both sides.  Each product
    e_b e_i = sum_r mul[b][i][r] e_r is read from its nonzero constants.
    """
    n = _n(mul)
    # integral coordinates as ints, so a residual of integral data stays on ints
    unit = [x.numerator if x.denominator == 1 else x for x in _unit_coords(mul)]
    # phi(e_u) = f(1 tensor e_u) = sum_i unit_i f(e_i tensor e_u), as the matrix phi[q][u]
    phi = [[sum(unit[i] * f[q][i * n + u] for i in range(n)) for u in range(n)] for q in range(n)]
    v = [unit[i] * p[u] for i in range(n) for u in range(n)]  # 1 tensor p
    for b in reversed(word):
        terms = [(i, r, c) for i in range(n) for r in range(n) if (c := mul[b][i][r])]
        moved = [[0] * n for _ in range(n)]
        w = [0] * (n * n)
        for i, r, c in terms:  # e_b e_i has c at e_r
            for x in range(n):
                moved[r][x] += c * phi[i][x]  # (L_b phi)(e_x)
                moved[x][i] -= c * phi[x][r]  # (phi L_b)(e_i) = phi(e_b e_i)
                w[r * n + x] += c * v[i * n + x]  # (e_b e_i) tensor e_x
                w[x * n + r] -= c * v[x * n + i]  # e_x tensor (e_b e_i)
        phi, v = moved, w
    return [x - y for x, y in zip(naive_mat_vec(phi, p), naive_mat_vec(f, v))]
