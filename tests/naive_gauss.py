"""Standalone naive Gaussian eliminator used as an independent oracle.

Deliberately primitive: plain lists of Fractions, textbook elimination,
no imports from the package under test.  Every derived dimension in the
test-suite is recomputed here straight from its defining linear
conditions and compared against the library.
"""

from fractions import Fraction


def naive_rref(rows):
    """Reduced row echelon form of a list-of-lists matrix. Returns (rref, pivots)."""
    m = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        scale = m[r][c]
        m[r] = [x / scale if x != 0 else x for x in m[r]]
        # a row operation changes only the pivot row's nonzero columns
        support = [(k, b) for k, b in enumerate(m[r]) if b != 0]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f, row = m[i][c], m[i]
                for k, b in support:
                    row[k] -= f * b
        pivots.append(c)
        r += 1
    return m, pivots


def naive_rank(rows):
    return len(naive_rref(rows)[1])


def naive_nullity(rows, ncols=None):
    if not rows:
        raise ValueError("need ncols for an empty system")
    return len(rows[0]) - naive_rank(rows)


def naive_kernel_basis(rows):
    """Basis of {v : M v = 0} for M given as list of rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = naive_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for j, c in enumerate(pivots):
            v[c] = -red[j][f]
        basis.append(v)
    return basis


def naive_span_dim(vectors):
    vectors = [v for v in vectors if any(x != 0 for x in v)]
    if not vectors:
        return 0
    return naive_rank(vectors)


def naive_mat_vec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def naive_mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def naive_in_span(vectors, target):
    """Is target in the span of vectors?  Rank comparison, no library calls."""
    base = [list(v) for v in vectors]
    return naive_span_dim(base) == naive_span_dim(base + [list(target)])


def naive_rref_mod(rows, p):
    """Reduced row echelon form over F_p of a list-of-lists integer matrix.

    Same textbook elimination as naive_rref, on plain ints reduced mod p,
    with inverses by Fermat's little theorem.  Returns (rref, pivots).
    """
    m = [[x % p for x in row] for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def naive_kernel_basis_mod(rows, p):
    """Basis of {v : M v = 0 mod p}, one vector per free column of the RREF."""
    ncols = len(rows[0])
    red, pivots = naive_rref_mod(rows, p)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for j, c in enumerate(pivots):
            v[c] = -red[j][f] % p
        basis.append(v)
    return basis
