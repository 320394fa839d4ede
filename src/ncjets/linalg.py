"""Exact dense linear algebra over Q and prime fields.

Scalars are `fractions.Fraction` for the rationals and ints in ``[0, p)``
for a prime field.  Each field carries the array kernel every module
goes through (``dtype``, ``asarray``, ``dot``, ``tensordot``,
``sparse_dot``, ``leg_dot``, ``echelon``, ``reduce_array``), so no code
outside this module needs to know which field it works over:

- over Q, arrays have dtype ``object`` and hold exact Python scalars, a
  plain ``int`` wherever the value is integral and a ``Fraction``
  otherwise; ``sparse_dot`` (products with relation bases and kernel
  coefficients) and ``leg_dot`` (one factor of a tensor action on one
  leg) only touch the nonzero entries of their mostly-zero operands,
  while ``dot`` stays numpy's dense product for the small dense matrices
  of validation;
- over F_p, arrays have dtype ``int64`` with every entry in ``[0, p)``;
  products split the right operand into 16-bit halves so that no partial
  sum can leave int64 (the word-size technique of Dumas, Giorgi and
  Pernet, FFLAS-FFPACK, 2008); ``sparse_dot`` and ``leg_dot`` are the
  dense int64 products.

Both fields' ``echelon`` is one routine, ``_gauss_jordan``: incremental
Gauss-Jordan on sparse rows that touches nonzero entries only, on Python
scalars; a field supplies its scalar inverse and its modulus (0 for Q).

Subspaces are stored with a reduced row-echelon basis and no zero rows,
which makes set equality of subspaces the same as matrix equality of
their bases.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np


class DimensionMismatch(ValueError):
    """Operands live over different ambients, fields, or shapes."""


class ScalarFormatError(ValueError):
    """A scalar string does not match the field's exact format."""


# ---------------------------------------------------------------------------
# fields


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; the bases 2,3,5,7 cover n < 3.2e9.
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")
_MOD_RE = re.compile(r"^(\d+) mod (\d+)$")

# Scalar types that are not exact field elements: a float carries binary
# rounding (0.1 would become 3602879701896397/36028797018963968) and a bool
# is a flag, not a number.  Checked by exact type, on every normalized cell.
_INEXACT_TYPES = frozenset(
    {bool, float, np.bool_, np.float16, np.float32, np.float64, np.longdouble}
)


def _inexact(x) -> ScalarFormatError:
    return ScalarFormatError(f"not an exact scalar: {x!r} ({type(x).__name__})")


def _gauss_jordan(a: np.ndarray, inverse, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF of a (same shape, zero rows last) and its pivot columns.

    The one elimination of both fields: incremental Gauss-Jordan on sparse
    rows, {col: value} dicts of a row's nonzeros, since the systems built
    from structure constants are a few percent nonzero (the standard
    remedy over finite fields: Dumas and Villard, CASC 2002).  A pivot row
    is kept as its tail, the entries off its pivot (which is 1), and every
    tail is zero at every pivot column.  Each input row is reduced by the
    tails of the pivots it meets, which cannot create an entry at another
    pivot; whatever is left opens a pivot at its first column, is scaled
    by the inverse of its entry there and is cleared from the earlier
    tails that meet that column.  Arithmetic is on Python scalars, reduced
    mod p when p is nonzero; the field supplies only `inverse`.  Other
    rationals in an object array (numpy ints) are made Python Fractions
    first, since a numpy int times a Fraction overflows, and integral
    Fractions in the result become ints.
    """
    nz_rows, nz_cols = a.nonzero()
    cols = nz_cols.tolist()
    vals = a[nz_rows, nz_cols].tolist()
    if a.dtype == object:
        vals = [
            x
            if type(x) is int or type(x) is Fraction
            else Fraction(int(x.numerator), int(x.denominator))
            for x in vals
        ]
    # where each input row's run of nonzeros ends in the row-major lists
    ends = [*(np.flatnonzero(np.diff(nz_rows)) + 1).tolist(), len(cols)]
    tails: dict[int, dict] = {}
    start = 0
    for end in ends:
        row = dict(zip(cols[start:end], vals[start:end]))
        start = end
        for c in [c for c in row if c in tails]:
            _subtract(row, row.pop(c), tails[c], p)
        if not row:
            continue
        c = min(row)
        s = row.pop(c)
        if s != 1:
            s = inverse(s)
            for k, x in row.items():
                row[k] = x * s % p if p else x * s
        for tail in tails.values():
            if c in tail:
                _subtract(tail, tail.pop(c), row, p)
        tails[c] = row
    pivots = sorted(tails)
    out_rows, out_cols, out_vals = [], [], []
    for r, c in enumerate(pivots):
        tail = tails[c]
        out_rows += [r] * (len(tail) + 1)
        out_cols.append(c)
        out_cols += tail
        out_vals.append(1)
        out_vals += tail.values()
    out = np.zeros(a.shape, dtype=a.dtype)
    out[out_rows, out_cols] = [
        x.numerator if type(x) is Fraction and x.denominator == 1 else x for x in out_vals
    ]
    return out, pivots


def _subtract(row: dict, f, tail: dict, p: int) -> None:
    """row -= f * tail in place, mod p when p is nonzero; cells that cancel leave the dict."""
    get = row.get
    for j, v in tail.items():
        x = get(j, 0) - f * v
        if p:
            x %= p
        if x:
            row[j] = x
        else:
            del row[j]


class RationalField:
    """The field Q; scalars are Fractions in lowest terms.

    Integral values are held as plain ints (Fraction and int mix exactly
    and print identically); fractions only appear after division.  An
    echelon form holds a Fraction only where its value is not integral.
    """

    kind = "rationals"
    zero = 0
    one = 1
    dtype = object

    def normalize(self, x):
        if type(x) in _INEXACT_TYPES:
            raise _inexact(x)
        f = Fraction(x)
        return f.numerator if f.denominator == 1 else f

    def inv(self, x):
        """1/x, an int when that is integral."""
        q = 1 / Fraction(x)
        return q.numerator if q.denominator == 1 else q

    # -- array kernel: object arrays of exact scalars --------------------

    def asarray(self, a) -> np.ndarray:
        return np.asarray(a, dtype=object)

    def reduce_array(self, a: np.ndarray) -> np.ndarray:
        return a

    def dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.dot(a, b)

    def tensordot(self, a: np.ndarray, b: np.ndarray, axes) -> np.ndarray:
        return np.tensordot(a, b, axes=axes)

    def sparse_dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b for 2-D operands, summing only the products of nonzero entries.

        Every exact product over Q is a Python-level operation, and relation
        bases and the images of tensor actions are mostly zero (under 2%
        nonzero on the two-sided jet of Q[S3]), so the work is one outer
        product per inner index over the nonzero rows of a and nonzero
        columns of b.
        """
        out = np.zeros((a.shape[0], b.shape[1]), dtype=object)
        nz_a = a != 0
        nz_b = b != 0
        for j in np.flatnonzero(nz_a.any(axis=0) & nz_b.any(axis=1)):
            rows = np.flatnonzero(nz_a[:, j])
            cols = np.flatnonzero(nz_b[j])
            out[np.ix_(rows, cols)] += np.multiply.outer(a[rows, j], b[j, cols])
        return out

    def leg_dot(self, t: np.ndarray, m: np.ndarray, axis: int, out=None) -> np.ndarray:
        """out plus t with the square factor m applied on axis `axis`.

        Slab i of the result on that axis is sum_j m[i, j] * (slab j of t),
        taken over the nonzero entries of m only: an entry of +-1 is a slab
        add or subtract, any other a scaled add, so the cost is nnz(m)
        times the slab size.  With out=None the result is a new array, each
        slab's first term assigned rather than added to zero.
        """
        fresh = out is None
        if fresh:
            out = np.zeros(t.shape, dtype=object)
        src = np.moveaxis(t, axis, 0)
        dst = np.moveaxis(out, axis, 0)
        last = -1
        for i, j in zip(*m.nonzero()):
            c, slab, col = m[i, j], dst[i], src[j]
            if fresh and i != last:
                slab[...] = col if c == 1 else -col if c == -1 else c * col
            elif c == 1:
                slab += col
            elif c == -1:
                slab -= col
            else:
                slab += c * col
            last = i
        return out

    def echelon(self, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """RREF of a (same shape, zero rows last) and its pivot columns, by _gauss_jordan."""
        return _gauss_jordan(np.asarray(a, dtype=object), self.inv, 0)

    def demote_array(self, a: np.ndarray) -> np.ndarray:
        # Turn integral Fractions back into ints; keeps later arithmetic fast.
        flat = a.ravel()
        for k in range(flat.size):
            x = flat[k]
            if type(x) is Fraction and x.denominator == 1:
                flat[k] = x.numerator
        return a

    def parse(self, s: str) -> Fraction:
        if not isinstance(s, str) or not _RATIONAL_RE.match(s):
            raise ScalarFormatError(f"not a rational scalar: {s!r}")
        return Fraction(s)

    def format(self, x) -> str:
        # str of an int or a Fraction is already canonical; other types
        # (numpy ints, bools) print through Fraction
        t = type(x)
        return str(x) if t is int or t is Fraction else str(Fraction(x))

    def spec(self) -> object:
        """The field's JSON form, read back by field_from_spec."""
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


# A product's right operand is split as b = hi * 2**16 + lo with
# |hi| < 2**15 and 0 <= lo < 2**16; with |a| < 2**31 every term of a @ lo
# is below 2**47, so a sum over an inner dimension of at most 2**16 terms
# stays below 2**63.  Longer inner dimensions are summed in chunks.
_SPLIT_BITS = 16
_SPLIT_MASK = (1 << _SPLIT_BITS) - 1
MAX_INNER = 1 << 16


class PrimeField:
    """The field F_p for a prime p < 2**31; scalars are ints in [0, p).

    Arrays are int64 with entries in [0, p).  The kernel's products also
    accept negated entries (|x| < p), which is all the library produces
    between reductions, and keep every partial sum below 2**63.
    Elimination works on Python ints reduced mod p, which cannot overflow.
    """

    kind = "prime-field"
    dtype = np.int64

    def __init__(self, p: int):
        if not isinstance(p, int) or p >= 2**31 or not _is_prime(p):
            raise ValueError(f"prime field needs a prime p < 2**31, got {p}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def normalize(self, x) -> int:
        if type(x) in _INEXACT_TYPES:
            raise _inexact(x)
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return x.numerator % self.p
            return x.numerator % self.p * self.inv(x.denominator % self.p) % self.p
        return int(x) % self.p

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return pow(x, -1, self.p)

    # -- array kernel: int64 arrays reduced to [0, p) --------------------

    def asarray(self, a) -> np.ndarray:
        """a's entries reduced to [0, p) as int64; a itself when it already is that.

        Object arrays (scalars from outside: ints of any size, Fractions)
        go through normalize entry by entry, which refuses inexact scalars.
        """
        a = np.asarray(a)
        if a.dtype == np.int64:
            if not a.size or (a.min() >= 0 and a.max() < self.p):
                return a
            return a % self.p
        if a.dtype == object:
            return np.array([self.normalize(x) for x in a.ravel()], dtype=np.int64).reshape(a.shape)
        if a.dtype.kind in "iu":
            # narrow ints overflow on % p, and uint64 does not fit int64
            return (a.astype(object) % self.p).astype(np.int64)
        if not a.size:
            return np.zeros(a.shape, dtype=np.int64)
        raise ScalarFormatError(f"not an array of exact integers: dtype {a.dtype}")

    reduce_array = asarray

    def dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b mod p for 1-D or 2-D operands, reduced to [0, p).

        int64 operands must hold entries of absolute value below p
        (residues or their negatives, as every array here does); other
        dtypes are reduced first.
        """
        if a.dtype != np.int64:
            a = self.asarray(a)
        if b.dtype != np.int64:
            b = self.asarray(b)
        k = a.shape[-1]
        if k <= MAX_INNER:
            return self._dot_chunk(a, b)
        out = self._dot_chunk(a[..., :MAX_INNER], b[:MAX_INNER])
        for s in range(MAX_INNER, k, MAX_INNER):
            out += self._dot_chunk(a[..., s : s + MAX_INNER], b[s : s + MAX_INNER])
            out %= self.p
        return out

    def _dot_chunk(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # inner dim <= MAX_INNER keeps both partial products below 2**63;
        # after reduction hi * 2**16 + lo is below 2**48
        p = self.p
        hi = np.dot(a, b >> _SPLIT_BITS)
        hi %= p
        hi <<= _SPLIT_BITS
        lo = np.dot(a, b & _SPLIT_MASK)
        lo %= p
        hi += lo
        hi %= p
        return hi

    def tensordot(self, a: np.ndarray, b: np.ndarray, axes) -> np.ndarray:
        """np.tensordot(a, b, axes) mod p; axes is a pair of axis lists."""
        ax_a = [x % a.ndim for x in axes[0]]
        ax_b = [x % b.ndim for x in axes[1]]
        if [a.shape[x] for x in ax_a] != [b.shape[x] for x in ax_b]:
            raise DimensionMismatch(f"tensordot of {a.shape} and {b.shape} over {axes}")
        free_a = [x for x in range(a.ndim) if x not in ax_a]
        free_b = [x for x in range(b.ndim) if x not in ax_b]
        out_a = [a.shape[x] for x in free_a]
        out_b = [b.shape[x] for x in free_b]
        k = math.prod(a.shape[x] for x in ax_a)
        lhs = a.transpose(free_a + ax_a).reshape(math.prod(out_a), k)
        rhs = b.transpose(ax_b + free_b).reshape(k, math.prod(out_b))
        return self.dot(lhs, rhs).reshape(out_a + out_b)

    # products with mostly-zero operands take the dense int64 path
    sparse_dot = dot

    def leg_dot(self, t: np.ndarray, m: np.ndarray, axis: int, out=None) -> np.ndarray:
        """out plus t with the square factor m applied on axis `axis`, by tensordot."""
        moved = np.moveaxis(self.tensordot(t, m, ([axis], [1])), -1, axis)
        return moved if out is None else out + moved

    def echelon(self, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """RREF of a (same shape, zero rows last) and its pivot columns, by _gauss_jordan."""
        return _gauss_jordan(self.asarray(a), self.inv, self.p)

    def demote_array(self, a: np.ndarray) -> np.ndarray:
        return a

    def parse(self, s: str) -> int:
        if not isinstance(s, str):
            raise ScalarFormatError(f"not a prime-field scalar: {s!r}")
        m = _MOD_RE.match(s)
        if m:
            if int(m.group(2)) != self.p:
                raise ScalarFormatError(f"scalar {s!r} is not mod {self.p}")
            return int(m.group(1)) % self.p
        if re.match(r"^[+-]?\d+$", s):
            return int(s) % self.p
        raise ScalarFormatError(f"not a prime-field scalar: {s!r}")

    def format(self, x) -> str:
        return f"{int(x) % self.p} mod {self.p}"

    def spec(self) -> object:
        return {"Fp": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_spec(spec) -> RationalField | PrimeField:
    """Build a field from its JSON form: "Q" or {"Fp": p}."""
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        return PrimeField(spec["Fp"])
    raise ScalarFormatError(f"unknown field spec: {spec!r}")


# ---------------------------------------------------------------------------
# matrices


def _normalized_array(field, rows) -> np.ndarray:
    """Every entry through field.normalize (which refuses inexact scalars), as a kernel array."""
    if isinstance(rows, np.ndarray):
        a = rows.astype(object, copy=True)
    else:
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        a = np.empty((len(rows), ncols), dtype=object)
        for i, r in enumerate(rows):
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            for j, x in enumerate(r):
                a[i, j] = x
    norm = field.normalize
    flat = a.ravel()
    for k in range(flat.size):
        flat[k] = norm(flat[k])
    return a.astype(field.dtype, copy=False)


class Matrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("field", "a")

    def __init__(self, field, rows):
        a = _normalized_array(field, rows)
        a.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", a)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _raw(cls, field, a: np.ndarray) -> "Matrix":
        # Trusted constructor: entries are field scalars (over F_p any ints,
        # reduced here); takes ownership of a and freezes it.
        a = field.asarray(a)
        if a.flags.writeable:
            field.demote_array(a)
        return cls._wrap(field, a)

    @classmethod
    def _wrap(cls, field, a: np.ndarray) -> "Matrix":
        # Trusted constructor for an array already in the field's form (an
        # echelon output, a fresh identity or zero array) or read only by
        # rref, whose echelon canonicalizes it: no reduction, no demote;
        # takes ownership of a and freezes it.
        a.flags.writeable = False
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "a", a)
        return m

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        a = np.zeros((n, n), dtype=field.dtype)
        a[range(n), range(n)] = field.one
        return cls._wrap(field, a)

    @classmethod
    def zeros(cls, field, rows: int, cols: int) -> "Matrix":
        return cls._wrap(field, np.zeros((rows, cols), dtype=field.dtype))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def entries(self) -> list:
        """Row-major flat list of scalars."""
        return self.a.ravel().tolist()

    def to_lists(self) -> list[list]:
        return self.a.tolist()

    def to_strings(self) -> list[list[str]]:
        f = self.field.format
        return [[f(x) for x in r] for r in self.a]

    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            self._check(other)
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.shape} @ {other.shape}")
            return Matrix._raw(self.field, self.field.dot(self.a, other.a))
        return NotImplemented

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix times a 1-D coordinate vector."""
        if self.cols != len(v):
            raise DimensionMismatch(f"{self.shape} applied to length {len(v)}")
        return self.field.dot(self.a, self.field.asarray(v))

    def rows_apply(self, rows: np.ndarray) -> np.ndarray:
        """rows @ self.T for a stack of row vectors: the matrix applied to each row."""
        if rows.shape[1] != self.cols:
            raise DimensionMismatch(f"{self.shape} applied to rows of length {rows.shape[1]}")
        return self.field.dot(self.field.asarray(rows), self.a.T)

    def __add__(self, other):
        if isinstance(other, Matrix):
            self._check(other)
            if self.shape != other.shape:
                raise DimensionMismatch(f"{self.shape} + {other.shape}")
            return Matrix._raw(self.field, self.a + other.a)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Matrix):
            self._check(other)
            if self.shape != other.shape:
                raise DimensionMismatch(f"{self.shape} - {other.shape}")
            return Matrix._raw(self.field, self.a - other.a)
        return NotImplemented

    def __neg__(self):
        return Matrix._raw(self.field, -self.a)

    def scale(self, c) -> "Matrix":
        c = self.field.normalize(c)
        return Matrix._raw(self.field, self.a * c)

    @property
    def T(self) -> "Matrix":
        return Matrix._raw(self.field, self.a.T.copy())

    def kron(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix._raw(self.field, np.kron(self.a, other.a))

    def row(self, i: int) -> np.ndarray:
        return self.a[i].copy()

    def col(self, j: int) -> np.ndarray:
        return self.a[:, j].copy()

    def is_zero(self) -> bool:
        return not self.a.any()

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and bool(np.array_equal(self.a, other.a))
        )

    __hash__ = None

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.to_lists()!r})"


def hstack(mats: Sequence[Matrix]) -> Matrix:
    field = mats[0].field
    return Matrix._raw(field, np.hstack([m.a for m in mats]))


def vector(field, items: Iterable) -> np.ndarray:
    return field.asarray([field.normalize(x) for x in items])


def unit_vector(field, n: int, i: int) -> np.ndarray:
    v = np.zeros(n, dtype=field.dtype)
    v[i] = field.one
    return v


# ---------------------------------------------------------------------------
# reduced row-echelon form and kernels


@dataclass(frozen=True)
class RrefResult:
    matrix: Matrix
    pivots: tuple[int, ...]
    rank: int


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row-echelon form of m, with pivot columns and rank."""
    a, pivots = m.field.echelon(m.a)
    return RrefResult(Matrix._wrap(m.field, a), tuple(pivots), len(pivots))


def kernel(m: Matrix) -> "Subspace":
    """Right kernel {v : m v = 0} as a subspace of the column space."""
    res = rref(m)
    free = _free_cols(m.cols, res.pivots)
    if not free:
        return Subspace.zero(m.field, m.cols)
    rows = _complement_rows(m.field, res.matrix.a[: res.rank], res.pivots, free)
    return Subspace.from_spanning(m.field, m.cols, rows)


def _free_cols(n: int, pivots: Sequence[int]) -> list[int]:
    taken = set(pivots)
    return [c for c in range(n) if c not in taken]


def _complement_rows(field, basis: np.ndarray, pivots: Sequence[int], free: list[int]) -> np.ndarray:
    """Row t is e_f - sum_j basis[j, f] e_{pivots[j]} for f = free[t].

    For an RREF basis these rows are a basis of its right kernel, and as a
    matrix they are the projection onto the free coordinates whose kernel
    is the row space: kernel and quotient are the same construction.
    """
    q = np.zeros((len(free), basis.shape[1]), dtype=field.dtype)
    q[range(len(free)), free] = field.one
    if len(pivots):
        q[:, list(pivots)] = field.reduce_array(-basis[:, free].T)
    return q


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class QuotientMaps:
    """Surjection q with kernel U and a section s with q @ s = identity.

    The section selects the free coordinates of U's echelon basis, so an
    induced operator needs the operator applied to those unit vectors
    only, plus one product with q's pivot block, instead of two dense
    products.
    """

    projection: Matrix
    section: Matrix
    dim: int
    pivots: tuple[int, ...]
    free: tuple[int, ...]

    def induced(self, op) -> Matrix:
        """q @ op @ s for an operator that descends to the quotient.

        op is anything with rows_apply (a Matrix or a modules.LegAction);
        it is applied to the section's columns only.
        """
        moved = op.rows_apply(self.section.a.T)  # row t: op applied to section column t
        f, p = list(self.free), list(self.pivots)
        block = moved[:, f].T.copy()
        if p:
            w = self.projection.a[:, p]
            block = op.field.reduce_array(block + op.field.sparse_dot(w, moved[:, p].T))
        return Matrix._raw(op.field, block)


class Subspace:
    """Subspace of K^n held as an RREF basis with no zero rows.

    pivots holds the pivot column of each basis row, increasing; the
    constructors below are the only callers and pass the pivots they know.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim: int, basis: Matrix, pivots: tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, *_):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_spanning(cls, field, ambient_dim: int, rows) -> "Subspace":
        if not isinstance(rows, np.ndarray):
            rows = list(rows)
        if not len(rows):
            return cls.zero(field, ambient_dim)
        if isinstance(rows[0], np.ndarray):
            # only rref reads m, and echelon copies and canonicalizes it
            a = field.asarray(rows)
            m = Matrix._wrap(field, a.view() if a is rows else a)
        else:
            m = Matrix(field, rows)
        if m.cols != ambient_dim:
            raise DimensionMismatch(f"vectors of length {m.cols} in ambient {ambient_dim}")
        res = rref(m)
        basis = Matrix._wrap(field, res.matrix.a[: res.rank].copy())
        return cls(field, ambient_dim, basis, res.pivots)

    @classmethod
    def zero(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.zeros(field, 0, ambient_dim), ())

    @classmethod
    def full(cls, field, ambient_dim: int) -> "Subspace":
        basis = Matrix.identity(field, ambient_dim)
        return cls(field, ambient_dim, basis, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def basis_vectors(self) -> list[np.ndarray]:
        return [self.basis.a[i].copy() for i in range(self.dim)]

    def _check(self, other: "Subspace"):
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambients")

    def contains(self, v: np.ndarray) -> bool:
        return self.contains_all(self.field.asarray(v).reshape(1, -1))

    def residuals(self, rows: np.ndarray) -> np.ndarray:
        """Residuals of a stack of row vectors after elimination against the basis.

        Row i is zero iff rows[i] is a member.  In RREF each pivot column
        holds a single 1, so a residual is zero there and only the free
        columns are computed: rows[:, free] - rows[:, pivots] @ basis[:, free].
        """
        rows = self.field.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.ambient_dim:
            raise DimensionMismatch("row length does not match the ambient")
        pivots = list(self.pivots)
        if not pivots:
            return self.field.reduce_array(rows.copy())
        free = _free_cols(self.ambient_dim, pivots)
        resid = rows[:, free]
        if free:
            resid -= self.field.sparse_dot(rows[:, pivots], self.basis.a[:, free])
        out = np.zeros(rows.shape, dtype=self.field.dtype)
        out[:, free] = self.field.reduce_array(resid)
        return out

    def contains_all(self, rows: np.ndarray) -> bool:
        """Membership for a whole stack of row vectors at once."""
        return not self.residuals(rows).any()

    def is_subset(self, other: "Subspace") -> bool:
        self._check(other)
        return self.dim <= other.dim and other.contains_all(self.basis.a)

    def outside(self, other: "Subspace") -> Optional[np.ndarray]:
        """First basis row of self that is not in other; None when self <= other."""
        self._check(other)
        hits = np.flatnonzero((other.residuals(self.basis.a) != 0).any(axis=1))
        return self.basis.a[hits[0]].copy() if len(hits) else None

    def __le__(self, other):
        return self.is_subset(other)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    __hash__ = None

    def __add__(self, other):
        self._check(other)
        return Subspace.from_spanning(
            self.field, self.ambient_dim, np.vstack([self.basis.a, other.basis.a])
        )

    def __and__(self, other):
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.field, self.ambient_dim)
        field = self.field
        # u = sum w_i self_i equals sum w'_j other_j exactly when (w, w') kills this stack
        negated = field.reduce_array(-other.basis.a.T)
        coeffs = kernel(Matrix._wrap(field, np.hstack([self.basis.a.T, negated])))
        vecs = field.sparse_dot(coeffs.basis.a[:, : self.dim], self.basis.a)
        return Subspace.from_spanning(field, self.ambient_dim, vecs)

    def quotient(self) -> QuotientMaps:
        """Projection onto the ambient modulo this subspace, plus a section.

        The free coordinates of the RREF basis index the quotient; the
        projection subtracts each vector's component along the basis rows.
        """
        field = self.field
        pivots = self.pivots
        free = _free_cols(self.ambient_dim, pivots)
        qdim = len(free)
        s = np.zeros((self.ambient_dim, qdim), dtype=field.dtype)
        s[free, range(qdim)] = field.one
        return QuotientMaps(
            Matrix._raw(field, _complement_rows(field, self.basis.a, pivots, free)),
            Matrix._raw(field, s),
            qdim,
            pivots,
            tuple(free),
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


# ---------------------------------------------------------------------------
# operator-driven constructions


def closure_under(operators: Sequence, seed: Subspace) -> Subspace:
    """Smallest subspace containing seed and invariant under every operator.

    Operators are anything with a square shape and rows_apply (a Matrix
    or a modules.LegAction).  Frontier spinning, as in the MeatAxe
    (Parker 1984): each pass applies the operators only to the rows the
    previous pass added, reduces the images against the current basis,
    and adds the span of the nonzero residuals.  The dimension grows
    on every pass but the last, so there are at most ambient_dim passes.
    """
    n = seed.ambient_dim
    for op in operators:
        if op.shape != (n, n):
            raise DimensionMismatch(f"operator {op.shape} on ambient {n}")
    current = seed
    frontier = seed.basis.a
    while operators and len(frontier) and not current.is_full():
        images = np.vstack([op.rows_apply(frontier) for op in operators])
        resid = current.residuals(images)
        resid = resid[resid.any(axis=1)]
        if not len(resid):
            break
        new = Subspace.from_spanning(seed.field, n, resid)
        current = current + new
        frontier = new.basis.a
    return current


def preimage(operators: Sequence, target: Subspace) -> Subspace:
    """{v : op v in target for every op}, a subspace of the operators' common source."""
    for op in operators:
        if op.shape[0] != target.ambient_dim:
            raise DimensionMismatch(
                f"operator maps into dim {op.shape[0]}, target ambient {target.ambient_dim}"
            )
    return _restrict(operators, target)


def joint_kernel(operators: Sequence) -> Subspace:
    """Intersection of the kernels of every operator (common source dim)."""
    return _restrict(operators, None)


def _restrict(operators: Sequence, target: Optional[Subspace]) -> Subspace:
    """{v : op v in target for every op}, one operator at a time; None is the zero target.

    Operators are anything with field, shape and rows_apply (a Matrix or a
    modules.LegAction).  Each step applies op to the current basis rows and
    reduces the images against target: the residual on target's free
    columns is the image under its quotient projection, so no projection
    is formed.  The combinations of basis rows whose residuals cancel stay.
    """
    if not operators:
        raise ValueError("preimage and joint_kernel need at least one operator")
    field, n = operators[0].field, operators[0].shape[1]
    current = Subspace.full(field, n)
    if target is not None and target.is_full():
        return current
    for op in operators:
        if op.shape[1] != n:
            raise DimensionMismatch("operators disagree on source dimension")
        if current.is_zero():
            return current
        resid = op.rows_apply(current.basis.a)  # row i: op applied to basis row i
        if target is not None:
            resid = target.residuals(resid)
        resid = resid[:, resid.any(axis=0)]
        if resid.size:
            coeffs = kernel(Matrix._wrap(field, resid.T))
            current = Subspace.from_spanning(
                field, n, field.sparse_dot(coeffs.basis.a, current.basis.a)
            )
    return current
