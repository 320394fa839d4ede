"""Exact linear algebra over Q and prime fields.

Scalars are `fractions.Fraction` for the rationals and ints in ``[0, p)``
for a prime field.  Each field carries the dense array kernel every
module goes through (``dtype``, ``asarray``, ``dot``, ``reduce_array``;
``dot`` is the one dense product, and a contraction of stacked arrays is
a ``dot`` of the operands reshaped to matrices), so no code outside this
module needs to know which field it works over:

- over Q, arrays have dtype ``object`` and hold exact Python scalars, a
  plain ``int`` wherever the value is integral and a ``Fraction``
  otherwise; ``dot`` is numpy's dense product, kept for the small dense
  matrices of validation;
- over F_p, arrays have dtype ``int64`` with every entry in ``[0, p)``;
  products split the right operand into 16-bit halves so that no partial
  sum can leave int64 (the word-size technique of Dumas, Giorgi and
  Pernet, FFLAS-FFPACK, 2008).

The heavy work runs on sparse rows: {col: value} dicts of Python scalars,
reduced mod p over F_p, holding no zero cell.  An operator (a ``Matrix``
or a ``modules.LegAction``) applies to them with ``apply_rows``, one
kernel reading each factor's column nonzeros, so structure constants a
few percent nonzero cost only their nonzero products and no table spans
the ambient.  Every reduction against a reduced row-echelon basis is one
pair of steps on such rows: ``_reduce`` subtracts the pivot rows a row
meets and ``_insert`` makes what is left a new pivot row.  Beside the
echelon ``_insert`` keeps each column's occurrence list, the pivots whose
rows hold it, so a new pivot clears its column from those rows only and
not from every earlier one; a span or closure keeps one such index across
all its operators and passes.  Elimination, membership, spans of images,
closure, intersection, preimages and induced quotient maps all go through
them; a field supplies only its scalar inverse and its modulus (0 for Q).
Every kernel is one elimination: _kernel_tails grows the rows with the
column order reversed and reads the kernel's RREF straight off that
echelon.  kernel_of_rows is that kernel; a joint kernel, a preimage and an
intersection take the left kernel of their residuals, over the
coefficients of the current basis rows, and combine those rows with it.

Subspaces are stored as the tails of a reduced row-echelon basis with no
zero rows, which makes set equality of subspaces the same as equality of
those echelons; the dense basis is built only when it is read.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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


# Matched with fullmatch: "$" alone would also accept a trailing newline.
_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?")
_MOD_RE = re.compile(r"(\d+) mod (\d+)")
_INT_RE = re.compile(r"[+-]?\d+")

# Scalar types that are not exact field elements: a float carries binary
# rounding (0.1 would become 3602879701896397/36028797018963968) and a bool
# is a flag, not a number.  Checked by exact type, on every normalized cell.
_INEXACT_TYPES = frozenset(
    {bool, float, np.bool_, np.float16, np.float32, np.float64, np.longdouble}
)


def _inexact(x) -> ScalarFormatError:
    return ScalarFormatError(f"not an exact scalar: {x!r} ({type(x).__name__})")


def _cell_values(a: np.ndarray, *index: np.ndarray) -> list:
    """The cells a[index] of a kernel array, one index array per axis, as exact Python scalars."""
    vals = a[index].tolist()
    if a.dtype == object:  # a numpy int among them would wrap around in products
        vals = [x if type(x) is int or type(x) is Fraction else QQ.normalize(x) for x in vals]
    return vals


def _nonzero_cells(a: np.ndarray) -> Iterable[tuple]:
    """(index on each axis..., value) per nonzero cell of a kernel array, in C order."""
    nz = a.nonzero()
    return zip(*(i.tolist() for i in nz), _cell_values(a, *nz))


def _sparse_rows(a: np.ndarray) -> list[dict]:
    """Row i of a 2-D kernel array as a {col: value} dict of its nonzeros, in Python scalars."""
    nz_rows, nz_cols = a.nonzero()
    cols = nz_cols.tolist()
    vals = _cell_values(a, nz_rows, nz_cols)
    rows, start = [], 0
    for end in np.cumsum(np.bincount(nz_rows, minlength=a.shape[0])).tolist():
        rows.append(dict(zip(cols[start:end], vals[start:end])))
        start = end
    return rows


def _dense(rows: Sequence[dict], shape: tuple[int, int], dtype) -> np.ndarray:
    """The array whose first rows are the sparse rows, integral Fractions made ints."""
    out_rows, out_cols, out_vals = [], [], []
    for r, row in enumerate(rows):
        out_rows += [r] * len(row)
        out_cols += row
        out_vals += row.values()
    out = np.zeros(shape, dtype=dtype)
    whole = [x.numerator if type(x) is Fraction and x.denominator == 1 else x for x in out_vals]
    out[out_rows, out_cols] = whole
    return out


def _factor_term(a: np.ndarray, stride: int) -> tuple:
    """A factor M (rows, d) as one term (stride, d, cols) of _apply_columns.

    cols[i] holds ((j - i) * stride, M[j, i]) per nonzero of M's column i:
    on a leg of that stride, the offset from leg index i to j.  O(nnz + d).
    """
    d = a.shape[1]
    i, j = a.T.nonzero()  # column by column, rows ascending
    cols: list = [[] for _ in range(d)]
    for c, off, v in zip(i.tolist(), ((j - i) * stride).tolist(), _cell_values(a, j, i)):
        cols[c].append((off, v))
    return (stride, d, tuple(map(tuple, cols)))


def _apply_columns(terms: Sequence[tuple], width: int, rows: Iterable[dict], p: int) -> list[dict]:
    """Each sparse row times the sum of these factor terms, as a sparse row.

    A row nonzero x at column c meets cols[c // stride % d] of each term and
    adds x v at c + offset per pair (offset, v) there; sums are reduced mod
    p when p is nonzero, zero cells dropped, columns outside [0, width)
    refused.  A row with one nonzero through an operator of one term (most
    rows, most operators) reads one factor column and forms no sums.
    """
    out = []
    append = out.append
    single = terms[0] if len(terms) == 1 else None
    for row in rows:
        if single and len(row) == 1:
            ((c, x),) = row.items()
            stride, d, cols = single
            if not 0 <= c < width:
                raise DimensionMismatch(f"column {c} is outside an operator of width {width}")
            if p:
                append({c + off: r for off, v in cols[c // stride % d] if (r := x * v % p)})
            else:
                append({c + off: r for off, v in cols[c // stride % d] if (r := x * v)})
            continue
        acc: dict = {}
        get = acc.get
        for c, x in row.items():
            if not 0 <= c < width:
                raise DimensionMismatch(f"column {c} is outside an operator of width {width}")
            for stride, d, cols in terms:
                for off, v in cols[c // stride % d]:
                    acc[c + off] = get(c + off, 0) + x * v
        if p:
            append({j: r for j, v in acc.items() if (r := v % p)})
        else:
            append({j: v for j, v in acc.items() if v})
    return out


def _reduce(row: dict, tails: dict, p: int) -> dict:
    """row minus its components along the pivot rows, in place: its residual; returns row.

    tails maps each pivot column to its row's entries off the pivot (which
    is 1); every tail is zero at every pivot column, and so is what is left.
    """
    for c in [c for c in row if c in tails]:
        _subtract(row, row.pop(c), tails[c], p)
    return row


def _insert(row: dict, tails: dict, where: dict, inverse, p: int) -> int:
    """Make a reduced nonzero row the pivot row of its first column; returns the column.

    The row is scaled to 1 there and the column is cleared from the earlier
    tails, so tails stays an RREF.  where maps each column to the set of
    pivots whose tails hold it (no empty sets): the column is cleared from
    where.pop(c) only, and where is kept exact as cells appear and cancel.
    """
    c = min(row)
    s = row.pop(c)
    if s != 1:
        s = inverse(s)
        for k, x in row.items():
            row[k] = x * s % p if p else x * s
    for k in row:
        where.setdefault(k, set()).add(c)
    for r in where.pop(c, ()):
        tail = tails[r]
        f = tail.pop(c)
        get = tail.get  # _subtract(tail, f, row, p), recording each cell it adds or cancels
        for j, v in row.items():
            x = get(j, 0) - f * v
            if p:
                x %= p
            if x:
                if j not in tail:
                    where[j].add(r)
                tail[j] = x
            else:
                del tail[j]
                where[j].discard(r)  # never empties: it holds c
    tails[c] = row
    return c


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


def _grow(tails: dict, rows: Iterable[dict], field, where: Optional[dict] = None) -> list[int]:
    """Reduce each sparse row by the pivot rows so far and insert what is left; the new pivots.

    Incremental Gauss-Jordan on sparse rows, since the systems built from
    structure constants are a few percent nonzero, with the column
    occurrence lists of the standard remedy over finite fields (Dumas and
    Villard, CASC 2002) in where, as _insert keeps it.  A caller that grows
    one echelon by several calls builds where once and passes it to each;
    None builds it from tails.
    """
    if where is None:
        where = _occurrences(tails)
    inverse, p = field.inv, field.modulus
    return [_insert(row, tails, where, inverse, p) for row in rows if _reduce(row, tails, p)]


def _occurrences(tails: dict) -> dict:
    """{column: set of the pivots whose tails hold it}, the index _insert keeps."""
    where: dict[int, set] = {}
    for c, tail in tails.items():
        for j in tail:
            where.setdefault(j, set()).add(c)
    return where


class RationalField:
    """The field Q; scalars are Fractions in lowest terms.

    Integral values are held as plain ints (Fraction and int mix exactly
    and print identically); fractions only appear after division.  Sparse
    echelon tails may hold Fraction(n, 1); _dense, Subspace.basis and format give ints.
    """

    kind = "rationals"
    zero = 0
    one = 1
    dtype = object
    modulus = 0

    def normalize(self, x):
        # Python ints only: a numpy int64 cell would wrap around in products
        if type(x) is int:  # not a bool, whose type is bool
            return x
        if type(x) in _INEXACT_TYPES:
            raise _inexact(x)
        f = Fraction(x)
        num, den = operator.index(f.numerator), operator.index(f.denominator)
        return num if den == 1 else Fraction(num, den)

    def inv(self, x):
        """1/x, an int when that is integral."""
        if type(x) is int:  # most pivots of integral systems: no Fraction arithmetic
            return x if x == 1 or x == -1 else Fraction(1, x)
        q = 1 / Fraction(x)
        return q.numerator if q.denominator == 1 else q

    # -- array kernel: object arrays of exact scalars --------------------

    def asarray(self, a) -> np.ndarray:
        """a itself when it is an object array; anything else through normalize, cell by cell."""
        if isinstance(a, np.ndarray) and a.dtype == object:
            return a
        return _normalized_array(self, np.asarray(a, dtype=object))

    def reduce_array(self, a: np.ndarray) -> np.ndarray:
        return a

    def dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.dot(a, b)

    def demote_array(self, a: np.ndarray) -> np.ndarray:
        # Turn integral Fractions back into ints; keeps later arithmetic fast.
        flat = a.ravel()
        for k in range(flat.size):
            x = flat[k]
            if type(x) is Fraction and x.denominator == 1:
                flat[k] = x.numerator
        return a

    def parse(self, s: str):
        """The scalar s names, normalized: an int when integral, else a Fraction."""
        m = _RATIONAL_RE.fullmatch(s) if isinstance(s, str) else None
        if m is None:
            raise ScalarFormatError(f"not a rational scalar: {s!r}")
        num, den = m.groups()
        if not den:
            return int(num)
        q = Fraction(int(num), int(den))
        return q.numerator if q.denominator == 1 else q

    def format(self, x) -> str:
        # str of an int or a Fraction is already canonical; other types
        # (numpy ints, bools) print through Fraction
        t = type(x)
        return str(x) if t is int or t is Fraction else str(Fraction(x))

    def format_rows(self, rows) -> list[list[str]]:
        """format of every cell of rows, as lists of strings.

        The cells are those a kernel array holds (Python ints, Fractions,
        numpy ints), whose str equals format: normalize refuses bools and
        floats before an array is built.
        """
        return [list(map(str, row)) for row in rows]

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
        self.p = self.modulus = p
        self.zero = 0
        self.one = 1 % p

    def normalize(self, x) -> int:
        if type(x) is int:  # not a bool, whose type is bool
            return x % self.p
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

    def demote_array(self, a: np.ndarray) -> np.ndarray:
        return a

    def parse(self, s: str) -> int:
        if not isinstance(s, str):
            raise ScalarFormatError(f"not a prime-field scalar: {s!r}")
        m = _MOD_RE.fullmatch(s)
        if m:
            if int(m.group(2)) != self.p:
                raise ScalarFormatError(f"scalar {s!r} is not mod {self.p}")
            return int(m.group(1)) % self.p
        if _INT_RE.fullmatch(s):
            return int(s) % self.p
        raise ScalarFormatError(f"not a prime-field scalar: {s!r}")

    def format(self, x) -> str:
        return f"{int(x) % self.p} mod {self.p}"

    def format_rows(self, rows) -> list[list[str]]:
        """format of every cell of rows (ints), as lists of strings."""
        p = self.p
        return [[f"{x % p} mod {p}" for x in row] for row in rows]

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

    __slots__ = ("field", "a", "_columns")

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
        # rref, whose elimination canonicalizes it: no reduction, no demote;
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

    def to_lists(self) -> list[list]:
        return self.a.tolist()

    def to_strings(self) -> list[list[str]]:
        return self.field.format_rows(self.a.tolist())

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
        """Matrix times a 1-D coordinate vector, its cells read as exact Python scalars."""
        if self.cols != len(v):
            raise DimensionMismatch(f"{self.shape} applied to length {len(v)}")
        moved = self.apply_rows(_sparse_rows(self.field.asarray(v).reshape(1, -1)))
        return _dense(moved, (1, self.rows), self.field.dtype)[0]

    def apply_rows(self, rows: Iterable[dict]) -> list[dict]:
        """The matrix applied to each sparse row {col: value}, as sparse rows.

        Row i of the result is self @ rows[i].  The rows hold field scalars
        (Python ints or Fractions, residues over F_p) at columns in
        [0, self.cols), else DimensionMismatch; the matrix is one kernel
        term of stride 1, built on first use.
        """
        try:
            columns = self._columns
        except AttributeError:
            columns = (_factor_term(self.a, 1),)
            object.__setattr__(self, "_columns", columns)
        return _apply_columns(columns, self.cols, rows, self.field.modulus)

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
    """Unique reduced row-echelon form of m (zero rows last), with pivot columns and rank."""
    field, tails = m.field, {}
    _grow(tails, _sparse_rows(m.a), field)
    pivots = sorted(tails)
    a = _dense([{c: 1, **tails[c]} for c in pivots], m.shape, field.dtype)
    return RrefResult(Matrix._wrap(field, a), tuple(pivots), len(pivots))


def kernel(m: Matrix) -> "Subspace":
    """Right kernel {v : m v = 0} as a subspace of the column space."""
    return kernel_of_rows(m.field, m.cols, _sparse_rows(m.a))


def kernel_of_rows(field, n: int, rows: Iterable[dict]) -> "Subspace":
    """{v in K^n : row . v = 0 for every sparse row}; consumes the rows.

    One elimination, and no dense matrix: the rows grow one echelon with
    the column order reversed (c -> n-1-c), and its complement rows are
    the kernel's RREF.  Proof: in reversed order each echelon row ends at
    its pivot c, so it is e_c plus entries at free columns below c.  v is
    in the kernel iff v_c = -tail_c . v for every pivot c, so the
    complement row of a free column f is e_f minus tail_c[f] e_c over the
    pivots c above f whose rows hold f.  That row leads at f and is zero
    at every other free column: the rows of all free columns are already
    an RREF, and no second elimination is needed.  The rows are trusted as
    in Subspace.from_rows.
    """
    return Subspace(field, n, _kernel_tails(field, n, rows))


def _kernel_tails(field, n: int, rows: Iterable[dict]) -> dict:
    """The RREF tails of kernel_of_rows(field, n, rows), by its one reversed-order elimination."""
    last = n - 1
    tails: dict[int, dict] = {}
    _grow(tails, ({last - c: x for c, x in row.items()} for row in rows), field)
    p = field.modulus
    out: dict[int, dict] = {f: {} for f in _free_cols(n, [last - c for c in tails])}
    for c, tail in tails.items():
        for f, x in tail.items():
            out[last - f][last - c] = -x % p if p else -x
    return out


def _free_cols(n: int, pivots: Iterable[int]) -> list[int]:
    taken = set(pivots)
    return [c for c in range(n) if c not in taken]


# ---------------------------------------------------------------------------
# subspaces


def _column_matrix(field, columns: list[dict], rows: int) -> Matrix:
    """The matrix whose columns are these sparse rows, each with entries below rows."""
    return Matrix._wrap(field, _dense(columns, (len(columns), rows), field.dtype).T.copy())


@dataclass(frozen=True)
class QuotientMaps:
    """The quotient K^n / U, indexed by the free coordinates of U's echelon basis.

    The projection q reads a vector's residual modulo U at the free
    coordinates, and the unit vectors at those coordinates are a section
    s with q s = identity.  project applies q to sparse columns, and
    induced gives q @ op @ s as a lazy operator on sparse rows: a lift to
    the free coordinates, the operator, and one reduction, no products
    and no matrix.
    """

    dim: int
    subspace: "Subspace"
    free: tuple[int, ...]

    @cached_property
    def _index(self) -> dict[int, int]:
        """{free column: its quotient coordinate}; a residual vanishes at every pivot."""
        return {f: t for t, f in enumerate(self.free)}

    @cached_property
    def _lift(self) -> dict[int, int]:
        """{quotient coordinate: its free column}, the section s."""
        return dict(enumerate(self.free))

    def _residuals(self, rows: list[dict]) -> list[dict]:
        """q applied to each sparse row of the ambient, which is consumed, as sparse rows."""
        at = self._index
        return [{at[c]: x for c, x in r.items()} for r in self.subspace._reduce_rows(rows)]

    def project(self, columns: list[dict]) -> Matrix:
        """q @ C for the matrix C whose columns are these sparse rows, which are consumed."""
        return _column_matrix(self.subspace.field, self._residuals(columns), self.dim)

    def induced(self, op) -> "InducedOperator":
        """q @ op @ s for an operator that descends to the quotient, as a lazy operator.

        op is anything with apply_rows (a Matrix or a modules.LegAction).
        """
        return InducedOperator(self, op)


class InducedOperator:
    """q @ op @ s on a quotient's sparse rows, for an op that leaves the subspace invariant.

    apply_rows lifts each row to the free coordinates (the section s),
    applies op, and reads the residual modulo the subspace back at the
    free coordinates (the projection q), so only the rows it is given are
    moved.  The dense matrix is built only when `dense` is asked for.
    """

    def __init__(self, quotient: QuotientMaps, op):
        self.quotient = quotient
        self.op = op
        self.field = quotient.subspace.field
        self.shape = (quotient.dim, quotient.dim)

    def apply_rows(self, rows: Iterable[dict]) -> list[dict]:
        """The operator applied to each sparse row {col: value}, as sparse rows.

        The rows hold field scalars at columns in [0, quotient dim), else
        DimensionMismatch; they are not consumed.
        """
        lift = self.quotient._lift
        try:
            lifted = [{lift[c]: x for c, x in row.items()} for row in rows]
        except KeyError as e:
            raise DimensionMismatch(
                f"column {e.args[0]} is outside an operator of width {self.shape[1]}"
            ) from None
        return self.quotient._residuals(self.op.apply_rows(lifted))

    @cached_property
    def dense(self) -> Matrix:
        """The same operator as a dense matrix: its columns are the images of the unit rows."""
        n = self.shape[0]
        return _column_matrix(self.field, self.apply_rows([{t: 1} for t in range(n)]), n)


class Subspace:
    """Subspace of K^n held as the tails of an RREF basis with no zero rows.

    The constructors below are the only callers of __init__; they pass the
    echelon their elimination built, as the tails that _reduce takes, and
    nothing mutates it.  pivots are its pivot columns, increasing; rows
    gives its basis as sparse rows, and basis as a dense matrix, built on
    first access.
    """

    __slots__ = ("field", "ambient_dim", "pivots", "_tails", "_basis")

    def __init__(self, field, ambient_dim: int, tails: dict):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "pivots", tuple(sorted(tails)))
        object.__setattr__(self, "_tails", tails)
        object.__setattr__(self, "_basis", None)

    def __setattr__(self, *_):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_spanning(cls, field, ambient_dim: int, rows) -> "Subspace":
        """The span of vectors: a 2-D array, a list of vectors, or a list of sparse rows.

        Sparse rows {col: value} (as apply_rows yields them) go to from_rows,
        which consumes them.
        """
        if not isinstance(rows, np.ndarray):
            rows = list(rows)
            if all(type(row) is dict for row in rows):
                return cls.from_rows(field, ambient_dim, rows)
        if not len(rows):
            return cls.zero(field, ambient_dim)
        arrays = isinstance(rows[0], np.ndarray)
        a = field.asarray(rows) if arrays else _normalized_array(field, rows)
        if a.shape[1] != ambient_dim:
            raise DimensionMismatch(f"vectors of length {a.shape[1]} in ambient {ambient_dim}")
        return cls.from_rows(field, ambient_dim, _sparse_rows(a))

    @classmethod
    def from_rows(cls, field, ambient_dim: int, rows: Iterable[dict]) -> "Subspace":
        """The span of sparse rows {col: value}, as apply_rows yields them; consumes the rows.

        The rows are trusted: field scalars (reduced mod p over F_p) at
        columns below ambient_dim.
        """
        tails: dict[int, dict] = {}
        _grow(tails, rows, field)
        return cls(field, ambient_dim, tails)

    @classmethod
    def zero(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, {})

    @classmethod
    def full(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, {c: {} for c in range(ambient_dim)})

    @property
    def rows(self) -> list[dict]:
        """The RREF basis rows as new sparse rows, in pivot order."""
        return [{c: 1, **self._tails[c]} for c in self.pivots]

    @property
    def basis(self) -> Matrix:
        """The RREF basis as a dense matrix, built on first access."""
        if self._basis is None:
            a = _dense(self.rows, (self.dim, self.ambient_dim), self.field.dtype)
            object.__setattr__(self, "_basis", Matrix._wrap(self.field, a))
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.pivots)

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

    def _sparse_stack(self, rows) -> list[dict]:
        """A 2-D stack of row vectors in this ambient, as sparse rows."""
        rows = self.field.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.ambient_dim:
            raise DimensionMismatch("row length does not match the ambient")
        return _sparse_rows(rows)

    def _reduce_rows(self, rows: list[dict]) -> list[dict]:
        """Each sparse row reduced in place to its residual modulo the subspace; returns them."""
        tails, p = self._tails, self.field.modulus
        return [_reduce(row, tails, p) for row in rows]

    def residuals(self, rows: np.ndarray) -> np.ndarray:
        """Residuals of a stack of row vectors after reduction against the basis.

        Row i is zero iff rows[i] is a member.  Each row is reduced as a
        sparse row by the basis rows it meets, the one reduction of every
        echelon here, so a residual has the full ambient width and is zero
        at every pivot column.
        """
        return _dense(self._reduce_rows(self._sparse_stack(rows)), np.shape(rows), self.field.dtype)

    def contains_all(self, rows) -> bool:
        """Membership for a whole stack of row vectors at once.

        rows is a 2-D stack, or a list of sparse rows, which is consumed.
        """
        if not (isinstance(rows, list) and all(type(r) is dict for r in rows)):
            rows = self._sparse_stack(rows)
        return not any(self._reduce_rows(rows))

    def is_subset(self, other: "Subspace") -> bool:
        self._check(other)
        return self.dim <= other.dim and other.contains_all(self.rows)

    def outside(self, other: "Subspace") -> Optional[np.ndarray]:
        """First basis row of self that is not in other; None when self <= other."""
        self._check(other)
        for row, resid in zip(self.rows, other._reduce_rows(self.rows)):
            if resid:
                return _dense([row], (1, self.ambient_dim), self.field.dtype)[0]
        return None

    def __le__(self, other):
        return self.is_subset(other)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self._tails == other._tails
        )

    __hash__ = None

    def __add__(self, other):
        self._check(other)
        tails = {c: dict(tail) for c, tail in self._tails.items()}
        _grow(tails, other.rows, self.field)
        return Subspace(self.field, self.ambient_dim, tails)

    def __and__(self, other):
        """The combinations of self's basis rows whose residuals modulo other cancel."""
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.field, self.ambient_dim)
        return _cancelling(self, other._reduce_rows(self.rows))

    def quotient(self) -> QuotientMaps:
        """The ambient modulo this subspace, indexed by the RREF basis's free coordinates."""
        free = _free_cols(self.ambient_dim, self.pivots)
        return QuotientMaps(len(free), self, tuple(free))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


# ---------------------------------------------------------------------------
# operator-driven constructions


def _check_square(operators: Sequence, n: int):
    for op in operators:
        if op.shape != (n, n):
            raise DimensionMismatch(f"operator {op.shape} on ambient {n}")


def span_of_images(operators: Sequence, seed: Subspace) -> Subspace:
    """span{op v : v in seed, op in operators}, for square operators on seed's ambient.

    Every op is linear, so the images of seed's basis rows span it: the
    elimination takes at most dim(seed) rows per operator, and a chain of
    spans stays within the ambient however many operators it applies.
    """
    n, field = seed.ambient_dim, seed.field
    _check_square(operators, n)
    rows, tails, where = seed.rows, {}, {}
    for op in operators:
        _grow(tails, op.apply_rows(rows), field, where)
    return Subspace(field, n, tails)


def closure_under(operators: Sequence, seed: Subspace) -> Subspace:
    """Smallest subspace containing seed and invariant under every operator.

    Operators are anything with a square shape and apply_rows (a Matrix,
    a modules.LegAction or an InducedOperator).  Frontier spinning into
    one growing echelon, as in the MeatAxe (Parker 1984): each pass applies
    the operators only to the pivot rows the previous pass added and grows
    the echelon by each operator's images as they arrive.  The dimension
    grows on every pass but the last, so there are at most ambient_dim
    passes.
    """
    n, field = seed.ambient_dim, seed.field
    _check_square(operators, n)
    tails = {c: dict(tail) for c, tail in seed._tails.items()}
    where = _occurrences(tails)
    frontier = seed.rows
    while operators and frontier and len(tails) < n:
        added = []
        for op in operators:
            added += _grow(tails, op.apply_rows(frontier), field, where)
        frontier = [{c: 1, **tails[c]} for c in added]
    return seed if len(tails) == seed.dim else Subspace(field, n, tails)


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

    Operators are anything with field, shape and apply_rows (a Matrix or a
    modules.LegAction).  Each step applies op to the current basis rows b_i
    and reduces the images against target, leaving residuals r_i.  Proof
    that the step is right: the residual modulo target is linear and its
    kernel is target, so sum x_i b_i stays (op maps it into target) iff
    sum x_i r_i = 0; those combinations are what _cancelling keeps.  No
    quotient projection is formed.
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
        images = op.apply_rows(current.rows)  # row i: op applied to basis row i
        if target is not None:
            target._reduce_rows(images)
        current = _cancelling(current, images)
    return current


def _cancelling(current: Subspace, resid: list[dict]) -> Subspace:
    """The span of the combinations sum x_i b_i of current's basis rows with sum x_i resid_i = 0.

    resid[i] is the sparse row of basis row b_i.  The left kernel X of
    the resid matrix is the kernel of its columns: sparse rows over the
    k = dim(current) coefficient coordinates, read in RREF off one
    elimination (_kernel_tails), so no row past k is eliminated.  Proof that
    X B is the span's RREF, B being current's basis: row j of X is e_(i_j)
    plus entries at rows i that are not kept, and each b_i is 1 at
    pivots[i] and 0 at every other pivot of B.  So row j of X B holds 1 at
    pivots[i_j] and 0 at every other kept pivot, and it starts there, as
    every b_i it adds starts at a later pivot: X B is reduced row-echelon.
    """
    if not any(resid):
        return current
    columns: dict[int, dict] = {}
    for i, row in enumerate(resid):
        for c, x in row.items():
            columns.setdefault(c, {})[i] = x
    pivots, tails, p = current.pivots, current._tails, current.field.modulus
    kept: dict[int, dict] = {}
    for i, coeffs in _kernel_tails(current.field, current.dim, columns.values()).items():
        row = dict(tails[pivots[i]])
        for j, x in coeffs.items():  # row += x b_j; row is zero at b_j's pivot until now
            row[pivots[j]] = x
            _subtract(row, -x, tails[pivots[j]], p)
        kept[pivots[i]] = row
    return Subspace(current.field, current.ambient_dim, kept)
