"""Finite-dimensional unital associative algebras given by structure constants.

An algebra over an exact field is a dense n x n table of coordinate
vectors, ``mul[i][j]`` = coordinates of ``e_i * e_j``.  Validation is
eager and total: the two-sided unit axiom, then associativity, are
checked before an Algebra exists.  Associativity is the axiom
L_g L_x = L_(g x) of A's left regular action, checked at the generators
only; the same three checks (unit, action at the generators, one scan
slice per basis element) validate a bimodule's two actions.  A failure
carries the basis indices of the first one in loop order, which a full
scan, one basis element at a time, names.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import (
    DimensionMismatch,
    Matrix,
    Subspace,
    _nonzero_cells,
    _sparse_rows,
    closure_under,
    joint_kernel,
    kernel_of_rows,
    unit_vector,
    vector,
)


class AlgebraValidationError(ValueError):
    """An algebra axiom failed; .axiom names it and .witness locates it."""

    def __init__(self, axiom: str, witness, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class Algebra:
    """Unital associative algebra with a fixed basis.

    mul is an (n, n, n) array of the field's kernel dtype: mul[i, j] is
    the coordinate vector of e_i e_j.  left_stack and right_stack are
    read-only views of it: left_stack[i] is the matrix of x -> e_i x and
    right_stack[j] that of x -> x e_j.  Instances are immutable once
    validated: mul and unit are read-only, which BimoduleRep.regular and
    free rely on.
    """

    def __init__(self, field, basis_names: Sequence[str], unit, mul, name: str = ""):
        n = len(basis_names)
        self.field = field
        self.name = name or "algebra"
        self.basis_names = tuple(str(x) for x in basis_names)
        self.dim = n
        if n < 1:
            raise AlgebraValidationError("shape", None, "an algebra needs a basis element")
        mul_arr = np.empty((n, n, n), dtype=object)
        if len(mul) != n or any(len(row) != n for row in mul):
            raise AlgebraValidationError(
                "shape", None, f"mul table must be {n}x{n} coordinate vectors"
            )
        for i in range(n):
            for j in range(n):
                entry = list(mul[i][j])
                if len(entry) != n:
                    raise AlgebraValidationError(
                        "shape", (i, j), f"mul[{i}][{j}] has length {len(entry)}, want {n}"
                    )
                mul_arr[i, j] = [field.normalize(x) for x in entry]
        unit = list(unit)
        if len(unit) != n:
            raise AlgebraValidationError("shape", None, "unit vector has wrong length")
        self.unit = vector(field, unit)
        mul_arr = field.asarray(mul_arr)
        self.unit.flags.writeable = mul_arr.flags.writeable = False
        self.mul = mul_arr
        self.left_stack = mul_arr.transpose(0, 2, 1)
        self.right_stack = mul_arr.transpose(1, 2, 0)
        self._validate()

    # -- structure ---------------------------------------------------------

    @cached_property
    def left_ops(self) -> tuple[Matrix, ...]:
        return tuple(Matrix._wrap(self.field, m) for m in self.left_stack.copy())

    @cached_property
    def right_ops(self) -> tuple[Matrix, ...]:
        return tuple(Matrix._wrap(self.field, m) for m in self.right_stack.copy())

    def _validate(self):
        """The unit axioms, then associativity as A's left regular action at the generators.

        Associativity is the left-action axiom L_g L_x = L_(g x) of A on
        itself, read on e_y as g(x y) = (g x) y.  Let S = {a : a(x y) =
        (a x) y for all x, y}.  S is a subspace, and it holds 1 once the
        unit axioms do.  It is closed under products, with no associativity
        assumed: for a, b in S, (ab)(xy) = a(b(xy)) = a((bx)y) = (a(bx))y =
        ((ab)x)y, using a, b, a, a in S in turn.  The left closure of
        span{1} under the generators is A (that is how `generators` picks
        them), and it only multiplies elements of S on the left by
        generators, so S holding the generators is S = A.  The check is
        _action_holds_at_generators on left_stack, two (|generators| n, n)
        @ (n, n^2) products.  Only when it fails does the full scan run, to
        name the witness.
        """
        field, left = self.field, self.left_stack
        unit_holds = _unit_failure(field, self.unit, left, self.right_stack) is None
        if unit_holds and _action_holds_at_generators(field, left, self.mul, self.generators):
            return
        self._raise_first_failure()

    def _raise_first_failure(self):
        """Scan every basis triple, one i at a time, then the unit; raise at the first failure.

        The witness is the first failing (i, j, k) scanning i, then k, then
        j; for the unit, the first failing column, left before right.  Each
        slice holds (n, n, n) products: L_i L_j and L_(e_i e_j) for every j,
        whose column k is e_i (e_j e_k) and (e_i e_j) e_k.
        """
        field, left, mul = self.field, self.left_stack, self.mul
        for i in range(self.dim):
            bad = _action_failures(field, left, mul, i).any(axis=1).T  # [k, j]
            if bad.any():
                k, j = (int(x) for x in np.argwhere(bad)[0])
                raise AlgebraValidationError(
                    "associativity", (i, j, k), f"(e{i} e{j}) e{k} != e{i} (e{j} e{k})"
                )
        failure = _unit_failure(field, self.unit, left, self.right_stack)
        if failure is not None:
            side, i = failure
            raise AlgebraValidationError(
                "unit", i, f"unit fails to act as identity ({side}) on e{i}"
            )

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Basis indices that generate A as a unital algebra, chosen greedily in basis order.

        e_i is skipped when it lies in the unital subalgebra the indices
        kept so far generate, which is the closure of span{1} under their
        left actions; the trivial algebra K gets ().  Validation reads it
        once the unit axioms hold, before associativity is known, which
        the choice does not use.
        """
        kept = []
        sub = Subspace.from_rows(self.field, self.dim, _sparse_rows(self.unit.reshape(1, -1)))
        for i in range(self.dim):
            if sub.is_full():
                break
            if not sub.contains_all([{i: 1}]):
                kept.append(i)
                sub = closure_under([self.left_ops[j] for j in kept], sub)
        return tuple(kept)

    def at_generators(self, family: Sequence) -> tuple:
        """The members of a family indexed by the basis (one per e_i) at the generators."""
        return tuple(family[i] for i in self.generators)

    @cached_property
    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.transpose(1, 0, 2)))

    # -- elements ----------------------------------------------------------

    def basis_element(self, i: int) -> "AlgebraElement":
        return AlgebraElement(self, unit_vector(self.field, self.dim, i))

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, self.unit)

    def multiply(self, a, b) -> np.ndarray:
        """Coordinates of the product of two coordinate vectors."""
        return _combine(self.field, b, _combine(self.field, a, self.mul))

    def left_mult_matrix(self, a) -> Matrix:
        return Matrix._raw(self.field, _combine(self.field, a, self.left_stack))

    def right_mult_matrix(self, a) -> Matrix:
        return Matrix._raw(self.field, _combine(self.field, a, self.right_stack))

    # -- derived structure --------------------------------------------------

    @cached_property
    def center(self) -> Subspace:
        """{z : z e_i = e_i z for all i}, as a subspace of coordinates.

        It is the joint kernel of L_g - R_g over the generators g, which
        suffice: for z in that kernel, S = {a : a z = z a} is a subspace,
        it holds 1, and it is closed under products ((ab)z = a(zb) = z(ab)
        for a, b in S), so it is a unital subalgebra, and holding the
        generators it is A (see generators).  The trivial algebra K has no
        generators, and its center is all of it.
        """
        field, gens = self.field, self.generators
        if not gens:
            return Subspace.full(field, self.dim)
        return joint_kernel(
            [Matrix._raw(field, self.left_stack[g] - self.right_stack[g]) for g in gens]
        )

    @cached_property
    def derivations(self) -> Subspace:
        """K-linear maps d with d(ab) = d(a)b + a d(b).

        Subspace of Hom_K(A, A); hom vectors use the column-major
        flattening (index = column * dim + row).  The conditions are
        d(1) = 0 and the Leibniz rule at (g, e_y) for generators g and
        basis y, which suffice: S = {a : d(ay) = d(a)y + a d(y) for all y}
        is a subspace closed under products (for a, b in S,
        d(aby) = d(a)by + a d(b)y + ab d(y) = d(ab)y + ab d(y)), it holds 1
        once d(1) = 0, and so holding the generators it is A (see
        generators).  That is at most n + |generators| n^2 sparse rows,
        built from the nonzeros of mul, and one kernel_of_rows.
        """
        n, field, gens, p = self.dim, self.field, self.generators, self.field.modulus
        rows = [{c * n + k: u for c, u in enumerate(self.unit.tolist()) if u} for k in range(n)]
        # row (t, y, k) is coordinate k of d(e_g e_y) - d(e_g) e_y - e_g d(e_y), g = gens[t];
        # only the rows that meet a nonzero of mul are made
        sums: dict[int, dict] = {}

        def add(t, y, k, col, x):
            row = sums.setdefault((t * n + y) * n + k, {})
            row[col] = row.get(col, 0) + x

        for t, y, c, x in _nonzero_cells(self.mul[list(gens)]):
            # d(e_g e_y), and e_g d(e_y) with (y, c) as (r, k)
            for k in range(n):
                add(t, y, k, c * n + k, x)
                add(t, k, c, k * n + y, -x)
        for r, y, k, x in _nonzero_cells(self.mul):  # d(e_g) e_y
            for t, g in enumerate(gens):
                add(t, y, k, g * n + r, -x)
        for row in sums.values():
            rows.append({c: y for c, x in row.items() if (y := x % p if p else x)})
        return kernel_of_rows(field, n * n, rows)

    def inner_derivation(self, a: "AlgebraElement") -> Matrix:
        """ad_a : x -> a x - x a."""
        return self.left_mult_matrix(a.coords) - self.right_mult_matrix(a.coords)

    def __repr__(self):
        return f"Algebra({self.name!r}, dim={self.dim}, field={self.field!r})"


def _combine(field, coeffs, stack: np.ndarray) -> np.ndarray:
    """sum_i coeffs[..., i] stack[i]: combinations of a stacked family.

    coeffs is a coordinate vector, or a stack of them along its last
    axis, with one entry per member of the family.  An array is taken as
    kernel scalars; any other iterable is read once through
    field.normalize, which refuses inexact scalars.  The contraction is one
    field.dot of the operands reshaped to matrices.
    """
    coeffs = field.asarray(coeffs) if isinstance(coeffs, np.ndarray) else vector(field, coeffs)
    if coeffs.ndim == 0 or coeffs.shape[-1] != len(stack):
        raise DimensionMismatch(f"{coeffs.shape[-1:]} coefficients for a family of {len(stack)}")
    lead, n, rest = coeffs.shape[:-1], len(stack), stack.shape[1:]
    flat = field.dot(coeffs.reshape(math.prod(lead), n), stack.reshape(n, math.prod(rest)))
    return flat.reshape(lead + rest)


def _pair_products(field, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """[i, j] = X[i] @ Y[j] for two stacks of square matrices."""
    return _combine(field, X, Y.transpose(1, 0, 2)).transpose(0, 2, 1, 3)


# The axiom checks shared by Algebra and BimoduleRep.  An action of A is a
# stack of matrices, one per basis element, and A acts on itself on the left
# by left_stack; a right action of A is a left action of A^op, whose table is
# mul.transpose(1, 0, 2).


def _unit_failure(field, unit, left_stack: np.ndarray, right_stack: np.ndarray):
    """(side, c) at the first column c that the unit's action moves, left before right, or None."""
    ident = Matrix.identity(field, left_stack.shape[1]).a
    for side, stack in (("left", left_stack), ("right", right_stack)):
        bad = np.flatnonzero((_combine(field, unit, stack) != ident).any(axis=0))
        if len(bad):
            return side, int(bad[0])
    return None


def _action_holds_at_generators(field, stack: np.ndarray, mul: np.ndarray, gens) -> bool:
    """stack[g] stack[x] == sum_k mul[g, x, k] stack[k] for every generator g and basis x."""
    gens = list(gens)
    return bool(
        np.array_equal(_pair_products(field, stack[gens], stack), _combine(field, mul[gens], stack))
    )


def _action_failures(field, stack: np.ndarray, mul: np.ndarray, i: int) -> np.ndarray:
    """[j, r, c]: whether entry (r, c) of stack[i] stack[j] and of stack[e_i e_j] differ."""
    return _pair_products(field, stack[i : i + 1], stack)[0] != _combine(field, mul[i], stack)


class AlgebraElement:
    """Element of an Algebra, held as a coordinate vector."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords):
        coords = list(coords)
        if len(coords) != algebra.dim:
            raise AlgebraValidationError(
                "shape", None, f"element needs {algebra.dim} coordinates"
            )
        self.algebra = algebra
        self.coords = vector(algebra.field, coords)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement) and other.algebra is self.algebra:
            return AlgebraElement(self.algebra, self.algebra.multiply(self.coords, other.coords))
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, AlgebraElement) and other.algebra is self.algebra:
            return AlgebraElement(
                self.algebra, self.algebra.field.reduce_array(self.coords + other.coords)
            )
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, AlgebraElement) and other.algebra is self.algebra:
            return AlgebraElement(
                self.algebra, self.algebra.field.reduce_array(self.coords - other.coords)
            )
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and bool(
            np.array_equal(self.coords, other.coords)
        )

    __hash__ = None

    def __repr__(self):
        field = self.algebra.field
        terms = [
            f"{field.format(c)}*{name}"
            for c, name in zip(self.coords, self.algebra.basis_names)
            if c != 0
        ]
        return " + ".join(terms) if terms else "0"
