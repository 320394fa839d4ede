"""Finite-dimensional unital associative algebras given by structure constants.

An algebra over an exact field is a dense n x n table of coordinate
vectors, ``mul[i][j]`` = coordinates of ``e_i * e_j``.  Validation is
eager and total: associativity and the two-sided unit axiom are checked
over all basis triples before an Algebra exists, and every failure
carries a basis-index witness.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import Matrix, Subspace, joint_kernel, vector


class AlgebraValidationError(ValueError):
    """An algebra axiom failed; .axiom names it and .witness locates it."""

    def __init__(self, axiom: str, witness, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class Algebra:
    """Unital associative algebra with a fixed basis.

    mul is an (n, n, n) array of the field's kernel dtype: mul[i, j] is
    the coordinate vector of e_i e_j.  Instances are immutable once validated.
    """

    def __init__(self, field, basis_names: Sequence[str], unit, mul, name: str = ""):
        n = len(basis_names)
        self.field = field
        self.name = name or "algebra"
        self.basis_names = tuple(str(x) for x in basis_names)
        self.dim = n
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
                for k in range(n):
                    mul_arr[i, j, k] = field.normalize(entry[k])
        if len(list(unit)) != n:
            raise AlgebraValidationError("shape", None, "unit vector has wrong length")
        self.unit = vector(field, unit)
        mul_arr = field.asarray(mul_arr)
        mul_arr.flags.writeable = False
        self.mul = mul_arr
        self._validate()

    # -- structure ---------------------------------------------------------

    def left_op(self, i: int) -> Matrix:
        """Matrix of x -> e_i x on coordinates."""
        return Matrix._raw(self.field, self.mul[i].T.copy())

    def right_op(self, j: int) -> Matrix:
        """Matrix of x -> x e_j on coordinates."""
        return Matrix._raw(self.field, self.mul[:, j].T.copy())

    @cached_property
    def left_ops(self) -> tuple[Matrix, ...]:
        return tuple(self.left_op(i) for i in range(self.dim))

    @cached_property
    def right_ops(self) -> tuple[Matrix, ...]:
        return tuple(self.right_op(j) for j in range(self.dim))

    def _validate(self):
        n = self.dim
        L, R = self.left_ops, self.right_ops
        for i in range(n):
            for k in range(n):
                lhs = R[k] @ self.left_op(i)
                rhs = self.left_op(i) @ R[k]
                if lhs != rhs:
                    for j in range(n):
                        if not np.array_equal(lhs.a[:, j], rhs.a[:, j]):
                            raise AlgebraValidationError(
                                "associativity",
                                (i, j, k),
                                f"(e{i} e{j}) e{k} != e{i} (e{j} e{k})",
                            )
        lu = sum(
            (L[i].scale(self.unit[i]) for i in range(1, n)), L[0].scale(self.unit[0])
        )
        ru = sum(
            (R[j].scale(self.unit[j]) for j in range(1, n)), R[0].scale(self.unit[0])
        )
        ident = Matrix.identity(self.field, n)
        for side, op in (("left", lu), ("right", ru)):
            if op != ident:
                for i in range(n):
                    if not np.array_equal(op.a[:, i], ident.a[:, i]):
                        raise AlgebraValidationError(
                            "unit", i, f"unit fails to act as identity ({side}) on e{i}"
                        )

    @cached_property
    def is_commutative(self) -> bool:
        n = self.dim
        return all(
            np.array_equal(self.mul[i, j], self.mul[j, i])
            for i in range(n)
            for j in range(i + 1, n)
        )

    # -- elements ----------------------------------------------------------

    def element(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, coords)

    def basis_element(self, i: int) -> "AlgebraElement":
        coords = [self.field.zero] * self.dim
        coords[i] = self.field.one
        return AlgebraElement(self, coords)

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, self.unit)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coordinates of the product of two coordinate vectors."""
        field = self.field
        a, b, reduce = field.asarray(a), field.asarray(b), field.reduce_array
        out = np.zeros(self.dim, dtype=field.dtype)
        for i in range(self.dim):
            if a[i] == 0:
                continue
            for j in range(self.dim):
                if b[j] == 0:
                    continue
                # one reduction per term keeps fixed-width coordinates in range
                out = reduce(out + reduce(a[i] * b[j]) * self.mul[i, j])
        return out

    def left_mult_matrix(self, a: np.ndarray) -> Matrix:
        cols = [self.multiply(a, self._basis_vec(j)) for j in range(self.dim)]
        return Matrix._raw(self.field, np.stack(cols).T)

    def right_mult_matrix(self, a: np.ndarray) -> Matrix:
        cols = [self.multiply(self._basis_vec(i), a) for i in range(self.dim)]
        return Matrix._raw(self.field, np.stack(cols).T)

    def _basis_vec(self, i: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=self.field.dtype)
        v[i] = self.field.one
        return v

    # -- derived structure --------------------------------------------------

    @cached_property
    def center(self) -> Subspace:
        """{z : z e_i = e_i z for all i}, as a subspace of coordinates."""
        ops = [self.left_ops[i] - self.right_ops[i] for i in range(self.dim)]
        return joint_kernel(ops)

    @cached_property
    def derivations(self) -> Subspace:
        """K-linear maps d with d(ab) = d(a)b + a d(b).

        Subspace of Hom_K(A, A); hom vectors use the column-major
        flattening (index = column * dim + row).
        """
        n = self.dim
        field = self.field
        ident = Matrix.identity(field, n)
        conditions = []
        for i in range(n):
            for j in range(n):
                prod_row = Matrix._raw(field, self.mul[i, j].reshape(1, n))
                ei = Matrix._raw(field, self._basis_vec(i).reshape(1, n))
                ej = Matrix._raw(field, self._basis_vec(j).reshape(1, n))
                cond = (
                    prod_row.kron(ident)
                    - ei.kron(self.right_ops[j])
                    - ej.kron(self.left_ops[i])
                )
                conditions.append(cond)
        return joint_kernel(conditions)

    def inner_derivation(self, a: "AlgebraElement") -> Matrix:
        """ad_a : x -> a x - x a."""
        return self.left_mult_matrix(a.coords) - self.right_mult_matrix(a.coords)

    def __repr__(self):
        return f"Algebra({self.name!r}, dim={self.dim}, field={self.field!r})"


class AlgebraElement:
    """Element of an Algebra, held as a coordinate vector."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords):
        if len(list(coords)) != algebra.dim:
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
