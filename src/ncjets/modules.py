"""Two-sided modules over an algebra, tensor ambients, and Hom spaces.

A bimodule is a pair of action-matrix families, one per algebra basis
element.  Hom_K(P, Q) carries four module structures; its elements are
(dim Q) x (dim P) matrices flattened column-major (entry (q, p) sits at
index p * dimQ + q), and that flattening is part of the public contract.
It is the row-major layout of the tensor P* (x) Q, so Hom and the jet
ambients A (x) P and A (x) P (x) A are one kind of object, a
TensorAmbient: legs, an outer and a bullet action family per side, and
their deviations.  Every action is a LegAction: one factor on one leg,
applied to sparse rows without forming the Kronecker product.
"""

from __future__ import annotations

import math
import numbers
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .algebra import Algebra, _combine
from .linalg import (
    DimensionMismatch,
    Matrix,
    Subspace,
    _apply_columns,
    _factor_term,
    joint_kernel,
    vector,
)


class BimoduleValidationError(ValueError):
    """A bimodule axiom failed; .axiom names it and .witness locates it."""

    def __init__(self, axiom: str, witness, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class CentralityRequired(ValueError):
    """Operation rejects bimodules that are not central over the center."""


class BimoduleRep:
    """Two-sided module given by left/right action matrices per basis element.

    left and right hold the matrices; left_stack and right_stack hold
    each family once as a read-only (dim A, dim, dim) kernel array.
    Validation checks, with witnesses: left action is a homomorphism,
    right action an anti-homomorphism, the unit acts as identity on both
    sides, the actions commute, and (unless check_central=False) that
    central algebra elements act identically on both sides.
    """

    def __init__(
        self,
        algebra: Algebra,
        left: Sequence[Matrix],
        right: Sequence[Matrix],
        name: str = "",
        check_central: bool = True,
    ):
        self.algebra = algebra
        self.name = name or "module"
        if len(left) != algebra.dim or len(right) != algebra.dim:
            raise BimoduleValidationError(
                "shape", None, "need one action matrix per algebra basis element"
            )
        self.dim = left[0].rows
        for fam, mats in (("left", left), ("right", right)):
            for i, m in enumerate(mats):
                if m.shape != (self.dim, self.dim):
                    raise BimoduleValidationError(
                        "shape", (fam, i), f"{fam} action matrix {i} has shape {m.shape}"
                    )
                if m.field != algebra.field:
                    raise BimoduleValidationError("shape", (fam, i), "field mismatch")
        self.left = tuple(left)
        self.right = tuple(right)
        self.left_stack, self.right_stack = (np.stack([m.a for m in f]) for f in (left, right))
        self.left_stack.flags.writeable = self.right_stack.flags.writeable = False
        self._validate()
        witness = self._centrality_witness()
        self.central = witness is None
        if check_central and not self.central:
            raise BimoduleValidationError(
                "centrality", witness, "central algebra elements must act identically on both sides"
            )

    def _validate(self):
        """The axioms at all pairs (e_i, e_j) at once, then the unit.

        The witness is the first failing (i, j) in row-major order; at one
        (i, j), left-associativity, then right-associativity, then commutation.
        """
        A, field = self.algebra, self.algebra.field
        L, R = self.left_stack, self.right_stack
        sides = (  # [i, j] of each pair: the two sides of one axiom
            (_pair_products(field, L, L), _combine(field, A.mul, L)),
            (_pair_products(field, R, R), _combine(field, A.mul, R).transpose(1, 0, 2, 3)),
            (_pair_products(field, L, R), _pair_products(field, R, L).transpose(1, 0, 2, 3)),
        )
        bad = np.stack([(lhs != rhs).any(axis=(2, 3)) for lhs, rhs in sides], axis=-1)
        if bad.any():
            i, j, k = (int(x) for x in np.argwhere(bad)[0])
            axiom, message = (
                ("left-associativity", f"L_{i} L_{j} != L_(e{i} e{j})"),
                ("right-associativity", f"R_{i} R_{j} != R_(e{j} e{i})"),
                ("action-commutation", f"(e{i} p) e{j} != e{i} (p e{j})"),
            )[k]
            raise BimoduleValidationError(axiom, (i, j), message)
        ident = Matrix.identity(field, self.dim).a
        for side, stack in (("left", L), ("right", R)):
            if not np.array_equal(_combine(field, A.unit, stack), ident):
                raise BimoduleValidationError("unit", side, "unit must act as identity")

    def _centrality_witness(self):
        """The first center basis vector acting differently on the two sides, or None."""
        field, z = self.algebra.field, self.algebra.center.basis.a
        on_left = _combine(field, z, self.left_stack)
        hits = np.flatnonzero((on_left != _combine(field, z, self.right_stack)).any(axis=(1, 2)))
        return z[hits[0]].copy() if len(hits) else None

    @classmethod
    def regular(cls, algebra: Algebra, name: str = "self") -> "BimoduleRep":
        """The algebra as a bimodule over itself, by multiplication."""
        return cls(algebra, algebra.left_ops, algebra.right_ops, name=name)

    @classmethod
    def free(cls, algebra: Algebra, rank: int, name: str = "") -> "BimoduleRep":
        """Free bimodule A^rank with diagonal actions."""
        ident = Matrix.identity(algebra.field, rank)
        left = [ident.kron(m) for m in algebra.left_ops]
        right = [ident.kron(m) for m in algebra.right_ops]
        return cls(algebra, left, right, name=name or f"free{rank}")

    def __repr__(self):
        return f"BimoduleRep({self.name!r}, dim={self.dim}, over {self.algebra.name!r})"


def _pair_products(field, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """[i, j] = X[i] @ Y[j] for two stacks of square matrices."""
    return _combine(field, X, Y.transpose(1, 0, 2)).transpose(0, 2, 1, 3)


def require_central(*modules: BimoduleRep):
    for m in modules:
        if not m.central:
            raise CentralityRequired(
                f"module {m.name!r} is not central over the algebra center"
            )


# ---------------------------------------------------------------------------
# structured operators


class LegAction:
    """A sum of single-leg actions on a tensor ambient K^d0 (x) K^d1 (x) ...

    Each term (axis, M) is the operator I (x) .. (x) M (x) .. (x) I with M
    on leg `axis`; coordinates are row-major over the legs, the layout
    Matrix.kron produces.  apply_rows applies it to sparse rows with the
    kernel Matrix.apply_rows uses, one term per factor: M[j, i] moves a
    coordinate whose leg index is i to the one whose leg index is j, so a
    row costs one multiply-add per nonzero cell and factor entry it meets,
    and the kernel holds only the factors' columns, never a table over the
    ambient.  The dense matrix is built only when `dense` is asked for.
    """

    def __init__(self, field, dims: Sequence[int], terms: Sequence[tuple[int, Matrix]]):
        self.field = field
        self.dims = tuple(dims)
        self.terms = tuple(terms)
        for axis, m in self.terms:
            if (
                not isinstance(axis, numbers.Integral)
                or isinstance(axis, bool)
                or not 0 <= axis < len(self.dims)
            ):
                raise DimensionMismatch(f"axis {axis!r} is not a leg of {self.dims}")
            if m.field != field:
                raise DimensionMismatch(
                    f"factor over {m.field!r} on leg {axis} of an action over {field!r}"
                )
            if m.shape != (self.dims[axis], self.dims[axis]):
                raise DimensionMismatch(f"{m.shape} factor on a leg of dim {self.dims[axis]}")
        self.dim = math.prod(self.dims)
        self.shape = (self.dim, self.dim)

    def __sub__(self, other: "LegAction") -> "LegAction":
        if self.field != other.field:
            raise DimensionMismatch(f"{self.field!r} action - {other.field!r} action")
        if self.dims != other.dims:
            raise DimensionMismatch(f"leg dims {self.dims} - {other.dims}")
        field = self.field
        # negating a field-form array leaves it in field form: no demote
        negated = tuple(
            (axis, Matrix._wrap(field, field.reduce_array(-m.a))) for axis, m in other.terms
        )
        return LegAction(field, self.dims, self.terms + negated)

    @property
    def T(self) -> "LegAction":
        """The transpose, which transposes each factor on its own leg."""
        return LegAction(self.field, self.dims, tuple((axis, m.T) for axis, m in self.terms))

    def apply_rows(self, rows: Iterable[dict]) -> list[dict]:
        """The operator applied to each sparse row {col: value}, as sparse rows."""
        return _apply_columns(self._columns, self.dim, rows, self.field.modulus)

    @cached_property
    def _columns(self) -> tuple[tuple, ...]:
        """Each term (axis, M) as a kernel term of M's columns with the stride of its leg."""
        return tuple(_factor_term(m.a, math.prod(self.dims[axis + 1 :])) for axis, m in self.terms)

    @cached_property
    def dense(self) -> Matrix:
        """The same operator as a dense matrix, by kron with identities."""
        out = Matrix.zeros(self.field, self.dim, self.dim)
        for axis, m in self.terms:
            before = Matrix.identity(self.field, math.prod(self.dims[:axis]))
            after = Matrix.identity(self.field, math.prod(self.dims[axis + 1 :]))
            out = out + before.kron(m).kron(after)
        return out


# ---------------------------------------------------------------------------
# one tensor ambient, for Hom spaces and the jet ambients


class TensorAmbient:
    """A tensor ambient K^d0 (x) K^d1 (x) ... with an outer and a bullet structure per side.

    left_pair (and right_pair, for an ambient with right structure) is
    ((leg, stack), (leg, stack)): the outer structure, then the bullet
    one, each a stacked family (dim A, d, d) acting on one leg.  Per
    algebra basis element a the families, built on first read, are
    single-leg LegActions
       left, bullet_left:    the left pair's outer and bullet actions
       right, bullet_right:  the right pair's outer and bullet actions
    and the deviations are delta_a = left - bullet_left,
    delta_bar_a = right - bullet_right.
    """

    def __init__(self, field, legs: Sequence[int], left_pair, right_pair=None):
        self.field = field
        self.legs = tuple(legs)
        self.dim = math.prod(self.legs)
        self._pairs = {"left": left_pair, "right": right_pair}

    def _pair(self, side: str):
        if self._pairs[side] is None:
            raise AttributeError(f"{type(self).__name__} has no {side} structure")
        return self._pairs[side]

    def _family(self, side: str, k: int) -> tuple[LegAction, ...]:
        """One single-leg LegAction per matrix of the side's outer (k=0) or bullet (k=1) stack."""
        axis, stack = self._pair(side)[k]
        field, legs = self.field, self.legs
        return tuple(LegAction(field, legs, ((axis, Matrix._wrap(field, m)),)) for m in stack.copy())

    def _combined(self, side: str, coords) -> LegAction:
        """sum_i c_i (outer_i - bullet_i) on one side, for a general algebra element."""
        field, coords = self.field, vector(self.field, coords)
        (outer_axis, outer), (bullet_axis, bullet) = self._pair(side)
        outer_op = Matrix._raw(field, _combine(field, coords, outer))
        bullet_op = Matrix._raw(field, -_combine(field, coords, bullet))
        return LegAction(field, self.legs, ((outer_axis, outer_op), (bullet_axis, bullet_op)))

    @cached_property
    def left(self) -> tuple[LegAction, ...]:
        return self._family("left", 0)

    @cached_property
    def bullet_left(self) -> tuple[LegAction, ...]:
        return self._family("left", 1)

    @cached_property
    def right(self) -> tuple[LegAction, ...]:
        return self._family("right", 0)

    @cached_property
    def bullet_right(self) -> tuple[LegAction, ...]:
        return self._family("right", 1)

    @cached_property
    def deltas(self) -> tuple[LegAction, ...]:
        return tuple(a - b for a, b in zip(self.left, self.bullet_left))

    @cached_property
    def delta_bars(self) -> tuple[LegAction, ...]:
        return tuple(a - b for a, b in zip(self.right, self.bullet_right))

    def delta(self, coords) -> LegAction:
        """delta_a for a general algebra element (linear in a)."""
        return self._combined("left", coords)

    def delta_bar(self, coords) -> LegAction:
        return self._combined("right", coords)


class HomSpace(TensorAmbient):
    """Hom_K(P, Q) with its four module structures and deviation operators.

    Elements are (dim Q) x (dim P) matrices; vec/unvec translate to the
    flat column-major coordinates all subspaces below live in, which are
    the legs (dim P, dim Q) of P* (x) Q.  Per algebra basis element a the
    structures are
       left:          (a phi)(p)  = a phi(p)     L_a on the Q leg
       bullet_left:   (phi . a)(p) = phi(a p)    L_a^T on the P leg
       right:         (phi a)(p)  = phi(p) a     R_a on the Q leg
       bullet_right:  (a . phi)(p) = phi(p a)    R_a^T on the P leg
    """

    def __init__(self, source: BimoduleRep, target: BimoduleRep):
        if source.algebra is not target.algebra:
            raise DimensionMismatch("Hom needs both modules over one algebra")
        self.source = source
        self.target = target
        self.algebra = source.algebra
        super().__init__(
            self.algebra.field,
            (source.dim, target.dim),
            ((1, target.left_stack), (0, source.left_stack.transpose(0, 2, 1))),
            ((1, target.right_stack), (0, source.right_stack.transpose(0, 2, 1))),
        )

    # bound here as well, so that HomSpace.__dict__ holds each family:
    # benchmarks/tracing.py wraps them there as cached_property objects
    left = TensorAmbient.left
    bullet_left = TensorAmbient.bullet_left
    right = TensorAmbient.right
    bullet_right = TensorAmbient.bullet_right
    deltas = TensorAmbient.deltas
    delta_bars = TensorAmbient.delta_bars

    def vec(self, phi: Matrix) -> np.ndarray:
        if phi.shape != (self.target.dim, self.source.dim):
            raise DimensionMismatch(
                f"hom element must be {self.target.dim}x{self.source.dim}, got {phi.shape}"
            )
        return phi.a.ravel(order="F").copy()

    def unvec(self, v: np.ndarray) -> Matrix:
        a = self.field.asarray(v)
        if a.shape != (self.dim,):
            raise DimensionMismatch(f"hom vector must have length {self.dim}, got shape {a.shape}")
        a = a.reshape((self.target.dim, self.source.dim), order="F")
        return Matrix._raw(self.field, a.copy())

    def __repr__(self):
        return f"HomSpace({self.source.name!r} -> {self.target.name!r}, dim={self.dim})"


def hom_A(source: BimoduleRep, target: BimoduleRep) -> Subspace:
    """Left-linear maps {phi : phi(a p) = a phi(p)}, the joint delta kernel."""
    return joint_kernel(HomSpace(source, target).deltas)


def hom_AA(source: BimoduleRep, target: BimoduleRep) -> Subspace:
    """Bimodule maps: additionally phi(p a) = phi(p) a."""
    hs = HomSpace(source, target)
    return joint_kernel(list(hs.deltas) + list(hs.delta_bars))


# ---------------------------------------------------------------------------
# the jet ambients A (x) P and A (x) P (x) A


class TensorOneSided(TensorAmbient):
    """A tensor P over K, with coordinates flat at (i, u) -> i * dimP + u.

    On the legs (dim A, dim P): the outer structure b (a tensor p) =
    (b a) tensor p is `left`, the inner one b . (a tensor p) =
    a tensor (b p) is `bullet_left`, and delta^b is their deviation.
    There is no right structure.
    """

    def __init__(self, module: BimoduleRep):
        self.module = module
        self.algebra = module.algebra
        super().__init__(
            self.algebra.field,
            (self.algebra.dim, module.dim),
            ((0, self.algebra.left_stack), (1, module.left_stack)),
        )

    def left_linear_maps(self, target: BimoduleRep) -> Subspace:
        """Maps f : A tensor P -> target with f(b x) = b f(x) for the outer action.

        A tensor P is free on its P-leg, so f is fixed by phi = f . J
        through f(e_i tensor p) = L_i phi(p), and every phi occurs: the
        lifts of the matrix units of Hom(P, target) span the space.  The
        result lives in the column-major Hom coordinates of maps
        A tensor P -> target (entry (q, (i, u)) at index
        (i * dimP + u) * dimQ + q).
        """
        if target.algebra is not self.algebra:
            raise DimensionMismatch("left-linear maps need both modules over one algebra")
        n, m, d = self.algebra.dim, self.module.dim, target.dim
        lifts = np.zeros((m, d, n, m, d), dtype=self.field.dtype)
        for u in range(m):
            lifts[u, :, :, u, :] = target.left_stack.transpose(2, 0, 1)  # lift of E_(q0, u)
        return Subspace.from_spanning(self.field, self.dim * d, lifts.reshape(m * d, -1))


class TensorTwoSided(TensorAmbient):
    """A tensor P tensor A, coordinates flat at (i, u, j) -> (i*dimP + u)*dimA + j.

    On the legs (dim A, dim P, dim A): the outer and inner left actions
    are `left` and `bullet_left`, the outer and inner right actions
    `right` and `bullet_right`, with deviations delta^b and delta_bar^b.
    """

    def __init__(self, module: BimoduleRep):
        self.module = module
        self.algebra = module.algebra
        n = self.algebra.dim
        super().__init__(
            self.algebra.field,
            (n, module.dim, n),
            ((0, self.algebra.left_stack), (1, module.left_stack)),
            ((2, self.algebra.right_stack), (1, module.right_stack)),
        )
