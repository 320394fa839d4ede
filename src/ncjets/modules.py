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
    _nonzero_cells,
    joint_kernel,
    preimage,
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
    Actions from outside (the constructor: module documents, library
    callers) are validated eagerly, with witnesses: the unit acts as
    identity on both sides, left action is a homomorphism, right action
    an anti-homomorphism, the actions commute, and (unless
    check_central=False) central algebra elements act identically on
    both sides.  The middle three are checked at the algebra's generators
    (see _validate), and a full scan names the witness of a failure.
    regular and free are valid by construction: their axioms are the
    algebra's own, which validating the Algebra proved, so they run no
    check (see regular).  They also mark the module free: free_rank is r
    for A^r (1 for regular), and None for a module from the constructor,
    which the Hom space then treats as any module (HomSpace.linear_maps).
    """

    free_rank: int | None = None

    def __init__(
        self,
        algebra: Algebra,
        left: Sequence[Matrix],
        right: Sequence[Matrix],
        name: str = "",
        check_central: bool = True,
    ):
        if len(left) != algebra.dim or len(right) != algebra.dim:
            raise BimoduleValidationError(
                "shape", None, "need one action matrix per algebra basis element"
            )
        dim = left[0].rows
        for fam, mats in (("left", left), ("right", right)):
            for i, m in enumerate(mats):
                if m.shape != (dim, dim):
                    raise BimoduleValidationError(
                        "shape", (fam, i), f"{fam} action matrix {i} has shape {m.shape}"
                    )
                if m.field != algebra.field:
                    raise BimoduleValidationError("shape", (fam, i), "field mismatch")
        stacks = (np.stack([m.a for m in f]) for f in (left, right))
        self._assign(algebra, left, right, *stacks, name)
        self._validate()
        witness = self._centrality_witness()
        self.central = witness is None
        if check_central and not self.central:
            raise BimoduleValidationError(
                "centrality", witness, "central algebra elements must act identically on both sides"
            )

    def _assign(self, algebra, left, right, left_stack, right_stack, name: str):
        """Set the attributes from the families and their stacks, which it freezes."""
        self.algebra = algebra
        self.name = name or "module"
        self.left = tuple(left)
        self.right = tuple(right)
        self.dim = self.left[0].rows
        self.left_stack, self.right_stack = left_stack, right_stack
        left_stack.flags.writeable = right_stack.flags.writeable = False

    @classmethod
    def _valid_by_construction(cls, algebra, left, right, left_stack, right_stack, name, rank):
        """The central free module A^rank, valid by proof (see regular): no check runs."""
        module = cls.__new__(cls)
        module._assign(algebra, left, right, left_stack, right_stack, name)
        module.central = True
        module.free_rank = rank
        return module

    def _validate(self):
        """The unit, then the action axioms at the algebra's generators only.

        With L_1 = R_1 = I and A associative, each check reaches all of A,
        because each set S below is a subspace holding 1 and closed under
        products, and the left closure of span{1} under the generators
        (Algebra.generators) is A:
          - S = {a : L_a L_x = L_(a x) for all x}: for a, b in S,
            L_(ab) L_x = L_a L_b L_x = L_a L_(bx) = L_(a(bx)) = L_((ab)x);
          - S = {a : R_a R_x = R_(x a) for all x}: for a, b in S,
            R_(ab) R_x = R_b R_a R_x = R_b R_(xa) = R_((xa)b) = R_(x(ab));
          - with L a homomorphism and R an anti-homomorphism,
            S = {a : L_a R_h = R_h L_a for generators h} is a subalgebra,
            so it is A, and then so is {b : L_a R_b = R_b L_a for all a}.
        The checks are (|generators|, dim A, dim, dim) products, not
        (dim A, dim A, dim, dim).  Only when one fails does the full scan
        run, to name the witness.
        """
        if self._unit_failure() is None and self._actions_hold_at_generators():
            return
        self._raise_first_failure()

    def _unit_failure(self):
        """The first side, left before right, where the unit does not act as identity, or None."""
        A = self.algebra
        ident = Matrix.identity(A.field, self.dim).a
        for side, stack in (("left", self.left_stack), ("right", self.right_stack)):
            if not np.array_equal(_combine(A.field, A.unit, stack), ident):
                return side
        return None

    def _actions_hold_at_generators(self) -> bool:
        """L_g L_x = L_(g x), R_g R_x = R_(x g) and L_g R_h = R_h L_g at generators g, h."""
        A, field, gens = self.algebra, self.algebra.field, list(self.algebra.generators)
        L, R = self.left_stack, self.right_stack
        LG, RG, swap = L[gens], R[gens], (1, 0, 2, 3)

        def agree():  # [g, x] of both sides of one axiom, one axiom at a time
            yield np.array_equal(_pair_products(field, LG, L), _combine(field, A.mul[gens], L))
            yield np.array_equal(
                _pair_products(field, RG, R), _combine(field, A.mul[:, gens], R).transpose(swap)
            )
            yield np.array_equal(
                _pair_products(field, LG, RG), _pair_products(field, RG, LG).transpose(swap)
            )

        return all(agree())

    def _raise_first_failure(self):
        """Scan every pair (e_i, e_j), one i at a time, then the unit; raise at the first failure.

        The witness is the first failing (i, j) in row-major order; at one
        (i, j), left-associativity, then right-associativity, then
        commutation.  Each slice holds (dim A, dim, dim) products.
        """
        A, field = self.algebra, self.algebra.field
        L, R = self.left_stack, self.right_stack
        for i in range(A.dim):
            Li, Ri = L[i : i + 1], R[i : i + 1]
            sides = (  # [j] of each pair: the two sides of one axiom at (i, j)
                (_pair_products(field, Li, L)[0], _combine(field, A.mul[i], L)),
                (_pair_products(field, Ri, R)[0], _combine(field, A.mul[:, i], R)),
                (_pair_products(field, Li, R)[0], _pair_products(field, R, Li)[:, 0]),
            )
            bad = np.stack([(lhs != rhs).any(axis=(1, 2)) for lhs, rhs in sides], axis=-1)
            if bad.any():
                j, k = (int(x) for x in np.argwhere(bad)[0])
                axiom, message = (
                    ("left-associativity", f"L_{i} L_{j} != L_(e{i} e{j})"),
                    ("right-associativity", f"R_{i} R_{j} != R_(e{j} e{i})"),
                    ("action-commutation", f"(e{i} p) e{j} != e{i} (p e{j})"),
                )[k]
                raise BimoduleValidationError(axiom, (i, j), message)
        side = self._unit_failure()
        if side is not None:
            raise BimoduleValidationError("unit", side, "unit must act as identity")

    def _centrality_witness(self):
        """The first center basis vector acting differently on the two sides, or None."""
        field, z = self.algebra.field, self.algebra.center.basis.a
        on_left = _combine(field, z, self.left_stack)
        hits = np.flatnonzero((on_left != _combine(field, z, self.right_stack)).any(axis=(1, 2)))
        return z[hits[0]].copy() if len(hits) else None

    @classmethod
    def regular(cls, algebra: Algebra, name: str = "self") -> "BimoduleRep":
        """The algebra as a bimodule over itself, by multiplication: valid by construction.

        With L_a x = ax and R_a x = xa, each bimodule axiom is an instance
        of an axiom that validating the Algebra proved (and a validated
        Algebra does not change: its mul and unit are read-only):
          - unit: L_1 = R_1 = I by the unit axiom;
          - left: L_a L_b = L_(ab) is a(bx) = (ab)x;
          - right: R_a R_b = R_(ba) is (xb)a = x(ba);
          - commutation: L_a R_b = R_b L_a is a(xb) = (ax)b;
          - centrality: for central z, L_z = R_z because zx = xz.
        So no product, centrality check or center kernel runs.  The
        stacks are the algebra's own read-only views of mul.
        """
        A = algebra
        stacks = A.left_stack, A.right_stack
        return cls._valid_by_construction(A, A.left_ops, A.right_ops, *stacks, name, 1)

    @classmethod
    def free(cls, algebra: Algebra, rank: int, name: str = "") -> "BimoduleRep":
        """Free bimodule A^rank, each action block-diagonal with rank copies of A's.

        Valid by construction: every action is block-diagonal with the
        regular bimodule's action in each block, so each axiom holds block
        by block (see regular).  No check runs.
        """
        field, n = algebra.field, algebra.dim
        blocks = np.zeros((2, n, rank * n, rank * n), dtype=field.dtype)
        for r in range(0, rank * n, n):
            blocks[0, :, r : r + n, r : r + n] = algebra.left_stack
            blocks[1, :, r : r + n, r : r + n] = algebra.right_stack
        left, right = ([Matrix._wrap(field, m) for m in family] for family in blocks)
        name = name or f"free{rank}"
        return cls._valid_by_construction(algebra, left, right, *blocks, name, rank)

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

    def linear_maps(self, side: str) -> Subspace:
        """The maps that commute with the side's action: phi(a p) = a phi(p) or phi(p a) = phi(p) a.

        They are the joint kernel of the side's deviations (deltas for
        "left", delta_bars for "right").  From a free source (free_rank set
        by BimoduleRep.regular and free) they are read off the free lift
        (_free_lift), with no elimination over the Hom space; from any
        other source, by generator_preimage.
        """
        rank, left = self.source.free_rank, side == "left"
        if rank is None:
            return generator_preimage(self, [self.deltas if left else self.delta_bars])
        stack = self.target.left_stack if left else self.target.right_stack
        return _free_lift(self.field, stack, rank, self.algebra.dim, 1)

    def vec(self, phi: Matrix) -> np.ndarray:
        if phi.field != self.field:
            raise DimensionMismatch(f"hom element over {phi.field!r} in Hom over {self.field!r}")
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


def generator_preimage(
    ambient: TensorAmbient, families: Sequence, target: Subspace | None = None
) -> Subspace:
    """{v : d v in target for every generator member d of each deviation family}.

    target None is the zero subspace, so the result is a joint kernel.
    Each family obeys a product rule on every ambient here, since the
    actions on different legs commute:
       delta_ab     = left_a delta_b + bullet_left_b delta_a,
       delta_bar_ab = right_b delta_bar_a + bullet_right_a delta_bar_b.
    So the a with delta_a v in target form a unital subalgebra
    (delta_1 = 0) when target is invariant under the left pair, and the
    a with delta_bar_a v in target one when it is invariant under the
    right pair; the zero target always is.  That subalgebra holds every
    generator exactly when it is A, and this is the full-family result.
    Over K there are no generators and every v qualifies.  The caller
    proves the invariance of a nonzero target.
    """
    ops = [d for family in families for d in ambient.algebra.at_generators(family)]
    if not ops:
        return Subspace.full(ambient.field, ambient.dim)
    return joint_kernel(ops) if target is None else preimage(ops, target)


def _free_lift(
    field, stack: np.ndarray, copies: int, copy_stride: int, basis_stride: int
) -> Subspace:
    """The maps out of a free module A^copies that commute with one side's action of A.

    stack is the target's action family on that side, (dim A, d, d), and
    basis element j of copy c of the source has index
    c * copy_stride + j * basis_stride.  Proof: the free generator u_c is
    the unit in copy c, and basis element j of copy c is e_j u_c = u_c e_j.
    So a map phi commuting with the left action sends it to L_j q_c, one
    commuting with the right action to R_j q_c, where q_c = phi(u_c) and
    L_j or R_j is stack[j]; and every choice of the q_c extends, as
    Hom_A(A^copies, Q) = Q^copies.  The lift of (c, v), the map with q_c
    the basis vector v and every other q zero, holds stack[j][q', v] at
    (c * copy_stride + j * basis_stride) * d + q' in column-major Hom
    coordinates.  These copies * d sparse rows span the maps.  They are
    read in one pass over the stack's nonzeros, and their RREF is the
    canonical basis.
    """
    n, d = stack.shape[0], stack.shape[1]
    cells: list = [[] for _ in range(d)]  # cells[v]: (offset in copy 0, value) of lift (0, v)
    for j, q, v, x in _nonzero_cells(stack):
        cells[v].append((j * basis_stride * d + q, x))
    shift = copy_stride * d
    rows = [{c * shift + off: x for off, x in lift} for c in range(copies) for lift in cells]
    return Subspace.from_rows(field, copies * n * d, rows)


def hom_A(source: BimoduleRep, target: BimoduleRep) -> Subspace:
    """Left-linear maps {phi : phi(a p) = a phi(p)}, the joint delta kernel."""
    return HomSpace(source, target).linear_maps("left")


def hom_AA(source: BimoduleRep, target: BimoduleRep) -> Subspace:
    """Bimodule maps: the left-linear maps that are also right-linear, phi(p a) = phi(p) a."""
    hs = HomSpace(source, target)
    return hs.linear_maps("left") & hs.linear_maps("right")


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
        lifts of the matrix units of Hom(P, target) span the space
        (_free_lift, with copy u the generator 1 tensor p_u).  The result
        lives in the column-major Hom coordinates of maps A tensor P ->
        target (entry (q, (i, u)) at index (i * dimP + u) * dimQ + q).
        """
        if target.algebra is not self.algebra:
            raise DimensionMismatch("left-linear maps need both modules over one algebra")
        m = self.module.dim
        return _free_lift(self.field, target.left_stack, m, 1, m)


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
