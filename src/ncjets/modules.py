"""Two-sided modules over an algebra, tensor ambients, and Hom spaces.

A bimodule is a pair of action-matrix families, one per algebra basis
element.  Hom_K(P, Q) carries four module structures; its elements are
(dim Q) x (dim P) matrices flattened column-major (entry (q, p) sits at
index p * dimQ + q), and that flattening is part of the public contract:
applying the kron-built action matrices to vec(phi) agrees with the
matrix actions on phi.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import Algebra
from .linalg import DimensionMismatch, Matrix, Subspace, joint_kernel


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
        self._validate()
        self.central = self._check_central()
        if check_central and not self.central:
            raise BimoduleValidationError(
                "centrality",
                self._centrality_witness(),
                "central algebra elements must act identically on both sides",
            )

    def left_action(self, coords) -> Matrix:
        """Action matrix of the algebra element with these coordinates, acting on the left."""
        return _combo(self.left, coords)

    def right_action(self, coords) -> Matrix:
        return _combo(self.right, coords)

    def _validate(self):
        A = self.algebra
        n = A.dim
        for i in range(n):
            for j in range(n):
                lhs = self.left[i] @ self.left[j]
                rhs = _combo(self.left, A.mul[i, j])
                if lhs != rhs:
                    raise BimoduleValidationError(
                        "left-associativity", (i, j), f"L_{i} L_{j} != L_(e{i} e{j})"
                    )
                lhs = self.right[i] @ self.right[j]
                rhs = _combo(self.right, A.mul[j, i])
                if lhs != rhs:
                    raise BimoduleValidationError(
                        "right-associativity", (i, j), f"R_{i} R_{j} != R_(e{j} e{i})"
                    )
                if self.left[i] @ self.right[j] != self.right[j] @ self.left[i]:
                    raise BimoduleValidationError(
                        "action-commutation", (i, j), f"(e{i} p) e{j} != e{i} (p e{j})"
                    )
        ident = Matrix.identity(A.field, self.dim)
        if self.left_action(A.unit) != ident:
            raise BimoduleValidationError("unit", "left", "unit must act as identity")
        if self.right_action(A.unit) != ident:
            raise BimoduleValidationError("unit", "right", "unit must act as identity")

    def _check_central(self) -> bool:
        return self._centrality_witness() is None

    def _centrality_witness(self):
        for z in self.algebra.center.basis_vectors():
            if self.left_action(z) != self.right_action(z):
                return z
        return None

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


def require_central(*modules: BimoduleRep):
    for m in modules:
        if not m.central:
            raise CentralityRequired(
                f"module {m.name!r} is not central over the algebra center"
            )


class HomSpace:
    """Hom_K(P, Q) with its four module structures and deviation operators.

    Elements are (dim Q) x (dim P) matrices; vec/unvec translate to the
    flat column-major coordinates all subspaces below live in.  Per
    algebra basis element a the structures are
       left:          (a phi)(p)  = a phi(p)
       bullet_left:   (phi . a)(p) = phi(a p)
       right:         (phi a)(p)  = phi(p) a
       bullet_right:  (a . phi)(p) = phi(p a)
    and the deviations are delta_a = left - bullet_left,
    delta_bar_a = right - bullet_right.
    """

    def __init__(self, source: BimoduleRep, target: BimoduleRep):
        if source.algebra is not target.algebra:
            raise DimensionMismatch("Hom needs both modules over one algebra")
        self.source = source
        self.target = target
        self.algebra = source.algebra
        self.field = source.algebra.field
        self.dim = source.dim * target.dim

    def vec(self, phi: Matrix) -> np.ndarray:
        if phi.shape != (self.target.dim, self.source.dim):
            raise DimensionMismatch(
                f"hom element must be {self.target.dim}x{self.source.dim}, got {phi.shape}"
            )
        return phi.a.ravel(order="F").copy()

    def unvec(self, v: np.ndarray) -> Matrix:
        a = np.asarray(v, dtype=object).reshape(
            (self.target.dim, self.source.dim), order="F"
        )
        return Matrix._raw(self.field, a.copy())

    def _ip(self) -> Matrix:
        return Matrix.identity(self.field, self.source.dim)

    def _iq(self) -> Matrix:
        return Matrix.identity(self.field, self.target.dim)

    @cached_property
    def left(self) -> tuple[Matrix, ...]:
        return tuple(self._ip().kron(m) for m in self.target.left)

    @cached_property
    def bullet_left(self) -> tuple[Matrix, ...]:
        return tuple(m.T.kron(self._iq()) for m in self.source.left)

    @cached_property
    def right(self) -> tuple[Matrix, ...]:
        return tuple(self._ip().kron(m) for m in self.target.right)

    @cached_property
    def bullet_right(self) -> tuple[Matrix, ...]:
        return tuple(m.T.kron(self._iq()) for m in self.source.right)

    @cached_property
    def deltas(self) -> tuple[Matrix, ...]:
        return tuple(l - b for l, b in zip(self.left, self.bullet_left))

    @cached_property
    def delta_bars(self) -> tuple[Matrix, ...]:
        return tuple(r - b for r, b in zip(self.right, self.bullet_right))

    def delta(self, coords) -> Matrix:
        """delta_a for a general algebra element (linear in a)."""
        return _combo(self.deltas, coords)

    def delta_bar(self, coords) -> Matrix:
        return _combo(self.delta_bars, coords)

    def identity_element(self) -> Matrix:
        if self.source.dim != self.target.dim:
            raise DimensionMismatch("identity hom needs equal dims")
        return Matrix.identity(self.field, self.source.dim)

    def full_subspace(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

    def __repr__(self):
        return f"HomSpace({self.source.name!r} -> {self.target.name!r}, dim={self.dim})"


def _combo(mats: Sequence[Matrix], coeffs) -> Matrix:
    out = mats[0].scale(coeffs[0])
    for i in range(1, len(mats)):
        if coeffs[i] != 0:
            out = out + mats[i].scale(coeffs[i])
    return out


def hom_A(source: BimoduleRep, target: BimoduleRep) -> Subspace:
    """Left-linear maps {phi : phi(a p) = a phi(p)}, the joint delta kernel."""
    return joint_kernel(HomSpace(source, target).deltas)


def hom_AA(source: BimoduleRep, target: BimoduleRep) -> Subspace:
    """Bimodule maps: additionally phi(p a) = phi(p) a."""
    hs = HomSpace(source, target)
    return joint_kernel(list(hs.deltas) + list(hs.delta_bars))


# ---------------------------------------------------------------------------
# tensor ambients


class TensorOneSided:
    """A tensor P over K, with coordinates flat at (i, u) -> i * dimP + u.

    Carries the outer structure b (a tensor p) = (b a) tensor p, the inner
    one b . (a tensor p) = a tensor (b p), and their deviation
    delta^b = outer(b) - inner(b).
    """

    def __init__(self, module: BimoduleRep):
        self.module = module
        self.algebra = module.algebra
        self.field = module.algebra.field
        self.dim = self.algebra.dim * module.dim
        ident_p = Matrix.identity(self.field, module.dim)
        ident_a = Matrix.identity(self.field, self.algebra.dim)
        self.outer = tuple(m.kron(ident_p) for m in self.algebra.left_ops)
        self.inner = tuple(ident_a.kron(m) for m in module.left)
        self.deltas = tuple(o - i for o, i in zip(self.outer, self.inner))

    @cached_property
    def embedding(self) -> Matrix:
        """p -> 1 tensor p, a (dim) x (dim P) matrix."""
        unit_col = Matrix._raw(self.field, self.algebra.unit.reshape(-1, 1))
        return unit_col.kron(Matrix.identity(self.field, self.module.dim))

    def delta(self, coords) -> Matrix:
        return _combo(self.deltas, coords)


class TensorTwoSided:
    """A tensor P tensor A, coordinates flat at (i, u, j) -> (i*dimP + u)*dimA + j."""

    def __init__(self, module: BimoduleRep):
        self.module = module
        self.algebra = module.algebra
        self.field = module.algebra.field
        n, m = self.algebra.dim, module.dim
        self.dim = n * m * n
        ia = Matrix.identity(self.field, n)
        im = Matrix.identity(self.field, m)
        imn = im.kron(ia)
        nm_ident = ia.kron(im)
        self.outer_left = tuple(L.kron(imn) for L in self.algebra.left_ops)
        self.inner_left = tuple(ia.kron(L.kron(ia)) for L in module.left)
        self.outer_right = tuple(nm_ident.kron(R) for R in self.algebra.right_ops)
        self.inner_right = tuple(ia.kron(R.kron(ia)) for R in module.right)
        self.deltas = tuple(o - i for o, i in zip(self.outer_left, self.inner_left))
        self.delta_bars = tuple(o - i for o, i in zip(self.outer_right, self.inner_right))

    @cached_property
    def embedding(self) -> Matrix:
        """p -> 1 tensor p tensor 1."""
        unit_col = Matrix._raw(self.field, self.algebra.unit.reshape(-1, 1))
        return unit_col.kron(Matrix.identity(self.field, self.module.dim).kron(unit_col))

    def delta(self, coords) -> Matrix:
        return _combo(self.deltas, coords)

    def delta_bar(self, coords) -> Matrix:
        return _combo(self.delta_bars, coords)


def hom_left_linear(
    left_source: Sequence[Matrix], left_target: Sequence[Matrix], field
) -> Subspace:
    """Maps f with f(b v) = b f(v) between spaces with given left actions.

    Works on any pair of action families of matching length; the result
    lives in the column-major Hom coordinates (source dim x target dim).
    """
    sdim = left_source[0].rows
    tdim = left_target[0].rows
    it = Matrix.identity(field, tdim)
    isrc = Matrix.identity(field, sdim)
    conds = [
        ls.T.kron(it) - isrc.kron(lt) for ls, lt in zip(left_source, left_target)
    ]
    return joint_kernel(conds)
