"""Jet modules, the factorization theorem, and representability checks.

The order-k jet of a module P is the quotient of A tensor P by the
submodule generated by all (k+1)-fold tensor deviations of 1 tensor p,
closed under the outer left action.  Over a commutative algebra every
order-k operator factors uniquely through it; over a noncommutative one
that fails, and the failure is witnessed by a nonzero residual in the
factorization identity.  The two-sided first jet (inside
A tensor P tensor A) repairs the story for the restricted first-order
class, and representability_bar1 verifies that on any input.

The maps out of a jet are read off sparse condition rows built from the
sparse rows of mu, one row per relation and target coordinate, and their
kernel is taken on sparse rows too, so no dense relation basis is formed.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .diffop import MAX_ORDER, DefinitionDomainError, diff_bar1, stage_by_tag
from .linalg import (
    DimensionMismatch,
    Matrix,
    Subspace,
    _dense,
    _sparse_rows,
    _subtract,
    closure_under,
    hstack,
    kernel_of_rows,
    span_of_images,
)
from .modules import (
    BimoduleRep,
    HomSpace,
    TensorOneSided,
    TensorTwoSided,
    _pair_products,
    require_central,
)

VERDICT_ISO = "isomorphism"
VERDICT_INJ = "injective-not-surjective"
VERDICT_NOT_CONTAINED = "image-not-contained"


class OrderViolationError(ValueError):
    """The map is not an operator of the requested order."""


class NotLeftLinearError(ValueError):
    """The map fails left linearity on the tensor ambient."""


class InvariantViolation(ValueError):
    """A structural invariant of the jet construction failed (an internal fault)."""


@dataclass(frozen=True)
class JetModule:
    """Quotient of a tensor ambient by the jet relations.

    projection/section realize the quotient; left_ops (and, when the
    relations are invariant, bullet_ops) are the induced actions;
    jet_map sends p to the class of 1 tensor p (tensor 1).
    """

    base: BimoduleRep
    order: int
    two_sided: bool
    ambient_dim: int
    mu: Subspace
    projection: Matrix
    section: Matrix
    dim: int
    left_ops: tuple[Matrix, ...]
    bullet_ops: Optional[tuple[Matrix, ...]]
    right_ops: Optional[tuple[Matrix, ...]]
    bullet_right_ops: Optional[tuple[Matrix, ...]]
    jet_map: Matrix

    @property
    def bullet_well_defined(self) -> bool:
        return self.bullet_ops is not None


def _check_order(k: int):
    # MAX_ORDER bounds the witness search's n^(k+1) tuples; the seed levels stay within the ambient
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or not 0 <= k <= MAX_ORDER:
        raise OrderViolationError(f"order must be between 0 and {MAX_ORDER}, got {k!r}")


def _invariant(ops: Sequence, sub: Subspace) -> bool:
    """Is sub invariant under every op (Matrix or LegAction)?  Stops at the first that moves it."""
    if sub.is_zero() or sub.is_full():
        return True
    rows = sub.rows
    return all(sub.contains_all(op.apply_rows(rows)) for op in ops)


def _units(t: TensorOneSided | TensorTwoSided) -> list[dict]:
    """Sparse row u is 1 tensor p_u (tensor 1) in the ambient t, from the unit's nonzeros.

    The module is leg 1; every other leg is an algebra leg holding the unit.
    """
    (one,) = _sparse_rows(t.algebra.unit.reshape(1, -1))
    norm, out = t.field.normalize, []
    for u in range(t.module.dim):
        row = {0: 1}
        for axis, d in enumerate(t.legs):  # row-major: fold in one leg at a time
            leg = {u: 1} if axis == 1 else one
            row = {c * d + i: norm(x * y) for c, x in row.items() for i, y in leg.items()}
        out.append(row)
    return out


def _vec_of_columns(cols: list[dict], d: int) -> dict:
    """vec(phi) as a sparse row, from the sparse columns of phi (each of length d)."""
    return {u * d + q: x for u, col in enumerate(cols) for q, x in col.items()}


def _assemble_jet(
    P: BimoduleRep, order: int, t: TensorOneSided | TensorTwoSided, seed: Subspace
) -> JetModule:
    """Close the seed relations under the outer actions and pass to the quotient.

    seed spans the seed relations in the ambient t.  The outer actions
    (t.left, and t.right on the two-sided ambient) always descend; a
    bullet family is attached only when the relations are invariant under it.
    """
    two_sided = isinstance(t, TensorTwoSided)
    outer_all = list(t.left) + (list(t.right) if two_sided else [])
    mu = closure_under(outer_all, seed)
    if not _invariant(outer_all, mu):
        raise InvariantViolation("jet relations must be closed under the outer actions")
    quot = mu.quotient()

    def induced(ops):
        return tuple(quot.induced(op) for op in ops)

    def bullet(ops):
        return induced(ops) if _invariant(ops, mu) else None

    jet = JetModule(
        base=P,
        order=order,
        two_sided=two_sided,
        ambient_dim=t.dim,
        mu=mu,
        projection=quot.projection,
        section=quot.section,
        dim=quot.dim,
        left_ops=induced(t.left),
        bullet_ops=bullet(t.bullet_left),
        right_ops=induced(t.right) if two_sided else None,
        bullet_right_ops=bullet(t.bullet_right) if two_sided else None,
        jet_map=quot.project(_units(t)),
    )
    _check_generation(jet)
    return jet


def jet_module(P: BimoduleRep, k: int) -> JetModule:
    """Order-k jet of P: (A tensor P) / mu^(k+1).

    mu^(k+1) is generated by the (k+1)-fold deviation words applied to
    1 tensor p, p over a basis of P, and closed under the outer action
    b (a tensor p) = (b a) tensor p.  The words are applied one deviation
    at a time to a basis of the level before (linalg.span_of_images), so
    no level holds more rows than the ambient.  The induced inner action
    b . (a tensor p) = a tensor (b p) is attached only when the
    relations are invariant under it (always, when A is commutative).
    """
    require_central(P)
    _check_order(k)
    t = TensorOneSided(P)
    level = Subspace.from_rows(t.field, t.dim, _units(t))
    for _ in range(k + 1):
        level = span_of_images(t.deltas, level)
    return _assemble_jet(P, k, t, level)


def two_sided_jet1(P: BimoduleRep) -> JetModule:
    """First-order two-sided jet: (A tensor P tensor A) / mu^1.

    mu^1 is generated by delta_bar^c delta^b (1 tensor p tensor 1) and
    closed under both outer actions.
    """
    require_central(P)
    t = TensorTwoSided(P)
    moved = span_of_images(t.deltas, Subspace.from_rows(t.field, t.dim, _units(t)))
    return _assemble_jet(P, 1, t, span_of_images(t.delta_bars, moved))


def _check_generation(jet: JetModule):
    """The module closure of the jet-map image must be the whole quotient."""
    image = Subspace.from_rows(jet.mu.field, jet.dim, _sparse_rows(jet.jet_map.a.T))
    ops = list(jet.left_ops) + (list(jet.right_ops) if jet.right_ops else [])
    if not closure_under(ops, image).is_full():
        raise InvariantViolation("jet map image must generate the quotient")


# ---------------------------------------------------------------------------
# hom sides and the comparison map


def _collapse_conditions(jet: JetModule, Q: BimoduleRep) -> list[dict]:
    """Sparse rows that vanish on vec(phi) exactly when phi extends to the jet.

    The tensor ambient is free on its P-leg, so a module map f out of the
    jet is fixed by phi = f . J through f(a tensor p [tensor c]) = a phi(p) [c],
    and such an f exists exactly when it kills mu, i.e. when these rows
    vanish; the generation invariant (checked at construction) makes
    f -> phi injective.  Row (w, q), for a basis row w of mu, has entry
    sum_{i,j} w[i,u,j] (R_j L_i)[q, q'] at column u * dimQ + q', the
    column of entry (q', u) of vec(phi); the one-sided ambient is the
    case of a single right factor R = I_Q.  Only the nonzeros of w meet
    only the nonzeros of each sandwich R_j L_i.
    """
    field = jet.base.algebra.field
    p, m, d = field.modulus, jet.base.dim, Q.dim
    rights = Q.right_stack if jet.two_sided else Matrix.identity(field, d).a[None]
    r = len(rights)
    sandwich = _pair_products(field, rights, Q.left_stack)  # [j, i] = R_j L_i
    # entry (i, j): the nonzeros (q, q', value) of R_j L_i
    nz = sandwich.nonzero()
    terms = {}
    for j, i, q, q2, v in zip(*(x.tolist() for x in nz), sandwich[nz].tolist()):
        terms.setdefault((i, j), []).append((q, q2, v))
    out = []
    for w in jet.mu.rows:
        rows = [{} for _ in range(d)]
        for c, x in w.items():  # c = (i * dimP + u) * r + j
            i, u, j = c // (m * r), c // r % m, c % r
            for q, q2, v in terms.get((i, j), ()):
                acc, col = rows[q], u * d + q2
                acc[col] = acc.get(col, 0) + x * v
        for row in rows:
            out.append({col: y for col, x in row.items() if (y := x % p if p else x)})
    return out


@dataclass(frozen=True)
class RepresentabilityReport:
    tag: str
    order: int
    jet_dim: int
    hom_side_dim: int
    diff_side_dim: int
    image_dim: int
    verdict: str
    image: Subspace
    diff_side: Subspace
    witness: Optional[np.ndarray]
    witness_kind: Optional[str]

    @property
    def is_isomorphism(self) -> bool:
        return self.verdict == VERDICT_ISO


def _representability(
    tag: str, jet: JetModule, Q: BimoduleRep, stage: Subspace
) -> RepresentabilityReport:
    """Compare the maps out of the jet, pushed forward along f -> f . J, with a stage.

    Under the free parametrization of _collapse_conditions the push-forward
    is the identity on phi, so the image is the hom side itself and the
    comparison map is injective by construction.  The image is the kernel
    of the sparse condition rows, grown into an echelon whose complement
    rows span it (linalg.kernel_of_rows).
    """
    image = kernel_of_rows(stage.field, stage.ambient_dim, _collapse_conditions(jet, Q))
    witness = image.outside(stage)
    if witness is not None:
        verdict, kind = VERDICT_NOT_CONTAINED, "image element outside the filtration stage"
    elif (witness := stage.outside(image)) is not None:
        verdict, kind = VERDICT_INJ, "operator in the filtration stage missing from the image"
    else:
        verdict, kind = VERDICT_ISO, None
    return RepresentabilityReport(
        tag=tag,
        order=jet.order,
        jet_dim=jet.dim,
        hom_side_dim=image.dim,
        diff_side_dim=stage.dim,
        image_dim=image.dim,
        verdict=verdict,
        image=image,
        diff_side=stage,
        witness=witness,
        witness_kind=kind,
    )


def representability_check(
    P: BimoduleRep, Q: BimoduleRep, k: int, def_tag: str = "comm-inductive"
) -> RepresentabilityReport:
    """Compare left-linear maps out of the order-k jet with a filtration stage.

    Hom_A(J^k(P), Q) is computed through the free-module parametrization
    of _collapse_conditions and compared against the stage-k subspace of
    the tagged filtration, with a witness for any failure.
    """
    require_central(P, Q)
    jet = jet_module(P, k)
    return _representability(def_tag, jet, Q, stage_by_tag(P, Q, k, def_tag))


def representability_bar1(P: BimoduleRep, Q: BimoduleRep) -> RepresentabilityReport:
    """Bimodule maps out of the two-sided first jet versus the bar1 class."""
    require_central(P, Q)
    jet = two_sided_jet1(P)
    return _representability("bar1", jet, Q, diff_bar1(P, Q))


# ---------------------------------------------------------------------------
# factorization through the jet


@dataclass(frozen=True)
class Factorization:
    jet: JetModule
    factor: Matrix  # map on the quotient, target dim x jet dim
    unique: bool

    def compose_with_jet_map(self) -> Matrix:
        return self.factor @ self.jet.jet_map


def factorize(
    P: BimoduleRep,
    Q: BimoduleRep,
    delta: Matrix,
    k: int,
    jet: Optional[JetModule] = None,
) -> Factorization:
    """The unique left-linear f on J^k(P) with f . J^k = delta.

    Only defined over commutative algebras.  A tensor P is free on its
    P-leg, so F(a tensor p) = a delta(p) is the one left-linear lift of
    delta to the ambient; delta has order k exactly when F kills mu^(k+1),
    and f is then F read on the quotient through the section.
    """
    require_central(P, Q)
    if not P.algebra.is_commutative:
        raise DefinitionDomainError("factorization requires a commutative algebra")
    if delta.shape != (Q.dim, P.dim):
        raise DimensionMismatch(f"operator must be {Q.dim}x{P.dim}, got {delta.shape}")
    if jet is None:
        jet = jet_module(P, k)
    field = P.algebra.field
    lift = hstack([L @ delta for L in Q.left])
    if any(lift.apply_rows(jet.mu.rows)):
        raise OrderViolationError(f"map is not an order-{k} differential operator")
    # _check_generation proved that J(P) generates the jet as a left module,
    # so a left-linear f is fixed by f . J and the factorization is unique.
    return Factorization(jet=jet, factor=lift @ jet.section, unique=True)


# ---------------------------------------------------------------------------
# the factorization identity and its failure witnesses


def _check_left_linear(t: TensorOneSided, Q: BimoduleRep, f: Matrix):
    if f.shape != (Q.dim, t.dim):
        raise NotLeftLinearError(f"f must be {Q.dim} x {t.dim}, got {f.shape}")
    rows = _sparse_rows(f.a)
    for i, (lo, lq) in enumerate(zip(t.left, Q.left)):
        # row q of f . outer(b) is the transposed action applied to row q of f
        if lo.T.apply_rows(rows) != _sparse_rows((lq @ f).a):
            raise NotLeftLinearError(f"f is not left-linear against basis element {i}")


def factorization_residual(
    P: BimoduleRep,
    Q: BimoduleRep,
    f: Matrix,
    b_tuple: Sequence,
    p: np.ndarray,
) -> np.ndarray:
    """Difference of the two sides of the order-k factorization identity.

    f must be a left-linear map on the full tensor A tensor P (checked).
    b_tuple lists algebra elements, each either a basis index (any
    integral type but bool, in range(dim A); others raise ValueError) or
    a coordinate vector; the identity applies their hom-space deviations
    to f . J on one side and their tensor deviations to 1 tensor p on
    the other:

        delta_{b_0} ... delta_{b_k} (f . J)(p)  -  f(delta^{b_0} ... delta^{b_k}(1 tensor p))

    Zero for every input over a commutative algebra and for single b's
    anywhere; nonzero tuples witness the failure of left jets.
    """
    require_central(P, Q)
    t = TensorOneSided(P)
    _check_left_linear(t, Q, f)
    hs = HomSpace(P, Q)
    field = t.field
    p = field.asarray(p)
    if p.shape != (P.dim,):
        raise DimensionMismatch(f"p must be a vector of length {P.dim}, got shape {p.shape}")
    units = _units(t)
    v = [_vec_of_columns(f.apply_rows(units), Q.dim)]  # vec(f . J)
    w = [{}]  # 1 tensor p, the combination of the units with p's coordinates
    for u, x in _sparse_rows(p.reshape(1, -1))[0].items():
        _subtract(w[0], -x, units[u], field.modulus)
    n = len(t.deltas)
    for b in reversed(list(b_tuple)):
        if isinstance(b, (bool, np.bool_)) or (
            isinstance(b, numbers.Integral) and not 0 <= b < n
        ):
            raise ValueError(f"algebra basis index {b!r} is not in range({n})")
        if isinstance(b, numbers.Integral):
            dv, dw = hs.deltas[b], t.deltas[b]
        else:
            dv, dw = hs.delta(b), t.delta(b)
        v = dv.apply_rows(v)
        w = dw.apply_rows(w)
    lhs = hs.unvec(_dense(v, (1, hs.dim), field.dtype)[0]).apply(p)
    rhs = _dense(f.apply_rows(w), (1, Q.dim), field.dtype)[0]
    return field.reduce_array(lhs - rhs)


@dataclass(frozen=True)
class ResidualWitness:
    b_indices: tuple[int, ...]
    p_index: int
    f: Matrix
    residual: np.ndarray


def residual_witness_search(
    P: BimoduleRep, Q: BimoduleRep, k: int
) -> Optional[ResidualWitness]:
    """First nonzero residual over basis (k+1)-tuples, basis p, and a basis
    of left-linear maps on the tensor ambient; None when all vanish.

    Enumeration is lexicographic (tuple, then p, then the RREF hom
    basis), so the reported witness is deterministic.  The hom basis is
    the RREF of the free lifts (TensorOneSided.left_linear_maps); each
    tuple's deviation words are applied to all maps and all p at once.
    """
    require_central(P, Q)
    _check_order(k)
    t = TensorOneSided(P)
    n = P.algebra.dim
    field = P.algebra.field
    flin = t.left_linear_maps(Q)
    hs = HomSpace(P, Q)
    # RREF rows are already in field form: wrapped, not demoted
    fmats = [
        Matrix._wrap(field, v.reshape((Q.dim, t.dim), order="F").copy())
        for v in flin.basis.a
    ]
    fstack = np.stack([f.a for f in fmats])  # [f, q, x]
    units = _units(t)
    phis = [_vec_of_columns(f.apply_rows(units), Q.dim) for f in fmats]  # vec(f . J)
    for b_indices in itertools.product(range(n), repeat=k + 1):
        moved_phis, moved_units = phis, units
        for b in reversed(b_indices):
            moved_phis = hs.deltas[b].apply_rows(moved_phis)
            moved_units = t.deltas[b].apply_rows(moved_units)
        moved_phis = _dense(moved_phis, (len(fmats), hs.dim), field.dtype)
        moved_units = _dense(moved_units, (P.dim, t.dim), field.dtype)
        # lhs[u, f] = (delta word phi_f)(p_u): vec is column-major, so the
        # row of phi_f reshapes to [u, q]; rhs[u, f] = f(delta word (1 tensor p_u))
        lhs = moved_phis.reshape(len(fmats), P.dim, Q.dim).transpose(1, 0, 2)
        rhs = field.tensordot(fstack, moved_units, ([2], [1])).transpose(2, 0, 1)
        res = field.reduce_array(lhs - rhs)
        for p_index in range(P.dim):
            for fi, fmat in enumerate(fmats):
                if res[p_index, fi].any():
                    return ResidualWitness(
                        b_indices=tuple(b_indices),
                        p_index=p_index,
                        f=fmat,
                        residual=res[p_index, fi].copy(),
                    )
    return None
