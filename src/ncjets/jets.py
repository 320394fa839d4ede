"""Jet modules, the factorization theorem, and representability checks.

The order-k jet of a module P is the quotient of A tensor P by the
submodule generated by all (k+1)-fold tensor deviations of 1 tensor p,
closed under the outer left action.  Over a commutative algebra every
order-k operator factors uniquely through it; over a noncommutative one
that fails, and the failure is witnessed by a nonzero residual in the
factorization identity.  The two-sided first jet (inside
A tensor P tensor A) repairs the story for the restricted first-order
class, and representability_bar1 verifies that on any input.

A JetModule is its tensor ambient, mu and jet map; the actions on the
jet are induced from the ambient's only on request (JetModule.induced),
as lazy operators on the jet's sparse rows: each lifts a row to the free
coordinates of mu's echelon, applies the ambient operator and reduces
the image modulo mu, so the generation check moves only the rows its
closure reaches and builds no matrix; .dense builds an action's matrix
for a report.

The maps out of a jet are read off sparse condition rows built from the
sparse rows of mu, one row per relation and target coordinate, and their
kernel is taken on sparse rows too, so no dense relation basis is formed.

The factorization identity has one body, _residual_rows, the residual
rows of a stack of maps at every basis p: factorization_residual runs it
on one map, residual_witness_search on every left-linear map at once.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .diffop import MAX_ORDER, DefinitionDomainError, check_bar1_order, diff_bar1, stage_by_tag
from .linalg import (
    DimensionMismatch,
    InducedOperator,
    Matrix,
    Subspace,
    _dense,
    _sparse_rows,
    _subtract,
    closure_under,
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
    """Quotient of a tensor ambient by the jet relations mu.

    The free columns of mu's echelon index the jet, and reduction modulo
    mu is the projection onto it (mu.quotient()); jet_map sends p to the
    class of 1 tensor p (tensor 1).  The ambient's outer actions descend,
    and its inner left one when bullet_well_defined; induced gives them
    on request as lazy operators, and nothing else is kept.
    """

    order: int
    ambient: TensorOneSided | TensorTwoSided
    mu: Subspace
    bullet_well_defined: bool
    jet_map: Matrix

    @property
    def base(self) -> BimoduleRep:
        return self.ambient.module

    @property
    def two_sided(self) -> bool:
        return isinstance(self.ambient, TensorTwoSided)

    @property
    def ambient_dim(self) -> int:
        return self.ambient.dim

    @property
    def dim(self) -> int:
        return self.ambient.dim - self.mu.dim

    def induced(self, ops: Sequence) -> tuple[InducedOperator, ...]:
        """The actions on the jet of ambient operators that leave mu invariant, one per op.

        Each is a linalg.InducedOperator: apply_rows moves sparse rows of
        the jet through the ambient and reduces them modulo mu, and its
        matrix is built only when .dense is read.
        """
        quot = self.mu.quotient()
        return tuple(quot.induced(op) for op in ops)


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


def _assemble_jet(order: int, t: TensorOneSided | TensorTwoSided, mu: Subspace) -> JetModule:
    """Pass to the quotient of the ambient t by the jet relations mu.

    mu must be invariant under the outer actions (t.left, and t.right on
    the two-sided ambient), which then descend, and the jet map's image
    must generate the quotient under them; the inner left family descends
    when mu is invariant under it.  Each family is a representation or an
    antirepresentation of A, so its generator members (Algebra.generators)
    decide invariance and closure: all three checks act by them, and the
    closure drives those members' induced actions on sparse rows, with no
    matrix built.
    """
    at = t.algebra.at_generators
    # outer invariance under every a follows from that under the generators
    outer = at(t.left) + (at(t.right) if isinstance(t, TensorTwoSided) else ())
    if not _invariant(outer, mu):
        raise InvariantViolation("jet relations must be closed under the outer actions")
    jet = JetModule(
        order=order,
        ambient=t,
        mu=mu,
        # b -> bullet_left_b is a representation: generators decide its invariance
        bullet_well_defined=_invariant(at(t.bullet_left), mu),
        jet_map=mu.quotient().project(_units(t)),
    )
    image = Subspace.from_rows(mu.field, jet.dim, _sparse_rows(jet.jet_map.a.T))
    if not closure_under(jet.induced(outer), image).is_full():
        raise InvariantViolation("jet map image must generate the quotient")
    return jet


def jet_module(P: BimoduleRep, k: int) -> JetModule:
    """Order-k jet of P: (A tensor P) / mu^(k+1).

    mu^(k+1) is generated by the (k+1)-fold deviation words applied to
    1 tensor p, p over a basis of P, and closed under the outer action
    b (a tensor p) = (b a) tensor p.  The words are applied one deviation
    at a time to a basis of the level before (linalg.span_of_images), so
    no level holds more rows than the ambient; the words run over every
    basis deviation.  The closure acts by the outer action's generator
    members (Algebra.generators), as b -> left_b is a representation.
    The inner action b . (a tensor p) = a tensor (b p) descends only
    when the relations are invariant under it (bullet_well_defined;
    always, when A is commutative).
    """
    require_central(P)
    _check_order(k)
    t = TensorOneSided(P)
    level = Subspace.from_rows(t.field, t.dim, _units(t))
    for _ in range(k + 1):
        level = span_of_images(t.deltas, level)
    # a closure under the generators' outer actions is one under every b's
    return _assemble_jet(k, t, closure_under(t.algebra.at_generators(t.left), level))


def two_sided_jet1(P: BimoduleRep) -> JetModule:
    """First-order two-sided jet: (A tensor P tensor A) / mu^1.

    mu^1 is spanned by s(b, p, c) = delta_bar^c delta^b (1 tensor p tensor 1)
    over basis b, p, c, and that span is already a sub-bimodule:
    a s(b, p, c) = s(ab, p, c) - s(a, bp, c) and
    s(b, p, c) d = s(b, p, cd) - s(b, pc, d).  So no closure is taken;
    _assemble_jet checks the invariance.
    """
    require_central(P)
    t = TensorTwoSided(P)
    moved = span_of_images(t.deltas, Subspace.from_rows(t.field, t.dim, _units(t)))
    return _assemble_jet(1, t, span_of_images(t.delta_bars, moved))


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
    the tagged filtration, with a witness for any failure.  The bar1
    class is first order and is compared with its own jet, the two-sided
    one (representability_bar1); any other order is DefinitionDomainError.
    """
    require_central(P, Q)
    if def_tag == "bar1":
        check_bar1_order(k)
        return representability_bar1(P, Q)
    _check_order(k)
    # the stage refuses a bad tag, or comm-* over a noncommutative A, before any work
    stage = stage_by_tag(P, Q, k, def_tag)
    return _representability(def_tag, jet_module(P, k), Q, stage)


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
    and f is then F read on the quotient: its columns at the free
    coordinates of mu's echelon, which index the jet.  A given
    jet must be the one-sided order-k jet of P itself, else ValueError.
    """
    require_central(P, Q)
    if not P.algebra.is_commutative:
        raise DefinitionDomainError("factorization requires a commutative algebra")
    if delta.shape != (Q.dim, P.dim):
        raise DimensionMismatch(f"operator must be {Q.dim}x{P.dim}, got {delta.shape}")
    _check_order(k)
    if jet is None:
        jet = jet_module(P, k)
    elif jet.base is not P or jet.order != k or jet.two_sided:
        side = "two-sided" if jet.two_sided else "one-sided"
        owner = "P" if jet.base is P else f"another module ({jet.base.name!r})"
        raise ValueError(
            f"factorize needs the one-sided order-{k} jet of P,"
            f" got the {side} order-{jet.order} jet of {owner}"
        )
    field = P.algebra.field
    lift = Matrix._raw(field, np.hstack([(L @ delta).a for L in Q.left]))
    if any(lift.apply_rows(jet.mu.rows)):
        raise OrderViolationError(f"map is not an order-{k} differential operator")
    # _assemble_jet proved that J(P) generates the jet as a left module,
    # so a left-linear f is fixed by f . J and the factorization is unique.
    free = jet.mu.quotient().free
    return Factorization(jet=jet, factor=Matrix._wrap(field, lift.a[:, free]), unique=True)


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


def _residual_rows(
    hs: HomSpace, t: TensorOneSided, word: Sequence, maps: Matrix, units: list
) -> list[dict]:
    """The factorization identity's residual for every stacked map at every basis p.

    Row f * dimQ + q of maps is row q of the map f, and units are the rows
    1 tensor p_u of t.  Row u of the result holds (word phi_f)(p_u) -
    f(word (1 tensor p_u)) at column f * dimQ + q, phi_f = f . J.  Letters
    apply last first, the Hom deviations to the rows vec(phi_f) and the
    tensor ones to the units; each is a basis index (hs.deltas[b],
    t.deltas[b]; any integral type but bool, in range(dim A), else
    ValueError) or a coordinate vector (hs.delta(b), t.delta(b)).
    """
    d, n = hs.target.dim, t.algebra.dim

    def swap(rows, count):  # x at (r, s * dimQ + q) moves to (s, r * dimQ + q)
        out = [{} for _ in range(count)]
        for r, row in enumerate(rows):
            for c, x in row.items():
                s, q = divmod(c, d)
                out[s][r * d + q] = x
        return out

    # vec(phi_f), column-major: phi_f(p_u)[q] = f(1 tensor p_u)[q] at u * dimQ + q
    phis = swap(maps.apply_rows(units), maps.rows // d if d else 0)
    for b in reversed(list(word)):
        if isinstance(b, (bool, np.bool_)) or (
            isinstance(b, numbers.Integral) and not 0 <= b < n
        ):
            raise ValueError(f"algebra basis index {b!r} is not in range({n})")
        if isinstance(b, numbers.Integral):
            dv, dw = hs.deltas[b], t.deltas[b]
        else:
            dv, dw = hs.delta(b), t.delta(b)
        phis, units = dv.apply_rows(phis), dw.apply_rows(units)
    out = swap(phis, len(units))
    for row, image in zip(out, maps.apply_rows(units)):
        _subtract(row, 1, image, t.field.modulus)
    return out


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
    anywhere; nonzero tuples witness the failure of left jets.  The
    residual is linear in p: the sum of p_u times _residual_rows' row u.
    """
    require_central(P, Q)
    t = TensorOneSided(P)
    _check_left_linear(t, Q, f)
    hs = HomSpace(P, Q)
    field = t.field
    p = field.asarray(p)
    if p.shape != (P.dim,):
        raise DimensionMismatch(f"p must be a vector of length {P.dim}, got shape {p.shape}")
    rows = _residual_rows(hs, t, b_tuple, f, _units(t))
    out: dict = {}
    for u, x in _sparse_rows(p.reshape(1, -1))[0].items():
        _subtract(out, -x, rows[u], field.modulus)
    return _dense([out], (1, Q.dim), field.dtype)[0]


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
    the RREF of the free lifts (TensorOneSided.left_linear_maps), stacked
    into one operator; each tuple's word runs _residual_rows, the body of
    factorization_residual, once for every map and every basis p.
    """
    require_central(P, Q)
    _check_order(k)
    t = TensorOneSided(P)
    field, d = t.field, Q.dim
    flin, hs = t.left_linear_maps(Q), HomSpace(P, Q)
    # RREF rows are already in field form: wrapped, not demoted.  vec is
    # column-major, so row f * dimQ + q of the stack is row q of map f
    stack = flin.basis.a.reshape(flin.dim, t.dim, d).transpose(0, 2, 1)
    maps = Matrix._wrap(field, stack.reshape(flin.dim * d, t.dim))
    units = _units(t)
    for b_indices in itertools.product(range(P.algebra.dim), repeat=k + 1):
        for p_index, row in enumerate(_residual_rows(hs, t, b_indices, maps, units)):
            if row:
                lo = min(row) // d * d  # the first map with a nonzero residual
                return ResidualWitness(
                    b_indices=tuple(b_indices),
                    p_index=p_index,
                    f=Matrix._wrap(field, maps.a[lo : lo + d].copy()),
                    residual=_dense([row], (1, maps.rows), field.dtype)[0, lo : lo + d].copy(),
                )
    return None
