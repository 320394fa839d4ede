"""Differential-operator filtrations of Hom_K(P, Q).

Six constructions of "order r differential operator" live here.  Over a
commutative algebra the two classical ones (iterated deviations, and the
inductive kernel tower) agree and every noncommutative one collapses to
them; over a noncommutative algebra the left, right, and two-sided
filtrations genuinely differ, and compare_definitions measures exactly
how, with explicit witnesses for strict containments.

All stage subspaces live in the flat coordinates of the Hom space, and
every function rejects non-central bimodules.

Each public entry point checks its inputs, builds HomSpace(P, Q) once and
runs one body per definition on it (the table _BODIES), so the action
families and their factors' columns are built once per call:
compare_definitions runs every applicable body on one Hom space, and
diff_bar1 reuses the joint delta_bar kernel of its two-sided zero stage.
Nothing is kept once the call returns.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

from .linalg import Matrix, Subspace, closure_under, joint_kernel, kernel_of_rows, preimage
from .linalg import span_of_images
from .modules import BimoduleRep, HomSpace, require_central

MAX_ORDER = 4


class DefinitionDomainError(ValueError):
    """The requested definition does not apply to this algebra or order."""


def _check_order(r: int, max_order: int):
    if isinstance(r, bool) or not isinstance(r, numbers.Integral):
        raise DefinitionDomainError(f"order must be an integer, got {r!r}")
    if r < 0:
        raise DefinitionDomainError("order must be >= 0")
    if r > max_order:
        raise DefinitionDomainError(
            f"order {r} exceeds the configured cap {max_order}; pass max_order= to raise it"
        )


@dataclass(frozen=True)
class Filtration:
    """Increasing chain of operator subspaces, indexed 0..r."""

    hom_space: HomSpace
    tag: str
    stages: tuple[Subspace, ...]

    def stage(self, k: int) -> Subspace:
        return self.stages[k]

    @property
    def dims(self) -> list[int]:
        return [s.dim for s in self.stages]

    def is_monotone(self) -> bool:
        return all(a <= b for a, b in zip(self.stages, self.stages[1:]))


def _zero_order(acts: Sequence, devs: Sequence) -> Subspace:
    """span{b w : dev w = 0 for every dev}, b over acts: closed, as acts compose to themselves."""
    return span_of_images(acts, joint_kernel(devs))


def _zero_orders(hs: HomSpace) -> tuple[Subspace, Subspace]:
    """The left and the right zero-order spans."""
    return _zero_order(hs.left, hs.deltas), _zero_order(hs.right, hs.delta_bars)


def _sum_step(acts: Sequence, devs: Sequence, prev: Subspace) -> Subspace:
    """span{b w : dev w in prev for every dev} + prev, the sum-form stage after prev."""
    return span_of_images(acts, preimage(devs, prev)) + prev


def _sum_form(acts: Sequence, devs: Sequence, r: int) -> tuple[Subspace, ...]:
    stages = [_zero_order(acts, devs)]
    for _ in range(r):
        stages.append(_sum_step(acts, devs, stages[-1]))
    return tuple(stages)


# ---------------------------------------------------------------------------
# one body per definition, each on a Hom space its caller built


def _comm_inductive(hs: HomSpace, r: int) -> tuple[Subspace, ...]:
    deltas = hs.deltas
    stages = [joint_kernel(deltas)]
    for _ in range(r):
        stages.append(preimage(deltas, stages[-1]))
    return tuple(stages)


def _comm_iterated(hs: HomSpace, r: int) -> tuple[Subspace, ...]:
    # the (k+1)-words w . delta_i have row space R_k . delta_i, so
    # R_{k+1} = span{R_k delta_i} and stage[k] = ker R_k; R_0 is the
    # span of the rows of every delta_i, the image of the full space
    transposed = [d.T for d in hs.deltas]
    words = span_of_images(transposed, Subspace.full(hs.field, hs.dim))
    stages = [kernel_of_rows(hs.field, hs.dim, words.rows)]
    for _ in range(r):
        words = span_of_images(transposed, words)
        stages.append(kernel_of_rows(hs.field, hs.dim, words.rows))
    return tuple(stages)


def _left_center(hs: HomSpace, r: int) -> tuple[Subspace, ...]:
    deltas = hs.deltas
    left_pair = list(hs.left) + list(hs.bullet_left)
    stages = [closure_under(left_pair, joint_kernel(deltas))]
    for _ in range(r):
        lift = preimage(deltas, stages[-1])
        stages.append(closure_under(left_pair, lift))
    return tuple(stages)


def _left_sum(hs: HomSpace, r: int) -> tuple[Subspace, ...]:
    return _sum_form(hs.left, hs.deltas, r)


def _right(hs: HomSpace, r: int) -> tuple[Subspace, ...]:
    return _sum_form(hs.right, hs.delta_bars, r)


def _two_sided(hs: HomSpace, r: int) -> tuple[Subspace, ...]:
    return _two_sided_over(hs, r, joint_kernel(hs.delta_bars))


def _two_sided_over(hs: HomSpace, r: int, bar_kernel: Subspace) -> tuple[Subspace, ...]:
    """The two-sided stages, given the joint delta_bar kernel of hs."""
    stages = [_zero_order(hs.left, hs.deltas) + span_of_images(hs.right, bar_kernel)]
    for _ in range(r):
        left_form = _sum_step(hs.left, hs.deltas, stages[-1])
        right_form = _sum_step(hs.right, hs.delta_bars, stages[-1])
        stages.append(left_form & right_form)
    return tuple(stages)


_BODIES = {
    "comm-iterated": _comm_iterated,
    "comm-inductive": _comm_inductive,
    "left-center": _left_center,
    "left-sum": _left_sum,
    "right": _right,
    "two-sided": _two_sided,
}

TAGS = (*_BODIES, "bar1")


def _check(P: BimoduleRep, Q: BimoduleRep, r: int, max_order: int, commutative: bool = False):
    require_central(P, Q)
    _check_order(r, max_order)
    if commutative and not P.algebra.is_commutative:
        raise DefinitionDomainError(
            f"commutative filtration over noncommutative algebra {P.algebra.name!r}"
        )


def _filtration(hs: HomSpace, tag: str, r: int) -> Filtration:
    return Filtration(hs, tag, _BODIES[tag](hs, r))


# ---------------------------------------------------------------------------
# the public definitions


def diff_commutative(
    P: BimoduleRep, Q: BimoduleRep, r: int, mode: str = "inductive", max_order: int = MAX_ORDER
) -> Filtration:
    """Classical filtration over a commutative algebra.

    iterated:  stage[k] = joint kernel of all (k+1)-fold products of the
               basis deviations delta_a, computed as the kernel of their
               common row space.
    inductive: stage[0] = joint kernel of the delta_a; stage[k] pulls
               stage[k-1] back through every delta_a.
    """
    _check(P, Q, r, max_order, commutative=True)
    if mode not in ("inductive", "iterated"):
        raise DefinitionDomainError(f"unknown commutative mode {mode!r}")
    return _filtration(HomSpace(P, Q), f"comm-{mode}", r)


def diff_left(
    P: BimoduleRep, Q: BimoduleRep, r: int, mode: str = "center", max_order: int = MAX_ORDER
) -> Filtration:
    """Left filtrations.

    center: stage[k] is the submodule (under both a phi and phi . a)
            generated by the lift {phi : delta_a phi in stage[k-1]}; the
            base stage is generated by the joint delta kernel.
    sum:    stage[k] = span{b w : w with delta_a w in stage[k-1]} + stage[k-1],
            where b runs over the left action.
    """
    _check(P, Q, r, max_order)
    if mode not in ("center", "sum"):
        raise DefinitionDomainError(f"unknown left mode {mode!r}")
    return _filtration(HomSpace(P, Q), f"left-{mode}", r)


def diff_right(
    P: BimoduleRep, Q: BimoduleRep, r: int, max_order: int = MAX_ORDER
) -> Filtration:
    """Mirror of the left sum filtration: delta_bar kernels moved by phi b."""
    _check(P, Q, r, max_order)
    return _filtration(HomSpace(P, Q), "right", r)


def diff_two_sided(
    P: BimoduleRep, Q: BimoduleRep, r: int, max_order: int = MAX_ORDER
) -> Filtration:
    """Operators expressible in both the left and the right sum form.

    The zero stage stores the span of (left zero order) union (right zero
    order); the union itself is not a subspace, so membership of single
    elements is reported separately by two_sided_zero_order_membership.
    """
    _check(P, Q, r, max_order)
    return _filtration(HomSpace(P, Q), "two-sided", r)


def two_sided_zero_order_membership(P: BimoduleRep, Q: BimoduleRep, phi: Matrix) -> dict:
    """Where a single map sits at order zero: left form, right form, or only the span."""
    require_central(P, Q)
    hs = HomSpace(P, Q)
    v = hs.vec(phi)
    left0, right0 = _zero_orders(hs)
    in_left = left0.contains(v)
    in_right = right0.contains(v)
    return {
        "left_zero_order": in_left,
        "right_zero_order": in_right,
        "in_span": in_left or in_right or (left0 + right0).contains(v),
    }


def diff_bar1(P: BimoduleRep, Q: BimoduleRep) -> Subspace:
    """Two-sided first-order operators killed by every delta_bar_c . delta_b.

    Those are the phi whose every delta_b phi lies in the joint delta_bar
    kernel, a preimage, so no composed operator is formed; that kernel is
    the one the two-sided zero stage spans from.
    """
    require_central(P, Q)
    hs = HomSpace(P, Q)
    bar_kernel = joint_kernel(hs.delta_bars)
    t1 = _two_sided_over(hs, 1, bar_kernel)[1]
    return t1 & preimage(hs.deltas, bar_kernel)


# ---------------------------------------------------------------------------
# dispatch and comparison


def filtration_by_tag(
    P: BimoduleRep, Q: BimoduleRep, r: int, tag: str, max_order: int = MAX_ORDER
) -> Filtration:
    if tag not in _BODIES:
        raise DefinitionDomainError(f"unknown definition tag {tag!r}")
    _check(P, Q, r, max_order, commutative=tag.startswith("comm-"))
    return _filtration(HomSpace(P, Q), tag, r)


def stage_by_tag(
    P: BimoduleRep, Q: BimoduleRep, k: int, tag: str, max_order: int = MAX_ORDER
) -> Subspace:
    """Stage-k subspace of the tagged filtration; bar1 is its own single stage."""
    if tag == "bar1":
        _check_order(k, max_order)
        if k != 1:
            raise DefinitionDomainError("bar1 is a first-order class; use order 1")
        return diff_bar1(P, Q)
    return filtration_by_tag(P, Q, k, tag, max_order=max_order).stages[k]


# keyed by (u <= v, v <= u)
_RELATIONS = {
    (True, True): "equal",
    (True, False): "subset",
    (False, True): "superset",
    (False, False): "incomparable",
}


def compare_definitions(P: BimoduleRep, Q: BimoduleRep, r: int, max_order: int = MAX_ORDER) -> dict:
    """All applicable filtrations to stage r, with pairwise relations.

    Every strict containment (and every incomparability) carries a
    witness vector from the side that sticks out.
    """
    _check(P, Q, r, max_order)
    commutative = P.algebra.is_commutative
    tags = list(_BODIES) if commutative else ["left-center", "left-sum", "right", "two-sided"]
    hs = HomSpace(P, Q)
    filts = {tag: _filtration(hs, tag, r) for tag in tags}
    dims = {tag: filts[tag].dims for tag in tags}
    relations = {}
    witnesses = {}
    for i, t1 in enumerate(tags):
        for t2 in tags[i + 1 :]:
            rels = []
            for k in range(r + 1):
                u, v = filts[t1].stages[k], filts[t2].stages[k]
                u_out, v_out = u.outside(v), v.outside(u)
                rel = _RELATIONS[u_out is None, v_out is None]
                rels.append(rel)
                if rel != "equal":
                    witnesses[f"{t1} vs {t2} @ {k}"] = v_out if rel == "subset" else u_out
            relations[f"{t1} vs {t2}"] = rels
    collapse = None
    if commutative:
        collapse = all(
            rel == "equal" for rels in relations.values() for rel in rels
        )
    return {
        "order": r,
        "commutative": commutative,
        "tags": tags,
        "dims": dims,
        "relations": relations,
        "witnesses": witnesses,
        "commutative_collapse": collapse,
    }
