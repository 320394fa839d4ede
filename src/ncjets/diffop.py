"""Differential-operator filtrations of Hom_K(P, Q).

Six constructions of "order r differential operator" live here.  Over a
commutative algebra the two classical ones (iterated deviations, and the
inductive kernel tower) agree and every noncommutative one collapses to
them; over a noncommutative algebra the left, right, and two-sided
filtrations genuinely differ, and compare_definitions measures exactly
how, with explicit witnesses for strict containments.

All stage subspaces live in the flat coordinates of the Hom space, and
every function rejects non-central bimodules.  Each filtration refuses an
order outside 0..max_order; its max_order= argument (MAX_ORDER by default)
raises the cap for library callers, and the CLI keeps the default.

Each public entry point checks its inputs, builds HomSpace(P, Q) once and
runs one body per definition on it (the table _BODIES), so the action
families and their factors' columns are built once per call.  A body is a
stage zero and one step, run by one loop (_stages) that stops at the first
stage its step maps to itself: each filtration is an ascending chain in a
finite-dimensional space, and a step reads only the previous stage.  The
call's step record (_Steps) keeps each joint kernel, zero-order span and
step by its side and input stage, so compare_definitions runs every
applicable body on one Hom space with no step taken twice.  diff_bar1 is
one preimage of the joint delta_bar kernel, with no two-sided stage built:
that it lies in the two-sided first stage is a proof in its docstring.
Nothing is kept once the call returns.

Every deviation family obeys one product rule.  left_a and
bullet_left_b act on different legs and commute, so
    delta_ab = left_a delta_b + bullet_left_b delta_a,
and delta_bar_ab = right_b delta_bar_a + bullet_right_a delta_bar_b.  So
the a with delta_a w in S form a unital subalgebra when S is invariant
under the left pair (the zero S always is), and a subspace is invariant
under an action family once it is invariant under its members at the
generators (Algebra.generators).  The bodies act by the generators
wherever that gives the same subspace, with the proof beside each call:
module spans, left-center closures, and the preimages whose target is
left-pair invariant (comm-inductive stages, left-center lifts, diff_bar1's
pull-back).  The sum-form preimages and the comm-iterated words keep the
whole basis.  The zero-order kernels, the maps that commute with one side's
action, are HomSpace.linear_maps: read off the free lift when the source is
free (BimoduleRep.regular and free), with no elimination over the Hom
space, and by modules.generator_preimage otherwise.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial

from .linalg import Matrix, Subspace, closure_under, kernel_of_rows, preimage, span_of_images
from .modules import BimoduleRep, HomSpace, generator_preimage, require_central

# the default cap on an order: the witness search walks n^(k+1) tuples
MAX_ORDER = 4


class DefinitionDomainError(ValueError):
    """The requested definition does not apply to this algebra or order."""


def _check_order(r: int, max_order: int = MAX_ORDER, error: type = DefinitionDomainError):
    """Refuse an order that is not an integer in 0..max_order, in one message naming the cap.

    The filtrations raise DefinitionDomainError at the cap their max_order=
    argument sets (the CLI has no such flag), the jets OrderViolationError.
    """
    if isinstance(r, bool) or not isinstance(r, numbers.Integral) or not 0 <= r <= max_order:
        raise error(f"order must be between 0 and {max_order}, got {r!r}")


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


def _stages(first, step, r: int, stage=None) -> tuple:
    """Stages 0..r of the chain first, step(first), ..., stage(state) read off each state.

    step reads only the state it is given, whose RREF echelon is unique, so
    once it maps a state to an equal one every later state is that one.
    """
    states = [first]
    while len(states) <= r and (nxt := step(states[-1])) != states[-1]:
        states.append(nxt)
    stages = [stage(s) for s in states] if stage else states
    return tuple(stages + stages[-1:] * (r + 1 - len(stages)))


class _Steps:
    """The Hom space of one public call, with the steps its bodies have taken on it.

    A step reads only its side and its input stage, so an input equal to an
    earlier one (Subspace ==) reuses its result: left-center, left-sum and
    two-sided share one joint delta kernel, and two-sided reuses the sum
    steps of left-sum and right while its stages equal theirs.
    """

    def __init__(self, hs: HomSpace):
        self.hs = hs
        self._taken: list = []

    def _recall(self, key: tuple, prev, compute) -> Subspace:
        for k, seen, out in self._taken:
            if k == key and seen == prev:
                return out
        self._taken.append((key, prev, compute()))
        return self._taken[-1][2]

    def _family(self, side: str) -> tuple:
        """(action family, deviation family) of the left or the right side."""
        hs = self.hs
        return (hs.left, hs.deltas) if side == "left" else (hs.right, hs.delta_bars)

    def _span(self, side: str, seed: Subspace) -> Subspace:
        """span{b w : w in seed}, b over the side's actions.

        The unit acts as the identity and acts_b acts_c is acts_bc or acts_cb,
        so this is seed's closure under the actions, and so under their
        generator members.
        """
        return closure_under(self.hs.algebra.at_generators(self._family(side)[0]), seed)

    def pullback(self, side: str, prev: Subspace | None = None) -> Subspace:
        """{w : dev w in prev for every dev of the side}; None is the zero prev, a joint kernel.

        The joint kernel is the side's linear maps (HomSpace.linear_maps).  A
        nonzero prev goes by generator_preimage, so it must be invariant
        under the side's pair (the caller proves it).
        """
        if prev is None:
            return self._recall(("pull", side), None, lambda: self.hs.linear_maps(side))
        devs = self._family(side)[1]
        return self._recall(("pull", side), prev, lambda: generator_preimage(self.hs, devs, prev))

    def zero_order(self, side: str) -> Subspace:
        """span{b w : dev w = 0 for every dev}."""
        return self._recall(("zero", side), None, lambda: self._span(side, self.pullback(side)))

    def sum_step(self, side: str, prev: Subspace) -> Subspace:
        """span{b w : dev w in prev for every dev} + prev, the sum-form stage after prev.

        prev need not be invariant under the side's pair, so the preimage
        runs over every dev.
        """
        devs = self._family(side)[1]
        return self._recall(
            ("sum", side), prev, lambda: self._span(side, preimage(devs, prev)) + prev
        )


# ---------------------------------------------------------------------------
# one body per definition, a stage zero and a step, on the Hom space of one call


def _comm_inductive(steps: _Steps, r: int) -> tuple[Subspace, ...]:
    # A is commutative, so each delta_a commutes with left_b and bullet_left_b:
    # by induction every stage is left-pair invariant, and generators suffice
    return _stages(steps.pullback("left"), partial(steps.pullback, "left"), r)


def _comm_iterated(steps: _Steps, r: int) -> tuple[Subspace, ...]:
    # the (k+1)-words w . delta_i have row space R_k . delta_i, so
    # R_{k+1} = span{R_k delta_i} and stage[k] = ker R_k; R_0 is the
    # span of the rows of every delta_i, the image of the full space
    field, n = steps.hs.field, steps.hs.dim
    words = partial(span_of_images, [d.T for d in steps.hs.deltas])
    first = words(Subspace.full(field, n))
    return _stages(first, words, r, lambda w: kernel_of_rows(field, n, w.rows))


def _left_center(steps: _Steps, r: int) -> tuple[Subspace, ...]:
    # a left-pair closure is one under the generator members of both families
    at = steps.hs.algebra.at_generators
    left_pair = at(steps.hs.left) + at(steps.hs.bullet_left)
    # each stage is a left-pair closure, so its delta preimage needs only generators
    return _stages(
        closure_under(left_pair, steps.pullback("left")),
        lambda prev: closure_under(left_pair, steps.pullback("left", prev)),
        r,
    )


def _sum_form(side: str, steps: _Steps, r: int) -> tuple[Subspace, ...]:
    return _stages(steps.zero_order(side), partial(steps.sum_step, side), r)


def _two_sided(steps: _Steps, r: int) -> tuple[Subspace, ...]:
    def step(prev: Subspace) -> Subspace:
        return steps.sum_step("left", prev) & steps.sum_step("right", prev)

    return _stages(steps.zero_order("left") + steps.zero_order("right"), step, r)


_BODIES = {
    "comm-iterated": _comm_iterated,
    "comm-inductive": _comm_inductive,
    "left-center": _left_center,
    "left-sum": partial(_sum_form, "left"),
    "right": partial(_sum_form, "right"),
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


def _filtration(steps: _Steps, tag: str, r: int) -> Filtration:
    return Filtration(steps.hs, tag, _BODIES[tag](steps, r))


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
    return _filtration(_Steps(HomSpace(P, Q)), f"comm-{mode}", r)


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
    return _filtration(_Steps(HomSpace(P, Q)), f"left-{mode}", r)


def diff_right(
    P: BimoduleRep, Q: BimoduleRep, r: int, max_order: int = MAX_ORDER
) -> Filtration:
    """Mirror of the left sum filtration: delta_bar kernels moved by phi b."""
    _check(P, Q, r, max_order)
    return _filtration(_Steps(HomSpace(P, Q)), "right", r)


def diff_two_sided(
    P: BimoduleRep, Q: BimoduleRep, r: int, max_order: int = MAX_ORDER
) -> Filtration:
    """Operators expressible in both the left and the right sum form.

    The zero stage stores the span of (left zero order) union (right zero
    order); the union itself is not a subspace, so membership of single
    elements is reported separately by two_sided_zero_order_membership.
    """
    _check(P, Q, r, max_order)
    return _filtration(_Steps(HomSpace(P, Q)), "two-sided", r)


def two_sided_zero_order_membership(P: BimoduleRep, Q: BimoduleRep, phi: Matrix) -> dict:
    """Where a single map sits at order zero: left form, right form, or only the span."""
    require_central(P, Q)
    steps = _Steps(HomSpace(P, Q))
    v = steps.hs.vec(phi)
    left0, right0 = steps.zero_order("left"), steps.zero_order("right")
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
    kernel K, a preimage, so no composed operator is formed.  Each such
    phi is already in the two-sided first stage.  It is in the left sum
    form, as K lies in right0 and so in stage zero.  Each delta_b commutes
    with each delta_bar_c on Hom, so delta_b delta_bar_c phi =
    delta_bar_c delta_b phi = 0: every delta_bar_c phi lies in the joint
    delta kernel, inside left0 and so in stage zero, and phi is in the
    right sum form too.  So the preimage is the class, with no stage built.
    """
    require_central(P, Q)
    steps = _Steps(HomSpace(P, Q))
    # each delta_bar commutes with the left pair, so its joint kernel is left-pair invariant
    return steps.pullback("left", steps.pullback("right"))


# ---------------------------------------------------------------------------
# dispatch and comparison


def filtration_by_tag(
    P: BimoduleRep, Q: BimoduleRep, r: int, tag: str, max_order: int = MAX_ORDER
) -> Filtration:
    if tag not in _BODIES:
        raise DefinitionDomainError(f"unknown definition tag {tag!r}")
    _check(P, Q, r, max_order, commutative=tag.startswith("comm-"))
    return _filtration(_Steps(HomSpace(P, Q)), tag, r)


def stage_by_tag(
    P: BimoduleRep, Q: BimoduleRep, k: int, tag: str, max_order: int = MAX_ORDER
) -> Subspace:
    """Stage-k subspace of the tagged filtration (bar1 is diff_bar1, not a tag here)."""
    return filtration_by_tag(P, Q, k, tag, max_order=max_order).stages[k]


def check_bar1_order(r):
    """bar1 is a first-order class: any order but the integer 1 is DefinitionDomainError."""
    if isinstance(r, bool) or not isinstance(r, numbers.Integral) or r != 1:
        raise DefinitionDomainError(f"bar1 is a first-order class; use order 1, not {r!r}")


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
    steps = _Steps(HomSpace(P, Q))
    filts = {tag: _filtration(steps, tag, r) for tag in tags}
    dims = {tag: filts[tag].dims for tag in tags}
    relations = {}
    witnesses = {}
    for i, t1 in enumerate(tags):
        for t2 in tags[i + 1 :]:
            rels = []
            for k in range(r + 1):
                u, v = filts[t1].stages[k], filts[t2].stages[k]
                u_out, v_out = (None, None) if u == v else (u.outside(v), v.outside(u))
                rel = _RELATIONS[u_out is None, v_out is None]
                rels.append(rel)
                if rel != "equal":
                    witnesses[f"{t1} vs {t2} @ {k}"] = v_out if rel == "subset" else u_out
            relations[f"{t1} vs {t2}"] = rels
    collapse = all(rel == "equal" for rels in relations.values() for rel in rels)
    return {
        "order": r,
        "commutative": commutative,
        "tags": tags,
        "dims": dims,
        "relations": relations,
        "witnesses": witnesses,
        "commutative_collapse": collapse if commutative else None,
    }
