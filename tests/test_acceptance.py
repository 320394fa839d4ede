"""Acceptance criteria, one test per criterion.

Every quoted dimension marked as derived is recomputed from its defining
linear conditions by the standalone naive eliminator (oracle_systems)
and must agree exactly with the library.  All checks are exact; there
are no tolerances anywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import json

from ncjets.catalog import COMMUTATIVE_NAMES, builtin, names
from ncjets.cli import run
from ncjets.diffop import (
    diff_bar1,
    diff_commutative,
    diff_left,
    diff_right,
    diff_two_sided,
    filtration_by_tag,
)
from ncjets.jets import (
    VERDICT_ISO,
    factorize,
    jet_module,
    representability_bar1,
    representability_check,
    residual_witness_search,
)
from ncjets.linalg import QQ, Matrix, kernel, rref, vector
from ncjets.modules import HomSpace

from oracle_systems import (
    bar1_dim,
    comm_diff_stage_dims,
    derivations_dim,
    jet_dim,
    left_center_stage0_dim,
    right_stage0_dim,
)

ALL_TAGS = ("comm-iterated", "comm-inductive", "left-center", "left-sum", "right", "two-sided")


def raw_mul(algebra):
    n = algebra.dim
    return [[[algebra.mul[i, j, k] for k in range(n)] for j in range(n)] for i in range(n)]


def modules_for(name, kind):
    e = builtin(name)
    return e.module(kind), e.module(kind)


def test_criterion_1_commutative_representability():
    for name in COMMUTATIVE_NAMES:
        for kind in ("self", "free2"):
            P, Q = modules_for(name, kind)
            filt = diff_commutative(P, Q, 2)
            for r in range(3):
                report = representability_check(P, Q, r, "comm-inductive")
                assert report.verdict == VERDICT_ISO, (name, kind, r, report.verdict)
                assert report.hom_side_dim == filt.stages[r].dim
                assert report.image_dim == report.diff_side_dim
    print("ACCEPTANCE 1 PASS: hom_A(J^r(P),Q) = Diff_r(P,Q) bijectively, "
          "all commutative algebras, self and free2, r <= 2")


def test_criterion_2_definition_collapse():
    for name in COMMUTATIVE_NAMES:
        P, Q = modules_for(name, "self")
        filts = {tag: filtration_by_tag(P, Q, 3, tag) for tag in ALL_TAGS}
        reference = filts["comm-iterated"].stages
        for tag, filt in filts.items():
            for k in range(4):
                assert filt.stages[k] == reference[k], (name, tag, k)
    print("ACCEPTANCE 2 PASS: all six definitions agree as subspaces, "
          "r <= 3, all commutative algebras")


def test_criterion_3_dual_numbers_ladder():
    P, Q = modules_for("dual_numbers", "self")
    mul = raw_mul(P.algebra)
    filt = diff_commutative(P, Q, 2)
    assert filt.dims == [2, 3, 4]
    assert filt.dims == comm_diff_stage_dims(mul, 2)
    jets = {k: jet_module(P, k) for k in (1, 2)}
    assert jets[1].dim == 3 == jet_dim(mul, 1)
    assert jets[2].dim == 4 == jet_dim(mul, 2)
    hs = HomSpace(P, Q)
    for k in range(3):
        jet = jet_module(P, k)
        for v in filt.stages[k].basis_vectors():
            delta = hs.unvec(v)
            fact = factorize(P, Q, delta, k, jet=jet)
            assert fact.unique
            assert fact.compose_with_jet_map() == delta
    print("ACCEPTANCE 3 PASS: dual numbers ladder (2,3,4), dim J^1=3, dim J^2=4, "
          "factorization round-trips on every stage basis (naive oracle agrees)")


def test_criterion_4_noncommutative_zero_order_collapse():
    P, Q = modules_for("m2", "self")
    mul = raw_mul(P.algebra)
    assert diff_left(P, Q, 0, mode="center").stages[0].dim == 16
    assert left_center_stage0_dim(mul) == 16
    assert diff_right(P, Q, 0).stages[0].dim == 16
    assert right_stage0_dim(mul) == 16
    print("ACCEPTANCE 4 PASS: M2 zero-order left-center and right stages "
          "fill all 16 dimensions (naive oracle agrees)")


def test_criterion_5_residual_witnesses():
    for name in ("m2", "t2"):
        P, Q = modules_for(name, "self")
        witness = residual_witness_search(P, Q, 1)
        assert witness is not None, name
        assert any(x != 0 for x in witness.residual)
    for name in COMMUTATIVE_NAMES:
        P, Q = modules_for(name, "self")
        for k in (0, 1, 2):
            assert residual_witness_search(P, Q, k) is None, (name, k)
    for name in names():
        P, Q = modules_for(name, "self")
        assert residual_witness_search(P, Q, 0) is None, name
    print("ACCEPTANCE 5 PASS: factorization identity fails at order 1 over M2 and T2, "
          "holds exhaustively over commutative algebras (k <= 2) and at order 0 everywhere")


def test_criterion_6_left_jets_do_not_represent():
    P, Q = modules_for("m2", "self")
    report = representability_check(P, Q, 1, "left-center")
    assert report.verdict != VERDICT_ISO
    assert report.witness is not None
    assert report.witness_kind
    print(f"ACCEPTANCE 6 PASS: left jets of M2 fail to represent "
          f"(verdict {report.verdict}, hom side {report.hom_side_dim}, "
          f"stage {report.diff_side_dim}, witness recorded)")


def test_criterion_7_two_sided_representability():
    for name in names():
        P, Q = modules_for(name, "self")
        report = representability_bar1(P, Q)
        assert report.verdict == VERDICT_ISO, (name, report.verdict)
        assert report.hom_side_dim == report.diff_side_dim
        assert diff_bar1(P, Q).dim == bar1_dim(raw_mul(P.algebra)), name
    print("ACCEPTANCE 7 PASS: the two-sided first jet represents the restricted "
          "first-order class on every catalog algebra")


def test_criterion_8_derivations():
    pinned = {"m2": 3, "dual_numbers": 1, "trivial": 0}
    for name in names():
        algebra = builtin(name).algebra
        expected = derivations_dim(raw_mul(algebra))
        assert algebra.derivations.dim == expected, name
        if name in pinned:
            assert expected == pinned[name], name
        P, Q = modules_for(name, "self")
        left_sum = diff_left(P, Q, 2, mode="sum")
        two_sided = diff_two_sided(P, Q, 2)
        hs = HomSpace(P, Q)
        ders = algebra.derivations.basis_vectors()
        for d in ders:
            assert left_sum.stages[1].contains(d)
            assert two_sided.stages[1].contains(d)
        for d1 in ders:
            for d2 in ders:
                comp = hs.vec(hs.unvec(d1) @ hs.unvec(d2))
                assert left_sum.stages[2].contains(comp)
                assert two_sided.stages[2].contains(comp)
    print("ACCEPTANCE 8 PASS: derivation dimensions match the naive oracle on every "
          "algebra (m2:3, dual:1, trivial:0 pinned); derivations sit at order 1 and "
          "their compositions at order 2, left-sum and two-sided")


def test_criterion_9_structural_invariants(capsys, tmp_path):
    # deviation operators commute across the bar
    for name in names():
        P, Q = modules_for(name, "self")
        hs = HomSpace(P, Q)
        for da in hs.deltas:
            for db in hs.delta_bars:
                assert da.dense @ db.dense == db.dense @ da.dense
    # filtration monotonicity
    for name in names():
        P, Q = modules_for(name, "self")
        assert diff_left(P, Q, 2, mode="center").is_monotone()
        assert diff_left(P, Q, 2, mode="sum").is_monotone()
        assert diff_right(P, Q, 2).is_monotone()
        assert diff_two_sided(P, Q, 2).is_monotone()
        if P.algebra.is_commutative:
            assert diff_commutative(P, Q, 3).is_monotone()
    # rref canonicality
    samples = [
        Matrix(QQ, [[2, 4, 6], [1, 2, 3], [0, 1, 1]]),
        Matrix(QQ, [[0, 0], [0, 0]]),
        Matrix(QQ, [[1, 2], [3, 4]]),
    ]
    for m in samples:
        res = rref(m)
        assert rref(res.matrix).matrix == res.matrix
    # quotient section identities
    for rows in ([[1, 2, 0, 1]], [[1, 0, 0, 0], [0, 0, 1, 5]]):
        from ncjets.linalg import Subspace

        sub = Subspace.from_spanning(QQ, 4, [vector(QQ, r) for r in rows])
        q = sub.quotient()
        projection = q.project([{c: 1} for c in range(4)])
        section = Matrix(QQ, Matrix.identity(QQ, 4).a[:, list(q.free)])
        assert projection @ section == Matrix.identity(QQ, q.dim)
        assert kernel(projection) == sub
    # CLI byte determinism
    argv = ["represent", "-a", "t2", "-p", "self", "-q", "self",
            "--order", "1", "--def", "bar1", "--json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second and first
    json.loads(first)
    print("ACCEPTANCE 9 PASS: deviation commutation, filtration monotonicity, "
          "rref canonicality, quotient identities, CLI byte determinism")
