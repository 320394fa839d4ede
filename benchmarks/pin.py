#!/usr/bin/env python3
"""Pin the benchmark's expected answers, each only after an independent check.

    python3 benchmarks/pin.py            # writes benchmarks/expected.json

Runs every query of every workload once at seed 0 and records its answer
(basis-invariant facts) and report digest.  An answer is pinned only if
at least one independent check agrees with it:

- ``oracle``: the naive dense eliminator in tests/oracle_systems.py
  (center, derivations, commutative stage dims, one-sided jet dims on
  A over itself);
- ``paper``: facts the paper states - every definition collapses over a
  commutative algebra, bar1 representability is an isomorphism
  everywhere, left-center on m2 is injective-not-surjective, a residual
  witness exists exactly over noncommutative algebras, M_n has all of
  Hom at order zero, and a two-sided jet's dim is the jet dim of its
  (isomorphic) bar1 representability report;
- ``gfp``: the same query over GF(2^31-1) gives the same answer as over Q.

The prime-field cases and the GF(2^31-1) probes are pinned to the Q
answers of the same calls.  Exits 1 without writing
if any answer lacks a passing check.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads
from workloads import P31

sys.path.insert(0, str(run.ROOT / "tests"))
import oracle_systems as oracle  # noqa: E402

HERE = Path(__file__).resolve().parent


def _answer(case):
    answer, blob = case.summarize(case.call())
    return json.loads(json.dumps(answer)), hashlib.sha256(blob.encode()).hexdigest()


def _try_answer(case):
    try:
        return _answer(case)[0]
    except AssertionError:
        return None  # the known GF(p) defect in Subspace.contains_all


@contextlib.contextmanager
def _cwd(path):
    home = Path.cwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(home)


def _oracle_mul(algebra):
    return [[[int(x) for x in algebra.mul[i, j]] for j in range(algebra.dim)] for i in range(algebra.dim)]


def _opts(argv) -> dict:
    """Options of a CLI argv (after the subcommand) as a dict; flags map to True."""
    opts, i = {}, 1
    while i < len(argv):
        if argv[i] == "--two-sided":
            opts[argv[i]] = True
            i += 1
        else:
            opts[argv[i]] = argv[i + 1]
            i += 2
    return opts


def _naive_commutative(mul):
    n = len(mul)
    return all(mul[i][j] == mul[j][i] for i in range(n) for j in range(n))


# ---------------------------------------------------------------------------
# catalog-cli


def pin_catalog(nc) -> dict:
    wl = workloads.WORKLOADS["catalog-cli"]
    qdir = Path(tempfile.mkdtemp(dir=HERE, prefix=".pin-q-"))
    pdir = Path(tempfile.mkdtemp(dir=HERE, prefix=".pin-p-"))
    try:
        cases, _ = wl.build(nc, 0, qdir)
        gfp = nc.linalg.GF(P31)
        algebras = {}
        for name in nc.catalog.names():
            a = nc.catalog.builtin(name).algebra
            algebras[name] = a
            ap = nc.gen.change_basis(a, list(range(a.dim)), [1] * a.dim, gfp)
            doc = nc.documents.algebra_to_doc(ap)
            (pdir / f"{name}.json").write_text(nc.documents.canonical_json(doc))
        with _cwd(qdir):
            answers = {c.id: _answer(c) for c in cases}
        with _cwd(pdir):
            gfp_answers = {}
            for c in cases:
                argv = c.id.split()
                gfp_case = workloads.Case(c.id, workloads._cli_call(nc, argv), c.summarize)
                gfp_answers[c.id] = _try_answer(gfp_case)
    finally:
        shutil.rmtree(qdir)
        shutil.rmtree(pdir)

    # by (algebra, module): the diff dims of every tag, for the collapse check
    diff_dims = {}
    for cid, (ans, _) in answers.items():
        opts = _opts(cid.split())
        if cid.startswith("diff") and opts["--def"] != "bar1":
            diff_dims.setdefault((opts["-a"], opts["-p"]), {})[opts["--def"]] = ans["stage_dims"]

    pinned = {}
    for cid, (ans, digest) in answers.items():
        argv = cid.split()
        cmd, opts = argv[0], _opts(argv)
        name = opts["-a"].removesuffix(".json")
        a = algebras[name]
        mul = _oracle_mul(a)
        comm = _naive_commutative(mul)
        module = opts.get("-p") or opts.get("-m")
        checks = []
        if gfp_answers[cid] == ans:
            checks.append("gfp")
        if cmd == "validate":
            if ans["algebra"]["center_dim"] == oracle.center_dim(mul) and ans["algebra"]["is_commutative"] == comm:
                checks.append("oracle")
        elif cmd == "center":
            if ans["dim"] == oracle.center_dim(mul):
                checks.append("oracle")
        elif cmd == "derivations":
            if ans["dim"] == oracle.derivations_dim(mul):
                checks.append("oracle")
        elif cmd == "diff":
            tag = opts["--def"]
            if comm and tag != "bar1":
                if module == "self" and ans["stage_dims"] == oracle.comm_diff_stage_dims(mul, 2):
                    checks.append("oracle")
                if len({json.dumps(d) for d in diff_dims[(opts["-a"], module)].values()}) == 1:
                    checks.append("paper")
            elif tag in ("left-center", "right") and module == "self":
                stage0 = (oracle.left_center_stage0_dim if tag == "left-center" else oracle.right_stage0_dim)(mul)
                if ans["stage_dims"][0] == stage0:
                    checks.append("oracle-stage0")
        elif cmd == "jet":
            if "--two-sided" in argv:
                rep = answers[f"represent -a {opts['-a']} -p {module} -q {module} --order 1 --def bar1 --expect iso"][0]
                if rep["verdict"] == "isomorphism" and rep["jet_dim"] == ans["jet_dim"]:
                    checks.append("paper")
            elif module == "self" and ans["jet_dim"] == oracle.jet_dim(mul, 1):
                checks.append("oracle")
        elif cmd == "represent":
            tag = opts["--def"]
            if tag == "bar1" and ans["verdict"] == "isomorphism":
                checks.append("paper")
            if comm and ans["verdict"] == "isomorphism":
                checks.append("paper")
            if name == "m2" and tag == "left-center" and ans["verdict"] == "injective-not-surjective":
                checks.append("paper")
        elif cmd == "witness-cc3":
            if ans["found"] == (not comm):
                checks.append("paper")
        elif cmd == "compare":
            if comm and ans["commutative_collapse"] is True:
                checks.append("paper")
        pinned[cid] = {"answer": ans, "digest": digest, "checks": sorted(set(checks))}
    return {"cases": pinned}


# ---------------------------------------------------------------------------
# library workloads


def _check_library(nc, case_id, ans, gfp_answers) -> list[str]:
    gen, QQ = nc.gen, nc.linalg.QQ
    words = case_id.split()
    label = words[-2] if words[-1].startswith("r=") else words[-1]
    name = label.split("/")[0]
    builders = {
        "trunc4": lambda: gen.truncated_polynomial(4, QQ),
        "trunc5": lambda: gen.truncated_polynomial(5, QQ),
        "trunc6": lambda: gen.truncated_polynomial(6, QQ),
        "trunc8": lambda: gen.truncated_polynomial(8, QQ),
        "t3": lambda: gen.upper_triangular(3, QQ),
        "ext2": lambda: gen.exterior_algebra_2(QQ),
        "qs3": lambda: gen.group_algebra_s3(QQ),
        "m2": lambda: gen.matrix_algebra(2, QQ),
        "quaternions": lambda: nc.catalog.builtin("quaternions").algebra,
    }
    checks = []
    if gfp_answers.get(case_id) == ans:
        checks.append("gfp")
    if case_id.startswith("comm-"):
        mul = _oracle_mul(builders[name]())
        if ans["dims"] == oracle.comm_diff_stage_dims(mul, int(words[-1][2:])):
            checks.append("oracle")
    elif name in ("m2", "m3") and "dims" in ans:
        n = int(name[1])
        mdim = n * n * (2 if "free2" in label else 1)
        if ans["dims"][0] == mdim * mdim:
            checks.append("paper")
    elif case_id.startswith("compare"):
        mul = _oracle_mul(builders[name]())
        stage0 = (oracle.left_center_stage0_dim(mul), oracle.right_stage0_dim(mul))
        if (ans["dims"]["left-center"][0], ans["dims"]["right"][0]) == stage0:
            checks.append("oracle-stage0")
    elif case_id.startswith("jet_module"):
        if ans["dim"] == oracle.jet_dim(_oracle_mul(builders[name]()), 2):
            checks.append("oracle")
    elif case_id.startswith("two_sided_jet1"):
        P = nc.gen.modules_of(builders[name]())["free2" if "free2" in label else "self"]
        rep = nc.jets.representability_bar1(P, P)
        if rep.verdict == "isomorphism" and rep.jet_dim == ans["dim"]:
            checks.append("paper")
    elif case_id.startswith("representability_bar1"):
        if ans["verdict"] == "isomorphism":
            checks.append("paper")
    elif case_id.startswith("residual_witness_search"):
        if ans["found"]:  # every input here is noncommutative
            checks.append("paper")
    return checks


def pin_ladders(nc) -> dict:
    """filtration-ladder and jet-ladder checked on their own; prime-field pinned to Q."""
    results = {}
    for name in ("filtration-ladder", "jet-ladder", "prime-field"):
        cases, _ = workloads.WORKLOADS[name].build(nc, 0, None)
        results[name] = {case.id: _answer(case) for case in cases}
    gfp_answers = {cid: ans for cid, (ans, _) in results["prime-field"].items()}
    expected = {}
    for name in ("filtration-ladder", "jet-ladder"):
        expected[name] = {
            "cases": {
                cid: {"answer": ans, "digest": digest, "checks": _check_library(nc, cid, ans, gfp_answers)}
                for cid, (ans, digest) in results[name].items()
            }
        }
    q_pins = expected["filtration-ladder"]["cases"]
    prime = {}
    for cid, (ans, digest) in results["prime-field"].items():
        want = q_pins[cid]["answer"]
        prime[cid] = {"answer": want, "digest": digest, "checks": ["gfp"] if ans == want else []}
    probes = {}
    for case in workloads.gfp_probes(nc, nc.linalg.QQ):
        ans, _ = _answer(case)
        probes[case.id] = {"answer": ans, "checks": _check_library(nc, case.id, ans, {})}
    expected["prime-field"] = {"cases": prime, "probes": probes}
    return expected


def main() -> int:
    nc = run.fresh_import()
    expected = {"catalog-cli": pin_catalog(nc), **pin_ladders(nc)}
    unchecked = [
        f"{w}: {cid}"
        for w, groups in expected.items()
        for group in groups.values()
        for cid, pin in group.items()
        if not pin["checks"]
    ]
    for line in unchecked:
        print(f"no independent check: {line}", file=sys.stderr)
    if unchecked:
        return 1
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(len(g) for w in expected.values() for g in w.values())} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
