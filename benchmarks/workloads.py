"""The benchmark's four workloads: their inputs, queries and answer summaries.

A workload's ``build(nc, seed, workdir)`` is its set-up: it builds and
validates every input algebra and module (in the seed's basis, see
``generators.seeded``) and returns the query list.  ``nc`` is a namespace of freshly
imported ``ncjets`` modules; queries look functions up on it at call time,
so the tracing wrappers, once installed, see every call.

Each query returns the library's own result object.  ``summarize`` turns
it, outside the timed region, into an ``answer`` (basis-invariant facts:
dims, verdicts, witness found or not) and a ``blob`` (every exact entry of
the result, whose sha256 is the report digest).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

P31 = 2**31 - 1
NC_TAGS = ("left-center", "left-sum", "right", "two-sided")
COMM_TAGS = ("comm-iterated", "comm-inductive")


@dataclass
class Case:
    id: str
    call: Callable[[], object]
    summarize: Callable[[object], tuple]


@dataclass
class Workload:
    name: str
    why: str
    build: Callable  # (nc, seed, workdir) -> (cases, probes)
    uses_files: bool = False


# ---------------------------------------------------------------------------
# summaries: (answer, blob)


def _rows(sub) -> list:
    return [[str(x) for x in row] for row in sub.basis.a]


def _mat(m) -> list:
    return [[str(x) for x in row] for row in m.a]


def sum_filtration(f):
    return {"dims": f.dims}, json.dumps([_rows(s) for s in f.stages])


def sum_subspace(s):
    return {"dim": s.dim}, json.dumps(_rows(s))


def sum_compare(rep):
    answer = {
        "dims": rep["dims"],
        "relations": rep["relations"],
        "commutative_collapse": rep["commutative_collapse"],
    }
    witnesses = {
        k: None if v is None else [str(x) for x in v] for k, v in rep["witnesses"].items()
    }
    return answer, json.dumps([answer, witnesses], sort_keys=True)


def sum_jet(j):
    answer = {
        "dim": j.dim,
        "relations_dim": j.mu.dim,
        "bullet_well_defined": j.bullet_well_defined,
    }
    return answer, json.dumps([_rows(j.mu), _mat(j.jet_map)])


def sum_report(r):
    answer = {
        "verdict": r.verdict,
        "jet_dim": r.jet_dim,
        "hom_side_dim": r.hom_side_dim,
        "diff_side_dim": r.diff_side_dim,
        "image_dim": r.image_dim,
    }
    witness = None if r.witness is None else [str(x) for x in r.witness]
    return answer, json.dumps([answer, _rows(r.image), witness], sort_keys=True)


def sum_residual(w):
    blob = None if w is None else [list(w.b_indices), w.p_index, [str(x) for x in w.residual]]
    return {"found": w is not None}, json.dumps(blob)


# Basis-invariant fields of each CLI report; the full stdout is the blob.
_CLI_FIELDS = {
    "validate": ("algebra", "module"),
    "center": (),
    "derivations": ("dim",),
    "diff": ("stage_dims",),
    "jet": ("ambient_dim", "relations_dim", "jet_dim", "bullet_well_defined"),
    "represent": ("verdict", "jet_dim", "hom_side_dim", "diff_side_dim", "image_dim"),
    "witness-cc3": ("found",),
    "compare": ("dims", "relations", "commutative_collapse"),
}


def sum_cli(out):
    code, text = out
    report = json.loads(text)
    results = report["results"]
    answer = {"exit": code}
    for key in _CLI_FIELDS[report["command"]]:
        if key in results:
            answer[key] = results[key]
    if report["command"] == "center":
        answer["dim"] = results["center"]["dim"]
    return answer, text


# ---------------------------------------------------------------------------
# catalog-cli


def _cli_call(nc, argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = nc.cli.run(argv + ["--json"])
        return code, buf.getvalue()

    return call


def catalog_argvs(names, commutative, small) -> list[list[str]]:
    """Every subcommand and applicable --def, on self and free2.

    free2 queries are kept only for the algebras in ``small`` (dim <= 2):
    on the larger algebras they take 0.05-2 s each and would turn this
    per-query-overhead workload into a second elimination ladder.
    """
    argvs = []
    for name in names:
        a = f"{name}.json"
        comm = name in commutative
        argvs += [["center", "-a", a], ["derivations", "-a", a]]
        for m in ("self", "free2"):
            if m == "free2" and name not in small:
                continue
            pq = ["-p", m, "-q", m]
            argvs.append(["validate", "-a", a, "-m", m])
            tags = (list(COMM_TAGS) if comm else []) + list(NC_TAGS)
            argvs += [["diff", "-a", a, *pq, "--def", t, "--order", "2"] for t in tags]
            argvs.append(["diff", "-a", a, *pq, "--def", "bar1", "--order", "1"])
            argvs.append(["jet", "-a", a, "-p", m, "--order", "1"])
            argvs.append(["jet", "-a", a, "-p", m, "--order", "1", "--two-sided"])
            for t in (["comm-inductive"] if comm else []) + ["left-center"]:
                argvs.append(["represent", "-a", a, *pq, "--order", "1", "--def", t])
            argvs.append(["represent", "-a", a, *pq, "--order", "1", "--def", "bar1", "--expect", "iso"])
            expect = "none" if comm else "found"
            argvs.append(["witness-cc3", "-a", a, "-p", m, "--order", "1", "--expect", expect])
            argvs.append(["compare", "-a", a, *pq, "--order", "1"])
    return argvs


def build_catalog_cli(nc, seed, workdir):
    gen = nc.gen
    names = nc.catalog.names()
    small = set()
    for name in names:
        algebra = gen.seeded(nc.catalog.builtin(name).algebra, seed)
        gen.modules_of(algebra)  # validated here; the CLI builds its own per query
        if algebra.dim <= 2:
            small.add(name)
        text = nc.documents.canonical_json(nc.documents.algebra_to_doc(algebra))
        (workdir / f"{name}.json").write_text(text)
    argvs = catalog_argvs(names, nc.catalog.COMMUTATIVE_NAMES, small)
    return [Case(" ".join(argv), _cli_call(nc, argv), sum_cli) for argv in argvs], []


# ---------------------------------------------------------------------------
# library ladders


def _seeded_modules(nc, algebra, seed) -> dict:
    return nc.gen.modules_of(nc.gen.seeded(algebra, seed))


def filtration_cases(nc, seed, field):
    """comm-iterated on trunc5 and the noncommutative filtration cases over one field.

    filtration-ladder runs them over Q, prime-field over GF(2^31-1).
    """
    gen = nc.gen
    diffop = nc.diffop

    def mods(algebra):
        return _seeded_modules(nc, algebra, seed)

    def filt(label, P, r, tag):
        return Case(
            f"{tag} {label} r={r}",
            lambda: diffop.filtration_by_tag(P, P, r, tag),
            sum_filtration,
        )

    def compare(label, P, r):
        return Case(
            f"compare {label} r={r}",
            lambda: diffop.compare_definitions(P, P, r),
            sum_compare,
        )

    trunc5 = mods(gen.truncated_polynomial(5, field))
    m2 = mods(gen.matrix_algebra(2, field))
    m3 = mods(gen.matrix_algebra(3, field))
    t3 = mods(gen.upper_triangular(3, field))
    ext2 = mods(gen.exterior_algebra_2(field))
    P = m2["free2"]
    return [
        filt("trunc5/self", trunc5["self"], 3, "comm-iterated"),
        *(filt("m2/free2", P, 3, t) for t in NC_TAGS),
        *(filt("m3/self", m3["self"], 2, t) for t in ("left-center", "two-sided")),
        Case("bar1 m2/free2", lambda: diffop.diff_bar1(P, P), sum_subspace),
        compare("t3/self", t3["self"], 2),
        compare("ext2/self", ext2["self"], 2),
    ]


def build_filtration_ladder(nc, seed, workdir):
    P = _seeded_modules(nc, nc.gen.truncated_polynomial(8, nc.linalg.QQ), seed)["self"]
    cases = filtration_cases(nc, seed, nc.linalg.QQ)
    cases.append(
        Case(
            "comm-inductive trunc8/self r=3",
            lambda: nc.diffop.filtration_by_tag(P, P, 3, "comm-inductive"),
            sum_filtration,
        )
    )
    return cases, []


def build_jet_ladder(nc, seed, workdir):
    gen = nc.gen
    QQ = nc.linalg.QQ
    jets = nc.jets

    def mods(algebra):
        return _seeded_modules(nc, algebra, seed)

    m2 = mods(gen.matrix_algebra(2, QQ))["free2"]
    qu = mods(nc.catalog.builtin("quaternions").algebra)["free2"]
    trunc6 = mods(gen.truncated_polynomial(6, QQ))["self"]
    qs3 = mods(gen.group_algebra_s3(QQ))["self"]
    cases = [
        Case("two_sided_jet1 m2/free2", lambda: jets.two_sided_jet1(m2), sum_jet),
        Case("two_sided_jet1 quaternions/free2", lambda: jets.two_sided_jet1(qu), sum_jet),
        Case("jet_module k=2 trunc6/self", lambda: jets.jet_module(trunc6, 2), sum_jet),
        Case(
            "residual_witness_search k=1 qs3/self",
            lambda: jets.residual_witness_search(qs3, qs3, 1),
            sum_residual,
        ),
    ]
    return cases, []


def build_prime_field(nc, seed, workdir):
    field = nc.linalg.GF(P31)
    return filtration_cases(nc, seed, field), gfp_probes(nc, field)


def gfp_probes(nc, field):
    """Jets over GF(2^31-1) that hit Subspace.contains_all's missing mod-p reduction.

    Built in the identity basis, whatever the seed, so the count of
    probes that pass is the same on every run.
    """
    gen = nc.gen
    jets = nc.jets
    probes = []
    for algebra in (
        gen.truncated_polynomial(4, field),
        gen.upper_triangular(3, field),
        gen.group_algebra_s3(field),
    ):
        P = gen.modules_of(algebra)["self"]
        label = f"{algebra.name}/self"
        probes += [
            Case(f"jet_module k=2 {label}", lambda P=P: jets.jet_module(P, 2), sum_jet),
            Case(f"two_sided_jet1 {label}", lambda P=P: jets.two_sided_jet1(P), sum_jet),
            Case(
                f"representability_bar1 {label}",
                lambda P=P: jets.representability_bar1(P, P),
                sum_report,
            ),
        ]
    return probes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "catalog-cli",
            "the paper's headline checks as users run them: many small CLI queries, "
            "so per-query overhead (documents, validation, Matrix construction) dominates",
            build_catalog_cli,
            uses_files=True,
        ),
        Workload(
            "filtration-ladder",
            "filtrations on Hom spaces of dim 25-81 over Q: the linalg elimination "
            "kernel and Matrix products carry the work; no tensor ambients, no JSON",
            build_filtration_ladder,
        ),
        Workload(
            "jet-ladder",
            "jets on tensor ambients up to dim 128 over Q: kron-built operators, "
            "closure_under and the dense invariance checks dominate",
            build_jet_ladder,
        ),
        Workload(
            "prime-field",
            "the filtration-ladder cases but comm-inductive, over GF(2^31-1): the only "
            "workload on the PrimeField path, flat under a Q-only speed-up",
            build_prime_field,
        ),
    )
}
