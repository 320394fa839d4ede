"""Command-line front end with deterministic JSON reports.

Exit codes: 0 success, 1 validation/parse error, 2 a requested
expectation failed, 3 I/O error.  A command that fails with 1 or 3 prints
the error; with --json it also writes a report whose results are
{"error": message}.  Usage errors are argparse's.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .algebra import AlgebraValidationError
from .catalog import builtin, names as catalog_names
from .diffop import (
    DefinitionDomainError,
    TAGS,
    check_bar1_order,
    compare_definitions,
    diff_bar1,
    filtration_by_tag,
)
from .documents import (
    DocumentError,
    algebra_from_doc,
    algebra_to_doc,
    canonical_json,
    digest,
    hom_matrix_to_doc,
    load_json,
    make_report,
    module_from_doc,
    module_to_doc,
    subspace_to_doc,
)
from .jets import (
    InvariantViolation,
    OrderViolationError,
    jet_module,
    representability_check,
    residual_witness_search,
    two_sided_jet1,
)
from .linalg import Matrix
from .modules import BimoduleRep, BimoduleValidationError, CentralityRequired, HomSpace

OK = 0
FAIL_VALIDATION = 1
FAIL_EXPECTATION = 2
FAIL_IO = 3

_VALIDATION_ERRORS = (
    DocumentError,
    AlgebraValidationError,
    BimoduleValidationError,
    CentralityRequired,
    DefinitionDomainError,
    OrderViolationError,
    InvariantViolation,
)


class _ExpectationFailed(Exception):
    def __init__(self, report):
        self.report = report


def _load_algebra(spec: str):
    if spec in catalog_names():
        return builtin(spec).algebra
    return algebra_from_doc(load_json(Path(spec)))


def _load_module(spec: str, algebra) -> BimoduleRep:
    if spec == "self":
        return BimoduleRep.regular(algebra)
    if spec == "free2":
        return BimoduleRep.free(algebra, 2)
    try:
        return module_from_doc(load_json(Path(spec)), algebra=algebra, base_dir=Path(spec).parent)
    except BimoduleValidationError as exc:
        if exc.axiom == "centrality":  # a coordinate vector, reported as exact scalar strings
            exc.witness = [algebra.field.format(x) for x in exc.witness]
        raise


def _load_modules(algebra, *specs) -> tuple:
    """One module per spec; a spec named twice gives the same module, loaded once."""
    loaded = {}
    for spec in specs:
        if spec not in loaded:
            loaded[spec] = _load_module(spec, algebra)
    return tuple(loaded[spec] for spec in specs)


def _inputs(algebra, **modules) -> dict:
    """Names and digests of the inputs; a module passed twice is digested once."""
    out = {"algebra": {"name": algebra.name, "digest": digest(algebra_to_doc(algebra))}}
    digests = {}
    for key, mod in modules.items():
        if mod not in digests:
            digests[mod] = digest(module_to_doc(mod))
        out[key] = {"name": mod.name, "digest": digests[mod]}
    return out


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_validate(args):
    algebra = _load_algebra(args.algebra)
    results = {
        "algebra": {
            "name": algebra.name,
            "dim": algebra.dim,
            "is_commutative": algebra.is_commutative,
            "center_dim": algebra.center.dim,
        }
    }
    inputs = _inputs(algebra)
    if args.module:
        module = _load_module(args.module, algebra)
        results["module"] = {"name": module.name, "dim": module.dim, "central": module.central}
        inputs = _inputs(algebra, module=module)
    return make_report("validate", _echo(args), inputs, results)


def _cmd_center(args):
    algebra = _load_algebra(args.algebra)
    sub = algebra.center
    return make_report(
        "center",
        _echo(args),
        _inputs(algebra),
        {"center": subspace_to_doc(sub, algebra.field)},
    )


def _cmd_derivations(args):
    algebra = _load_algebra(args.algebra)
    sub = algebra.derivations
    n = algebra.dim
    # a derivation's hom vector is its n x n matrix flattened column-major
    maps = [Matrix._wrap(algebra.field, v.reshape((n, n), order="F")) for v in sub.basis_vectors()]
    return make_report(
        "derivations",
        _echo(args),
        _inputs(algebra),
        {"dim": sub.dim, "basis": [hom_matrix_to_doc(d) for d in maps]},
    )


def _cmd_diff(args):
    algebra = _load_algebra(args.algebra)
    P, Q = _load_modules(algebra, args.module_p, args.module_q)
    if args.definition == "bar1":
        check_bar1_order(args.order)
        stages = [diff_bar1(P, Q)]
    else:
        stages = list(filtration_by_tag(P, Q, args.order, args.definition).stages)
    return make_report(
        "diff",
        _echo(args),
        _inputs(algebra, module_p=P, module_q=Q),
        {
            "definition": args.definition,
            "order": args.order,
            "stage_dims": [s.dim for s in stages],
            "stages": [subspace_to_doc(s, algebra.field) for s in stages],
        },
    )


def _jet_results(jet, field):
    def actions(ops):  # the actions on the jet, each densified for its report
        return [m.dense.to_strings() for m in jet.induced(ops)]

    results = {
        "order": jet.order,
        "two_sided": jet.two_sided,
        "ambient_dim": jet.ambient_dim,
        "relations_dim": jet.mu.dim,
        "jet_dim": jet.dim,
        "bullet_well_defined": jet.bullet_well_defined,
        "relations_basis": subspace_to_doc(jet.mu, field)["basis"],
        "jet_map": jet.jet_map.to_strings(),
        "left_actions": actions(jet.ambient.left),
    }
    if jet.two_sided:
        results["right_actions"] = actions(jet.ambient.right)
    if jet.bullet_well_defined:
        results["bullet_actions"] = actions(jet.ambient.bullet_left)
    return results


def _cmd_jet(args):
    algebra = _load_algebra(args.algebra)
    P = _load_module(args.module_p, algebra)
    if args.two_sided:
        check_bar1_order(args.order)  # the two-sided jet is the bar1 class's, first order
        jet = two_sided_jet1(P)
    else:
        jet = jet_module(P, args.order)
    return make_report(
        "jet",
        _echo(args),
        _inputs(algebra, module_p=P),
        _jet_results(jet, algebra.field),
    )


def _cmd_represent(args):
    algebra = _load_algebra(args.algebra)
    P, Q = _load_modules(algebra, args.module_p, args.module_q)
    report = representability_check(P, Q, args.order, args.definition)
    hs = HomSpace(P, Q)
    results = {
        "definition": report.tag,
        "order": report.order,
        "jet_dim": report.jet_dim,
        "hom_side_dim": report.hom_side_dim,
        "diff_side_dim": report.diff_side_dim,
        "image_dim": report.image_dim,
        "verdict": report.verdict,
    }
    if report.witness is not None:
        results["witness"] = {
            "kind": report.witness_kind,
            "matrix": hom_matrix_to_doc(hs.unvec(report.witness)),
        }
    out = make_report(
        "represent", _echo(args), _inputs(algebra, module_p=P, module_q=Q), results
    )
    if args.expect == "iso" and report.verdict != "isomorphism":
        raise _ExpectationFailed(out)
    return out


def _cmd_witness_cc3(args):
    algebra = _load_algebra(args.algebra)
    P, Q = _load_modules(algebra, args.module_p, args.module_q or args.module_p)
    witness = residual_witness_search(P, Q, args.order)
    fmt = algebra.field.format
    results = {"order": args.order, "found": witness is not None}
    if witness is not None:
        results["witness"] = {
            "b_basis_indices": list(witness.b_indices),
            "b_basis_names": [algebra.basis_names[i] for i in witness.b_indices],
            "p_basis_index": witness.p_index,
            "f": witness.f.to_strings(),
            "residual": [fmt(x) for x in witness.residual],
        }
    out = make_report(
        "witness-cc3", _echo(args), _inputs(algebra, module_p=P, module_q=Q), results
    )
    if args.expect == "found" and witness is None:
        raise _ExpectationFailed(out)
    if args.expect == "none" and witness is not None:
        raise _ExpectationFailed(out)
    return out


def _cmd_compare(args):
    algebra = _load_algebra(args.algebra)
    P, Q = _load_modules(algebra, args.module_p, args.module_q)
    report = compare_definitions(P, Q, args.order)
    hs = HomSpace(P, Q)
    witnesses = {
        key: hom_matrix_to_doc(hs.unvec(v)) if v is not None else None
        for key, v in report["witnesses"].items()
    }
    results = dict(report)
    results["witnesses"] = witnesses
    return make_report(
        "compare", _echo(args), _inputs(algebra, module_p=P, module_q=Q), results
    )


def _cmd_catalog(args):
    if args.catalog_action == "list":
        rows = []
        for name in catalog_names():
            e = builtin(name)
            rows.append(
                {
                    "name": name,
                    "dim": e.algebra.dim,
                    "is_commutative": e.algebra.is_commutative,
                    "notes": e.notes,
                }
            )
        return make_report("catalog", _echo(args), {}, {"entries": rows})
    entry = builtin(args.name)
    if args.module:
        doc = module_to_doc(entry.module(args.module))
    else:
        doc = algebra_to_doc(entry.algebra)
    return make_report("catalog", _echo(args), {}, {"export": doc})


def _echo(args) -> dict:
    skip = {"func", "json", "output"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


# ---------------------------------------------------------------------------
# rendering


def _human_lines(report: dict) -> list[str]:
    cmd = report["command"]
    res = report["results"]
    lines = [f"{cmd}: ok"]
    if cmd == "validate":
        a = res["algebra"]
        lines = [
            f"algebra {a['name']}: dim {a['dim']}, "
            f"{'commutative' if a['is_commutative'] else 'noncommutative'}, "
            f"center dim {a['center_dim']}"
        ]
        if "module" in res:
            m = res["module"]
            lines.append(
                f"module {m['name']}: dim {m['dim']}, central={m['central']}"
            )
    elif cmd == "center":
        lines = [f"center: dim {res['center']['dim']} of ambient {res['center']['ambient_dim']}"]
    elif cmd == "derivations":
        lines = [f"derivations: dim {res['dim']}"]
    elif cmd == "diff":
        lines = [
            f"diff {res['definition']} to order {res['order']}: stage dims {res['stage_dims']}"
        ]
    elif cmd == "jet":
        lines = [
            f"jet order {res['order']}{' (two-sided)' if res['two_sided'] else ''}: "
            f"ambient {res['ambient_dim']}, relations {res['relations_dim']}, "
            f"jet dim {res['jet_dim']}, bullet well-defined: {res['bullet_well_defined']}"
        ]
    elif cmd == "represent":
        lines = [
            f"represent {res['definition']} order {res['order']}: {res['verdict']} "
            f"(hom {res['hom_side_dim']}, image {res['image_dim']}, diff {res['diff_side_dim']})"
        ]
        if "witness" in res:
            lines.append(f"witness: {res['witness']['kind']}")
    elif cmd == "witness-cc3":
        if res["found"]:
            w = res["witness"]
            lines = [
                f"residual witness at order {res['order']}: "
                f"b = {w['b_basis_names']}, p index {w['p_basis_index']}, "
                f"residual {w['residual']}"
            ]
        else:
            lines = [f"no residual witness at order {res['order']} (exhaustive over bases)"]
    elif cmd == "compare":
        lines = [f"compare to order {res['order']}: dims {res['dims']}"]
        for pair, rels in res["relations"].items():
            lines.append(f"  {pair}: {rels}")
        if res.get("commutative_collapse") is not None:
            lines.append(f"  commutative collapse: {res['commutative_collapse']}")
    elif cmd == "catalog":
        if "entries" in res:
            lines = [
                f"{e['name']}: dim {e['dim']}, "
                f"{'commutative' if e['is_commutative'] else 'noncommutative'} ({e['notes']})"
                for e in res["entries"]
            ]
        else:
            lines = canonical_json(res["export"]).splitlines()
    return lines


def _emit(report: dict, args) -> int:
    text = canonical_json(report)
    if getattr(args, "output", None):
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return FAIL_IO
    if getattr(args, "json", False):
        sys.stdout.write(text)
    else:
        for line in _human_lines(report):
            print(line)
    return OK


# ---------------------------------------------------------------------------
# parser


def _add_common(p, modules=()):
    p.add_argument("-a", "--algebra", required=True, help="algebra JSON file or catalog name")
    if "p" in modules:
        p.add_argument("-p", "--module-p", required=True, help="module JSON, 'self', or 'free2'")
    if "q" in modules:
        p.add_argument("-q", "--module-q", required=True, help="module JSON, 'self', or 'free2'")
    p.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    p.add_argument("-o", "--output", help="write the JSON report to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncjets",
        description="Exact jet modules and differential-operator filtrations "
        "over finite-dimensional associative algebras.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="validate an algebra (and optionally a module)")
    p.add_argument("-a", "--algebra", required=True)
    p.add_argument("-m", "--module", help="module JSON, 'self', or 'free2'")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("center", help="center of an algebra")
    _add_common(p)
    p.set_defaults(func=_cmd_center)

    p = sub.add_parser("derivations", help="derivations of an algebra")
    _add_common(p)
    p.set_defaults(func=_cmd_derivations)

    p = sub.add_parser("diff", help="differential-operator filtration stages")
    _add_common(p, modules="pq")
    p.add_argument("--def", dest="definition", required=True, choices=TAGS)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("jet", help="jet module of a module")
    _add_common(p, modules="p")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--two-sided", action="store_true")
    p.set_defaults(func=_cmd_jet)

    p = sub.add_parser("represent", help="compare maps out of a jet with a filtration stage")
    _add_common(p, modules="pq")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--def", dest="definition", required=True, choices=TAGS)
    p.add_argument("--expect", choices=["iso"], help="exit 2 unless the verdict matches")
    p.set_defaults(func=_cmd_represent)

    p = sub.add_parser("witness-cc3", help="search for a factorization-identity residual")
    p.add_argument("-a", "--algebra", required=True)
    p.add_argument("-p", "--module-p", required=True)
    p.add_argument("-q", "--module-q", help="defaults to the source module")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--expect", choices=["found", "none"])
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_witness_cc3)

    p = sub.add_parser("compare", help="pairwise comparison of all applicable definitions")
    _add_common(p, modules="pq")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("catalog", help="built-in algebras")
    csub = p.add_subparsers(dest="catalog_action", required=True)
    pl = csub.add_parser("list")
    pl.add_argument("--json", action="store_true")
    pl.add_argument("-o", "--output")
    pl.set_defaults(func=_cmd_catalog)
    pe = csub.add_parser("export")
    pe.add_argument("name")
    pe.add_argument("--module", choices=["self", "free2"])
    pe.add_argument("--json", action="store_true")
    pe.add_argument("-o", "--output")
    pe.set_defaults(func=_cmd_catalog)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; parse_args leaves the parser unchanged."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return OK if exc.code in (0, None) else FAIL_VALIDATION
    try:
        report = args.func(args)
    except _ExpectationFailed as exc:
        code = _emit(exc.report, args)
        return FAIL_EXPECTATION if code == OK else code
    except _VALIDATION_ERRORS as exc:
        detail = {"error": str(exc)}
        if hasattr(exc, "axiom"):
            detail["axiom"] = exc.axiom
            detail["witness"] = _jsonable(getattr(exc, "witness", None))
        return _fail(args, detail, FAIL_VALIDATION)
    except KeyError as exc:
        # str of a KeyError is the repr of its message, quotes and all
        return _fail(args, {"error": str(exc.args[0]) if exc.args else ""}, FAIL_VALIDATION)
    except (IOError, OSError) as exc:
        return _fail(args, {"error": str(exc)}, FAIL_IO)
    return _emit(report, args)


def _fail(args, detail: dict, code: int) -> int:
    """Print the error; with --json also write the report whose results are detail."""
    print(f"error: {detail['error']}", file=sys.stderr)
    if getattr(args, "json", False):
        sys.stdout.write(canonical_json(make_report(args.subcommand, _echo(args), {}, detail)))
    return code


def _jsonable(value):
    if value is None or isinstance(value, (int, str, bool)):
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return str(value)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
