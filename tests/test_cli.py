import itertools
import json

import pytest

import ncjets.cli as cli
import ncjets.jets
from ncjets.catalog import builtin, names as catalog_names
from ncjets.cli import run
from ncjets.diffop import TAGS
from ncjets.documents import canonical_json, hom_matrix_to_doc
from ncjets.modules import BimoduleRep, HomSpace


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    out, _ = out_of(capsys)
    return code, json.loads(out), out


# ---------------------------------------------------------------------------
# validation and basic commands


def test_validate_catalog_name(capsys):
    code, report, _ = run_json(capsys, ["validate", "-a", "m2"])
    assert code == 0
    assert report["results"]["algebra"]["is_commutative"] is False
    assert report["results"]["algebra"]["center_dim"] == 1


def test_validate_with_module(capsys):
    code, report, _ = run_json(capsys, ["validate", "-a", "t2", "-m", "free2"])
    assert code == 0
    assert report["results"]["module"]["dim"] == 6


def test_missing_file_is_io_error(capsys):
    assert run(["validate", "-a", "no_such_file.json"]) == 3


def test_missing_file_writes_its_error_report(capsys):
    error = "cannot read no_such_file.json: [Errno 2] No such file or directory: 'no_such_file.json'"
    assert run(["center", "-a", "no_such_file.json"]) == 3
    assert out_of(capsys) == ("", f"error: {error}\n")
    code, report, _ = run_json(capsys, ["center", "-a", "no_such_file.json"])
    assert code == 3
    assert report["command"] == "center"
    assert report["results"] == {"error": error}


def test_unknown_catalog_name_prints_its_plain_message_and_report(capsys):
    error = f"unknown catalog algebra 'nosuch'; have {catalog_names()}"
    assert run(["catalog", "export", "nosuch"]) == 1
    assert out_of(capsys) == ("", f"error: {error}\n")  # no quotes from str(KeyError)
    code, report, _ = run_json(capsys, ["catalog", "export", "nosuch"])
    assert code == 1
    assert report["command"] == "catalog"
    assert report["results"] == {"error": error}


def test_malformed_json_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["validate", "-a", str(bad)]) == 1


def test_broken_algebra_is_validation_error(tmp_path, capsys):
    import json as _json

    from ncjets.catalog import builtin
    from ncjets.documents import algebra_to_doc

    doc = algebra_to_doc(builtin("m2").algebra)
    doc["mul"][1][2] = [["0"] * 4][0]  # e12 e21 = 0 breaks associativity
    path = tmp_path / "broken.json"
    path.write_text(_json.dumps(doc))
    assert run(["validate", "-a", str(path)]) == 1


def _halved_dual_numbers_doc():
    """Dual numbers in the basis (1/2, eps/2): Fractions in mul, an int 2 in the unit."""
    from fractions import Fraction

    from ncjets.algebra import Algebra
    from ncjets.documents import algebra_to_doc
    from ncjets.linalg import QQ

    half = Fraction(1, 2)
    algebra = Algebra(QQ, ["h", "e"], [2, 0], [[[half, 0], [0, half]], [[0, half], [0, 0]]])
    return algebra_to_doc(algebra)


def _noncanonical(text: str, k: int) -> str:
    """The rational scalar text in one of three other spellings, chosen by k."""
    num, _, den = text.partition("/")
    num, den = int(num), int(den or 1)
    if k % 3 == 0:
        return f"{2 * num}/{2 * den}"
    if k % 3 == 1 and den == 1:
        return f"+{num}" if num >= 0 else f"-{-num}/1"
    return "-0" if num == 0 else f"{3 * num}/{3 * den}"


@pytest.mark.parametrize("name", ["m2", "quaternions", "halved"])
def test_noncanonical_scalars_read_as_the_canonical_document(tmp_path, capsys, name):
    from ncjets.documents import algebra_from_doc, algebra_to_doc

    if name == "halved":
        canonical = _halved_dual_numbers_doc()
    else:
        canonical = algebra_to_doc(builtin(name).algebra)
    cells = itertools.count()
    respelled = json.loads(json.dumps(canonical))
    respelled["unit"] = [_noncanonical(x, next(cells)) for x in canonical["unit"]]
    respelled["mul"] = [
        [[_noncanonical(x, next(cells)) for x in cell] for cell in row] for row in canonical["mul"]
    ]
    assert respelled != canonical
    want, got = algebra_from_doc(canonical), algebra_from_doc(respelled)
    for a, b in ((want.mul, got.mul), (want.unit, got.unit)):
        assert a.tolist() == b.tolist()
        assert [type(x) for x in a.flat] == [type(x) for x in b.flat]
    reports = []
    for doc in (canonical, respelled):
        path = tmp_path / f"{len(reports)}.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_json(capsys, ["validate", "-a", str(path)])
        assert code == 0
        reports.append(report)
    assert reports[0]["inputs"] == reports[1]["inputs"]
    assert reports[0]["results"] == reports[1]["results"]


def _m2_docs():
    from ncjets.catalog import builtin
    from ncjets.documents import algebra_to_doc, module_to_doc
    from ncjets.modules import BimoduleRep

    algebra = builtin("m2").algebra
    return algebra_to_doc(algebra), module_to_doc(BimoduleRep.regular(algebra))


def test_noncentral_module_reports_its_witness_as_scalar_strings(tmp_path, capsys):
    from ncjets.catalog import builtin
    from ncjets.documents import module_to_doc

    module = module_to_doc(builtin("dual_numbers").module("self"))
    module["right_action"] = [[["1", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]]
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module))
    code, report, _ = run_json(capsys, ["validate", "-a", "dual_numbers", "-m", str(path)])
    assert code == 1
    assert report["results"]["axiom"] == "centrality"
    assert report["results"]["witness"] == ["0", "1"]


def test_tampered_algebra_reports_its_associativity_witness(tmp_path, capsys):
    algebra, _ = _m2_docs()
    algebra["mul"][1][2] = ["0"] * 4
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(algebra))
    code, report, _ = run_json(capsys, ["validate", "-a", str(path)])
    assert code == 1
    assert report["results"]["axiom"] == "associativity"
    assert report["results"]["witness"] == [1, 2, 1]


def test_module_with_a_number_scalar_is_validation_error(tmp_path, capsys):
    _, module = _m2_docs()
    module["left_action"][0][0][0] = 1
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module))
    assert run(["validate", "-a", "m2", "-m", str(path)]) == 1
    assert out_of(capsys)[1].startswith("error:")


def test_module_with_a_non_list_action_is_validation_error(tmp_path, capsys):
    _, module = _m2_docs()
    module["left_action"] = 5
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module))
    assert run(["validate", "-a", "m2", "-m", str(path)]) == 1
    assert out_of(capsys)[1].startswith("error:")


def test_algebra_with_a_non_list_basis_is_validation_error(tmp_path, capsys):
    algebra, _ = _m2_docs()
    algebra["basis"] = 5
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra))
    assert run(["validate", "-a", str(path)]) == 1
    assert out_of(capsys)[1].startswith("error:")


@pytest.mark.parametrize(
    "key, edit",
    [
        ("unit", lambda d: d.update(unit="1001")),  # the unit e00 + e11, as a string
        ("mul[0][0]", lambda d: d["mul"][0].__setitem__(0, "1000")),
        ("mul[1]", lambda d: d["mul"].__setitem__(1, "0" * 16)),
        ("mul", lambda d: d.update(mul="0")),
    ],
)
def test_algebra_with_a_string_for_a_list_is_validation_error(tmp_path, capsys, key, edit):
    algebra, _ = _m2_docs()
    edit(algebra)
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra))
    assert run(["validate", "-a", str(path)]) == 1
    assert f"algebra document {key} must be a list, not str" in out_of(capsys)[1]


@pytest.mark.parametrize(
    "argv, doc, edit, error",
    [
        (
            ["validate", "-a", "trivial", "-m"],
            "module",
            lambda d: d.update(algebra={"file": 5}),
            "module document algebra.file must be a string, not int",
        ),
        (
            ["center", "-a"],
            "algebra",
            lambda d: d.update(name=1.5),
            "algebra document name must be a string, not float",
        ),
        (
            ["validate", "-a", "m2", "-m"],
            "module",
            lambda d: d.update(name=1.5),
            "module document name must be a string, not float",
        ),
    ],
    ids=["algebra.file", "algebra name", "module name"],
)
def test_a_name_or_file_that_is_not_a_string_is_validation_error(
    tmp_path, capsys, argv, doc, edit, error
):
    algebra, module = _m2_docs()
    document = {"algebra": algebra, "module": module}[doc]
    edit(document)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    assert run(argv + [str(path)]) == 1
    assert out_of(capsys) == ("", f"error: {error}\n")
    code, report, _ = run_json(capsys, argv + [str(path)])
    assert code == 1
    assert report["results"] == {"error": error}


@pytest.mark.parametrize(
    "key, edit, got",
    [
        ("mul", lambda d: d["mul"].append([["7"] * 4] * 4), 5),  # a fifth row
        ("mul[0]", lambda d: d["mul"][0].append(["9"] * 4), 5),  # a fifth cell in row 0
        ("mul", lambda d: d["mul"].pop(), 3),
        ("mul[3]", lambda d: d["mul"][3].pop(), 3),
    ],
)
def test_algebra_with_a_mul_of_the_wrong_length_is_validation_error(
    tmp_path, capsys, key, edit, got
):
    algebra, _ = _m2_docs()
    edit(algebra)
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra))
    assert run(["validate", "-a", str(path)]) == 1
    assert f"algebra document {key} must have 4 entries, got {got}" in out_of(capsys)[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["witness-cc3", "-a", "m2", "-p", "self", "--order", "-1"],
        ["witness-cc3", "-a", "m2", "-p", "self", "--order", "5"],
        ["jet", "-a", "m2", "-p", "self", "--order", "5"],
    ],
)
def test_orders_outside_the_cap_are_validation_errors(argv, capsys):
    assert run(argv) == 1
    assert "order must be between 0 and 4" in out_of(capsys)[1]


def test_usage_error_maps_to_validation_exit(capsys):
    assert run(["diff", "-a", "m2"]) == 1


def test_invariant_violation_maps_to_validation_exit(monkeypatch, capsys):
    # the stub turns the generation check's closure into a no-op, so the
    # jet-map image (dim 2 of 3) fails to fill the quotient
    monkeypatch.setattr(ncjets.jets, "closure_under", lambda ops, seed: seed)
    code, report, _ = run_json(
        capsys, ["jet", "-a", "dual_numbers", "-p", "self", "--order", "1"]
    )
    assert code == 1
    assert "generate" in report["results"]["error"]


def test_center_and_derivations(capsys):
    code, report, _ = run_json(capsys, ["center", "-a", "quaternions"])
    assert code == 0
    assert report["results"]["center"]["dim"] == 1
    code, report, _ = run_json(capsys, ["derivations", "-a", "m2"])
    assert code == 0
    assert report["results"]["dim"] == 3
    assert len(report["results"]["basis"]) == 3


@pytest.mark.parametrize("name", catalog_names())
def test_derivations_build_no_module(monkeypatch, capsys, name):
    algebra = builtin(name).algebra  # the catalog entry's own modules are built here
    P = BimoduleRep.regular(algebra)
    hs = HomSpace(P, P)
    want_basis = [hom_matrix_to_doc(hs.unvec(v)) for v in algebra.derivations.basis_vectors()]

    def refuse(*args, **kwargs):
        raise RuntimeError("derivations built a module")

    # every module, validated or valid by construction, is set up by _assign
    monkeypatch.setattr(BimoduleRep, "_assign", refuse)
    code, report, out = run_json(capsys, ["derivations", "-a", name])
    assert code == 0
    report["results"]["basis"] = want_basis
    assert canonical_json(report) == out


def test_same_module_for_p_and_q_is_loaded_and_digested_once(monkeypatch, capsys):
    argv = ["diff", "-a", "m2", "-p", "self", "-q", "self", "--def", "two-sided", "--order", "1"]
    builtin("m2")  # the catalog entry's own modules are built here
    loads, digests = [], []
    real_regular, real_digest = BimoduleRep.regular, cli.digest

    def counting_regular(algebra, *args, **kwargs):
        loads.append(algebra)
        return real_regular(algebra, *args, **kwargs)

    with monkeypatch.context() as counted:
        counted.setattr(BimoduleRep, "regular", counting_regular)
        counted.setattr(cli, "digest", lambda doc: digests.append(doc) or real_digest(doc))
        code, _, out = run_json(capsys, argv)
    assert code == 0
    assert len(loads) == 1
    assert len(digests) == 2  # the algebra and the one module
    # the reference run builds a new module for every spec it is given
    monkeypatch.setattr(
        cli, "_load_modules", lambda a, *specs: tuple(cli._load_module(s, a) for s in specs)
    )
    assert run_json(capsys, argv)[2] == out


# ---------------------------------------------------------------------------
# diff / jet / represent / witness


def test_diff_report_dims(capsys):
    code, report, _ = run_json(
        capsys,
        ["diff", "-a", "dual_numbers", "-p", "self", "-q", "self",
         "--def", "comm-inductive", "--order", "2"],
    )
    assert code == 0
    assert report["results"]["stage_dims"] == [2, 3, 4]


def test_diff_rejects_wrong_domain(capsys):
    assert (
        run(["diff", "-a", "m2", "-p", "self", "-q", "self",
             "--def", "comm-iterated", "--order", "1"])
        == 1
    )


def test_jet_report(capsys):
    code, report, _ = run_json(
        capsys, ["jet", "-a", "dual_numbers", "-p", "self", "--order", "1"]
    )
    assert code == 0
    res = report["results"]
    assert (res["ambient_dim"], res["relations_dim"], res["jet_dim"]) == (4, 1, 3)
    assert res["bullet_well_defined"] is True


def test_two_sided_jet_report(capsys):
    code, report, _ = run_json(
        capsys, ["jet", "-a", "t2", "-p", "self", "--order", "1", "--two-sided"]
    )
    assert code == 0
    assert report["results"]["two_sided"] is True
    assert "right_actions" in report["results"]


def test_represent_expectation_failure(capsys):
    code = run(
        ["represent", "-a", "m2", "-p", "self", "-q", "self",
         "--order", "1", "--def", "left-center", "--expect", "iso", "--json"]
    )
    out, _ = out_of(capsys)
    report = json.loads(out)
    assert code == 2
    assert report["results"]["verdict"] != "isomorphism"
    assert "witness" in report["results"]


def test_represent_bar1_isomorphism(capsys):
    code, report, _ = run_json(
        capsys,
        ["represent", "-a", "m2", "-p", "self", "-q", "self",
         "--order", "1", "--def", "bar1", "--expect", "iso"],
    )
    assert code == 0
    assert report["results"]["verdict"] == "isomorphism"


@pytest.mark.parametrize("order", ["0", "2"])
def test_bar1_at_another_order_is_one_refusal(capsys, order):
    errors = set()
    for cmd in ("diff", "represent"):
        code = run([cmd, "-a", "m2", "-p", "self", "-q", "self", "--order", order, "--def", "bar1"])
        assert code == 1
        errors.add(out_of(capsys)[1])
    assert errors == {f"error: bar1 is a first-order class; use order 1, not {order}\n"}


@pytest.mark.parametrize("order", ["0", "2"])
def test_two_sided_jet_at_another_order_is_the_bar1_refusal(capsys, order):
    # the two-sided jet is the bar1 class's jet, and first order like it
    assert run(["jet", "-a", "m2", "-p", "self", "--order", order, "--two-sided"]) == 1
    assert out_of(capsys)[1] == f"error: bar1 is a first-order class; use order 1, not {order}\n"


def test_witness_cc3_found_and_expectations(capsys):
    code, report, _ = run_json(
        capsys, ["witness-cc3", "-a", "m2", "-p", "self", "--order", "1"]
    )
    assert code == 0
    assert report["results"]["found"] is True
    assert any(x != "0" for x in report["results"]["witness"]["residual"])
    assert run(
        ["witness-cc3", "-a", "m2", "-p", "self", "--order", "1", "--expect", "none"]
    ) == 2
    assert run(
        ["witness-cc3", "-a", "trunc3", "-p", "self", "--order", "1", "--expect", "none"]
    ) == 0
    assert run(
        ["witness-cc3", "-a", "trunc3", "-p", "self", "--order", "1", "--expect", "found"]
    ) == 2


def test_compare_report(capsys):
    code, report, _ = run_json(
        capsys, ["compare", "-a", "trunc3", "-p", "self", "-q", "self", "--order", "2"]
    )
    assert code == 0
    assert report["results"]["commutative_collapse"] is True


def _self_document(tmp_path, capsys, name) -> str:
    """The file of `catalog export NAME --module self`'s module document."""
    report = tmp_path / f"{name}_report.json"
    assert run(["catalog", "export", name, "--module", "self", "-o", str(report)]) == 0
    out_of(capsys)
    path = tmp_path / f"{name}_self.json"
    path.write_text(json.dumps(json.loads(report.read_text())["results"]["export"]))
    return str(path)


@pytest.mark.parametrize("name", catalog_names())
def test_a_self_document_reports_what_self_reports(tmp_path, capsys, name):
    # -p self is free, so its Hom spaces read the linear maps off the free lift;
    # the same module from a document is unmarked and takes the joint kernels
    doc = _self_document(tmp_path, capsys, name)
    argvs = [["diff", "--def", tag, "--order", "2"] for tag in TAGS if tag != "bar1"]
    argvs += [["compare", "--order", "2"], ["represent", "--def", "bar1", "--order", "1"]]
    for argv in argvs:
        reports = []
        for module in ("self", doc):
            code, report, _ = run_json(capsys, [*argv, "-a", name, "-p", module, "-q", module])
            reports.append((code, report["inputs"], report["results"]))
        assert reports[0] == reports[1], argv


# ---------------------------------------------------------------------------
# catalog and determinism


def test_catalog_list(capsys):
    code, report, _ = run_json(capsys, ["catalog", "list"])
    assert code == 0
    assert len(report["results"]["entries"]) == 8


def test_catalog_export_round_trip(tmp_path, capsys):
    path = tmp_path / "m2.json"
    assert run(["catalog", "export", "m2", "-o", str(path)]) == 0
    out_of(capsys)
    exported = json.loads(path.read_text())["results"]["export"]
    algebra_file = tmp_path / "algebra.json"
    algebra_file.write_text(json.dumps(exported))

    code, via_file, _ = run_json(capsys, ["validate", "-a", str(algebra_file)])
    assert code == 0
    code, via_name, _ = run_json(capsys, ["validate", "-a", "m2"])
    assert code == 0
    assert via_file["inputs"]["algebra"]["digest"] == via_name["inputs"]["algebra"]["digest"]
    assert via_file["results"] == via_name["results"]


def test_catalog_export_module_and_use(tmp_path, capsys):
    path = tmp_path / "m2_free2.json"
    assert run(["catalog", "export", "m2", "--module", "free2", "-o", str(path)]) == 0
    out_of(capsys)
    module_doc = json.loads(path.read_text())["results"]["export"]
    module_file = tmp_path / "module.json"
    module_file.write_text(json.dumps(module_doc))
    code, report, _ = run_json(
        capsys,
        ["diff", "-a", "m2", "-p", str(module_file), "-q", "self",
         "--def", "right", "--order", "0"],
    )
    assert code == 0
    assert report["results"]["stage_dims"][0] > 0


def test_reports_are_byte_identical(capsys):
    argv = ["diff", "-a", "t2", "-p", "self", "-q", "self", "--def", "two-sided", "--order", "1"]
    _, _, first = run_json(capsys, argv)
    _, _, second = run_json(capsys, argv)
    assert first == second


def test_output_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["center", "-a", "m2", "--json", "-o", str(path)]
    assert run(argv) == 0
    out, _ = out_of(capsys)
    assert path.read_text() == out


def test_parser_is_built_once_and_keeps_no_state_between_runs(monkeypatch, capsys):
    import ncjets.cli as cli

    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    represent = ["represent", "-a", "m2", "-p", "self", "-q", "self", "--order", "1"]
    code, first, first_bytes = run_json(capsys, represent + ["--def", "left-sum"])
    assert code == 0
    # rejected argvs: a bad choice, a missing option, an unknown flag after --expect
    assert run(represent + ["--def", "no-such-tag"]) == 1
    assert run(["diff", "-a", "m2"]) == 1
    assert run(represent + ["--def", "left-sum", "--expect", "iso", "--bogus"]) == 1
    out_of(capsys)
    # --expect from the rejected argv must not leak: the verdict alone decides the code
    code, report, again = run_json(capsys, represent + ["--def", "left-sum"])
    assert code == 0 and again == first_bytes
    assert report["results"] == first["results"]
    assert first["results"]["verdict"] == "injective-not-surjective"
    assert run(represent + ["--def", "left-sum", "--expect", "iso"]) == 2
    assert len(builds) == 1
    cli._parser.cache_clear()
