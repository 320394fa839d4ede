import pytest

from ncjets.catalog import builtin, names
from ncjets.documents import (
    DocumentError,
    algebra_from_doc,
    algebra_to_doc,
    canonical_json,
    digest,
    module_from_doc,
    module_to_doc,
)


def test_algebra_doc_round_trip():
    for name in names():
        a = builtin(name).algebra
        doc = algebra_to_doc(a)
        back = algebra_from_doc(doc)
        assert algebra_to_doc(back) == doc
        assert back.is_commutative == a.is_commutative


def test_module_doc_round_trip():
    for name in ("dual_numbers", "m2"):
        m = builtin(name).module("free2")
        doc = module_to_doc(m)
        back = module_from_doc(doc)
        assert module_to_doc(back) == doc


def test_digest_is_stable():
    a = builtin("m2").algebra
    assert digest(algebra_to_doc(a)) == digest(algebra_to_doc(a))


def test_prime_field_document():
    doc = {
        "field": {"Fp": 5},
        "name": "dual5",
        "dim": 2,
        "basis": ["1", "eps"],
        "unit": ["1 mod 5", "0 mod 5"],
        "mul": [
            [["1 mod 5", "0 mod 5"], ["0 mod 5", "1 mod 5"]],
            [["0 mod 5", "1 mod 5"], ["0 mod 5", "0 mod 5"]],
        ],
    }
    a = algebra_from_doc(doc)
    assert a.dim == 2 and a.is_commutative
    assert algebra_to_doc(a) == doc


def test_bad_documents_rejected():
    good = algebra_to_doc(builtin("dual_numbers").algebra)
    with pytest.raises(DocumentError):
        algebra_from_doc({"dim": 1})
    bad = dict(good)
    bad["unit"] = ["0.5", "0"]
    with pytest.raises(DocumentError):
        algebra_from_doc(bad)
    bad = dict(good)
    bad["dim"] = 3
    with pytest.raises(DocumentError):
        algebra_from_doc(bad)
    with pytest.raises(DocumentError):
        algebra_from_doc({**good, "field": "R"})


def test_module_doc_algebra_consistency():
    m2 = builtin("m2")
    doc = module_to_doc(m2.module("self"))
    other = builtin("quaternions").algebra
    with pytest.raises(DocumentError):
        module_from_doc(doc, algebra=other)


def test_module_doc_needs_algebra():
    doc = module_to_doc(builtin("m2").module("self"), inline_algebra=False)
    with pytest.raises(DocumentError):
        module_from_doc(doc)


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_bool_dims_rejected():
    # JSON true is an int to isinstance; a one-dimensional document with
    # "dim": true must still be refused
    good = algebra_to_doc(builtin("trivial").algebra)
    assert algebra_from_doc(good).dim == 1
    with pytest.raises(DocumentError):
        algebra_from_doc({**good, "dim": True})
    doc = module_to_doc(builtin("trivial").module("self"))
    assert module_from_doc(doc).dim == 1
    with pytest.raises(DocumentError):
        module_from_doc({**doc, "dim": True})
