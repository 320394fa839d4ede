import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncjets.catalog import builtin, names
from ncjets.documents import (
    DocumentError,
    algebra_from_doc,
    algebra_to_doc,
    canonical_json,
    digest,
    module_from_doc,
    module_to_doc,
    subspace_to_doc,
)
from ncjets.linalg import GF, QQ, Subspace


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


def _reference_json(obj) -> str:
    # the stdlib's (pure-Python) indent-2 encoder: canonical_json must write these bytes
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# quotes, backslashes, control characters, DEL, non-ASCII text, the line
# separator U+2028 and lone surrogates, among arbitrary code points
_chars = st.one_of(
    st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600'),
    st.characters(blacklist_categories=()),
)
_texts = st.text(_chars, max_size=6)
_leaves = st.one_of(
    _texts,
    st.integers(),
    st.integers(2**70 - 2, 2**70 + 2),
    st.integers(-(2**70) - 2, -(2**70) + 2),
    st.booleans(),
    st.none(),
)


def _trees(depth: int):
    if depth == 0:
        return _leaves
    sub = _trees(depth - 1)
    return st.one_of(
        _leaves,
        st.lists(sub, max_size=3),
        st.lists(sub, max_size=3).map(tuple),
        st.lists(_texts, max_size=4),
        st.dictionaries(_texts, sub, max_size=3),
    )


@settings(max_examples=300, deadline=None)
@given(_trees(4))
def test_canonical_json_equals_the_stdlib_encoder(obj):
    assert canonical_json(obj) == _reference_json(obj)


def test_canonical_json_equals_the_stdlib_encoder_on_reports():
    m2 = builtin("m2")
    for doc in (algebra_to_doc(m2.algebra), module_to_doc(m2.module("free2")), {}, [], [[]]):
        assert canonical_json(doc) == _reference_json(doc)


@pytest.mark.parametrize(
    "obj", [1.5, {"a": [0.0]}, {1, 2}, np.int64(3), [np.bool_(True)], {1: "a"}, {"a": {None: 1}}]
)
def test_canonical_json_refuses_values_outside_reports(obj):
    with pytest.raises(TypeError):
        canonical_json(obj)


def _dense_subspace_doc(sub, field) -> dict:
    return {
        "dim": sub.dim,
        "ambient_dim": sub.ambient_dim,
        "basis": [[field.format(x) for x in row] for row in sub.basis.a],
    }


@pytest.mark.parametrize("field", [QQ, GF(7)])
@pytest.mark.parametrize("kind", ["zero", "full", "mixed"])
def test_subspace_doc_reads_the_sparse_rows(field, kind):
    def make():
        if kind == "zero":
            return Subspace.zero(field, 4)
        if kind == "full":
            return Subspace.full(field, 4)
        return Subspace.from_spanning(field, 4, [[3, 1, 0, 2], [0, 2, 1, 0], [3, 3, 1, 2]])

    sub = make()
    doc = subspace_to_doc(sub, field)
    assert sub._basis is None
    assert doc == _dense_subspace_doc(make(), field)
    if kind == "mixed" and field == QQ:
        assert doc["basis"] == [["1", "0", "-1/6", "2/3"], ["0", "1", "1/2", "0"]]


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
