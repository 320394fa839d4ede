"""JSON document schemas: algebras, modules, and deterministic reports.

Scalars travel as exact strings ("n", "n/d", "k mod p").  Reports are
serialized with sorted keys and canonical scalar strings, so identical
inputs produce byte-identical output.

canonical_json writes exactly the bytes of
``json.dumps(obj, sort_keys=True, indent=2) + "\n"``.  The stdlib falls
back to its pure-Python encoder whenever ``indent`` is set, so this module
has its own small recursive encoder: strings go through
``json.encoder.encode_basestring_ascii``, the C function ``json.dumps``
uses, and each container is one ``",\n" + indent`` join; a list of
strings, such as a matrix row, is one join over the escaped strings.  Its
domain is what reports hold: dicts with str keys, lists, tuples, str,
int, bool and None.  Anything else (a float, a set, a numpy scalar, a
non-str key) raises TypeError.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .algebra import Algebra
from .linalg import Matrix, field_from_spec
from .modules import BimoduleRep

SCHEMA_VERSION = "0.1.0"


class DocumentError(ValueError):
    """A document is malformed or inconsistent with its schema."""


def _is_count(x) -> bool:
    # JSON true/false load as bools, which are ints to isinstance
    return isinstance(x, int) and not isinstance(x, bool)


_quote = json.encoder.encode_basestring_ascii


def _encode(obj, nl: str) -> str:
    """obj as JSON with sorted keys and two-space indents; nl is "\n" plus obj's indent."""
    if isinstance(obj, str):
        return _quote(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        sep = "," + inner
        if isinstance(obj[0], str):
            try:  # a list of strings, such as a matrix row, in one join
                return "[" + inner + sep.join(map(_quote, obj)) + nl + "]"
            except TypeError:  # a later item is not a string
                pass
        return "[" + inner + sep.join([_encode(x, inner) for x in obj]) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        sep = "," + inner
        items = [_quote(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + sep.join(items) + nl + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"{type(obj).__name__} is not a report value")


def canonical_json(obj) -> str:
    """obj as sorted, indent-2 JSON text ending in a newline (see the module docstring)."""
    return _encode(obj, "\n") + "\n"


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# algebra documents


def algebra_to_doc(algebra: Algebra) -> dict:
    n = algebra.dim
    unit, *mul = algebra.field.format_rows(
        [algebra.unit.tolist(), *algebra.mul.reshape(n * n, n).tolist()]
    )
    return {
        "field": algebra.field.spec(),
        "name": algebra.name,
        "dim": n,
        "basis": list(algebra.basis_names),
        "unit": unit,
        "mul": [mul[i * n : (i + 1) * n] for i in range(n)],
    }


def _require_str(kind: str, key: str, value) -> str:
    if not isinstance(value, str):
        got = type(value).__name__
        raise DocumentError(f"{kind} document {key} must be a string, not {got}")
    return value


def _require_list(key: str, value, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise DocumentError(f"algebra document {key} must be a list, not {type(value).__name__}")
    if length is not None and len(value) != length:
        raise DocumentError(f"algebra document {key} must have {length} entries, got {len(value)}")
    return value


def algebra_from_doc(doc) -> Algebra:
    if not isinstance(doc, dict):
        raise DocumentError("algebra document must be a JSON object")
    missing = {"field", "dim", "basis", "unit", "mul"} - set(doc)
    if missing:
        raise DocumentError(f"algebra document lacks keys: {sorted(missing)}")
    try:
        field = field_from_spec(doc["field"])
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    dim = doc["dim"]
    basis = doc["basis"]
    if not _is_count(dim) or dim < 1 or not isinstance(basis, list) or len(basis) != dim:
        raise DocumentError("dim must be a positive int matching the basis length")
    # a JSON string iterates as its characters, so "1001" would read as a vector
    _require_list("unit", doc["unit"])
    for i, row in enumerate(_require_list("mul", doc["mul"], dim)):
        for j, cell in enumerate(_require_list(f"mul[{i}]", row, dim)):
            _require_list(f"mul[{i}][{j}]", cell)
    parse = field.parse
    try:
        unit = [parse(s) for s in doc["unit"]]
        mul = [
            [[parse(s) for s in doc["mul"][i][j]] for j in range(dim)]
            for i in range(dim)
        ]
    except (ValueError, IndexError, TypeError) as exc:
        raise DocumentError(f"bad scalar in algebra document: {exc}") from exc
    name = _require_str("algebra", "name", doc.get("name", ""))
    return Algebra(field, basis, unit, mul, name=name)


# ---------------------------------------------------------------------------
# module documents


def module_to_doc(module: BimoduleRep, inline_algebra: bool = True) -> dict:
    doc = {
        "algebra": algebra_to_doc(module.algebra) if inline_algebra else None,
        "name": module.name,
        "dim": module.dim,
        "left_action": [m.to_strings() for m in module.left],
        "right_action": [m.to_strings() for m in module.right],
    }
    return doc


def module_from_doc(doc, algebra: Algebra | None = None, base_dir: Path | None = None) -> BimoduleRep:
    if not isinstance(doc, dict):
        raise DocumentError("module document must be a JSON object")
    missing = {"dim", "left_action", "right_action"} - set(doc)
    if missing:
        raise DocumentError(f"module document lacks keys: {sorted(missing)}")
    name = _require_str("module", "name", doc.get("name", "module"))
    inline = doc.get("algebra")
    if isinstance(inline, dict) and "file" in inline:
        path = Path(_require_str("module", "algebra.file", inline["file"]))
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        inline = load_json(path)
    if inline is not None:
        doc_algebra = algebra_from_doc(inline)
        if algebra is None:
            algebra = doc_algebra
        elif digest(algebra_to_doc(doc_algebra)) != digest(algebra_to_doc(algebra)):
            raise DocumentError(
                "module document carries an algebra different from the one supplied"
            )
    if algebra is None:
        raise DocumentError("module document needs an algebra (inline or via -a)")
    m = doc["dim"]
    if not _is_count(m) or m < 1:
        raise DocumentError("module dim must be a positive int")
    parse = algebra.field.parse

    def square(mat) -> bool:
        return isinstance(mat, list) and len(mat) == m and all(
            isinstance(r, list) and len(r) == m for r in mat
        )

    def mats(key):
        raw = doc[key]
        if not isinstance(raw, list) or len(raw) != algebra.dim:
            raise DocumentError(f"{key} needs a list of {algebra.dim} matrices")
        if not all(square(mat) for mat in raw):
            raise DocumentError(f"{key} matrices must be {m}x{m}")
        try:
            return [Matrix(algebra.field, [[parse(s) for s in r] for r in mat]) for mat in raw]
        except ValueError as exc:
            raise DocumentError(f"bad scalar in module document: {exc}") from exc

    left = mats("left_action")
    right = mats("right_action")
    return BimoduleRep(algebra, left, right, name=name)


# ---------------------------------------------------------------------------
# files and reports


def load_json(path: Path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IOError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc


def make_report(command: str, args: dict, inputs: dict, results: dict) -> dict:
    return {
        "command": command,
        "args": args,
        "inputs": inputs,
        "results": results,
        "version": SCHEMA_VERSION,
    }


def subspace_to_doc(sub, field) -> dict:
    # from the sparse rows: never builds the dense sub.basis
    rows = sub.rows
    zero = [field.format(field.zero)] * sub.ambient_dim
    basis = []
    for row, texts in zip(rows, field.format_rows([row.values() for row in rows])):
        line = zero.copy()
        for c, text in zip(row, texts):
            line[c] = text
        basis.append(line)
    return {
        "dim": sub.dim,
        "ambient_dim": sub.ambient_dim,
        "basis": basis,
    }


def hom_matrix_to_doc(mat: Matrix) -> list[list[str]]:
    return mat.to_strings()
