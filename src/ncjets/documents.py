"""JSON document schemas: algebras, modules, and deterministic reports.

Scalars travel as exact strings ("n", "n/d", "k mod p").  Reports are
serialized with sorted keys and canonical scalar strings, so identical
inputs produce byte-identical output.
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


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# algebra documents


def algebra_to_doc(algebra: Algebra) -> dict:
    fmt = algebra.field.format
    return {
        "field": algebra.field.spec(),
        "name": algebra.name,
        "dim": algebra.dim,
        "basis": list(algebra.basis_names),
        "unit": [fmt(x) for x in algebra.unit],
        "mul": [
            [[fmt(x) for x in algebra.mul[i, j]] for j in range(algebra.dim)]
            for i in range(algebra.dim)
        ],
    }


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
    parse = field.parse
    try:
        unit = [parse(s) for s in doc["unit"]]
        mul = [
            [[parse(s) for s in doc["mul"][i][j]] for j in range(dim)]
            for i in range(dim)
        ]
    except (ValueError, IndexError, TypeError) as exc:
        raise DocumentError(f"bad scalar in algebra document: {exc}") from exc
    return Algebra(field, basis, unit, mul, name=doc.get("name", ""))


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
    inline = doc.get("algebra")
    if isinstance(inline, dict) and "file" in inline:
        path = Path(inline["file"])
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
    return BimoduleRep(algebra, left, right, name=doc.get("name", "module"))


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
    fmt = field.format
    return {
        "dim": sub.dim,
        "ambient_dim": sub.ambient_dim,
        "basis": [[fmt(x) for x in row] for row in sub.basis.a],
    }


def hom_matrix_to_doc(mat: Matrix) -> list[list[str]]:
    return mat.to_strings()
