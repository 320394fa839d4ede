"""Built-in validated example algebras and their canonical modules."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .algebra import Algebra
from .linalg import QQ
from .modules import BimoduleRep


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra: Algebra
    modules: dict = dc_field(default_factory=dict)
    notes: str = ""

    def module(self, key: str) -> BimoduleRep:
        """'self' is A over itself; 'free2' the free rank-2 bimodule."""
        if key not in self.modules:
            raise KeyError(f"unknown module {key!r}; have {sorted(self.modules)}")
        return self.modules[key]


def _zeros(n):
    return [0] * n


def _unit_table(n, rule):
    """mul[i][j] via rule(i, j) -> coordinate list."""
    return [[rule(i, j) for j in range(n)] for i in range(n)]


def _truncated_polynomial(degree: int, name: str, variable: str = "x") -> Algebra:
    n = degree

    def rule(i, j):
        out = _zeros(n)
        if i + j < n:
            out[i + j] = 1
        return out

    names = ["1"] + [f"{variable}^{k}" if k > 1 else variable for k in range(1, n)]
    unit = [1] + _zeros(n - 1)
    return Algebra(QQ, names, unit, _unit_table(n, rule), name=name)


def _matrix_units(pairs: list[tuple[int, int]], name: str) -> Algebra:
    """The span of the matrix units e{r}{c} at pairs, in order: (r,c)(r',c') = [c == r'] (r,c')."""
    n, idx = len(pairs), {pair: k for k, pair in enumerate(pairs)}

    def rule(i, j):
        (r1, c1), (r2, c2) = pairs[i], pairs[j]
        out = _zeros(n)
        if c1 == r2:
            out[idx[(r1, c2)]] = 1
        return out

    names = [f"e{r}{c}" for r, c in pairs]
    unit = [int(r == c) for r, c in pairs]
    return Algebra(QQ, names, unit, _unit_table(n, rule), name=name)


def _quaternions() -> Algebra:
    # basis 1, i, j, k with i^2 = j^2 = k^2 = -1, ij = k, jk = i, ki = j
    table = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
    }

    def rule(i, j):
        out = _zeros(4)
        k, sign = table[(i, j)]
        out[k] = sign
        return out

    return Algebra(QQ, ["1", "i", "j", "k"], [1, 0, 0, 0], _unit_table(4, rule), name="quaternions")


def _product_qq() -> Algebra:
    def rule(i, j):
        out = _zeros(2)
        if i == j:
            out[i] = 1
        return out

    return Algebra(QQ, ["e1", "e2"], [1, 1], _unit_table(2, rule), name="product_QQ")


def _trivial() -> Algebra:
    return Algebra(QQ, ["1"], [1], [[[1]]], name="trivial")


_BUILDERS = {
    "trivial": (_trivial, "the ground field itself"),
    "dual_numbers": (lambda: _truncated_polynomial(2, "dual_numbers", "eps"), "Q[eps]/(eps^2)"),
    "trunc3": (lambda: _truncated_polynomial(3, "trunc3"), "Q[x]/(x^3)"),
    "trunc4": (lambda: _truncated_polynomial(4, "trunc4"), "Q[x]/(x^4)"),
    "product_QQ": (_product_qq, "Q x Q, split idempotents"),
    "m2": (lambda: _matrix_units([(1, 1), (1, 2), (2, 1), (2, 2)], "m2"), "2x2 matrices over Q"),
    "t2": (lambda: _matrix_units([(1, 1), (1, 2), (2, 2)], "t2"), "upper-triangular 2x2 over Q"),
    "quaternions": (_quaternions, "rational quaternions, a division algebra"),
}

COMMUTATIVE_NAMES = ("trivial", "dual_numbers", "trunc3", "trunc4", "product_QQ")
NONCOMMUTATIVE_NAMES = ("m2", "t2", "quaternions")


def names() -> list[str]:
    return list(_BUILDERS)


@lru_cache(maxsize=None)
def builtin(name: str) -> CatalogEntry:
    """A validated catalog entry with its canonical modules."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown catalog algebra {name!r}; have {names()}")
    build, notes = _BUILDERS[name]
    algebra = build()
    modules = {
        "self": BimoduleRep.regular(algebra),
        "free2": BimoduleRep.free(algebra, 2),
    }
    return CatalogEntry(name=name, algebra=algebra, modules=modules, notes=notes)
