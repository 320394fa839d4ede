"""Smoke test of the benchmark on its smallest case, with no timing gate.

    PYTHONPATH=src python -m pytest -q benchmarks/test_smoke.py

Also cross-checks the small members of the ladder generators, in the
identity and in a seeded basis, against the naive oracle in
tests/oracle_systems.py.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import generators as gen
import oracle_systems as oracle
from ncjets import QQ, diff_commutative, jet_module

HERE = Path(__file__).resolve().parent

SMALL = [
    lambda f: gen.matrix_algebra(2, f),
    lambda f: gen.upper_triangular(2, f),
    lambda f: gen.upper_triangular(3, f),
    lambda f: gen.truncated_polynomial(3, f),
    lambda f: gen.truncated_polynomial(4, f),
    gen.group_algebra_s3,
    gen.exterior_algebra_2,
]


def _scrambled(algebra, seed):
    """The algebra in a random signed permutation of its basis."""
    rng = random.Random(seed)
    perm = list(range(algebra.dim))
    rng.shuffle(perm)
    return gen.change_basis(algebra, perm, [rng.choice((1, -1)) for _ in perm])


@pytest.mark.parametrize("basis", ["identity", "seeded", "scrambled"])
@pytest.mark.parametrize("build", SMALL)
def test_generators_agree_with_oracle(build, basis):
    algebra = build(QQ)
    if basis == "seeded":
        algebra = gen.seeded(algebra, 5)
    elif basis == "scrambled":
        algebra = _scrambled(algebra, 5)
    mul = gen.raw_table(algebra)
    P = gen.modules_of(algebra)["self"]
    assert algebra.center.dim == oracle.center_dim(mul)
    assert algebra.derivations.dim == oracle.derivations_dim(mul)
    assert jet_module(P, 1).dim == oracle.jet_dim(mul, 1)
    if algebra.is_commutative:
        assert diff_commutative(P, P, 2).dims == oracle.comm_diff_stage_dims(mul, 2)


def test_seeded_signs_are_reproducible():
    assert gen.seeded_signs(0, "m3", 9) == [1] * 9
    signs = gen.seeded_signs(7, "m3", 9)
    assert set(signs) == {1, -1} and gen.seeded_signs(7, "m3", 9) == signs


def test_catalog_cli_one_untraced_and_one_traced_pass():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "catalog-cli",
         "--seed", "3", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["cli.run.calls"]["value"] > 0
