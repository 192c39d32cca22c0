"""The benchmark's output checks accept chromsym's outputs and reject
corrupted ones: a coefficient off by one, a flipped sign or verdict, a bad
witness, non-canonical JSON.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from chromsym import cli  # noqa: E402


def run_cli(*argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def dump(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def test_formulas_on_small_cases():
    assert checks.standard_tableaux((2, 1)) == 2
    assert checks.standard_tableaux((3, 2)) == 5
    assert [checks.schur_at_ones((2, 1), q) for q in (1, 2, 3)] == [0, 2, 8]
    triangle = checks.multipartite_adj((1, 1, 1))
    assert checks.chromatic_values(triangle, range(5)) == {q: q * (q - 1) * (q - 2) for q in range(5)}
    path = checks.uio_adj((1, 2, 2))  # the path 0 - 1 - 2
    assert checks.chromatic_values(path, [3]) == {3: 12}
    assert checks.admits_stable_partition((3, 2), (2, 2, 1))
    assert not checks.admits_stable_partition((3, 2), (4, 1))


@pytest.mark.parametrize("sides", [(3, 2), (3, 3), (2, 2, 1), (4, 2)])
def test_expansion_checks_reject_one_coefficient_off(sides):
    graph = workloads.multipartite(sides)
    text = run_cli("expand", *graph.flags())
    coeffs = checks.parse_expansion(text)
    assert checks.canonical_problems(text) == []
    assert checks.expansion_problems(coeffs, graph.adj()) == []
    assert checks.sign_problems(coeffs, sides) == []
    for lam in coeffs:
        assert checks.expansion_problems(coeffs | {lam: coeffs[lam] + 1}, graph.adj())


def test_sign_checks_reject_wrong_signs(tmp_path):
    negative = checks.parse_expansion(run_cli("expand", "--multipartite", "3,3"))
    assert min(negative.values()) < 0
    flipped = {lam: abs(c) for lam, c in negative.items()}
    assert checks.sign_problems(flipped, (3, 3))
    positive = checks.parse_expansion(run_cli("expand", "--multipartite", "3,2"))
    some = next(iter(positive))
    assert checks.sign_problems(positive | {some: -1}, (3, 2))
    graph = workloads.uio(6, 2, 3, random.Random(0), tmp_path)
    uio = checks.parse_expansion(run_cli("expand", *graph.flags(), "--route", "oracle"))
    assert checks.expansion_problems(uio, graph.adj()) == []
    assert checks.sign_problems(uio, None) == []
    assert checks.sign_problems(uio | {next(iter(uio)): -1}, None)


def test_canonical_check_rejects_reformatted_json():
    text = run_cli("expand", "--multipartite", "2,2")
    assert checks.canonical_problems(text) == []
    assert checks.canonical_problems(json.dumps(json.loads(text), indent=1) + "\n")
    assert checks.canonical_problems(text.rstrip("\n"))
    assert checks.canonical_problems("not json")


def test_coeff_check_rejects_value_off_by_one():
    graph = workloads.multipartite((3, 3))
    reference = checks.parse_expansion(run_cli("expand", *graph.flags(), "--route", "oracle"))
    expansions = {graph.name: reference}
    for shape in [(3, 3), (2, 2, 1, 1), (1,) * 6]:
        op = workloads._coeff("coeff", graph, shape)
        text = run_cli(*op.argv)
        assert op.problems(text, expansions) == []
        data = json.loads(text)
        data["value"] = str(int(data["value"]) + 1)
        assert op.problems(dump(data), expansions)


@pytest.mark.parametrize(
    "argv, sides",
    [
        (("classify", "--lambda", "6,5", "--verify", "witness"), (6, 5)),
        (("verify", "--lambda", "4,4,4", "--mode", "witness"), (4, 4, 4)),
        (("verify", "--lambda", "3,2,2,2", "--mode", "witness"), (3, 2, 2, 2)),
        (("verify", "--lambda", "3,3", "--mode", "full"), (3, 3)),
        (("verify", "--lambda", "2,2,1", "--mode", "full"), (2, 2, 1)),
    ],
)
def test_verdict_checks_reject_corrupted_reports(argv, sides):
    text = run_cli(*argv)
    assert checks.verdict_problems(text, sides) == []
    data = json.loads(text)
    flipped = "NotSchurPositive" if data["verdict"] == "SchurPositive" else "SchurPositive"
    assert checks.verdict_problems(dump(data | {"verdict": flipped}), sides)
    assert checks.verdict_problems(dump(data | {"verified": False}), sides)
    if data["witness"] is not None:
        assert checks.verdict_problems(dump(data | {"witness": list(sides)}), sides)  # admitted
        not_dominated = [sum(sides)]
        assert checks.verdict_problems(dump(data | {"witness": not_dominated}), sides)
        assert checks.verdict_problems(dump(data | {"witness": None}), sides)
