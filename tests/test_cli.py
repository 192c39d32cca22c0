import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import chromsym
from chromsym.cli import COMMANDS, canonical_json, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_json(capsys):
    code, out, _ = run(capsys, "expand", "--multipartite", "3,2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["graph"] == {"multipartite": [3, 2]}
    assert data["n"] == 5
    coeffs = {tuple(c["partition"]): c["value"] for c in data["coeffs"]}
    assert coeffs == {
        (3, 2): "1",
        (3, 1, 1): "1",
        (2, 2, 1): "3",
        (2, 1, 1, 1): "12",
        (1, 1, 1, 1, 1): "46",
    }


def test_expand_json_round_trips_byte_identical(capsys):
    code, out, _ = run(capsys, "expand", "--multipartite", "2,2")
    assert code == 0
    assert canonical_json(json.loads(out)) == out


def test_expand_csv(capsys):
    code, out, _ = run(capsys, "expand", "--multipartite", "2,2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["2,2;2", "2,1,1;2", "1,1,1,1;14"]


def test_expand_rejects_ascii(capsys):
    code, _, err = run(capsys, "expand", "--multipartite", "2,2", "--format", "ascii")
    assert code == 2
    assert "ascii" in err


def test_expand_requires_exactly_one_graph_source(capsys, tmp_path):
    code, _, err = run(capsys, "expand")
    assert code == 2 and "--multipartite" in err
    path = tmp_path / "g.json"
    path.write_text('{"n": 2, "edges": []}')
    code, _, err = run(
        capsys, "expand", "--multipartite", "2,2", "--graph-json", str(path)
    )
    assert code == 2


def test_expand_graph_json_and_shorthand(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 2], [0, 3], [1, 2], [1, 3]]}))
    code, out, _ = run(capsys, "expand", "--graph-json", str(path))
    assert code == 0
    coeffs = {tuple(c["partition"]): c["value"] for c in json.loads(out)["coeffs"]}
    assert coeffs[(1, 1, 1, 1)] == "14"

    short = tmp_path / "m.json"
    short.write_text(json.dumps({"multipartite": [2, 2]}))
    code, out2, _ = run(capsys, "expand", "--graph-json", str(short))
    assert code == 0
    assert json.loads(out2)["graph"] == {"multipartite": [2, 2]}


def test_expand_poset_json(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(
        json.dumps(
            {
                "n": 6,
                "covers": [[0, 1], [1, 5], [0, 2], [2, 4], [3, 2], [1, 4]],
                "labels": ["a", "b", "c", "d", "e", "f"],
            }
        )
    )
    code, out, _ = run(capsys, "expand", "--poset-json", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 6
    assert all(int(c["value"]) > 0 or int(c["value"]) < 0 for c in data["coeffs"])


def test_expand_vertex_cap(capsys):
    code, _, err = run(
        capsys, "expand", "--multipartite", "3,3,3,3", "--max-vertices", "10"
    )
    assert code == 2 and "--max-vertices" in err


def test_env_var_cap(capsys, monkeypatch):
    monkeypatch.setenv("CHROMSYM_MAX_VERTICES", "3")
    code, _, err = run(capsys, "expand", "--multipartite", "2,2")
    assert code == 2
    monkeypatch.setenv("CHROMSYM_MAX_VERTICES", "not a number")
    code, _, err = run(capsys, "expand", "--multipartite", "2,2")
    assert code == 2
    for value in ("0", "-4"):
        monkeypatch.setenv("CHROMSYM_MAX_VERTICES", value)
        code, _, err = run(capsys, "expand", "--multipartite", "2,2")
        assert code == 2 and "--max-vertices must be positive" in err
    monkeypatch.delenv("CHROMSYM_MAX_VERTICES")
    code, _, err = run(capsys, "expand", "--multipartite", "2,2", "--max-vertices", "0")
    assert code == 2 and "--max-vertices must be positive" in err


@pytest.mark.parametrize("command", ["expand", "coeff"])
def test_oracle_route_past_twelve_vertices(capsys, command):
    argv = [command, "--multipartite", "5,4,4", "--max-vertices", "13"]
    if command == "coeff":
        argv += ["--lambda", "3,3,3,2,2"]
    code, oracle, err = run(capsys, *argv, "--route", "oracle")
    assert code == 0 and err == ""
    code, ww, _ = run(capsys, *argv, "--route", "ww")
    assert code == 0
    if command == "coeff":
        oracle, ww = json.loads(oracle), json.loads(ww)
        assert oracle.pop("route") == "oracle" and ww.pop("route") == "ww"
    assert oracle == ww


def test_full_scan_is_bounded_by_max_vertices_only(capsys):
    code, out, _ = run(
        capsys, "verify", "--lambda", "6,6,6", "--mode", "full", "--max-vertices", "18"
    )
    assert code == 0 and '"verified":true' in out
    for argv in (
        ("verify", "--lambda", "8,8", "--mode", "full"),
        ("classify", "--lambda", "8,8", "--verify", "full"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and "--max-vertices 12" in lines[0]


def test_coeff(capsys):
    code, out, _ = run(
        capsys, "coeff", "--multipartite", "3,1", "--lambda", "2,2", "--route", "oracle"
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "-1"
    assert data["route"] == "oracle"
    code, out, _ = run(capsys, "coeff", "--multipartite", "2,2", "--lambda", "2,1,1")
    data = json.loads(out)
    assert data["value"] == "2"


def test_classify(capsys):
    code, out, _ = run(
        capsys, "classify", "--lambda", "5,4,4,4", "--verify", "witness"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "NotSchurPositive"
    assert data["witness"] == [5, 4, 3, 3, 2]
    assert data["verified"] is True

    code, out, _ = run(capsys, "classify", "--lambda", "3,2,2")
    data = json.loads(out)
    assert code == 0 and data["verdict"] == "SchurPositive" and not data["verified"]


def test_classify_rejects_single_block(capsys):
    code, _, err = run(capsys, "classify", "--lambda", "5")
    assert code == 2


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--lambda", "3,3", "--mode", "witness")
    assert code == 0 and json.loads(out)["verified"] is True
    # all-small sides carry no witness-mode certificate: reported, exit 1
    code, out, _ = run(capsys, "verify", "--lambda", "2,2", "--mode", "witness")
    assert code == 1 and json.loads(out)["verified"] is False
    code, out, _ = run(capsys, "verify", "--lambda", "2,2", "--mode", "full")
    assert code == 0 and json.loads(out)["verified"] is True


@pytest.mark.parametrize("mode", ["witness", "full"])
@pytest.mark.parametrize("lam", ["3,2,2", "3,3", "4,3", "15,14"])
def test_classify_verify_matches_verify(capsys, lam, mode):
    checked = run(capsys, "classify", "--lambda", lam, "--verify", mode)
    assert checked == run(capsys, "verify", "--lambda", lam, "--mode", mode)
    code, out, _ = checked
    if (lam, mode) == ("4,3", "witness"):
        # no witness is known for (4, 3): the verdict stands unconfirmed
        assert code == 1 and json.loads(out)["witness"] is None
    if (lam, mode) == ("15,14", "full"):
        assert code == 2 and out == ""


def test_full_verify_of_the_three_two_family_at_63_vertices(capsys):
    # both routes of the scan walk only the shapes of at most 3 columns
    lam = ",".join(["3"] + ["2"] * 30)
    code, out, _ = run(capsys, "verify", "--mode", "full", "--lambda", lam, "--max-vertices", "100")
    data = json.loads(out)
    assert code == 0 and data["verified"] is True and data["verdict"] == "SchurPositive"


def three_two(beta, head=(3,), tail=()):
    return ",".join(map(str, (*head, *(2,) * beta, *tail)))


@pytest.mark.parametrize(
    "lam",
    [
        three_two(40),
        three_two(37, (3, 3), (1, 1)),
        three_two(20, (3,), (1,) * 40),
        three_two(41, (), (1,)),
        three_two(0, (), (1,) * 83),
        three_two(39, (4,), (1,)),
    ],
    ids=["3,2^40", "3,3,2^37,1,1", "3,2^20,1^40", "2^41,1", "1^83", "4,2^39,1"],
)
def test_coeff_past_64_vertices_agrees_on_ww_and_closed(capsys, lam):
    argv = ["coeff", "--multipartite", three_two(40), "--max-vertices", "83", "--lambda", lam]
    code, ww, err = run(capsys, *argv, "--route", "ww")
    assert code == 0 and err == ""
    code, closed, _ = run(capsys, *argv, "--route", "closed")
    assert code == 0
    ww, closed = json.loads(ww), json.loads(closed)
    assert ww.pop("route") == "ww" and closed.pop("route") == "closed"
    assert ww == closed


def test_full_verify_past_64_vertices(capsys):
    argv = ("verify", "--mode", "full", "--lambda", three_two(31), "--max-vertices", "65")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and '"verified":true' in out


def test_oversize_sources_are_refused_before_they_are_built(capsys, monkeypatch, tmp_path):
    from chromsym import posets

    built = []

    def spy(build):
        def record(*args, **kwargs):
            built.append(build.__qualname__)
            return build(*args, **kwargs)

        return record

    monkeypatch.setattr(chromsym.cli, "multipartite", spy(posets.multipartite))
    for cls in (posets.Graph, posets.Poset):
        monkeypatch.setattr(cls, "__init__", spy(cls.__init__))

    def sources(n):
        documents = [
            ("--graph-json", {"n": n, "edges": [[0, n - 1]]}),
            ("--graph-json", {"multipartite": [n // 2, n // 2]}),
            ("--poset-json", {"n": n, "covers": [[0, n - 1]]}),
        ]
        yield "--multipartite", f"{n // 2},{n // 2}"
        for i, (flag, doc) in enumerate(documents):
            path = tmp_path / f"{n}-{i}.json"
            path.write_text(json.dumps(doc))
            yield flag, str(path)

    for flag, value in sources(100):
        code, out, err = run(capsys, "expand", flag, value, "--max-vertices", "99")
        assert code == 2 and out == ""
        assert err == "chromsym: error: size 100 is above --max-vertices 99\n"
    assert built == []
    # the spies see the sources that fit the budget being built
    for flag, value in sources(4):
        code, _, _ = run(capsys, "expand", flag, value, "--max-vertices", "99")
        assert code == 0 and built
        built.clear()


def test_ww_past_the_census_code_is_one_usage_line(capsys):
    argv = ("expand", "--multipartite", three_two(130), "--max-vertices", "300")
    code, out, err = run(capsys, *argv, "--route", "ww")
    assert code == 2 and out == ""
    assert err == "chromsym: error: the census codes at most 255 cells, got 263\n"
    code, out, _ = run(capsys, "expand", "--help")
    assert code == 0 and "at most 255 vertices" in out


def test_oracle_check_max_n_is_bounded_by_max_vertices(capsys, monkeypatch):
    from chromsym import selfcheck

    def refuse(max_n):
        raise AssertionError("a check ran over the budget")

    monkeypatch.setattr(selfcheck, "CHECKS", (("refuse", refuse),))
    code, out, err = run(capsys, "oracle-check", "--max-n", "13")
    assert code == 2 and out == ""
    assert err == "chromsym: error: size 13 is above --max-vertices 12\n"


def test_witness_mode_is_not_bound_by_the_bitmask(capsys):
    # certificates are checked on the sides, so no graph of the type is built
    code, out, _ = run(capsys, "verify", "--mode", "witness", "--lambda", "40,40")
    data = json.loads(out)
    assert code == 0 and data["verified"] is True and data["witness"] == [39, 39, 2]
    code, out, _ = run(capsys, "classify", "--lambda", "40,39", "--verify", "witness")
    data = json.loads(out)
    assert code == 0 and data["verified"] is True and data["witness"] == [38, 38, 3]
    lam = ",".join(["3"] + ["2"] * 32)  # 67 vertices
    code, out, _ = run(capsys, "verify", "--mode", "witness", "--lambda", lam)
    assert code == 0 and json.loads(out)["verified"] is True


def test_tabloids_ascii(capsys):
    code, out, _ = run(capsys, "tabloids", "--shape", "4,2,2", "--format", "ascii")
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 6
    assert sum("sign=-1" in b for b in blocks) == 3
    assert sum("sign=+1" in b for b in blocks) == 3
    assert all(len(b.splitlines()) == 4 for b in blocks)


def test_tabloids_json(capsys):
    code, out, _ = run(capsys, "tabloids", "--shape", "2,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert {tuple(t["content"]) for t in data["tabloids"]} == {(1, 2), (3,)}
    assert canonical_json(data) == out


def test_tabloids_cap(capsys):
    code, _, err = run(
        capsys, "tabloids", "--shape", "1,1,1,1,1,1,1,1", "--max-vertices", "7"
    )
    assert code == 2 and "--max-vertices" in err


def test_tabloids_cap_is_checked_before_tiling(capsys, monkeypatch):
    from chromsym import tabloids

    def refuse(shape):
        raise AssertionError("tilings built for an over-budget shape")

    monkeypatch.setattr(tabloids, "_tilings", refuse)
    code, out, err = run(capsys, "tabloids", "--shape", ",".join(["1"] * 20))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "--max-vertices" in lines[0]


def test_nsp(capsys):
    code, out, _ = run(capsys, "nsp", "--lambda", "3,2")
    assert code == 0 and out == "46\n"
    code, out, _ = run(capsys, "nsp", "--lambda", "2,2")
    assert out == "14\n"
    code, out, _ = run(capsys, "nsp", "--lambda", "7,7,7,7,7,7")
    assert code == 0
    assert out == "58215641824462047457894859941480189937616591780720\n"
    code, out, _ = run(capsys, "nsp", "--lambda", "1000")
    assert code == 0 and out == "1\n"


def test_output_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "expand", "--multipartite", "2,2", "--output", str(path)
    )
    assert code == 0 and out == ""
    data = json.loads(path.read_text())
    assert data["n"] == 4


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    missing = tmp_path / "no such dir" / "x"
    for target in (missing, tmp_path):
        code, out, err = run(capsys, "nsp", "--lambda", "3", "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"chromsym: error: cannot write {target}: ")
        assert len(err.splitlines()) == 1
    assert not missing.parent.exists()


def test_unwritable_output_is_refused_before_the_work(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("expanded before checking --output")

    monkeypatch.setattr(chromsym.cli, "expand_schur", refuse)
    kept = tmp_path / "kept.json"
    kept.write_text("kept")
    for target in (tmp_path / "missing" / "x", tmp_path, kept / "x"):
        code, out, err = run(
            capsys, "expand", "--multipartite", "3,3", "--output", str(target)
        )
        assert code == 2 and out == ""
        assert err.startswith(f"chromsym: error: cannot write {target}: ")
        assert len(err.splitlines()) == 1
    assert kept.read_text() == "kept"


def test_oracle_check(capsys):
    code, out, _ = run(capsys, "oracle-check", "--max-n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(line.startswith("ok") for line in lines)


def test_usage_error_is_one_stderr_line(capsys):
    cases = [
        (["expand", "--route", "bogus", "--multipartite", "2,2"], "--route: "),
        (["coeff", "--multipartite", "2,2"], "--lambda is required"),
        (["expand", "--multipartite", "2,2", "--max-vertices", "x"], "--max-vertices: "),
        (["expand", "--mult", "2,2"], "expand: unknown flag '--mult'"),
        (["nsp", "--lambda"], "--lambda: expected a value"),
        (["nsp", "--lambda=--"], "--lambda: expected comma-separated integers"),
        (["nsp", "--lambda", "-1,5"], "--lambda: "),
        (["bogus"], "expected a command"),
        ([], "expected a command"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"chromsym: error: {message}")


def test_help_names_every_command_and_flag(capsys):
    for argv in (["-h"], ["--help"]):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert all(command in out for command in COMMANDS)
    for command, (_, _, flags, _) in COMMANDS.items():
        for argv in ([command, "--help"], [command, "--lambda", "3", "-h"]):
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            assert out.startswith(f"usage: chromsym {command} ")
            assert all(flag in out for flag in flags)


def test_nsp_loads_neither_argparse_nor_the_battery():
    # pytest itself imports argparse, so the check needs a fresh interpreter
    script = (
        "import sys\n"
        "from chromsym import cli\n"
        "code = cli.main(['nsp', '--lambda', '3'])\n"
        "print(code, [m for m in ('argparse', 'chromsym.selfcheck') if m in sys.modules])\n"
    )
    src = str(Path(chromsym.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1\n0 []\n"


def test_bad_lambda(capsys):
    code, _, err = run(capsys, "nsp", "--lambda", "2,x")
    assert code == 2 and "comma-separated" in err
    code, _, err = run(capsys, "tabloids", "--shape", "0")
    assert code == 2 and err.startswith("chromsym: error: --shape: ")


@pytest.mark.parametrize(
    "document, message",
    [
        ('{"multipartite":[0,2]}', "--graph-json:"),
        ('{"multipartite":"ab"}', "--graph-json:"),
        ('{"n":3,"edges":5}', "--graph-json:"),
        ('{"n":"x","edges":[]}', "--graph-json:"),
        ("[1,2]", "--graph-json: expected a JSON object, got list"),
    ],
)
def test_malformed_graph_json_is_a_usage_error(capsys, monkeypatch, document, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    code, out, err = run(capsys, "expand", "--graph-json", "-")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"chromsym: error: {message}")


@pytest.mark.parametrize(
    "flag, document, message",
    [
        ("--graph-json", '{"multipartite":[2.5]}', "multipartite entry must be an integer"),
        ("--graph-json", '{"n":true,"edges":[]}', "n must be an integer"),
        ("--poset-json", '{"n":3,"edges":[[0,1]]}', 'unknown key "edges"'),
    ],
    ids=["fractional-side", "boolean-n", "poset-with-edges"],
)
def test_non_integer_numbers_and_unknown_keys_are_usage_errors(
    capsys, monkeypatch, flag, document, message
):
    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    code, out, err = run(capsys, "expand", flag, "-")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"chromsym: error: {flag}: {message}")


C5 = {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}
POSET6 = {
    "n": 6,
    "covers": [[0, 1], [1, 5], [0, 2], [2, 4], [3, 2], [1, 4]],
    "labels": ["a", "b", "c", "d", "e", "f"],
}


def unit_interval_order(reach):
    """Natural unit interval order: i < j iff j > reach[i]."""
    n = len(reach)
    return {"n": n, "covers": [[i, j] for i in range(n) for j in range(reach[i] + 1, n)]}


def test_auto_never_enumerates_filled_tabloids(capsys, monkeypatch, tmp_path):
    from chromsym import schur, tabloids

    def refuse(*args, **kwargs):
        raise AssertionError("auto enumerated filled tabloids")

    monkeypatch.setattr(tabloids, "signed_g_tabloid_counts", refuse)
    monkeypatch.setattr(schur, "signed_g_tabloid_counts", refuse)
    poset = tmp_path / "p.json"
    poset.write_text(json.dumps(POSET6))
    c5 = tmp_path / "c5.json"
    c5.write_text(json.dumps(C5))
    sources = [
        ("--multipartite", "3,3", "2,2,1,1"),
        ("--multipartite", "4,2,1", "3,2,1,1"),
        ("--poset-json", str(poset), "2,2,1,1"),
        ("--graph-json", str(c5), "2,2,1"),
    ]
    for flag, value, shape in sources:
        code, out, _ = run(capsys, "expand", flag, value)
        assert code == 0 and json.loads(out)["coeffs"]
        code, out, _ = run(capsys, "coeff", flag, value, "--lambda", shape)
        data = json.loads(out)
        assert code == 0 and data["route"] == "ww" and data["tabloid_counts"] is None
    for lam in ("3,3", "4,2,1", "3,2,2", "2,2,2,2"):
        code, out, _ = run(capsys, "verify", "--lambda", lam, "--mode", "full")
        assert code == 0 and json.loads(out)["verified"] is True
    # the patch is in force: the explicit tail route does reach it
    with pytest.raises(AssertionError):
        run(capsys, "expand", "--multipartite", "3,3", "--route", "tail")


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--multipartite", "3,3,2"),
        ("--multipartite", "4,3,1"),
        ("--multipartite", "2,2,2,1,1"),
        ("--poset-json", unit_interval_order((2, 3, 4, 5, 6, 7, 7, 7))),
    ],
    ids=["K_332", "K_431", "K_22211", "uio8"],
)
def test_auto_expansion_is_byte_identical_to_tail(capsys, tmp_path, flag, value):
    if flag == "--poset-json":
        path = tmp_path / "p.json"
        path.write_text(json.dumps(value))
        value = str(path)
    for fmt in ("json", "csv"):
        auto = run(capsys, "expand", flag, value, "--format", fmt)
        tail = run(capsys, "expand", flag, value, "--format", fmt, "--route", "tail")
        assert auto == tail and auto[0] == 0


def test_expand_sparse_order_of_14_by_sweep_and_peeling(capsys, monkeypatch, tmp_path):
    from chromsym import posets, tabloids

    def refuse(*args):
        raise AssertionError("backtracked or listed tilings")

    monkeypatch.setattr(posets, "stable_partition_count_backtracking", refuse)
    monkeypatch.setattr(posets, "_partition_blocks", refuse)
    monkeypatch.setattr(tabloids, "_tilings", refuse)
    path = tmp_path / "p.json"
    # i < j iff j - i >= 3
    path.write_text(json.dumps(unit_interval_order([i + 2 for i in range(14)])))
    argv = ("expand", "--poset-json", str(path), "--max-vertices", "14")
    auto = run(capsys, *argv)
    assert auto[0] == 0 and auto[2] == ""
    assert run(capsys, *argv, "--route", "oracle") == auto


# Fuzz of the whole command line: flags in --flag=value and --flag value form,
# values that start with a dash, unknown, abbreviated, repeated and dangling
# flags, and missing or unknown commands. Every graph has at most 8 vertices,
# so every run is cheap whatever it asks for.
JUNK = st.sampled_from(["", " ", "x", "1.5", "--", "2 2", "1e3", "+", "-1,5"])
PART = st.one_of(st.integers(-2, 4).map(str), JUNK)
PARTS_TEXT = st.one_of(
    st.lists(st.integers(1, 4), min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.lists(PART, max_size=4).map(",".join),
).filter(lambda text: sum(int(p) for p in text.split(",") if p.isdigit()) <= 8)
SMALL = st.integers(-1, 8)
JSON_SCALAR = st.one_of(SMALL, st.booleans(), st.none(), st.just(2.5), st.text(max_size=2))
PAIRS = st.one_of(
    st.lists(st.one_of(st.lists(SMALL, max_size=3), JSON_SCALAR), max_size=6),
    JSON_SCALAR,
)
MODES = st.sampled_from(["witness", "full"])
STRAY_TOKENS = st.sampled_from(
    ["--mult", "--lam", "--max-v", "--rou", "--bogus", "-x", "--", "3,2", "--route="]
)


@st.composite
def well_formed_document(draw, key):
    n = draw(st.integers(0, 8))
    pair = st.lists(st.integers(0, max(n - 1, 0)), min_size=2, max_size=2, unique=True)
    pairs = draw(st.lists(pair.map(sorted), max_size=12)) if n > 1 else []
    return json.dumps({"n": n, key: pairs})


MALFORMED_DOCUMENTS = st.one_of(
    st.fixed_dictionaries(
        {"n": st.one_of(SMALL, JSON_SCALAR), "edges": PAIRS},
        optional={"covers": PAIRS, "junk": JSON_SCALAR},
    ),
    st.fixed_dictionaries(
        {"n": st.one_of(SMALL, JSON_SCALAR), "covers": PAIRS},
        optional={"labels": st.one_of(st.lists(st.text(max_size=2), max_size=8), JSON_SCALAR)},
    ),
    st.fixed_dictionaries(
        {"multipartite": st.one_of(st.lists(st.integers(-1, 4), max_size=2), JSON_SCALAR)},
        optional={"n": SMALL},
    ),
    JSON_SCALAR,
    st.lists(SMALL, max_size=3),
).map(json.dumps) | st.sampled_from(["", "{", "nope", "[1,"])


@st.composite
def invocations(draw):
    command = draw(
        st.sampled_from(["expand", "coeff", "classify", "verify", "tabloids", "nsp"])
    )
    flags, stdin = [], ""  # (flag, strategy for its value)
    if command in ("expand", "coeff"):
        source = draw(st.sampled_from(["--multipartite", "--graph-json", "--poset-json"]))
        if source == "--multipartite":
            flags.append((source, PARTS_TEXT))
        else:
            flags.append((source, st.just("-")))
            key = "edges" if source == "--graph-json" else "covers"
            stdin = draw(well_formed_document(key) | MALFORMED_DOCUMENTS)
        flags.append(("--route", st.sampled_from(["auto", "ww", "closed", "oracle"])))
        if command == "coeff":
            flags.append(("--lambda", PARTS_TEXT))
        else:
            flags.append(("--format", st.sampled_from(["json", "csv", "ascii"])))
    elif command == "tabloids":
        flags.append(("--shape", PARTS_TEXT))
        flags.append(("--format", st.sampled_from(["json", "ascii"])))
    else:
        flags.append(("--lambda", PARTS_TEXT))
        if command == "classify" and draw(st.booleans()):
            flags.append(("--verify", MODES))
        if command == "verify":
            flags.append(("--mode", MODES))
    if draw(st.booleans()):
        flags.append(("--max-vertices", st.integers(-1, 9).map(str)))
    if draw(st.integers(0, 3)) == 3:
        flags.append(draw(st.sampled_from(flags)))
    argv = [command]
    for flag, values in flags:
        value = draw(values)
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    mutation = draw(st.sampled_from([None] * 4 + ["stray", "dangling", "command", "no command"]))
    if mutation == "stray":
        argv.insert(draw(st.integers(1, len(argv))), draw(STRAY_TOKENS))
    elif mutation == "dangling":
        argv.append(draw(st.sampled_from(flags))[0])
    elif mutation == "command":
        argv[0] = draw(st.sampled_from(["", "expnd", "Expand", "help", "--lambda"]))
    elif mutation == "no command":
        argv.pop(0)
    return argv, stdin


@settings(max_examples=300, deadline=None)
@given(invocations())
def test_fuzzed_command_lines_end_in_a_documented_exit(invocation):
    argv, stdin = invocation
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), mock.patch.dict(
        "os.environ", {}, clear=False
    ) as env, redirect_stdout(out), redirect_stderr(err):
        env.pop("CHROMSYM_MAX_VERTICES", None)
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
    elif code == 1:
        assert argv[0] == "verify" or any(a.partition("=")[0] == "--verify" for a in argv)
    else:
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("chromsym: error: ")
