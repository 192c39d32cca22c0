"""The benchmark's contract with the library: every function the traced run
wraps still exists, and each workload's traced run ends in one strict-JSON
line that carries every per-layer metric BENCHMARK.json names.

The traced run skips a target it cannot find without a word, so a renamed
function would only show as missing metrics in that last line.
"""

import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_library_function():
    for layer, names in _spans().TARGETS.items():
        module = importlib.import_module(f"chromsym.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"chromsym.{layer}.{name}"


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    # a copy, so that the run's records land outside the working tree
    for part in ("src", "perfbench"):
        shutil.copytree(
            ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("out", "__pycache__")
        )
    command = [*BENCHMARK["command"], "--workload", workload, "--seconds", "0.2", "--trace", "1"]
    command[0] = sys.executable
    result = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.splitlines()[-1], parse_constant=_refuse)
    assert last["correct"] is True and last["failed"] == 0, result.stderr
    assert sorted(last["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
