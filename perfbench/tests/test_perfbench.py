"""Self-tests of the campaign benchmark, at tiny sizes.

Run with ``python -m pytest perfbench/tests -q`` from the repository
root; about a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*argv: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    """Run the benchmark; returns (exit status, stdout lines)."""
    process = subprocess.run(
        [sys.executable, str(script), *argv], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )
    return process.returncode, process.stdout.splitlines(), process.stderr


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return result


def tree_files() -> set[str]:
    files = set()
    for folder, dirs, names in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in (".git", "__pycache__",
                                                ".pytest_cache")]
        files.update(os.path.join(folder, name) for name in names)
    return files


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    before = tree_files()
    status, lines, stderr = bench("--workload", workload, "--seed", "0",
                                  "--seconds", "0", "--trace", "0",
                                  "--size", "tiny")
    assert status == 0, stderr
    result = result_of(lines)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == run.END_TO_END
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert any(line.startswith("perfbench ") and "nproc" in line
               for line in lines)
    # Hermetic: the run leaves nothing behind in the tree.
    assert tree_files() == before


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_prints_the_layer_table(workload):
    status, lines, stderr = bench("--workload", workload, "--seed", "0",
                                  "--seconds", "0", "--trace", "1",
                                  "--size", "tiny")
    assert status == 0, stderr
    result = result_of(lines)
    assert result["correct"]
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == run.PER_LAYER
    assert any(line.startswith("unattributed") for line in lines)
    assert any(line.startswith("tracing overhead") for line in lines)


def test_planted_mismatch_fails_the_run():
    status, lines, stderr = bench("--workload", "traffic-knee", "--seed", "0",
                                  "--seconds", "0", "--trace", "0",
                                  "--size", "tiny", "--plant-mismatch")
    assert status != 0
    result = result_of(lines)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "expected digest" in stderr


def test_another_seed_is_checked_structurally():
    status, lines, stderr = bench("--workload", "traffic-knee", "--seed", "5",
                                  "--seconds", "0", "--trace", "0",
                                  "--size", "tiny")
    assert status == 0, stderr
    assert result_of(lines)["correct"]


def _unit_values(name: str, seed: int, tmp: Path) -> dict:
    tmp.mkdir()
    workload = WORKLOADS[name](seed, "tiny", tmp, mode="inline")
    workload.setup()
    result = workload.run()
    assert not [unit.error for unit in result.units if unit.error]
    return {unit.id: unit.value for unit in result.units}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_the_inputs(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    first = _unit_values(workload, 0, tmp_path / "a")
    second = _unit_values(workload, 1, tmp_path / "b")
    assert first.keys() == second.keys()
    assert first != second
    expected = json.loads((HERE / "expected.json").read_text())
    assert first == expected[workload]["tiny"]


def test_layer_table_sums_to_wall(tmp_path):
    options = {"workload": "traffic-knee", "seed": 0, "size": "tiny",
               "mode": "inline", "traced": True, "tmp": str(tmp_path),
               "out": str(tmp_path / "out.json")}
    env = run.child_env(tmp_path)
    options["spawned"] = time.monotonic()
    subprocess.run([sys.executable, str(HERE / "child.py"),
                    json.dumps(options)], env=env, check=True, timeout=120)
    payload = json.loads((tmp_path / "out.json").read_text())
    wall = payload["wall_s"] - payload["started_s"]
    self_total = sum(row["self_s"] for row in payload["layers"].values())
    assert 0 <= payload["unattributed_s"] < wall
    assert self_total + payload["unattributed_s"] == pytest.approx(
        wall, abs=1e-6)
    # Spans were written out when the run ended.
    assert (tmp_path / "spans.bin").stat().st_size > 0
    # The exact counts repeat: one admission per admitted session.
    assert payload["counts"]["traffic.admits"] > 0


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    status, lines, _ = bench("--workload", "museum-sweep", "--seed", "0",
                             "--seconds", "1", "--trace", "0",
                             cwd=tmp_path,
                             script=tmp_path / "perfbench" / "run.py")
    assert status != 0
    assert not any(line.startswith("{") for line in lines)


@pytest.mark.xfail(strict=True, reason="clock's choose_victim ignores its "
                   "candidates; museum-sweep leaves clock out until fixed")
def test_clock_shard_left_out_of_the_museum_grid_still_fails(tmp_path):
    """The one museum shard kind the benchmark leaves out, and why.

    When this starts passing, put ``clock`` back into the museum grid
    (``MuseumSweep.EXCLUDED_REPLACEMENT``) and re-run
    ``record_expected.py``.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"))
    process = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--no-report",
         "--workers", "1", "--replacement", "clock", "--machines", "atlas",
         "--placement", "best_fit", "--frames", "32", "--seeds", "0",
         "--base-seed", "1968", "--results", str(tmp_path / "r.jsonl")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert process.returncode == 0, process.stdout + process.stderr
