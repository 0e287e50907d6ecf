"""Smoke test of the benchmark harness at toy sizes (a few seconds).

    python3 -m pytest perfbench/tests

Runs every workload untraced and traced on meshes of at most 4 cells per
side, and checks that each metric BENCHMARK.json names is reported with
its unit and that the toy outputs pass their frozen checks.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_toy_run_reports_every_metric(workload, trace, tmp_path, capsys):
    result = run.run_benchmark(workload, seed=0, seconds=0, trace=trace, toy=True,
                               out_dir=tmp_path)
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = _expected("per_layer" if trace else "end_to_end")
    reported = {name: unit for name, (_, unit) in result["metrics"].items()}
    assert reported == expected

    run.report(workload, 0, result)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    if trace:
        assert (tmp_path / f"{workload}.spans.npz").is_file()
        assert last["metrics"]["leapfrog.step_calls"]["value"] > 0


def test_toy_table_search_accounting(tmp_path):
    result = run.run_benchmark("cfl_table", seed=3, seconds=0, trace=True, toy=True,
                               out_dir=tmp_path)
    searches = result["searches"]
    assert len(searches) == 4
    for search in searches:
        assert search[0]["phase"] in ("doubling", "shrinking")
        assert {r["phase"] for r in search} <= {"doubling", "shrinking", "bisection"}
    m = result["metrics"]
    assert 0.0 < m["experiments.doubling_steps_share"][0] <= 1.0
    assert m["experiments.stable_peak_ratio.max"][0] <= 5.0
    assert m["experiments.unstable_peak_ratio.min"][0] > 5.0
    assert m["experiments.steps_total"][0] == m["leapfrog.step_calls"][0]


def test_seeded_cavity_draws_new_materials(tmp_path):
    result = run.run_benchmark("cavity_40_n5_sm", seed=7, seconds=0, trace=False, toy=True)
    assert result["correct"], result["problems"]


def test_missing_sources_exit_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
