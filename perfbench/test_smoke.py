"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at a tiny size in both modes and checks that each
metric named in BENCHMARK.json comes out with its unit, that a perturbed
value is counted as failed, and that the benchmark refuses to run where
the program's sources are missing.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny(name, trace):
    return run.run(name, seed=7, seconds=0.0, trace=trace, min_units=1,
                   setup_repeats=1, cli_repeats=1)


def test_workload_names_match_spec():
    assert NAMES == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(name, trace, section):
    report, result = tiny(name, trace)
    assert result["correct"] and result["failed"] == 0 and report["failed_frac"] == 0.0
    assert result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_perturbed_value_counts_as_failed(monkeypatch):
    original = workloads.he.limit_cdf

    def perturbed(*args, **kwargs):
        result = original(*args, **kwargs)
        return dataclasses.replace(result, value=result.value + 1e-6)

    monkeypatch.setattr(workloads.he, "limit_cdf", perturbed)
    report, result = run.run("limit-grid", seed=7, seconds=0.0, trace=0, min_units=1,
                             setup_repeats=1, cli_repeats=1)
    # Every timed row is perturbed; the CLI runs in fresh, unpatched processes.
    assert not result["correct"]
    assert result["failed"] == report["units"]
    assert report["failed_frac"] == result["failed"] / result["attempted"] > 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-ks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
