"""scripts/check_bench_baseline.py: the gate fails closed.

Runs the checker as CI does (a subprocess on an artifact and a
baseline) and pins three outcomes: a missing artifact fails, a planner
artifact with an inert rewrite rule fails, and a well-formed planner
artifact passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
CHECKER = REPO / "scripts" / "check_bench_baseline.py"
BASELINE = REPO / "benchmarks" / "baselines" / "BENCH_planner_baseline.json"


def run_checker(artifact: Path, baseline: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(CHECKER), str(artifact), str(baseline)],
        capture_output=True, text=True, timeout=60)


@pytest.fixture
def planner_artifact() -> dict:
    """A well-formed planner artifact: the committed baseline's
    deterministic series plus the machine-dependent wall time."""
    artifact = json.loads(BASELINE.read_text(encoding="utf-8"))
    artifact["bench_planner.wall.serial_seconds"] = 1.5
    return artifact


def write(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_missing_artifact_fails(tmp_path):
    outcome = run_checker(tmp_path / "BENCH_planner.json", BASELINE)
    assert outcome.returncode == 1
    assert "not found" in outcome.stderr


@pytest.mark.parametrize("rule", ["time-range-strategy",
                                  "predicate-reorder",
                                  "a-rule-added-later"])
def test_inert_rule_fails(tmp_path, planner_artifact, rule):
    planner_artifact[f"bench_planner.plan.rules_fired.{rule}"] = 0
    artifact = write(tmp_path / "BENCH_planner.json", planner_artifact)
    # An empty baseline isolates the family invariant from the diff.
    baseline = write(tmp_path / "baseline.json", {})
    outcome = run_checker(artifact, baseline)
    assert outcome.returncode == 1
    assert f"rules_fired.{rule}" in outcome.stderr


def test_well_formed_artifact_passes(tmp_path, planner_artifact):
    artifact = write(tmp_path / "BENCH_planner.json", planner_artifact)
    outcome = run_checker(artifact, BASELINE)
    assert outcome.returncode == 0, outcome.stderr
    assert "baseline check OK" in outcome.stdout
