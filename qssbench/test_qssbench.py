"""The benchmark's own tests: tiny-size smoke runs of every workload.

Run from the repository root::

    python3 -m pytest qssbench/test_qssbench.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = ("poll-large", "fanout", "history-query")
CHECK_KINDS = {"poll-large": {"faithfulness", "asof"},
               "fanout": {"faithfulness", "asof"},
               "history-query": {"rows", "asof"}}


def bench(*args, cwd=ROOT):
    command = [sys.executable, str(Path(cwd) / "qssbench" / "run.py"),
               "--seed", "3", "--seconds", "0.3", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def checks_ran(proc) -> dict[str, int]:
    line = next(line for line in proc.stdout.splitlines()
                if line.strip().startswith("checks:"))
    return {kind: int(count)
            for kind, count in re.findall(r"(\w+)=(\d+)", line)}


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_and_check(workload):
    proc = bench("--workload", workload, "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "timings at reference speed" in proc.stdout
    ran = checks_ran(proc)
    assert set(ran) == CHECK_KINDS[workload]
    assert all(count > 0 for count in ran.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    proc = bench("--workload", workload, "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = result_of(proc)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == \
        dict(run.PER_LAYER)
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert 0 <= metrics["trace.unattributed_share"]["value"] < 1
    if workload == "history-query":
        assert metrics["chorel.execute.self_s"]["value"] > 0
        assert metrics["store.snapshot_at.self_s"]["value"] > 0
        assert metrics["diff.oem_diff.calls"]["value"] == 0
    else:
        assert metrics["diff.oem_diff.calls"]["value"] > 0
        assert metrics["store.snapshot_at.self_s"]["value"] == 0
    assert all(count > 0 for count in checks_ran(proc).values())


@pytest.mark.parametrize("workload, broken", [
    ("poll-large", "faithfulness"), ("fanout", "faithfulness"),
    ("history-query", "rows"), ("history-query", "asof")])
def test_broken_expected_output_is_a_failure(workload, broken):
    proc = bench("--workload", workload, "--trace", "0", "--size", "tiny",
                 "--break-check", broken)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = result_of(proc)
    assert not result["correct"] and result["failed"] > 0
    assert f"FAILED {broken}:" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_fresh_result_fails_without_reporting(workload):
    proc = bench("--workload", workload, "--trace", "0", "--size", "empty")
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert '"metrics"' not in proc.stdout
    assert "no op samples in this run" in proc.stderr


def test_all_runs_every_workload_and_fails_on_a_failed_check():
    proc = bench("--workload", "all", "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for workload in WORKLOADS:
        assert f"{workload}: ok" in proc.stdout
    broken = bench("--workload", "all", "--trace", "0", "--size", "tiny",
                   "--break-check", "rows")
    assert broken.returncode == 1
    assert "history-query: FAILED" in broken.stdout


def test_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "qssbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = bench("--workload", "fanout", "--trace", "0", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""


def test_tracer_restores_originals_and_computes_self_time():
    run.import_program()
    import repro.diff.matching as matching
    import repro.qss.server as server
    import tracing

    originals = (matching.node_signatures, server.QSSServer.run_until)
    tracer = tracing.Tracer()
    with tracer:
        assert matching.node_signatures is not originals[0]
    assert (matching.node_signatures, server.QSSServer.run_until) == originals

    tracer.spans = [["outer", 0.0, 10.0, -1, ""],
                    ["inner", 2.0, 5.0, 0, ""],
                    ["inner", 6.0, 7.0, 0, ""]]
    assert tracer.self_times() == [6.0, 3.0, 1.0]
    assert tracer.root_seconds() == 10.0


def test_speed_factor_uses_the_probes_around_each_sample():
    import speed

    probe = speed.SpeedProbe()
    probe.starts = [0.0, 10.0, 20.0]
    probe.seconds = [speed.NOMINAL_S, 2 * speed.NOMINAL_S,
                     2 * speed.NOMINAL_S]
    assert probe.factor(5.0) == pytest.approx(1 / 1.5)
    assert probe.factor(15.0) == pytest.approx(0.5)
    assert probe.factor(25.0) == pytest.approx(0.5)   # after the last probe
    assert probe.scaled([(15.0, 8.0)]) == [pytest.approx(4.0)]
    probe.probe()
    assert len(probe.seconds) == 4 and probe.seconds[-1] > 0
