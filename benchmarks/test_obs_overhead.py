"""Experiment bench-obs -- the cost of leaving telemetry on.

The observability layer's contract is "near-free when off, cheap when
on": :func:`repro.obs.events.emit_event` must be one global load and a
``None`` check when no sink is configured, and a configured JSONL sink
(the documented production posture: events on, tracing off) must cost
less than 5% of end-to-end query throughput.

This bench measures both postures over the same serial query workload
and writes ``benchmarks/artifacts/BENCH_obs.json``:

* ``bench_obs.wall.disabled_seconds`` / ``instrumented_seconds`` --
  min-of-repeats wall time per posture (repeats alternate postures, so
  machine drift hits both equally);
* ``bench_obs.overhead.ratio`` -- instrumented / disabled; the CI
  telemetry-overhead job fails when it reaches 1.05
  (``scripts/check_bench_baseline.py``);
* ``bench_obs.events.written`` -- JSONL lines the instrumented passes
  produced; the gate also fails when this is zero, because a "free"
  telemetry layer that wrote nothing measured nothing.

Wall times are machine-dependent and never baseline-compared; the
committed baseline (``benchmarks/baselines/BENCH_obs_baseline.json``)
pins the workload parameters and the event count (two info-level events
per query: ``query_compiled`` and ``query_completed``).
"""

from __future__ import annotations

import os
from time import perf_counter

import pytest

from repro import ChorelEngine
from repro.obs.events import configure_events, disable_events
from repro.sources import large_world

from test_index_ablation import metrics_json

# A bench-scale world with *path-walking* queries: per-query evaluation
# must dominate the fixed per-query event cost (~20us/line), as it does
# on production data -- index-served probe queries would measure the
# sink, not the posture.
WORLD_SEED = 7
WORLD = dict(items=800, extra_links=320, steps=6, churn=80)
QUERIES = (
    "select R from root.item R where R.#.a < 10",
    "select R from root.item R where exists S in R.link: S.price < R.price",
    'select R from root.item R where R.name like "%a%" and R.price < 800',
)
REPEATS = 5   # min-of-repeats per posture
INNER = 1     # workload sweeps per timed repeat
# The production posture under measurement: events on at "info" (debug
# events -- rule_fired -- are level-filtered, which is
# itself part of the cost being measured), tracing off.
EVENTS_LEVEL = "info"


def _run_workload(engines_and_queries) -> None:
    for engine, queries in engines_and_queries:
        for query in queries:
            engine.run(query)


@pytest.mark.slow
@pytest.mark.bench_artifact("BENCH_obs.json")
def test_obs_overhead_bench(benchmark, bench_artifact, tmp_path):
    """Instrumented vs. disabled telemetry over one serial workload."""
    _, _, doem = large_world(seed=WORLD_SEED, **WORLD)
    workload = [(ChorelEngine(doem, name="root"), QUERIES)]
    query_count = len(QUERIES)

    # Warm every cache (path closures, indexes, compile machinery) before
    # the clock starts, so the postures compare steady-state throughput.
    disable_events()
    _run_workload(workload)

    events_path = tmp_path / "bench_obs_events.jsonl"
    disabled_times: list[float] = []
    instrumented_times: list[float] = []
    for _ in range(REPEATS):
        # Alternate postures within each repeat: slow drift (thermal,
        # noisy neighbours) then biases both measurements equally
        # instead of whichever posture ran last.
        disable_events()
        started = perf_counter()
        for _ in range(INNER):
            _run_workload(workload)
        disabled_times.append(perf_counter() - started)

        configure_events(str(events_path), level=EVENTS_LEVEL)
        started = perf_counter()
        for _ in range(INNER):
            _run_workload(workload)
        instrumented_times.append(perf_counter() - started)
    disable_events()

    disabled_seconds = min(disabled_times)
    instrumented_seconds = min(instrumented_times)
    ratio = instrumented_seconds / disabled_seconds
    written = sum(1 for _ in events_path.open(encoding="utf-8"))

    # The timed figure CI displays: one instrumented workload sweep.
    configure_events(str(events_path), level=EVENTS_LEVEL)
    benchmark(lambda: _run_workload(workload))
    disable_events()

    assert disabled_seconds > 0 and instrumented_seconds > 0
    assert written > 0, "instrumented passes produced no events"

    artifact = metrics_json(
        "bench_obs",
        params={"items": WORLD["items"],
                "steps": WORLD["steps"],
                "queries": query_count,
                "repeats": REPEATS,
                "inner": INNER},
        wall={"disabled_seconds": round(disabled_seconds, 6),
              "instrumented_seconds": round(instrumented_seconds, 6),
              "cpus": os.cpu_count() or 1},
        overhead={"ratio": round(ratio, 6)},
        events={"written": written})
    bench_artifact.write_text(artifact + "\n", encoding="utf-8")
    print(f"\n===== artifact BENCH_obs ({bench_artifact}) =====")
    print(artifact)
