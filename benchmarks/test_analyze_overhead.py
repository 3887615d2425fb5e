"""Experiment bench-analyze -- the cost of EXPLAIN ANALYZE.

The ANALYZE contract is "observe, don't perturb": with ``analyze=False``
the physical operators must take their original uninstrumented paths
(``ctx.stats is None`` is one attribute load per dispatch), and an
analyzed run must return identical rows while accounting every
operator.  This bench measures both halves over one serial path-walking
workload and writes ``benchmarks/artifacts/BENCH_analyze.json``:

* ``bench_analyze.wall.plain_seconds`` / ``analyze_seconds`` -- one
  workload sweep per posture as the sum of per-query minima over the
  repeats (postures run back to back per query, alternating order each
  repeat, so machine drift hits both equally);
* ``bench_analyze.overhead.ratio`` -- analyze / plain; the CI
  analyze-overhead job fails when it reaches 1.05
  (``scripts/check_bench_baseline.py``);
* ``bench_analyze.equivalence.row_mismatches`` -- queries whose
  analyzed rows diverged from the plain run (must be 0);
* ``bench_analyze.equivalence.consistency_violations`` -- operator
  pairs where a parent's ``rows_in`` disagreed with its child's
  ``rows_out`` (must be 0);
* ``bench_analyze.queries.recorded`` -- query-log records the sweeps
  produced; zero means the log was bypassed and nothing was measured.

Wall times are machine-dependent and never baseline-compared; the
committed baseline (``benchmarks/baselines/BENCH_analyze_baseline.json``)
pins only the workload parameters and the equivalence zeros.
"""

from __future__ import annotations

import os
from time import perf_counter

import pytest

from repro import ChorelEngine
from repro.obs.querylog import query_log
from repro.sources import large_world

from test_index_ablation import metrics_json

# Same bench-scale world and path-walking queries as bench-obs:
# per-query evaluation must dominate the fixed per-query accounting
# cost, as it does on production data.
WORLD_SEED = 7
WORLD = dict(items=800, extra_links=320, steps=6, churn=80)
QUERIES = (
    "select R from root.item R where R.#.a < 10",
    "select R from root.item R where exists S in R.link: S.price < R.price",
    'select R from root.item R where R.name like "%a%" and R.price < 800',
)
REPEATS = 7   # per-query min-of-repeats per posture
INNER = 1     # runs per timed measurement


def _consistency_violations(stats) -> int:
    """Parent/child row-flow disagreements in the stats tree."""
    violations = 0
    for index, op in enumerate(stats.ops):
        for later in stats.ops[index + 1:]:
            if later.depth == op.depth + 1:
                if op.rows_in != later.rows_out:
                    violations += 1
            if later.depth <= op.depth:
                break
    return violations


@pytest.mark.slow
@pytest.mark.bench_artifact("BENCH_analyze.json")
def test_analyze_overhead_bench(benchmark, bench_artifact):
    """Analyzed vs. plain execution over one serial workload."""
    _, _, doem = large_world(seed=WORLD_SEED, **WORLD)
    engine = ChorelEngine(doem, name="root")

    # Warm every cache (path closures, compile machinery) before the
    # clock starts, so the postures compare steady-state throughput.
    expected = {query: [str(row) for row in engine.run(query)]
                for query in QUERIES}

    recorded_before = len(query_log())
    plain_best = {query: float("inf") for query in QUERIES}
    analyze_best = {query: float("inf") for query in QUERIES}
    row_mismatches = 0
    consistency_violations = 0
    for repeat in range(REPEATS):
        # Time the two postures back to back *per query*, alternating
        # which goes first each repeat: each query's best time converges
        # independently, and slow drift (thermal, noisy neighbours) or
        # second-run warmth biases both postures equally instead of
        # whichever runs later.
        order = (False, True) if repeat % 2 == 0 else (True, False)
        for query in QUERIES:
            for analyze in order:
                started = perf_counter()
                for _ in range(INNER):
                    engine.run(query, analyze=analyze)
                elapsed = perf_counter() - started
                best = analyze_best if analyze else plain_best
                best[query] = min(best[query], elapsed)

        for query in QUERIES:
            result = engine.run(query, analyze=True)
            if [str(row) for row in result] != expected[query]:
                row_mismatches += 1
            consistency_violations += \
                _consistency_violations(engine.last_compiled.runtime)
    recorded = len(query_log()) - recorded_before

    # Sum of per-query minima: the steady-state cost of one workload
    # sweep under each posture, with per-query noise floored away.
    plain_seconds = sum(plain_best.values())
    analyze_seconds = sum(analyze_best.values())
    ratio = analyze_seconds / plain_seconds

    # The timed figure CI displays: one analyzed workload sweep.
    def analyzed_sweep():
        for query in QUERIES:
            engine.run(query, analyze=True)
    benchmark(analyzed_sweep)

    assert plain_seconds > 0 and analyze_seconds > 0
    assert row_mismatches == 0, "analyze=True changed result rows"
    assert consistency_violations == 0
    assert recorded > 0, "no queries reached the query log"

    artifact = metrics_json(
        "bench_analyze",
        params={"items": WORLD["items"],
                "steps": WORLD["steps"],
                "queries": len(QUERIES),
                "repeats": REPEATS,
                "inner": INNER},
        wall={"plain_seconds": round(plain_seconds, 6),
              "analyze_seconds": round(analyze_seconds, 6),
              "cpus": os.cpu_count() or 1},
        overhead={"ratio": round(ratio, 6)},
        equivalence={"row_mismatches": row_mismatches,
                     "consistency_violations": consistency_violations},
        queries={"recorded": recorded})
    bench_artifact.write_text(artifact + "\n", encoding="utf-8")
    print(f"\n===== artifact BENCH_analyze ({bench_artifact}) =====")
    print(artifact)
