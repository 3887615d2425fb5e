"""Narrow-range index scans vs. history replay (BENCH_timetravel).

The cross-time planner's strategy split, measured: answering the *same*
compiled range query by

* **index-scan** -- merged per-kind ``TimestampIndex`` range scans (the
  planner's pick for ranges narrower than the replay threshold); vs.
* **full replay** -- re-enumerating the change history with no durable
  log attached (what ``checkpoint-replay`` degrades to without a store),
  the posture a narrow range must beat for the threshold rule to make
  sense; and
* **checkpointed replay** -- the same replay with a store
  :class:`~repro.store.HistoryLog` attached, seeking past the newest
  durable checkpoint below the range (the planner's pick for wide
  ranges).

Narrow windows run index-scan against full replay back to back per
repeat with alternating order (min-of-repeats, so machine drift hits
both equally); a wide window compares checkpointed against full replay
the same way.  Every timed answer is cross-checked row-for-row across
all three postures -- a fast path that changes rows measures nothing.

Writes ``benchmarks/artifacts/BENCH_timetravel.json``; the committed
baseline pins the deterministic series and
``scripts/check_bench_baseline.py`` gates
``bench_timetravel.wall.ratio`` (narrow index / full replay) below 1.0
with zero row mismatches.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_index_ablation import metrics_json  # noqa: E402

from repro import IndexedChorelEngine, build_doem  # noqa: E402
from repro.sources.generators import demo_world  # noqa: E402
from repro.store import CheckpointPolicy, HistoryLog  # noqa: E402

DAYS = 240          # change sets in the benchmarked history
REPLAY_BUDGET = 12  # ops between checkpoints (policy; small on purpose)
REPEATS = 7         # min-of-repeats per posture
PROBES = 8          # narrow windows spread over the last half
WINDOW_DAYS = 4     # width of each narrow window (under the threshold)

NARROW_TEMPLATE = "select X, T from root.item<upd at T in [{a}..{b}]> X"


def build_world(tmp_path):
    db, history = demo_world(days=DAYS)
    doem = build_doem(db, history)
    log = HistoryLog(tmp_path / "bench-history", origin=db,
                     policy=CheckpointPolicy(replay_budget=REPLAY_BUDGET,
                                             size_weight=0.0, min_sets=1),
                     fsync_policy="roll")
    log.extend(history)
    return db, history, doem, log


def narrow_queries(history):
    """Narrow windows across the expensive half of the history."""
    times = history.timestamps()
    half = times[len(times) // 2:]
    stride = max(1, len(half) // PROBES)
    starts = half[::stride][:PROBES]
    return [NARROW_TEMPLATE.format(a=a, b=a.plus(days=WINDOW_DAYS))
            for a in starts]


def compile_range(engine, query):
    compiled = engine.compile(query)
    assert compiled.is_range, f"not planner-served as a range: {query}"
    return compiled


def run_with_strategy(engine, compiled, strategy):
    compiled.root.plan.strategy = strategy
    return engine.execute(compiled)


@pytest.mark.bench_artifact("BENCH_timetravel.json")
def test_timetravel_strategies(benchmark, bench_artifact, tmp_path):
    _db, history, doem, log = build_world(tmp_path)
    assert log.checkpoints(), "the policy must have produced checkpoints"

    bare = IndexedChorelEngine(doem, name="root")
    backed = IndexedChorelEngine(doem, name="root")
    backed.log = log

    queries = narrow_queries(history)
    times = history.timestamps()
    wide_query = NARROW_TEMPLATE.format(a=times[len(times) // 2],
                                        b=times[-1])

    # Equivalence first (and posture warm-up): all three postures must
    # return identical rows for every probe, narrow and wide.
    row_mismatches = 0
    rows_narrow = 0
    for query in queries + [wide_query]:
        compiled = compile_range(bare, query)
        via_index = [str(r) for r in run_with_strategy(
            bare, compiled, "index-scan")]
        via_replay = [str(r) for r in run_with_strategy(
            bare, compiled, "checkpoint-replay")]
        via_ckpt = [str(r) for r in run_with_strategy(
            backed, compiled, "checkpoint-replay")]
        if via_index != via_replay or via_index != via_ckpt:
            row_mismatches += 1
        if query is not wide_query:
            rows_narrow += len(via_index)

    # Narrow windows: index-scan vs full replay, min-of-repeats.
    compiled_narrow = [compile_range(bare, query) for query in queries]
    index_best = [float("inf")] * len(queries)
    replay_best = [float("inf")] * len(queries)
    for repeat in range(REPEATS):
        order = (("index-scan", "checkpoint-replay") if repeat % 2 == 0
                 else ("checkpoint-replay", "index-scan"))
        for position, compiled in enumerate(compiled_narrow):
            for strategy in order:
                started = perf_counter()
                run_with_strategy(bare, compiled, strategy)
                elapsed = perf_counter() - started
                best = (index_best if strategy == "index-scan"
                        else replay_best)
                best[position] = min(best[position], elapsed)

    index_seconds = sum(index_best)
    replay_seconds = sum(replay_best)
    ratio = index_seconds / replay_seconds

    # Wide window: checkpointed replay vs full replay, min-of-repeats.
    compiled_wide = compile_range(bare, wide_query)
    wide_full = wide_ckpt = float("inf")
    for repeat in range(REPEATS):
        engines = ((bare, backed) if repeat % 2 == 0 else (backed, bare))
        for engine in engines:
            started = perf_counter()
            run_with_strategy(engine, compiled_wide, "checkpoint-replay")
            elapsed = perf_counter() - started
            if engine is bare:
                wide_full = min(wide_full, elapsed)
            else:
                wide_ckpt = min(wide_ckpt, elapsed)
    wide_ratio = wide_ckpt / wide_full

    # The timed figure CI displays: one narrow index-scan probe sweep.
    def narrow_index_sweep():
        for compiled in compiled_narrow:
            run_with_strategy(bare, compiled, "index-scan")
    benchmark(narrow_index_sweep)

    info = log.info()
    log.close()

    assert index_seconds > 0 and replay_seconds > 0
    assert row_mismatches == 0, "a range strategy changed rows"
    assert rows_narrow > 0, "narrow probes returned nothing; vacuous"

    artifact = metrics_json(
        "bench_timetravel",
        params={"days": DAYS, "probes": len(queries),
                "window_days": WINDOW_DAYS, "repeats": REPEATS,
                "replay_budget": REPLAY_BUDGET},
        workload={"change_sets": info["change_sets"],
                  "checkpoints": info["checkpoints"],
                  "rows_narrow": rows_narrow},
        equivalence={"row_mismatches": row_mismatches},
        wall={"index_seconds": round(index_seconds, 6),
              "replay_seconds": round(replay_seconds, 6),
              "ratio": round(ratio, 4),
              "wide_full_seconds": round(wide_full, 6),
              "wide_checkpoint_seconds": round(wide_ckpt, 6),
              "wide_ratio": round(wide_ratio, 4)})
    bench_artifact.write_text(artifact + "\n", encoding="utf-8")
    print(f"\n===== artifact BENCH_timetravel ({bench_artifact}) =====")
    print(artifact)
