"""Checkpointed time travel vs. replay-from-origin (BENCH_store).

The durable store's reason to exist, measured: resolving ``Ot(D)``
against a log-structured history by

* **origin replay** -- fold every change set from the origin up to the
  cutoff (the pre-checkpoint resolution path, kept in the API as
  ``snapshot_at(..., use_checkpoints=False)``); vs.
* **checkpointed** -- load the nearest materialized snapshot checkpoint
  at or before the cutoff and replay only the bounded suffix.

Both postures answer the same probe times over the same on-disk log,
back to back per repeat with alternating order (min-of-repeats, so
machine drift hits both equally), and every answer is cross-checked
against the in-memory ``OEMHistory.snapshot_at`` ground truth -- a fast
path that returns a different snapshot measures nothing.

Writes ``benchmarks/artifacts/BENCH_store.json``; the committed baseline
(``benchmarks/baselines/BENCH_store_baseline.json``) pins the
deterministic series, and ``scripts/check_bench_baseline.py`` gates
``bench_store.wall.ratio`` (checkpointed / origin replay) below 0.5 --
checkpoint resolution must beat full replay by at least 2x or the CI
bench-regression lane fails.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_index_ablation import metrics_json  # noqa: E402

from repro.sources.generators import demo_world  # noqa: E402
from repro.store import CheckpointPolicy, HistoryLog  # noqa: E402

DAYS = 240          # change sets in the benchmarked history
REPLAY_BUDGET = 12  # ops between checkpoints (policy; small on purpose)
REPEATS = 7         # min-of-repeats per posture
PROBES = 8          # cutoffs spread over the last half of the history


def build_log(tmp_path):
    db, history = demo_world(days=DAYS)
    log = HistoryLog(tmp_path / "bench-history", origin=db,
                     policy=CheckpointPolicy(replay_budget=REPLAY_BUDGET,
                                             size_weight=0.0, min_sets=1),
                     fsync_policy="roll")
    log.extend(history)
    return db, history, log


def probe_times(history):
    """Cutoffs across the expensive half: late times replay the most."""
    times = history.timestamps()
    half = times[len(times) // 2:]
    stride = max(1, len(half) // PROBES)
    return half[::stride][:PROBES]


@pytest.mark.bench_artifact("BENCH_store.json")
def test_checkpointed_time_travel(benchmark, bench_artifact, tmp_path):
    db, history, log = build_log(tmp_path)
    probes = probe_times(history)
    assert log.checkpoints(), "the policy must have produced checkpoints"

    # Ground truth, and posture warm-up (page cache, parsed checkpoint).
    expected = {when: history.snapshot_at(db, when) for when in probes}
    mismatches = 0
    for when in probes:
        for use_checkpoints in (True, False):
            result = log.snapshot_at(when, use_checkpoints=use_checkpoints)
            if not result.same_as(expected[when]):
                mismatches += 1

    origin_best = {when: float("inf") for when in probes}
    ckpt_best = {when: float("inf") for when in probes}
    for repeat in range(REPEATS):
        order = (False, True) if repeat % 2 == 0 else (True, False)
        for when in probes:
            for use_checkpoints in order:
                started = perf_counter()
                log.snapshot_at(when, use_checkpoints=use_checkpoints)
                elapsed = perf_counter() - started
                best = ckpt_best if use_checkpoints else origin_best
                best[when] = min(best[when], elapsed)

    origin_seconds = sum(origin_best.values())
    ckpt_seconds = sum(ckpt_best.values())
    ratio = ckpt_seconds / origin_seconds

    # The timed figure CI displays: one checkpointed probe sweep.
    def checkpointed_sweep():
        for when in probes:
            log.snapshot_at(when)
    benchmark(checkpointed_sweep)

    stats = log.stats.as_dict()
    info = log.info()
    log.close()

    assert origin_seconds > 0 and ckpt_seconds > 0
    assert mismatches == 0, "the fast path changed Ot(D)"
    assert stats["snapshots_from_checkpoint"] > 0

    artifact = metrics_json(
        "bench_store",
        params={"days": DAYS, "replay_budget": REPLAY_BUDGET,
                "probes": len(probes), "repeats": REPEATS},
        workload={"change_sets": info["change_sets"],
                  "operations": info["operations"],
                  "checkpoints": info["checkpoints"],
                  "segments": info["segments"],
                  "tip_nodes": info["tip_nodes"]},
        equivalence={"snapshot_mismatches": mismatches},
        wall={"origin_seconds": round(origin_seconds, 6),
              "checkpoint_seconds": round(ckpt_seconds, 6),
              "ratio": round(ratio, 4)},
        store={"snapshots_from_checkpoint":
                   stats["snapshots_from_checkpoint"],
               "snapshots_from_origin": stats["snapshots_from_origin"],
               "replayed_sets": stats["replayed_sets"],
               "checkpoints_written": stats["checkpoints_written"]})
    bench_artifact.write_text(artifact + "\n", encoding="utf-8")
    print(f"\n===== artifact BENCH_store ({bench_artifact}) =====")
    print(artifact)
