"""Experiment bench-planner -- the query planner at bench scale.

Proves what the planner preserves and that every rewrite pass does
work: each probe is an equivalence check of the planned engine against
the legacy evaluator (``use_planner=False``), compared on rows *and*
order, and the counts land in ``benchmarks/artifacts/BENCH_planner.json``
(a metrics-registry JSON export).  The CI bench-regression job compares
the deterministic series in that artifact against the committed baseline
(``benchmarks/baselines/BENCH_planner_baseline.json``) -- a divergence
means the planner stopped evaluating the same workload, or stopped
agreeing with the oracle.

The bench runs at *bench scale*: two
:func:`repro.sources.generators.large_world` worlds of ~20k nodes each
(several hundred times the property-test worlds).  The rule-probe
queries are chosen so every rewrite pass in
:data:`repro.plan.rules.RULE_NAMES` does work on this workload;
``check_bench_baseline.py`` fails if any ``plan.rules_fired.*`` counter
stays at zero.  The heavy queries are timed serially (``wall.*``,
recorded for inspection, never compared across machines) and checked
against the oracle too.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro import ChorelEngine, IndexedChorelEngine
from repro import metrics_registry
from repro.plan.rules import RULE_NAMES
from repro.sources import large_world

from test_index_ablation import metrics_json

# Bench-scale worlds: ~20k nodes / ~3.2k history ops each, several
# hundred times the 32-node worlds the property tests sweep.
WORLD_SEEDS = (0, 3)
WORLD = dict(items=4000, extra_links=1600, steps=8, churn=400)
POLLING = {0: "4Jan97"}

# One probe per rewrite rule (the pinned/virtual/range probes need the
# indexed engine; the reorder probe fires on any planner engine):
#   1. pinned literal      -> annotation-literal-pushdown + index-selection
#   2. polling-time t[0]   -> virtual-at-expansion (+ pushdown + selection)
#   3. range on T          -> index-selection via interval folding
#   4. path-then-pure where-> predicate-reorder (pure conjunct hoisted)
#   5. range annotation    -> time-range-strategy (index-scan, 3 days)
RULE_QUERIES = (
    "select X from root.<add at 3Jan97>item X",
    "select X from root.<add at t[0]>item X",
    "select T, X from root.<add at T>item X where T >= 2Jan97 and T <= 5Jan97",
    "select R, T from root.item R, R.price<upd at T> P "
    "where R.info.a < 50 and T >= 3Jan97",
    "select T, X from root.<add at T in [2Jan97..5Jan97]>item X",
)

# The timed workload: first from-item binds cheaply (one label lookup),
# the predicate walks paths per row.
HEAVY_QUERIES = (
    "select R from root.item R where R.#.a < 10",
    "select R from root.item R where exists S in R.link: S.price < R.price",
    "select R, L from root.item R, R.link L, L.link M "
    "where M.info.a < R.info.a and L.price < 700",
    "select R, T from root.item R, R.price<upd at T> P "
    "where R.info.a < 50 and T >= 3Jan97",
    'select R from root.item R where R.name like "%a%" and R.price < 800',
    "select X from root.# X where X.price >= 900",
)


def exact_rows(result):
    return [str(row) for row in result]


def plan_counters():
    """The ``repro.plan`` counter family, flattened to plain numbers.

    Histograms (compile latency, batch width) contribute only their
    observation *count* -- the one deterministic part of a series.
    """
    values = {}
    for name, value in metrics_registry().snapshot("repro.plan").items():
        short = name.removeprefix("repro.plan.")
        if isinstance(value, dict):  # histogram snapshot
            values[f"{short}.count"] = value["count"]
        else:
            values[short] = value
    return values


@pytest.mark.slow
@pytest.mark.bench_artifact("BENCH_planner.json")
def test_planner_bench(benchmark, bench_artifact):
    """Planned vs. legacy at bench scale: rule probes plus a timed pass."""
    worlds = [large_world(seed=seed, **WORLD) for seed in WORLD_SEEDS]
    plan_before = plan_counters()
    counts = {"rules_compared": 0, "rules_mismatches": 0,
              "heavy_compared": 0, "heavy_mismatches": 0}

    # -- rule probes: every rewrite pass must do work, and the planned
    # engine must agree with the legacy evaluator row for row.
    for _, _, doem in worlds:
        indexed = IndexedChorelEngine(doem, name="root")
        legacy = IndexedChorelEngine(doem, name="root", use_planner=False)
        for engine in (indexed, legacy):
            engine.set_polling_times(POLLING)
        for query in RULE_QUERIES:
            counts["rules_compared"] += 1
            if exact_rows(indexed.run(query)) != exact_rows(legacy.run(query)):
                counts["rules_mismatches"] += 1
    rule_deltas = {name: value - plan_before.get(name, 0)
                   for name, value in plan_counters().items()
                   if name.startswith("rules_fired.")}
    for name in RULE_NAMES:
        assert rule_deltas.get(f"rules_fired.{name}", 0) > 0, \
            f"rule {name} never fired on the probe workload"

    # -- the timed pass, after a warm run (compile caches and path-closure
    # memos are set up before the clock starts).
    engines = [ChorelEngine(doem, name="root") for _, _, doem in worlds]
    for engine in engines:
        for query in HEAVY_QUERIES:
            engine.run(query)
    started = perf_counter()
    results = [[engine.run(query) for query in HEAVY_QUERIES]
               for engine in engines]
    serial_seconds = perf_counter() - started

    # Planner counters across all passes -- captured *before* the
    # pytest-benchmark call below, whose rep count varies by machine and
    # would make the deltas non-deterministic.
    plan_deltas = {name: value - plan_before.get(name, 0)
                   for name, value in plan_counters().items()}

    for (_, _, doem), engine_results in zip(worlds, results):
        legacy = ChorelEngine(doem, name="root", use_planner=False)
        for query, result in zip(HEAVY_QUERIES, engine_results):
            counts["heavy_compared"] += 1
            if exact_rows(result) != exact_rows(legacy.run(query)):
                counts["heavy_mismatches"] += 1

    # The timed figure CI displays: one heavy query, steady state.
    benchmark(lambda: engines[0].run(HEAVY_QUERIES[1]))

    assert counts["rules_mismatches"] == 0
    assert counts["heavy_mismatches"] == 0
    assert serial_seconds > 0

    artifact = metrics_json(
        "bench_planner",
        params={"worlds": len(worlds),
                "items": WORLD["items"],
                "steps": WORLD["steps"],
                "rule_queries": len(RULE_QUERIES) * len(worlds),
                "queries": len(HEAVY_QUERIES) * len(worlds)},
        equivalence=counts,
        wall={"serial_seconds": round(serial_seconds, 6)},
        plan=plan_deltas)
    bench_artifact.write_text(artifact + "\n", encoding="utf-8")
    print(f"\n===== artifact BENCH_planner ({bench_artifact}) =====")
    print(artifact)


def test_concurrent_qss_wall_time(benchmark):
    """A multi-subscription polling cycle through the concurrent server."""
    from repro import QSSServer, Wrapper
    from tests.parallel.test_qss_concurrent import ScriptedSource, subscription

    def cycle():
        server = QSSServer(start="1Dec96", deliver_empty=True,
                           max_poll_workers=4)
        for i in range(6):
            server.register_wrapper(f"s{i}", Wrapper(ScriptedSource(),
                                                     name="guide"))
            server.subscribe(subscription(f"sub{i}"), f"s{i}")
        with server:
            return len(server.run_until("8Dec96"))

    delivered = benchmark(cycle)
    assert delivered == 6 * 7  # six subscriptions, seven daily polls
