"""Cross-time equivalence: the range machinery is trusted *because* this passes.

Three claims over randomized worlds (the same generator the
index-differential harness trusts):

* **Interval composition**: a range query over ``[a..b]`` equals the
  union of the same query over adjacent subintervals ``[a..m]`` and
  ``[m..b]`` -- the diff-composition law that makes incremental
  cross-time materialization sound.
* **Strategy interchangeability**: executing the *same* compiled range
  plan via the merged TimestampIndex scan and via checkpoint-anchored
  history replay produces row- and order-identical results -- with and
  without a durable store log attached (the log only changes where the
  replay starts, never what it emits).
* **Engine agreement**: the planner-served range path (indexed engine,
  either strategy) produces the same row set as the naive evaluator
  pipeline (native engine, planner on or off); the translate backend refuses the shapes
  cleanly rather than mistranslating them.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    ChorelEngine,
    IndexedChorelEngine,
    TranslatingChorelEngine,
    TranslationError,
    build_doem,
)
from repro.sources.generators import LABELS
from tests.test_differential_index import make_world

RELAXED = settings(max_examples=15, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

# Range templates over the generator's vocabulary; {a}/{m}/{b} are drawn
# from each world's own history timestamps.
RANGE_TEMPLATES = [
    "select X, T from root.<changed at T in [{a}..{b}]>{label} X",
    "select N, T from root.{label}.name<changed at T in [{a}..{b}]> N",
    "select T from root.item.price<upd at T in [{a}..{b}]>",
    "select R, T from root.<add at T in [{a}..{b}]>{label} R",
]

# Shapes whose result is *not* a pure per-event range filter (version
# anchoring, latest-per-subject) -- they get the strategy and engine
# equivalences but not the composition law.
EXTRA_TEMPLATES = [
    "select X from root.{label}.name <at [{a}..{b}]> X",
    "select X, T from root.{label}.name <last-change at T> X",
    "select T from root.item.price<changed since {m} at T>",
]


def interval_queries(history, *, templates=RANGE_TEMPLATES):
    times = history.timestamps()
    if len(times) < 2:
        return []
    a, m, b = times[0], times[len(times) // 2], times[-1]
    rng = random.Random(hash((str(a), len(times))))
    label = rng.choice(LABELS)
    return [(template, template.format(a=a, m=m, b=b, label=label),
             template.format(a=a, m=m, b=a if m == a else m, label=label),
             template.format(a=m, m=m, b=b, label=label))
            for template in templates]


def texts(result) -> list[str]:
    return [str(row) for row in result.rows]


def rows(result) -> list[str]:
    return sorted(texts(result))


def run_with_strategy(engine, compiled, strategy: str) -> list[str]:
    compiled.root.plan.strategy = strategy
    return texts(engine.execute(compiled))


class TestIntervalComposition:
    """query([a..b]) == query([a..m]) | query([m..b]), adjacent and closed."""

    @given(seed=st.integers(min_value=0, max_value=99))
    @RELAXED
    def test_adjacent_intervals_compose(self, seed):
        _, history, doem = make_world(seed)
        cases = interval_queries(history)
        assert cases, "every generated world must produce a history"
        for engine_cls in (ChorelEngine, IndexedChorelEngine):
            engine = engine_cls(doem, name="root")
            for template, whole, left, right in cases:
                union = set(texts(engine.run(left))) \
                    | set(texts(engine.run(right)))
                assert union == set(texts(engine.run(whole))), \
                    (engine_cls.__name__, template)


class TestStrategyInterchangeability:
    """index-scan and checkpoint-replay: row AND order identical."""

    @given(seed=st.integers(min_value=0, max_value=99))
    @RELAXED
    def test_replay_matches_index_scan(self, seed):
        _, history, doem = make_world(seed)
        engine = IndexedChorelEngine(doem, name="root")
        for template, whole, _left, _right in interval_queries(
                history, templates=RANGE_TEMPLATES + EXTRA_TEMPLATES):
            compiled = engine.compile(engine.parse(whole))
            if not compiled.is_range:
                continue
            via_index = run_with_strategy(engine, compiled, "index-scan")
            via_replay = run_with_strategy(engine, compiled,
                                           "checkpoint-replay")
            assert via_index == via_replay, (template, whole)

    def test_attached_log_only_moves_the_replay_floor(self, tmp_path):
        """A durable checkpoint floor changes the scan start, not rows."""
        from repro.store.store import ChangeLogStore

        db, history, doem = make_world(3)
        with ChangeLogStore(tmp_path / "store", "rw") as store:
            log = store.put_history("world", db, history)
            store.checkpoint("world")
            assert log.checkpoints(), "the floor needs a checkpoint"
            bare = IndexedChorelEngine(doem, name="root")
            backed = IndexedChorelEngine(doem, name="root")
            backed.log = log
            for template, whole, _l, _r in interval_queries(
                    history, templates=RANGE_TEMPLATES + EXTRA_TEMPLATES):
                compiled = bare.compile(bare.parse(whole))
                if not compiled.is_range:
                    continue
                expected = run_with_strategy(bare, compiled,
                                             "checkpoint-replay")
                actual = run_with_strategy(backed, compiled,
                                           "checkpoint-replay")
                assert actual == expected, (template, whole)


class TestEngineAgreement:
    """Planner-served range results match the naive evaluator pipeline."""

    @given(seed=st.integers(min_value=0, max_value=99))
    @RELAXED
    def test_indexed_matches_naive_serial(self, seed):
        _, history, doem = make_world(seed)
        naive = ChorelEngine(doem, name="root")
        legacy = ChorelEngine(doem, name="root", use_planner=False)
        indexed = IndexedChorelEngine(doem, name="root")
        served_range = False
        for _t, whole, left, right in interval_queries(
                history, templates=RANGE_TEMPLATES + EXTRA_TEMPLATES):
            for query in (whole, left, right):
                expected = rows(legacy.run(query))
                assert rows(naive.run(query)) == expected, query
                assert rows(indexed.run(query)) == expected, query
            served_range = served_range or indexed.last_range_plan is not None
        assert served_range, "the range fast path must actually run"

    @pytest.mark.parametrize("query", [
        "select T from root.item.price<changed at T in [1Jan97..5Jan97]>",
        "select X, T from root.item <last-change at T> X",
        "select X from root.item.name <at [1Jan97..5Jan97]> X",
    ])
    def test_translate_backend_refuses_cleanly(self, query):
        _, _, doem = make_world(0)
        engine = TranslatingChorelEngine(doem, name="root")
        with pytest.raises(TranslationError):
            engine.run(query)
