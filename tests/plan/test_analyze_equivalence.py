"""ANALYZE observes; it must not perturb.

The property this suite pins: for every engine, ``run(query,
analyze=True)`` returns rows **identical and identically ordered** to
the uninstrumented run -- and the collected stats tree is internally
consistent (each parent's ``rows_in`` equals its child's ``rows_out``,
predicate tallies cover every judged row).  Randomized worlds come from the same generator
the index-differential harness trusts.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro import (
    ChorelEngine,
    IndexedChorelEngine,
    LorelEngine,
    TranslatingChorelEngine,
)
from tests.plan.test_analyze import children_of
from tests.plan.test_planner_equivalence import (
    LOREL_QUERIES,
    RELAXED,
    outcome,
    texts,
)
from tests.test_differential_index import make_world, world_queries

CHOREL_ENGINES = (ChorelEngine, IndexedChorelEngine)


def check_stats(engine, query) -> None:
    """The internal-consistency invariants on a collected stats tree."""
    stats = engine.last_compiled.runtime
    assert stats is not None, (type(engine).__name__, query)
    for parent, child in children_of(stats):
        assert parent.rows_in == child.rows_out, \
            (type(engine).__name__, query, parent.op, child.op)
    for op in stats.ops:
        if op.op.startswith("Predicate"):
            assert op.vectorized_rows + op.fallback_rows == op.rows_in, \
                (type(engine).__name__, query, op.op)
        assert op.wall_seconds >= 0.0


class TestSerialAnalyzeEquivalence:
    @given(seed=st.integers(min_value=0, max_value=99))
    @RELAXED
    def test_chorel_native_and_indexed(self, seed):
        _, history, doem = make_world(seed)
        queries = world_queries(history)
        for engine_cls in CHOREL_ENGINES:
            plain = engine_cls(doem, name="root")
            analyzed = engine_cls(doem, name="root")
            for query in queries:
                expected = texts(plain.run(query))
                assert texts(analyzed.run(query, analyze=True)) == \
                    expected, (engine_cls.__name__, query)
                check_stats(analyzed, query)

    @given(seed=st.integers(min_value=0, max_value=99))
    @RELAXED
    def test_lorel(self, seed):
        db, _, _ = make_world(seed)
        plain = LorelEngine(db, name="root")
        analyzed = LorelEngine(db, name="root")
        for query in LOREL_QUERIES:
            expected = texts(plain.run(query))
            assert texts(analyzed.run(query, analyze=True)) == \
                expected, query
            check_stats(analyzed, query)

    @given(seed=st.integers(min_value=0, max_value=99))
    @RELAXED
    def test_translating(self, seed):
        _, history, doem = make_world(seed)
        plain = TranslatingChorelEngine(doem, name="root")
        analyzed = TranslatingChorelEngine(doem, name="root")

        def analyzed_outcome(query):
            from repro import TranslationError
            try:
                return texts(analyzed.run(query, analyze=True)), None
            except TranslationError as error:
                return None, type(error).__name__

        for query in world_queries(history):
            expected = outcome(plain, query)
            assert analyzed_outcome(query) == expected, query
            if expected[1] is None:
                check_stats(analyzed, query)
