"""Batched execution is the legacy evaluator, at every batch width.

The batched physical operators (:mod:`repro.plan.batch`) claim row- and
order-identity with the pre-planner evaluator for *any* batch width --
the equivalence the batched-frontier argument proves (a level-synchronous
expansion in frontier order replays the concatenation of per-row
depth-first enumerations).  This suite pins the claim on all four
engines, over the same randomized worlds the index-differential harness
trusts, at batch widths 1 (degenerate: every batch is a row), 7 (prime,
never aligned with result counts), 64, and whole-world (one batch end to
end).  The width is swept by rebinding the one module constant,
:data:`repro.plan.batch.DEFAULT_BATCH_SIZE`, which the operators read at
execution time.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.plan.batch as batching
from repro import (
    ChorelEngine,
    IndexedChorelEngine,
    LorelEngine,
    TranslatingChorelEngine,
)
from repro.plan.batch import EnvBatch, compile_predicate
from tests.plan.test_planner_equivalence import (
    LOREL_QUERIES,
    RELAXED,
    outcome,
    texts,
)
from tests.test_differential_index import make_world, world_queries

# 1 = per-row degenerate case, 7 = prime (batch boundaries never align
# with operator fan-outs), 64 = mid-size, 1 << 20 = whole-world.
BATCH_SIZES = [1, 7, 64, 1 << 20]

CHOREL_ENGINES = (ChorelEngine, IndexedChorelEngine)


@contextmanager
def batch_width(size: int):
    """Run the block with the operators' batch width rebound to ``size``."""
    saved = batching.DEFAULT_BATCH_SIZE
    batching.DEFAULT_BATCH_SIZE = size
    try:
        yield
    finally:
        batching.DEFAULT_BATCH_SIZE = saved


class TestSerialBatchedEquivalence:
    """batched(width) == legacy, engine by engine, at every width."""

    @given(seed=st.integers(min_value=0, max_value=99))
    @RELAXED
    def test_chorel_native_and_indexed(self, seed):
        _, history, doem = make_world(seed)
        queries = world_queries(history)
        for engine_cls in CHOREL_ENGINES:
            batched = engine_cls(doem, name="root")
            legacy = engine_cls(doem, name="root", use_planner=False)
            expected = [texts(legacy.run(query)) for query in queries]
            for size in BATCH_SIZES:
                with batch_width(size):
                    for query, rows in zip(queries, expected):
                        assert texts(batched.run(query)) == rows, \
                            (engine_cls.__name__, size, query)

    @given(seed=st.integers(min_value=0, max_value=99))
    @RELAXED
    def test_lorel(self, seed):
        db, _, _ = make_world(seed)
        batched = LorelEngine(db, name="root")
        legacy = LorelEngine(db, name="root", use_planner=False)
        expected = [texts(legacy.run(query)) for query in LOREL_QUERIES]
        for size in BATCH_SIZES:
            with batch_width(size):
                for query, rows in zip(LOREL_QUERIES, expected):
                    assert texts(batched.run(query)) == rows, (size, query)

    @given(seed=st.integers(min_value=0, max_value=99))
    @RELAXED
    def test_translating(self, seed):
        _, history, doem = make_world(seed)
        batched = TranslatingChorelEngine(doem, name="root")
        legacy = TranslatingChorelEngine(doem, name="root",
                                         use_planner=False)
        queries = world_queries(history)
        expected = [outcome(legacy, query) for query in queries]
        for size in BATCH_SIZES:
            with batch_width(size):
                for query, result in zip(queries, expected):
                    assert outcome(batched, query) == result, (size, query)

    def test_width_is_read_at_execution_time(self):
        """The sweep above is real: rebinding the constant re-cuts the
        batches the ``Project`` root consumes."""
        db, _, _ = make_world(3)
        engine = LorelEngine(db, name="root")
        widths = {}
        for size in (1, 1 << 20):
            with batch_width(size):
                engine.run("select X from root.# X", analyze=True)
            widths[size] = engine.last_compiled.runtime.ops[1].batches_out
        assert widths[1] > widths[1 << 20] == 1


class TestEnvBatch:
    def test_split_preserves_rows_and_order(self):
        rows = [{"i": i} for i in range(10)]
        for size in (1, 3, 10, 99):
            pieces = list(EnvBatch(rows).split(size))
            assert [env for piece in pieces for env in piece.rows] == rows
            assert all(len(piece) <= size for piece in pieces)

    def test_split_nonpositive_yields_whole(self):
        batch = EnvBatch([{"i": 0}, {"i": 1}])
        assert list(batch.split(0)) == [batch]

    def test_concat_is_split_inverse(self):
        rows = [{"i": i} for i in range(7)]
        assert EnvBatch.concat(list(EnvBatch(rows).split(2))).rows == rows

    def test_column_access(self):
        batch = EnvBatch([{"x": 1}, {"y": 2}, {"x": 3}])
        assert batch.column("x") == [1, None, 3]
        assert len(batch) == 3 and bool(batch)
        assert not EnvBatch([])


class TestCompilePredicate:
    """The vectorized fast path only accepts shapes it can decide."""

    @staticmethod
    def evaluator():
        db, _, _ = make_world(0)
        return LorelEngine(db, name="root")._evaluator

    @staticmethod
    def condition(text: str):
        from repro import parse_query
        return parse_query(f"select root where {text}",
                           allow_annotations=True).where

    def test_pure_comparison_compiles(self):
        pred = compile_predicate(self.condition("X < 5"), self.evaluator())
        assert pred is not None
        from repro.lorel.eval import NodeBinding  # noqa: F401
        assert pred({"X": 3}) is True
        assert pred({"X": 9}) is False

    def test_boolean_composition(self):
        pred = compile_predicate(
            self.condition('X < 5 and not (Y = "b" or X = 2)'),
            self.evaluator())
        assert pred({"X": 3, "Y": "a"}) is True
        assert pred({"X": 2, "Y": "a"}) is False
        assert pred({"X": 3, "Y": "b"}) is False

    def test_unbound_variable_raises_keyerror(self):
        """The row-fallback trigger: unbound names defer to the solver."""
        pred = compile_predicate(self.condition("X < 5"), self.evaluator())
        with pytest.raises(KeyError):
            pred({})

    def test_path_condition_rejected(self):
        assert compile_predicate(self.condition("root.item.price < 5"),
                                 self.evaluator()) is None

    def test_existence_encoding_rejected(self):
        """`path = None` semantics hang on multiplicity -- solver only."""
        from repro.lorel.ast import Comparison, Literal, VarRef
        cond = Comparison(VarRef("X"), "=", Literal(None))
        assert compile_predicate(cond, self.evaluator()) is None

    def test_like_compiles(self):
        pred = compile_predicate(self.condition('X like "%bc%"'),
                                 self.evaluator())
        assert pred({"X": "abcd"}) is True
        assert pred({"X": "ad"}) is False
