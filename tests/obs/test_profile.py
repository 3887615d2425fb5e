"""Per-query observation: engine span trees, counters, and EXPLAIN ANALYZE.

A query is observed through the surfaces every engine already feeds: a
one-off :meth:`~repro.obs.trace.Tracer.capture` of its span tree, the
engines' own counters, the plan-fingerprinted query log, and
``compiled.explain(analyze=True)``.
"""

import pytest

from repro import (
    ChorelEngine,
    IndexedChorelEngine,
    LorelEngine,
    TranslatingChorelEngine,
    current_snapshot,
)
from repro.obs.querylog import query_log
from repro.obs.trace import get_tracer

UPD_QUERY = ("select T, NV from guide.restaurant.price<upd at T to NV> "
             "where T > 1Jan97")
ADD_QUERY = "select guide.<add at T>restaurant"


@pytest.fixture(autouse=True)
def tracer_off():
    tracer = get_tracer()
    tracer.enabled = False
    tracer.clear()
    yield
    tracer.enabled = False
    tracer.clear()


def captured_root(engine, query):
    """The root span of one captured run of ``query``."""
    with get_tracer().capture() as capture:
        engine.run(query)
    assert len(capture.spans) == 1
    return capture.spans[0]


class TestEquivalence:
    def test_lorel_engine_profiles_too(self, guide_doem):
        """The Lorel engine is observed through the same surfaces as the
        Chorel engines: a span tree and a labelled query-log record."""
        engine = LorelEngine(current_snapshot(guide_doem), name="guide")
        query_log().reset()
        root = captured_root(engine, "select guide.restaurant.name")
        assert root.name == "lorel.query"
        assert [child.name for child in root.children] == \
            ["lorel.parse", "plan.compile", "lorel.eval"]
        record = query_log().recent(1)[-1]
        assert record.engine == "lorel"
        assert record.rows == 3


class TestObservation:
    def test_phase_nesting_native(self, guide_doem):
        engine = ChorelEngine(guide_doem, name="guide")
        root = captured_root(engine, UPD_QUERY)
        assert root.name == "chorel.query"
        names = [child.name for child in root.children]
        assert "chorel.parse" in names
        assert "lorel.eval" in names

    def test_phase_nesting_indexed(self, guide_doem):
        engine = IndexedChorelEngine(guide_doem, name="guide")
        root = captured_root(engine, ADD_QUERY)
        assert root.name == "chorel.query"
        names = [child.name for child in root.children]
        assert names == ["chorel.parse", "chorel.optimize",
                         "chorel.index_scan"]
        assert "index-scan" in root.find("chorel.index_scan").attrs["plan"]
        assert engine.last_plan is not None

    def test_phase_nesting_translate(self, guide_doem):
        """The full translate -> optimize -> eval pipeline shows up as
        one nested span tree under the query root."""
        engine = TranslatingChorelEngine(guide_doem, name="guide")
        root = captured_root(engine, UPD_QUERY)
        assert root.name == "chorel.query"
        names = [child.name for child in root.children]
        assert "chorel.parse" in names
        assert "chorel.translate" in names
        assert "lorel.eval" in names
        assert engine.last_translation is not None

    def test_indexed_counters_present(self, guide_doem):
        engine = IndexedChorelEngine(guide_doem, name="guide")
        engine.run(ADD_QUERY)
        assert engine.stats.as_dict()["indexed_queries"] == 1
        assert engine.index.stats.as_dict()["lookups"] >= 1
        assert "hit_rate" in engine.paths.stats.as_dict()


class TestRendering:
    def test_render_contains_the_headline_facts(self, guide_doem):
        engine = IndexedChorelEngine(guide_doem, name="guide")
        result = engine.run(ADD_QUERY, analyze=True)
        report = engine.last_compiled.explain(analyze=True)
        assert report.startswith("AnnotationFilter ")
        assert f"-> {len(result)}," in report.splitlines()[0]
        assert f"fingerprint: {engine.last_compiled.fingerprint}" in report
        assert "index-selection              fired" in report
