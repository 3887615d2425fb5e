"""Observation separates compile time from execute time.

Every planner execution leaves one query-log record that splits
planning cost (``compile_seconds``, measured inside ``plan.compile``)
from operator cost (``execute_seconds``); ``repro explain --analyze
--json`` reports the same split together with the plan tree.
"""

import json

import pytest

from repro import (
    ChorelEngine,
    IndexedChorelEngine,
    LorelEngine,
    TranslatingChorelEngine,
)
from repro.cli import main
from repro.obs.querylog import query_log
from tests.conftest import make_guide_db

DEMO_QUERY = "select T, X from root.<add at T>item X where T > 20Jan97"
PUSHDOWN_QUERY = "select root.<add at 5Jan97>item"


def last_record():
    return query_log().recent(1)[-1]


def explain_json(tmp_path, *argv):
    path = tmp_path / "explain.json"
    out_path = tmp_path / "stdout.txt"
    with open(out_path, "w", encoding="utf-8") as out:
        assert main(["explain", *argv, "--json", str(path)], out=out) == 0
    return (json.loads(path.read_text(encoding="utf-8")),
            out_path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("engine_cls", [
    ChorelEngine, IndexedChorelEngine, TranslatingChorelEngine])
def test_profile_splits_compile_and_execute(engine_cls, guide_doem):
    engine = engine_cls(guide_doem, name="guide")
    result = engine.run("select guide.<add at T>restaurant where T < 4Jan97")
    record = last_record()
    assert record.compile_seconds == engine.last_compiled.compile_seconds
    assert record.compile_seconds > 0.0
    assert record.execute_seconds > 0.0
    assert record.wall_seconds == pytest.approx(
        record.compile_seconds + record.execute_seconds)
    assert record.rows == len(result)


def test_lorel_profile_split():
    engine = LorelEngine(make_guide_db(), name="guide")
    engine.run("select guide.restaurant")
    record = last_record()
    assert record.engine == "lorel"
    assert record.compile_seconds > 0.0
    assert record.execute_seconds > 0.0


def test_profile_carries_plan_tree(tmp_path):
    payload, _ = explain_json(tmp_path, PUSHDOWN_QUERY)
    assert payload["plan"].startswith("AnnotationFilter ")
    assert "passes:" in payload["plan"]
    assert "execute_seconds" not in payload  # nothing was executed


def test_render_includes_plan_tree_and_split(tmp_path):
    payload, text = explain_json(tmp_path, PUSHDOWN_QUERY, "--analyze")
    assert "AnnotationFilter" in text
    assert "annotation-literal-pushdown" in text
    assert payload["compile_seconds"] > 0.0
    assert payload["execute_seconds"] > 0.0
    assert payload["plan"]["execute_seconds"] == \
        pytest.approx(payload["execute_seconds"], abs=1e-6)


def test_legacy_mode_has_no_plan_tree(guide_doem):
    engine = ChorelEngine(guide_doem, name="guide", use_planner=False)
    query_log().reset()
    engine.run("select guide.restaurant")
    assert engine.last_compiled is None
    assert len(query_log()) == 0  # the legacy evaluator is not a plan


def test_profile_json_round_trips(tmp_path):
    payload, _ = explain_json(tmp_path, DEMO_QUERY, "--analyze")
    for key in ("query", "backend", "fingerprint", "compile_seconds",
                "rules_fired", "rows", "execute_seconds", "plan"):
        assert key in payload
    record = last_record()
    assert payload["fingerprint"] == record.fingerprint
    assert payload["rules_fired"] == list(record.rules_fired)
    assert payload["rows"] == record.rows == 10
