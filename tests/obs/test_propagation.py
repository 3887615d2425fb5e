"""Span serialization: a span tree survives a trip through plain dicts."""

from __future__ import annotations

import pytest

from repro.obs.trace import Span


class TestTracerAttachment:
    def test_span_round_trips_through_dict(self):
        root = Span("a", {"k": 1})
        child = Span("b")
        child.end = 0.5
        root.children.append(child)
        root.end = 1.0
        rebuilt = Span.from_dict(root.to_dict())
        assert rebuilt.name == "a"
        assert rebuilt.attrs == {"k": 1}
        assert rebuilt.duration == pytest.approx(1.0)
        assert rebuilt.children[0].name == "b"
        assert rebuilt.children[0].duration == pytest.approx(0.5)
