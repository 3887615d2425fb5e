"""Span tracing installed from outside the program.

The benchmark measures end-to-end numbers with nothing installed.  For
the per-layer numbers a separate pass wraps the public functions of the
``repro`` modules (see :data:`LAYER_TARGETS`), records one span per call,
and removes every wrapper afterwards.  A span is
``(name, start, end, parent, tag)``: ``parent`` is the index of the
enclosing span (``-1`` for a root) and ``tag`` names the poll tick or
query the benchmark was working on.  Spans stay in memory until
:meth:`Tracer.dump` writes them out.

The server runs serially on the benchmark's thread, so one span stack is
enough; a wrapper called on another thread would be a bug in this
harness and raises.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from time import perf_counter

# (module, attribute, span name).  ``Class.method`` attributes are patched
# on the class that defines them; plain functions are re-bound in every
# ``repro`` module that imported them by name.  ``compile_query`` and
# ``run_compiled`` are shared by the Lorel and Chorel engines, so their
# span name follows the engine span that encloses them (see CONTEXT_NAMES).
LAYER_TARGETS = (
    ("repro.sources.restaurant_guide", "RestaurantGuideSource.export",
     "sources.export"),
    ("repro.sources.restaurant_guide", "RestaurantGuideSource.advance",
     "sources.advance"),
    ("repro.qss.server", "QSSServer.run_until", "qss.run_until"),
    ("repro.qss.managers", "QueryManager.poll", "qss.query_poll"),
    ("repro.qss.wrapper", "Wrapper.poll", "qss.wrapper_poll"),
    ("repro.qss.managers", "DOEMManager.incorporate", "qss.incorporate"),
    ("repro.lorel.engine", "LorelEngine.run", "lorel.run"),
    ("repro.lorel.result", "QueryResult.as_oem", "lorel.as_oem"),
    ("repro.diff.oemdiff", "oem_diff", "diff.oem_diff"),
    ("repro.diff.matching", "match_snapshots", "diff.match_snapshots"),
    ("repro.diff.matching", "node_signatures", "diff.node_signatures"),
    ("repro.diff.matching", "text_bags", "diff.text_bags"),
    ("repro.doem.build", "apply_change_set", "doem.apply_change_set"),
    ("repro.doem.build", "build_doem", "doem.build_doem"),
    ("repro.doem.snapshot", "current_snapshot", "doem.current_snapshot"),
    ("repro.doem.snapshot", "snapshot_at", "doem.snapshot_at"),
    ("repro.store.store", "ChangeLogStore.put_history", "store.put_history"),
    ("repro.store.log", "HistoryLog.append", "store.append"),
    ("repro.store.log", "HistoryLog.write_checkpoint", "store.checkpoint"),
    ("repro.store.log", "HistoryLog.snapshot_at", "store.snapshot_at"),
    ("repro.store.log", "HistoryLog.__init__", "store.open"),
    ("repro.lore.indexes", "TimestampIndex.rebuild", "index.rebuild"),
    ("repro.chorel.engine", "ChorelEngine.run", "chorel.run"),
    ("repro.plan.compiler", "compile_query", "plan.compile"),
    ("repro.plan.physical", "run_compiled", "plan.execute"),
)

# ``None`` records no span: ``current_snapshot`` is ``snapshot_at(doem,
# +inf)``, so its inner call is its own work, not a child layer.
CONTEXT_NAMES = {
    "plan.compile": {"chorel.run": "chorel.compile",
                     "lorel.run": "lorel.compile"},
    "plan.execute": {"chorel.run": "chorel.execute",
                     "lorel.run": "lorel.execute"},
    "doem.snapshot_at": {"doem.current_snapshot": None},
}


def _poll_key(args, result, _) -> tuple:
    """``Wrapper.poll``'s work key: (wrapper, polling query, source time)."""
    wrapper, query = args[0], args[1]
    return (id(wrapper), str(query), str(wrapper.source.now))


def _diff_size(args, result, _) -> tuple:
    """``oem_diff``: (ops produced, nodes on both sides)."""
    return (len(result), len(args[0]) + len(args[1]))


def _engine_visits(args) -> int:
    return args[0].annotation_visits


def _query_work(args, result, visits_before) -> tuple:
    """``ChorelEngine.run``: (annotation visits, rows, took a planner fast path)."""
    engine = args[0]
    fast = getattr(engine, "last_plan", None) is not None or \
        getattr(engine, "last_range_plan", None) is not None
    return (engine.annotation_visits - visits_before, len(result), fast)


# Span name -> (before hook taking args, extractor taking args, result and
# the before hook's value).  Attributes are recorded after the call.
ATTRS = {
    "qss.wrapper_poll": (None, _poll_key),
    "diff.oem_diff": (None, _diff_size),
    "chorel.run": (_engine_visits, _query_work),
}


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.attrs: dict[int, object] = {}
        self.tag: str = ""
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target; :meth:`remove` restores the originals."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attribute, name in LAYER_TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self._wrap(name, original))
            else:
                original = getattr(module, attribute)
                wrapper = self._wrap(name, original)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, key, wrapper)

    def _patch(self, owner, key: str, replacement) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, replacement)

    def remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        self.active = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, name: str, original):
        tracer = self
        renames = CONTEXT_NAMES.get(name)
        before_hook, extract = ATTRS.get(name, (None, None))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if threading.get_ident() != tracer._thread:
                raise RuntimeError(f"{name} called off the benchmark's thread")
            span_name = name
            if renames:
                for index in reversed(tracer._stack):
                    enclosing = tracer.spans[index][0]
                    if enclosing in renames:
                        span_name = renames[enclosing]
                        break
                if span_name is None:
                    return original(*args, **kwargs)
            before = before_hook(args) if before_hook else None
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            record = [span_name, perf_counter(), 0.0, parent, tracer.tag]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer._stack.pop()
            if extract is not None:
                tracer.attrs[index] = extract(args, result, before)
            return result

        return traced

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, self seconds, inclusive seconds."""
        totals: dict[str, dict[str, float]] = {}
        for record, own in zip(self.spans, self.self_times()):
            entry = totals.setdefault(
                record[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
            entry["total_s"] += record[2] - record[1]
        return totals

    def root_seconds(self) -> float:
        """Wall time covered by root spans (spans have no overlap)."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)

    def attrs_of(self, name: str) -> list:
        return [value for index, value in self.attrs.items()
                if self.spans[index][0] == name]

    def queue_waits(self) -> list[float]:
        """Per poll: seconds from its ``run_until`` start to its source poll."""
        waits = []
        for name, start, _, parent, _ in self.spans:
            if name != "qss.query_poll":
                continue
            root = parent
            while root >= 0 and self.spans[root][3] >= 0:
                root = self.spans[root][3]
            if root >= 0 and self.spans[root][0] == "qss.run_until":
                waits.append(start - self.spans[root][1])
        return waits

    def dump(self, path) -> None:
        """Write every span as JSON (one object per span)."""
        rows = [{"name": name, "start": start, "end": end,
                 "parent": parent, "tag": tag}
                for name, start, end, parent, tag in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)
