"""Physical operators: batched execution over logical plans.

Each logical node maps to a transformer over
:class:`~repro.plan.batch.EnvBatch` lists of environment dicts.
``PathExpand`` advances a whole batch with the evaluator's frontier
kernel (:meth:`~repro.lorel.eval.Evaluator.bind_from_item_batch`) and
``Predicate`` compiles its condition once and filters vectorized
(:func:`~repro.plan.batch.compile_predicate`).  A batched frontier
expands its rows in frontier order, producing the concatenation of the
per-row depth-first enumerations the legacy evaluator's ``from_envs``
recursion yields -- which keeps planned and legacy execution row- and
order-identical for any batch width
(``tests/plan/test_batched_equivalence.py`` proves it).  Batches are
re-cut at :data:`~repro.plan.batch.DEFAULT_BATCH_SIZE` rows after every
expansion.

The operators delegate single-binding work to the evaluator's staged API
(:meth:`~repro.lorel.eval.Evaluator.bind_from_item_batch`,
:meth:`~repro.lorel.eval.Evaluator.solve`,
:meth:`~repro.lorel.eval.Evaluator.project_row`) -- those staging steps
*are* the physical kernels; this module is the plumbing between them.

One operator does more than plumb: :func:`execute_index_plan`, the
``AnnotationFilter`` kernel -- a timestamp-index range scan with
backward path verification, itself the degenerate case of the range
kernel behind ``TimeRangeScan`` / ``DeltaProject`` / ``VersionJoin``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator

from ..lorel.ast import PathExpr
from ..lorel.result import ObjectRef, QueryResult, Row
from ..timestamps import POS_INF, Timestamp
# The batch width is read as ``batching.DEFAULT_BATCH_SIZE`` at execution
# time, so rebinding the module constant takes effect.
from . import batch as batching
from .batch import EnvBatch, batch_rows_histogram, compile_predicate, \
    filter_rows
from .ir import (
    AnnotationFilter,
    DeltaProject,
    LogicalNode,
    PathExpand,
    Predicate,
    Project,
    Scan,
    VersionJoin,
)
from .stats import TIME_LABELS, IndexPlan, RangePlan

__all__ = ["ExecutionContext", "execute_plan", "execute_index_plan",
           "execute_range_plan", "iter_batches", "run_compiled"]


@dataclass
class ExecutionContext:
    """Everything the operators need from the engine at execution time.

    ``index``/``paths``/``doem`` are only set by the indexed engine (the
    ``AnnotationFilter`` kernel needs them).  ``stats`` is an optional
    :class:`~repro.plan.analyze.PlanStats` collector (EXPLAIN ANALYZE);
    when ``None`` -- the default -- every operator takes its
    uninstrumented path.
    """

    evaluator: object
    base_env: dict = field(default_factory=dict)
    index: object = None
    paths: object = None
    doem: object = None
    log: object = None  # HistoryLog for checkpoint-replay, if attached
    stats: object = None


# ---------------------------------------------------------------------------
# Batched operators
# ---------------------------------------------------------------------------

def iter_batches(node: LogicalNode,
                 ctx: ExecutionContext) -> Iterator[EnvBatch]:
    """The batch stream a logical (sub)chain produces.

    Batch boundaries are re-established at
    :data:`~repro.plan.batch.DEFAULT_BATCH_SIZE` rows after each
    expansion (an expansion can multiply rows); row order across the
    stream is the legacy evaluator's for any width.

    A thin dispatcher: with ``ctx.stats`` attached (ANALYZE) the output
    stream is wrapped for per-operator accounting, without it the raw
    generator runs untouched.
    """
    stream = _node_batches(node, ctx)
    if ctx.stats is not None:
        stream = ctx.stats.observe_batches(node, stream)
    return stream


def _child_batches(parent: LogicalNode,
                   ctx: ExecutionContext) -> Iterator[EnvBatch]:
    """A node's input stream -- its child's output, counted as rows in."""
    stream = iter_batches(parent.child, ctx)
    if ctx.stats is not None:
        stream = ctx.stats.observe_input(parent, stream)
    return stream


def _node_batches(node: LogicalNode,
                  ctx: ExecutionContext) -> Iterator[EnvBatch]:
    if isinstance(node, Scan):
        yield EnvBatch([dict(ctx.base_env)])
    elif isinstance(node, PathExpand):
        kernel = ctx.evaluator.bind_from_item_batch
        width = batching.DEFAULT_BATCH_SIZE
        for batch in _child_batches(node, ctx):
            rows = kernel(node.item, batch.rows)
            if rows:
                yield from EnvBatch(rows).split(width)
    elif isinstance(node, Predicate):
        evaluator = ctx.evaluator
        pred = compile_predicate(node.condition, evaluator)
        counts = (ctx.stats.predicate_counts(node)
                  if ctx.stats is not None else None)
        for batch in _child_batches(node, ctx):
            kept = filter_rows(evaluator, node.condition, batch.rows, pred,
                               counts=counts)
            if kept:
                yield EnvBatch(kept)
    else:  # pragma: no cover - lowering only builds the nodes above
        raise TypeError(f"cannot stream batches from {node!r}")


# ---------------------------------------------------------------------------
# Plan execution
# ---------------------------------------------------------------------------

def execute_plan(root: LogicalNode, ctx: ExecutionContext) -> QueryResult:
    """Run a logical plan to a :class:`~repro.lorel.result.QueryResult`."""
    if isinstance(root, AnnotationFilter):
        return execute_index_plan(root.plan, ctx, node=root)
    if isinstance(root, (DeltaProject, VersionJoin)):
        return execute_range_plan(root.plan, ctx, node=root,
                                  versions=isinstance(root, VersionJoin))
    if not isinstance(root, Project):
        raise TypeError(f"plan root must be Project, AnnotationFilter, "
                        f"DeltaProject, or VersionJoin, "
                        f"got {type(root).__name__}")
    evaluator = ctx.evaluator
    stats = ctx.stats
    op = stats.op_for(root) if stats is not None else None
    started = perf_counter() if op is not None else 0.0
    result = QueryResult()
    project = evaluator.project_row
    add = result.add
    observe = batch_rows_histogram().observe
    for batch in _child_batches(root, ctx):
        observe(len(batch))
        for env in batch.rows:
            add(project(root.select, env, root.labels))
    if op is not None:
        # Inclusive: the loop pulls the whole child pipeline, so the
        # root's time is the query's end-to-end execute time.
        op.wall_seconds += perf_counter() - started
        op.rows_out = len(result)
    return result


def run_compiled(compiled, ctx: ExecutionContext, engine, *,
                 analyze: bool = False) -> QueryResult:
    """Execute a compiled plan and record the run in the query log.

    The one post-compile execution path every engine facade shares:
    with ``analyze=True`` a :class:`~repro.plan.analyze.PlanStats`
    collector is attached over ``compiled.root``, finalized into
    ``compiled.runtime``, and its actuals fed to the cardinality
    feedback store; either way the execution lands one record in the
    :mod:`repro.obs.querylog`.
    """
    from ..obs.querylog import record_engine_query
    from .analyze import PlanStats

    root = compiled.root
    stats = None
    if analyze:
        stats = PlanStats(root, fingerprint=compiled.fingerprint)
        ctx.stats = stats
    started = perf_counter()
    result = execute_plan(root, ctx)
    elapsed = perf_counter() - started
    if stats is not None:
        stats.finalize(len(result), elapsed)
        compiled.runtime = stats
    record_engine_query(engine, compiled, result, elapsed,
                        plan_stats=stats)
    return result


# ---------------------------------------------------------------------------
# The range kernel (TimeRangeScan + DeltaProject / VersionJoin)
# ---------------------------------------------------------------------------
#
# One executor serves every time-travel shape.  A *scan* enumerates
# `(when, kind, subject)` change events -- from merged per-kind
# timestamp-index range scans or from a replay of the change history --
# in one global deterministic order, and the terminal verifies each
# event backward along the plan's path before building its row.  The
# single-time annotation path (`AnnotationFilter`) is the degenerate
# case: `execute_index_plan` wraps its `IndexPlan` as a one-kind
# `RangePlan` and runs the same kernel.

_KIND_RANK = {"cre": 0, "upd": 1, "add": 2, "rem": 3}


def execute_index_plan(plan: IndexPlan, ctx: ExecutionContext,
                       node: AnnotationFilter | None = None) -> QueryResult:
    """Serve an index-servable query entirely from the annotation index.

    Since the cross-time refactor this is the degenerate single-kind
    case of the range machinery: the ``IndexPlan``'s interval (usually
    pinned to ``[t, t]``) becomes a :class:`~repro.plan.stats.RangePlan`
    scanned with the index strategy -- there is no separate single-time
    code path.
    """
    range_plan = RangePlan(
        kinds=(plan.kind,),
        labels=plan.labels,
        root_name=plan.root_name,
        at_var=plan.at_var,
        from_var=plan.from_var,
        to_var=plan.to_var,
        object_var=plan.object_var,
        low=plan.low,
        high=plan.high,
        include_low=plan.include_low,
        include_high=plan.include_high,
        strategy="index-scan",
        select=plan.select,
        object_label=plan.object_label,
        time_label=TIME_LABELS[plan.kind],
    )
    return execute_range_plan(range_plan, ctx, node=node)


def execute_range_plan(plan: RangePlan, ctx: ExecutionContext,
                       node: LogicalNode | None = None, *,
                       versions: bool = False) -> QueryResult:
    """Run a range plan: scan events, verify backward, build rows.

    ``node`` (the terminal IR node, when executing a compiled tree)
    routes ANALYZE accounting: the terminal counts events in and rows
    out, and its ``TimeRangeScan`` child -- when present -- counts the
    events the scan emitted.
    """
    op = scan_op = None
    if ctx.stats is not None and node is not None:
        op = ctx.stats.op_for(node)
        children = node.children()
        if children:
            scan_op = ctx.stats.op_for(children[0])
    started = perf_counter() if op is not None else 0.0
    events = _range_events(plan, ctx)
    if scan_op is not None:
        scan_op.rows_out = len(events)
        scan_op.wall_seconds += perf_counter() - started
    result = QueryResult()
    if versions:
        _version_join(plan, events, ctx, result, op)
    else:
        if plan.last_only:
            events = _last_events(events)
        for when, kind, subject in events:
            if op is not None:
                op.rows_in += 1  # one candidate event verified per row
            row = _verify_and_build(plan, kind, when, subject, ctx)
            if row is not None:
                result.add(row)
    if op is not None:
        op.wall_seconds += perf_counter() - started
        op.rows_out = len(result)
    return result


def _range_events(plan: RangePlan, ctx: ExecutionContext) -> list:
    """All in-range ``(when, kind, subject)`` events, globally ordered.

    The order -- time, then kind (cre, upd, add, rem), then subject --
    is strategy-independent: the index scan and the history replay
    produce identical streams, which is what makes the two strategies
    interchangeable (the cross-time equivalence suite pins it).
    """
    if plan.strategy == "checkpoint-replay":
        events = _replay_events(plan, ctx)
    else:
        events = _index_events(plan, ctx)
    events.sort(key=lambda event: (event[0]._order_key(),
                                   _KIND_RANK[event[1]],
                                   _subject_key(event[2])))
    return events


def _subject_key(subject) -> tuple[str, str, str]:
    if isinstance(subject, str):
        return ("", "", subject)
    return (subject.source, subject.label, subject.target)


def _index_events(plan: RangePlan, ctx: ExecutionContext) -> list:
    """One timestamp-index range scan per event kind, merged."""
    events = []
    for kind in plan.kinds:
        # Arc kinds narrow the scan to the final step's label via the
        # index's label partition; node kinds scan the kind list.
        label = plan.labels[-1] if kind in ("add", "rem") else None
        for when, subject in ctx.index.between(
                kind, plan.low, plan.high,
                include_low=plan.include_low,
                include_high=plan.include_high,
                label=label):
            events.append((when, kind, subject))
    return events


def _replay_events(plan: RangePlan, ctx: ExecutionContext) -> list:
    """Replay the change history, keeping the in-range wanted events."""
    from ..oem.changes import AddArc, CreNode, RemArc
    from ..oem.model import Arc

    wanted = set(plan.kinds)
    final_label = plan.labels[-1]
    events = []
    for when, change_set in _replay_entries(plan, ctx):
        if not _within_range(plan, when):
            continue
        for operation in change_set:
            if isinstance(operation, CreNode):
                kind, subject = "cre", operation.node
            elif isinstance(operation, AddArc):
                kind, subject = "add", Arc(*operation.arc)
            elif isinstance(operation, RemArc):
                kind, subject = "rem", Arc(*operation.arc)
            else:  # UpdNode
                kind, subject = "upd", operation.node
            if kind not in wanted:
                continue
            if kind in ("add", "rem") and subject.label != final_label:
                continue
            events.append((when, kind, subject))
    return events


def _replay_entries(plan: RangePlan, ctx: ExecutionContext):
    """The ``(timestamp, change set)`` pairs to replay, range-pruned.

    With a store log attached (``ctx.log``) the scan starts after the
    newest durable checkpoint strictly below the range -- everything at
    or before it is guaranteed out of range -- which is the
    nearest-checkpoint seek that makes wide-range replay cheaper than a
    from-origin scan.  Without a log the history is re-encoded from the
    DOEM annotations (Section 3.2) and pruned by timestamp alone.
    """
    if ctx.log is not None:
        entries = ctx.log.entries()
        floor = None
        if plan.low.is_finite:
            for ref in ctx.log.checkpoints():
                if ref.at < plan.low and (floor is None or ref.at > floor):
                    floor = ref.at
        if floor is not None:
            entries = tuple(entry for entry in entries
                            if entry[0] > floor)
        return entries
    from ..doem.extract import encoded_history
    return tuple(encoded_history(ctx.doem))


def _within_range(plan: RangePlan, when: Timestamp) -> bool:
    if when < plan.low or (when == plan.low and not plan.include_low):
        return False
    if when > plan.high or (when == plan.high and not plan.include_high):
        return False
    return True


def _last_events(events: list) -> list:
    """Keep the newest event per subject (``<last-change>`` semantics).

    Node events group per node across ``cre``/``upd``; arc events group
    per ``(source, label, target)`` arc, matching the evaluator's
    per-child latest-event selection.
    """
    latest: dict = {}
    for event in events:  # already globally ordered ascending
        latest[_subject_key(event[2])] = event
    kept = list(latest.values())
    kept.sort(key=lambda event: (event[0]._order_key(),
                                 _KIND_RANK[event[1]],
                                 _subject_key(event[2])))
    return kept


def _version_join(plan: RangePlan, events: list, ctx: ExecutionContext,
                  result: QueryResult, op) -> None:
    """Enumerate versions of the live path's nodes over the range.

    Mirrors the evaluator's ``<at [a..b]>`` semantics: every node on the
    live label path contributes one anchor version at the range's lower
    bound when it already existed there (no creation, or created at or
    before the bound), plus one version per in-range ``cre``/``upd``
    event.  The bound time context rides on the :class:`ObjectRef`, so
    value reads happen "as of" each version.
    """
    view = getattr(ctx.evaluator, "view", None)
    times_by_node: dict[str, list] = {}
    for when, _kind, subject in events:
        bucket = times_by_node.setdefault(subject, [])
        if bucket and bucket[-1] == when:
            continue  # cre and upd at the same instant are one version
        bucket.append(when)
    low = plan.low if plan.low.is_finite else None
    for node in sorted(ctx.paths.nodes(plan.labels)):
        if op is not None:
            op.rows_in += 1
        times: list = []
        if low is not None:
            creations = list(view.cre_fun(node)) if view is not None else []
            if not creations or min(creations) <= low:
                times.append(low)
        for when in times_by_node.get(node, ()):
            if times and when == times[-1]:
                continue  # the anchor coincides with the first event
            times.append(when)
        for when in times:
            result.add(_build_row(plan, "at", when, node, None, at=when))


def _verify_and_build(plan: RangePlan, kind: str, when: Timestamp,
                      subject, ctx: ExecutionContext) -> Row | None:
    graph = ctx.doem.graph
    if kind in ("add", "rem"):
        arc = subject
        if arc.label != plan.labels[-1]:
            return None
        if not _connects_backward(arc.source, plan.labels[:-1], ctx):
            return None
        return _build_row(plan, kind, when, arc.target, None)
    # cre / upd: subject is a node; the final arc must be live now.
    node = subject
    final_label = plan.labels[-1]
    for in_arc in graph.in_arcs(node):
        if in_arc.label != final_label:
            continue
        if not ctx.doem.arc_live_at(*in_arc, POS_INF):
            continue
        if _connects_backward(in_arc.source, plan.labels[:-1], ctx):
            if kind == "upd":
                triple = _upd_triple_at(node, when, ctx)
                if triple is None:
                    return None
                return _build_row(plan, kind, when, node, triple)
            return _build_row(plan, kind, when, node, None)
    return None


def _connects_backward(node: str, labels: tuple[str, ...],
                       ctx: ExecutionContext) -> bool:
    """Is there a live path root -labels-> node?

    Served by the memoized :class:`~repro.lore.indexes.PathIndex`: one
    forward expansion per distinct label prefix instead of a backward
    BFS per hit.
    """
    return ctx.paths.contains(node, labels)


def _upd_triple_at(node: str, when: Timestamp, ctx: ExecutionContext):
    for at, old, new in ctx.doem.upd_triples(node):
        if at == when:
            return (old, new)
    return None


def _build_row(plan: RangePlan, kind: str, when: Timestamp, node: str,
               upd_values, at: Timestamp | None = None) -> Row:
    items: list[tuple[str, object]] = []
    for item in plan.select:
        expr = item.expr
        if isinstance(expr, PathExpr) and expr.steps:
            label = item.label or plan.object_label
            items.append((label, ObjectRef(node, at)))
            continue
        name = expr.start if isinstance(expr, PathExpr) else expr.name
        if name == plan.object_var:
            items.append((item.label or plan.object_label,
                          ObjectRef(node, at)))
        elif name == plan.at_var:
            items.append((item.label or plan.time_label, when))
        elif name == plan.from_var:
            items.append((item.label or "old-value", upd_values[0]))
        elif name == plan.to_var:
            items.append((item.label or "new-value", upd_values[1]))
    return Row(tuple(items))
