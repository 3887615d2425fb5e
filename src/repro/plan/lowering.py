"""AST -> logical IR lowering.

Lowering consumes the *normalized* query (range-variable normal form,
:meth:`repro.lorel.eval.Evaluator.normalize`): every path select has
already been hoisted into a from-item, prefixes are unified, and
annotations are canonical.  The translation is then direct::

    Project(select, labels,
        Predicate(where,                 # only if a where clause exists
            PathExpand(item_n, ... PathExpand(item_1, Scan()))))

so the logical tree is a straight chain that mirrors the evaluator's
depth-first enumeration order -- the property the rewrite passes and the
batched operators must preserve for planned results to stay row- and
order-identical to the legacy evaluator.
"""

from __future__ import annotations

from ..lorel.ast import Query
from .ir import LogicalNode, PathExpand, Predicate, Project, Scan

__all__ = ["lower"]


def lower(normalized: Query, labels: dict) -> Project:
    """Lower a normalized query to the logical chain described above."""
    node: LogicalNode = Scan()
    for item in normalized.from_items:
        node = PathExpand(item=item, child=node)
    if normalized.where is not None:
        node = Predicate(condition=normalized.where, child=node)
    return Project(select=normalized.select, labels=dict(labels), child=node)
