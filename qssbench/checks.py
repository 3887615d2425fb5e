"""Output checks.  They run outside every timed region.

Each check returns ``True`` when the output is right; the workloads
count every ``False`` (and every exception) as a failed operation.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

# OEMDatabase.isomorphic_to backtracks with one Python frame per node, so
# a ~1.7k-node restaurant-guide snapshot overflows the default recursion
# limit.  The benchmark runs the check on a thread with a larger stack
# and a raised limit instead of changing the program.
_STACK_BYTES = 512 * 1024 * 1024
_RECURSION_LIMIT = 200_000


def isomorphic_pairs(pairs) -> list[bool]:
    """``left.isomorphic_to(right)`` for each pair, on one thread deep
    enough for it."""
    outcome: list = []

    def target() -> None:
        try:
            outcome.append([left.isomorphic_to(right) for left, right in pairs])
        except BaseException as error:  # re-raised on the caller's thread
            outcome.append(error)

    old_limit = sys.getrecursionlimit()
    old_stack = threading.stack_size(_STACK_BYTES)
    sys.setrecursionlimit(_RECURSION_LIMIT)
    try:
        worker = threading.Thread(target=target, name="qssbench-isomorphic")
        worker.start()
        worker.join()
    finally:
        threading.stack_size(old_stack)
        sys.setrecursionlimit(old_limit)
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0]


def row_texts(result) -> list[str]:
    """A query result's rows, as the equivalence tests print them."""
    return [str(row) for row in result]


def same_multiset(rows: list[str], expected: list[str]) -> bool:
    return Counter(rows) == Counter(expected)
