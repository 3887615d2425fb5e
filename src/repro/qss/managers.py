"""The QSS server's internal modules (Figure 7).

* :class:`SubscriptionManager` -- "handles all the information relevant
  to subscriptions": the subscription itself, its polling schedule, and
  the per-subscription bookkeeping;
* :class:`QueryManager` -- "responsible for sending polling queries to
  the Tsimmis wrapper or mediator and for collecting the resulting OEM
  results";
* :class:`DOEMManager` -- "maintains the DOEM database corresponding to
  the sequence of polling query results, using the OEMdiff module to
  compute changes between successive polling query results".  It supports
  both space/time strategies the paper discusses: recomputing the
  previous result from the DOEM database (small state) or caching it
  (faster polls).

The Chorel engine wiring (filter-query evaluation with ``t[i]``
substitution) lives in :meth:`DOEMManager.filter_engine`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property

from ..chorel.engine import ChorelEngine
from ..diff.oemdiff import DiffStats, oem_diff
from ..doem.model import DOEMDatabase
from ..doem.snapshot import current_snapshot
from ..errors import QSSError, SubscriptionError
from ..oem.history import ChangeSet
from ..oem.model import OEMDatabase
from ..timestamps import Timestamp, parse_timestamp
from .subscription import Subscription, polling_time_mapping
from .wrapper import Wrapper

__all__ = ["SubscriptionManager", "QueryManager", "DOEMManager",
           "SubscriptionState"]


@dataclass
class SubscriptionState:
    """Per-subscription runtime bookkeeping."""

    subscription: Subscription
    wrapper_name: str
    polling_times: list[Timestamp] = field(default_factory=list)
    next_poll: Timestamp | None = None

    @property
    def poll_count(self) -> int:
        """How many polls have completed."""
        return len(self.polling_times)

    @cached_property
    def poll_key(self) -> str:
        """The history this subscription shares: wrapper name and
        normalised polling query (Section 6.1's merged DOEM databases).

        Every subscription with the same key reads one DOEM database,
        and a poll of the key at one instant is done once for all of them.
        """
        return f"{self.wrapper_name}::{self.subscription.polling_query}"


class SubscriptionManager:
    """Registry of active subscriptions and their schedules.

    ``next_poll`` is set through :meth:`schedule` (``add`` and
    ``record_poll`` call it), which also queues the subscription for
    :meth:`due`.
    """

    def __init__(self) -> None:
        self._states: dict[str, SubscriptionState] = {}
        self._by_key: dict[str, set[str]] = {}
        # (next poll, name) min-heap.  An entry whose time is no longer
        # its subscription's next_poll is stale and dropped when reached.
        self._queue: list[tuple[Timestamp, str]] = []

    def add(self, subscription: Subscription, wrapper_name: str,
            now: object) -> SubscriptionState:
        """Register a subscription; its first poll is scheduled after ``now``."""
        if subscription.name in self._states:
            raise SubscriptionError(
                f"subscription {subscription.name!r} already exists")
        state = SubscriptionState(subscription=subscription,
                                  wrapper_name=wrapper_name)
        self._states[subscription.name] = state
        self._by_key.setdefault(state.poll_key, set()).add(subscription.name)
        self.schedule(state,
                      subscription.frequency.next_after(parse_timestamp(now)))
        return state

    def remove(self, name: str) -> None:
        """Drop a subscription."""
        state = self.get(name)
        del self._states[name]
        sharers = self._by_key[state.poll_key]
        sharers.discard(name)
        if not sharers:
            del self._by_key[state.poll_key]

    def __contains__(self, name: object) -> bool:
        return name in self._states

    def get(self, name: str) -> SubscriptionState:
        """The state of one subscription."""
        try:
            return self._states[name]
        except KeyError:
            raise SubscriptionError(f"no subscription named {name!r}") from None

    def states(self) -> list[SubscriptionState]:
        """All subscription states, name order."""
        return [self._states[name] for name in sorted(self._states)]

    def sharers(self, key: str) -> list[SubscriptionState]:
        """The subscriptions whose poll key is ``key``, name order."""
        return [self._states[name] for name in sorted(self._by_key.get(key, ()))]

    def due(self, now: object) -> list[SubscriptionState]:
        """The next batch of polls: every subscription whose next poll is
        the earliest one pending, if that is at or before ``now``; name
        order.  The batch stays queued until its polls are recorded."""
        cutoff = parse_timestamp(now)
        queue = self._queue
        while queue and not self._queued(*queue[0]):
            heapq.heappop(queue)
        if not queue or queue[0][0] > cutoff:
            return []
        when = queue[0][0]
        names: set[str] = set()
        while queue and queue[0][0] == when:
            entry = heapq.heappop(queue)
            if self._queued(*entry):
                names.add(entry[1])
        for name in names:
            heapq.heappush(queue, (when, name))
        return [self._states[name] for name in sorted(names)]

    def _queued(self, when: Timestamp, name: str) -> bool:
        state = self._states.get(name)
        return state is not None and state.next_poll == when

    def schedule(self, state: SubscriptionState, when: Timestamp) -> None:
        """Set the subscription's next poll."""
        state.next_poll = when
        heapq.heappush(self._queue, (when, state.subscription.name))

    def record_poll(self, state: SubscriptionState, when: Timestamp) -> None:
        """Mark a completed poll and schedule the next one."""
        state.polling_times.append(when)
        self.schedule(state, state.subscription.frequency.next_after(when))


class QueryManager:
    """Sends polling queries to wrappers; collects packaged OEM results."""

    def __init__(self, wrappers: dict[str, Wrapper] | None = None) -> None:
        self._wrappers: dict[str, Wrapper] = dict(wrappers or {})

    def register_wrapper(self, name: str, wrapper: Wrapper) -> None:
        """Make a wrapper available under ``name``."""
        self._wrappers[name] = wrapper

    def wrapper(self, name: str) -> Wrapper:
        """Look up a registered wrapper."""
        try:
            return self._wrappers[name]
        except KeyError:
            raise QSSError(f"no wrapper named {name!r}") from None

    def wrapper_names(self) -> list[str]:
        """All registered wrapper names."""
        return sorted(self._wrappers)

    def poll(self, state: SubscriptionState, when: object) -> OEMDatabase:
        """Advance the source to ``when`` and run the polling query."""
        wrapper = self.wrapper(state.wrapper_name)
        wrapper.advance(when)
        return wrapper.poll(state.subscription.polling_query)


def _rename_root(db: OEMDatabase, new_root: str) -> OEMDatabase:
    """A copy of ``db`` whose root carries ``new_root`` as its identifier."""
    renamed = OEMDatabase(root=new_root, root_value=db.value(db.root))
    for node in db.nodes():
        if node != db.root:
            renamed.create_node(node, db.value(node))
    for arc in db.arcs():
        source = new_root if arc.source == db.root else arc.source
        target = new_root if arc.target == db.root else arc.target
        renamed.add_arc(source, arc.label, target)
    return renamed


class DOEMManager:
    """Maintains one DOEM database per history key.

    ``R0`` is the empty OEM database, so the first poll's objects all
    carry ``cre`` annotations (Example 6.1's t1 behaviour).

    ``cache_previous_result`` selects the footnote's strategy: keep the
    previous polling result (aligned to DOEM identifiers) in memory
    instead of re-deriving it from the DOEM database at every poll.

    A standalone manager uses whatever name it is given as the history
    key.  A QSS server keys histories by poll key and sets
    ``subscriptions``, so every method also accepts a subscription name
    and resolves it to that subscription's (shared) history.

    ``store`` makes the histories durable: every applied change set is
    also appended to the named history in a
    :class:`~repro.store.ChangeLogStore` (keys sanitized with
    :func:`~repro.store.sanitize_name`, since poll keys like
    ``wrapper::query`` are not path-safe), and a manager constructed over
    a non-empty store rebuilds each DOEM from the log on first touch --
    the restart-without-re-polling path.
    """

    def __init__(self, cache_previous_result: bool = True,
                 differ: str = "match", store=None) -> None:
        if differ not in ("match", "ids"):
            raise QSSError("differ must be 'match' (content matching, the "
                           "default) or 'ids' (trust stable identifiers)")
        self.differ = differ
        self.cache_previous_result = cache_previous_result
        self.store = store
        self.subscriptions: SubscriptionManager | None = None
        self._doems: dict[str, DOEMDatabase] = {}
        self._previous: dict[str, OEMDatabase] = {}
        self._all_ids: dict[str, set[str]] = {}
        self.last_diff_stats: dict[str, DiffStats] = {}

    def history_key(self, name: str) -> str:
        """The history ``name`` addresses: a served subscription's poll
        key, otherwise ``name`` itself."""
        if self.subscriptions is not None and name in self.subscriptions:
            return self.subscriptions.get(name).poll_key
        return name

    def _store_log(self, key: str):
        """The durable log behind ``key`` (``None`` without a store)."""
        if self.store is None:
            return None
        from ..store import sanitize_name
        return self.store.log(sanitize_name(key),
                              origin=OEMDatabase(root="answer"))

    def doem(self, name: str) -> DOEMDatabase:
        """The DOEM database ``name`` addresses (created lazily).

        The empty base database has an ``answer`` root matching the
        wrapper's packaging, so diffs align naturally.  With a store
        attached, a history already on disk is rebuilt from its log
        here -- restarting a server recovers every subscription's DOEM
        without touching the sources.
        """
        key = self.history_key(name)
        if key not in self._doems:
            log = self._store_log(key)
            if log is not None and len(log) > 0:
                doem = log.get_doem()
                self._doems[key] = doem
                # Every identifier the history ever used stays reserved
                # (Section 2.2: identifiers are never reused), including
                # those of nodes that are now dead.
                self._all_ids[key] = set(doem.graph.nodes()) | {"answer"}
            else:
                self._doems[key] = DOEMDatabase(OEMDatabase(root="answer"))
                self._all_ids[key] = {"answer"}
        return self._doems[key]

    def previous_result(self, name: str) -> OEMDatabase:
        """``R_{i-1}`` in DOEM identifier space.

        Cached when ``cache_previous_result`` is on; otherwise recomputed
        as the current snapshot of the DOEM database (the space-saving
        strategy).
        """
        key = self.history_key(name)
        if self.cache_previous_result and key in self._previous:
            return self._previous[key]
        return current_snapshot(self.doem(key))

    def incorporate(self, name: str, when: object,
                    result: OEMDatabase) -> ChangeSet:
        """Fold a new polling result into the history's DOEM database.

        Runs OEMdiff between the previous result and ``result``, applies
        the inferred change set with timestamp ``when``, and returns it.
        Fresh identifiers avoid everything the DOEM database has ever
        used -- deleted identifiers are never reused (Section 2.2).
        """
        from ..doem.build import apply_change_set

        key = self.history_key(name)
        doem = self.doem(key)
        previous = self.previous_result(key)
        reserved = self._all_ids[key]
        if self.differ == "ids":
            # Cooperative source: identifiers are stable between polls.
            from ..diff.iddiff import id_diff
            aligned = result if result.root == previous.root \
                else _rename_root(result, previous.root)
            change_set = id_diff(previous, aligned)
        else:
            change_set = oem_diff(previous, result, reserved_ids=reserved)
        timestamp = parse_timestamp(when)
        existing = doem.timestamps()
        if change_set or not existing or existing[-1] < timestamp:
            apply_change_set(doem, timestamp, change_set)
            if change_set:
                # Durability follows the in-memory fold: non-empty sets
                # land in the change log (empty sets leave no annotations
                # and would only bloat the segments).
                log = self._store_log(key)
                if log is not None:
                    log.append(timestamp, change_set)
        reserved.update(change_set.created_nodes())
        self.last_diff_stats[key] = DiffStats(change_set)
        if self.cache_previous_result:
            updated = previous.copy()
            change_set.apply_to(updated)
            self._previous[key] = updated
        return change_set

    def compact_before(self, name: str, when: object) -> None:
        """Truncate the history's DOEM database at ``when``.

        Section 6.1's third space idea: the state at ``when`` becomes the
        new original snapshot and older annotations are forgotten.  Filter
        queries that only look back as far as ``when`` (the usual
        ``T > t[-1]`` shape) are unaffected.  A shared history is
        compacted for every subscription reading it, so the cutoff must
        suit all of them.
        """
        from ..doem.compact import compact

        key = self.history_key(name)
        cutoff = parse_timestamp(when)
        self._doems[key] = compact(self.doem(key), cutoff)
        log = self._store_log(key)
        if log is not None:
            # Keep the durable log in step: the same horizon promotes the
            # state at the cutoff to the log's new origin.
            log.compact(before=cutoff)
        # Identifier discipline is preserved: compaction only drops nodes,
        # and dropped identifiers stay in the reserved set forever.  The
        # cached previous result is a plain snapshot, so it is unaffected.

    def filter_engine(self, state: SubscriptionState) -> ChorelEngine:
        """A Chorel engine over the subscription's DOEM database.

        The database is registered under the polling query's name and the
        ``t[i]`` variables reflect the polls completed so far.
        """
        engine = ChorelEngine(self.doem(state.poll_key),
                              name=state.subscription.polling_name)
        engine.set_polling_times(polling_time_mapping(state.polling_times))
        return engine

    def drop(self, name: str) -> None:
        """Forget a history's in-memory state."""
        key = self.history_key(name)
        for table in (self._doems, self._previous, self._all_ids,
                      self.last_diff_stats):
            table.pop(key, None)

    def state_size(self, name: str) -> dict[str, int]:
        """Rough state-size accounting for the space-strategy benchmark."""
        key = self.history_key(name)
        doem = self.doem(key)
        sizes = {
            "doem_nodes": len(doem.graph),
            "doem_arcs": doem.graph.arc_count(),
            "annotations": doem.annotation_count(),
            "cached_nodes": 0,
            "cached_arcs": 0,
        }
        cached = self._previous.get(key)
        if self.cache_previous_result and cached is not None:
            sizes["cached_nodes"] = len(cached)
            sizes["cached_arcs"] = cached.arc_count()
        return sizes
