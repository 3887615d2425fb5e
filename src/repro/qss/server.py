"""The QSS server: the polling/diff/filter loop over a simulated clock.

One server process serves multiple clients (Figure 7).  The simulated
clock makes every run deterministic and fast: :meth:`QSSServer.run_until`
executes, in timestamp order, every poll that falls due across all
subscriptions, and delivers the filter-query results to the subscribing
clients.
"""

from __future__ import annotations

import functools
import json
import threading
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from ..errors import QSSError, ReproError, StoreCorruptionError, \
    StoreError, SubscriptionError
from ..doem.snapshot import current_snapshot
from ..lorel.result import ObjectRef
from ..obs.events import emit_event
from ..obs.metrics import registry as metrics_registry
from ..obs.trace import span
from ..oem.model import OEMDatabase
from ..timestamps import Timestamp, parse_timestamp
from .managers import DOEMManager, QueryManager, SubscriptionManager, \
    SubscriptionState
from .subscription import Notification, Subscription
from .wrapper import Wrapper

__all__ = ["QSSServer", "SlowPollRecord", "PollTimeout", "history_name"]

# The subscription table a store-backed server keeps next to the
# histories in its change-log store (Figure 7's Subscription Store).
TABLE_FILE = "qss.json"
TABLE_FORMAT = 2


def _saves_state(method):
    """Rewrite the subscription table when ``method`` returns or raises
    (polls completed before an error are already in the change log)."""
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        try:
            return method(self, *args, **kwargs)
        finally:
            self._save_state()
    return wrapper


class PollTimeout(QSSError):
    """A source poll exceeded the server's ``poll_timeout`` budget.

    Recorded in ``error_log`` for every subscription sharing the poll
    key (never raised through ``run_until``): a timeout is a deadline
    policy protecting the polling cycle, not a defect in the
    subscription, so the schedule advances and the other keys in the
    batch are notified normally.
    """


@dataclass(frozen=True)
class SlowPollRecord:
    """One slow-query-log entry: a poll that exceeded the threshold."""

    polling_time: Timestamp
    subscription: str
    seconds: float

    def __str__(self) -> str:
        return (f"[{self.polling_time}] SLOW {self.subscription}: "
                f"{self.seconds * 1000:.3f} ms")


class QSSServer:
    """The Query Subscription Service server.

    ``start`` sets the simulated clock's origin.  Wrappers are registered
    by name; clients attach via :class:`~repro.qss.client.QSC` (or any
    callable taking a :class:`~repro.qss.subscription.Notification`).

    ``deliver_empty`` controls whether polls whose filter query returns
    nothing still produce a (empty) notification -- the paper's QSS stays
    silent, the default here too; tests flip it to observe every poll.

    Subscriptions with the same poll key (``SubscriptionState.poll_key``:
    wrapper name and normalised polling query) share one DOEM database
    (Section 6.1, "merging the DOEM databases for subscriptions that
    have similar polling queries"), and the key is polled, diffed and
    folded once per poll time; each subscriber then runs its own filter
    query with its own ``t[i]``.
    Sharers on different schedules therefore see the union of the key's
    poll times: a value changed twice between A's polls shows as two
    ``upd`` annotations when B polled in between.  A subscription that
    joins a key with history finds that history in its DOEM.
    ``compact_keep_polls`` keeps, per key, the last N polling intervals
    of every sharer.

    ``store`` (a :class:`~repro.store.ChangeLogStore` or a path) makes
    the server durable (Figure 7's Subscription Store and DOEM Store in
    one directory).  Incorporated change sets are appended to the
    store's change logs; the subscription table (clock, definitions,
    wrapper names, ``t[i]`` polling times, next polls) is
    rewritten atomically to ``qss.json`` after every public call that
    changes it.  A server constructed over a store with a table restores
    it, clock included (``start`` only seeds a store without one), and
    rebuilds each DOEM lazily from its log instead of re-polling.
    Wrappers are not saved: re-register them by name.  Re-subscribing a
    restored subscription with its saved definition attaches
    ``deliver``.  A crash inside a call can leave the log one call ahead
    of the table.

    Observability: every poll is wall-timed (``qss.poll_seconds``
    histogram; ``qss.polls`` / ``qss.notifications`` / ``qss.errors``
    counters in the global metrics registry) and, when tracing is
    enabled, produces a ``qss.poll`` span with per-phase children.
    ``slow_poll_threshold`` (seconds) turns on the slow-query log: polls
    at or above the threshold are appended to ``slow_poll_log`` and
    counted in ``qss.slow_polls``; when ``None`` (the default) the
    ``REPRO_SLOW_QUERY_MS`` env var supplies the threshold -- the same
    variable that drives the obs query log's slow-query capture -- and
    when that too is unset the log stays off.
    :meth:`metrics_text` serves the registry as a ``/metrics``-style
    text dump.

    Concurrency: the polls due at one simulated timestamp form a batch.
    ``max_poll_workers`` only decides where the batch's *source* phase
    (wrapper advance + polling query, once per key) runs: inline, or on
    a bounded worker pool (metrics family ``qss.pool``), serialized per
    wrapper by a lock.  Incorporation, filter evaluation, packaging, and
    notification delivery stay on the calling thread in ``(time, name)``
    order, so notification order and DOEM contents do not depend on the
    pool.  ``poll_timeout`` (seconds; ``None`` disables) bounds each
    batch's source phase: every sharer of a key whose source poll has
    not finished by the deadline is recorded in ``error_log`` as a
    :class:`PollTimeout` (counter ``qss.timeouts``), its schedule
    advances, and the rest of the batch is notified normally -- one
    hung or crashing source cannot stall the cycle.  A timed-out poll's
    worker may linger until the source returns; it only touches the
    wrapper (under the wrapper lock) and its result is discarded, and
    while it lingers the key's subsequent polls are skipped (also as
    timeouts) rather than stacking more zombies onto the pool.
    """

    def __init__(self, start: object = "1Dec96",
                 cache_previous_result: bool = True,
                 deliver_empty: bool = False,
                 on_error: str = "raise",
                 compact_keep_polls: int | None = None,
                 slow_poll_threshold: float | None = None,
                 max_poll_workers: int = 1,
                 poll_timeout: float | None = None,
                 store=None) -> None:
        if on_error not in ("raise", "skip"):
            raise QSSError("on_error must be 'raise' or 'skip'")
        if slow_poll_threshold is not None and slow_poll_threshold < 0:
            raise QSSError("slow_poll_threshold must be >= 0 (seconds)")
        if compact_keep_polls is not None and compact_keep_polls < 1:
            raise QSSError("compact_keep_polls must be >= 1")
        if max_poll_workers < 1:
            raise QSSError("max_poll_workers must be >= 1")
        if poll_timeout is not None and poll_timeout <= 0:
            raise QSSError("poll_timeout must be > 0 (seconds)")
        if poll_timeout is not None and max_poll_workers == 1:
            raise QSSError("poll_timeout needs max_poll_workers > 1 "
                           "(the serial loop cannot abandon a poll)")
        self.clock: Timestamp = parse_timestamp(start)
        if store is not None and not hasattr(store, "log"):
            # A path: open (or join) the process-shared store handle.
            from ..store import open_store
            store = open_store(store, "rw")
        self.store = store
        self.subscriptions = SubscriptionManager()
        self.queries = QueryManager()
        self.doems = DOEMManager(cache_previous_result=cache_previous_result,
                                 store=store)
        self.doems.subscriptions = self.subscriptions
        self.deliver_empty = deliver_empty
        self.on_error = on_error
        self.compact_keep_polls = compact_keep_polls
        if slow_poll_threshold is None:
            # One threshold drives every slow-query surface: without an
            # explicit override, fall back to REPRO_SLOW_QUERY_MS (the
            # same env var the obs query log's slow capture honors).
            from ..obs.querylog import slow_query_threshold_seconds
            slow_poll_threshold = slow_query_threshold_seconds()
        self.slow_poll_threshold = slow_poll_threshold
        self.max_poll_workers = max_poll_workers
        self.poll_timeout = poll_timeout
        self._subscribers: dict[str, list[Callable[[Notification], None]]] = {}
        self.notification_log: list[Notification] = []
        self.error_log: list[tuple[Timestamp, str, Exception]] = []
        self.slow_poll_log: list[SlowPollRecord] = []
        self._metrics = metrics_registry().group(
            "qss", ("polls", "notifications", "slow_polls", "errors",
                    "timeouts"),
            histograms=("poll_seconds",))
        self._poll_pool = None
        self._wrapper_locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        # poll key -> the Future of a timed-out poll that may still be running.
        self._inflight: dict[str, object] = {}
        # name -> health record (consecutive failure streaks + last
        # delivery), the state behind health() and the qss.sub.* gauges.
        self._health: dict[str, dict] = {}
        # Restored from the table and not yet re-subscribed by a client.
        self._restored: set[str] = set()
        if store is not None:
            self._restore_state()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def register_wrapper(self, name: str, wrapper: Wrapper) -> None:
        """Expose a wrapper (a source) to subscriptions under ``name``."""
        self.queries.register_wrapper(name, wrapper)

    @_saves_state
    def subscribe(self, subscription: Subscription, wrapper_name: str,
                  deliver: Callable[[Notification], None] | None = None
                  ) -> SubscriptionState:
        """Create a subscription against a registered wrapper.

        The first poll is scheduled by the frequency specification,
        starting from the current simulated clock.  Subscribing a
        subscription restored from the store with its saved definition
        keeps its schedule and history and only attaches ``deliver``.
        """
        self.queries.wrapper(wrapper_name)  # validate early
        name = subscription.name
        if name in self._restored:
            state = self.subscriptions.get(name)
            if _definition(subscription, wrapper_name) != \
                    _definition(state.subscription, state.wrapper_name):
                raise SubscriptionError(
                    f"subscription {name!r} already exists (restored from "
                    f"the store with a different definition)")
            self._restored.discard(name)
        else:
            state = self.subscriptions.add(subscription, wrapper_name,
                                           self.clock)
        if deliver is not None:
            self._subscribers.setdefault(name, []).append(deliver)
        return state

    @_saves_state
    def unsubscribe(self, name: str) -> None:
        """Cancel a subscription; its poll key's DOEM state goes with
        the last sharer."""
        key = self.subscriptions.get(name).poll_key
        self.subscriptions.remove(name)
        if not self.subscriptions.sharers(key):
            self.doems.drop(key)
        self._subscribers.pop(name, None)
        self._restored.discard(name)

    # ------------------------------------------------------------------
    # The polling loop
    # ------------------------------------------------------------------

    @_saves_state
    def run_until(self, when: object) -> list[Notification]:
        """Advance the simulated clock, executing every due poll in order.

        Returns the notifications produced (also appended to
        ``notification_log`` and pushed to per-subscription callbacks).
        """
        deadline = parse_timestamp(when)
        if deadline < self.clock:
            raise QSSError(
                f"cannot run the clock backwards ({deadline} < {self.clock})")
        produced: list[Notification] = []
        while batch := self.subscriptions.due(deadline):
            produced.extend(self._poll_batch(batch, batch[0].next_poll))
        self.clock = deadline
        return produced

    def _record_poll_failure(self, state: SubscriptionState,
                             poll_time: Timestamp,
                             error: Exception) -> None:
        """Count, log (or re-raise), and reschedule a failed poll.

        A failed poll must not wedge the server: log it, keep the
        schedule moving (the poll still "happened"), and leave the DOEM
        database untouched for the next attempt.  Timeouts never
        re-raise -- they are deadline policy, not subscription defects.
        """
        self._metrics["errors"].inc()
        name = state.subscription.name
        record = self._sub_health(name)
        if isinstance(error, PollTimeout):
            self._metrics["timeouts"].inc()
            record["consecutive_timeouts"] += 1
            metrics_registry().gauge(
                f"qss.sub.{name}.consecutive_timeouts").set(
                    record["consecutive_timeouts"])
            emit_event("poll_timeout", level="warning", subscription=name,
                       at=str(poll_time),
                       consecutive=record["consecutive_timeouts"],
                       detail=str(error))
        else:
            record["consecutive_errors"] += 1
            if self.on_error == "raise":
                raise error
        self.error_log.append((poll_time, name, error))
        if not state.polling_times or state.polling_times[-1] != poll_time:
            self.subscriptions.record_poll(state, poll_time)

    def _poll_batch(self, batch: list[SubscriptionState],
                    poll_time: Timestamp) -> list[Notification]:
        """Poll ``batch`` (name order) at ``poll_time``.

        Once per poll key: the source phase, OEMdiff, incorporation and
        the store append (:meth:`_fold`).  Once per subscriber, in name
        order: its own filter query against the shared DOEM, packaging,
        notification.  Inline, a key is folded when its first sharer is
        reached, so earlier subscribers are not kept waiting for later
        keys; with a pool, every key's source phase runs up front.  A
        key's failure is recorded for each of its sharers in the batch.
        """
        groups: dict[str, list[SubscriptionState]] = {}
        for state in batch:
            groups.setdefault(state.poll_key, []).append(state)
        sourced = self._poll_sources(groups, poll_time) \
            if self.max_poll_workers > 1 else {}
        # key -> seconds its source and incorporate took, or the error.
        folded: dict[str, object] = {}
        snapshots: dict[str, OEMDatabase] = {}
        produced: list[Notification] = []
        for state in batch:
            key = state.poll_key
            if key not in folded:
                folded[key] = self._fold(state, poll_time, sourced.get(key))
            if isinstance(folded[key], Exception):
                self._record_poll_failure(state, poll_time, folded[key])
                continue
            try:
                notification = self._finish_poll(state, poll_time,
                                                 folded[key], snapshots)
            except Exception as error:
                self._record_poll_failure(state, poll_time, error)
                continue
            finally:
                if state is groups[key][-1]:
                    snapshots.pop(key, None)  # its last sharer is done
            if notification is not None:
                produced.append(notification)

        if self.compact_keep_polls is not None:
            for key, outcome in folded.items():
                if isinstance(outcome, Exception):
                    continue
                try:
                    self._compact(key)
                except Exception as error:
                    for state in groups[key]:
                        self._record_poll_failure(state, poll_time, error)
        return produced

    def _fold(self, state: SubscriptionState, poll_time: Timestamp,
              sourced: object) -> object:
        """The once-per-key part of a poll: the source phase (unless the
        pool already ran it: ``sourced``), then OEMdiff and incorporation
        into the key's DOEM.  Returns the seconds both took, or the
        exception that stopped them."""
        if isinstance(sourced, Exception):
            return sourced
        try:
            if sourced is None:
                sourced = self._poll_source(state, poll_time)
            result, source_seconds = sourced
            started = perf_counter()
            with span("qss.poll.incorporate", key=state.poll_key,
                      at=str(poll_time)):
                self.doems.incorporate(state.poll_key, poll_time, result)
        except Exception as error:
            return error
        return source_seconds + (perf_counter() - started)

    def _poll_sources(self, groups: dict[str, list[SubscriptionState]],
                      poll_time: Timestamp) -> dict[str, object]:
        """Every key's source phase, concurrently on the pool and bounded
        by ``poll_timeout``: ``(result, seconds)``, or the exception."""
        pool = self._pool()
        outcomes: dict[str, object] = {}
        futures = {}
        for key, sharers in groups.items():
            lingering = self._inflight.get(key)
            if lingering is not None:
                if not lingering.done():
                    # A previous timed-out poll is still occupying a
                    # worker; submitting another would just stack zombies
                    # until they exhaust the pool and starve healthy
                    # keys.  Skip this round instead.
                    outcomes[key] = PollTimeout(
                        f"poll of {key!r} at {poll_time} skipped: a "
                        f"previous timed-out poll is still in flight")
                    continue
                del self._inflight[key]
            futures[key] = pool.submit(self._poll_source, sharers[0],
                                       poll_time)
        not_done = futures_wait(list(futures.values()),
                                timeout=self.poll_timeout).not_done \
            if futures else set()
        for key, future in futures.items():
            if future in not_done:
                future.cancel()
                self._inflight[key] = future
                outcomes[key] = PollTimeout(
                    f"poll of {key!r} at {poll_time} exceeded "
                    f"{self.poll_timeout:g}s")
                continue
            try:
                outcomes[key] = future.result()
            except Exception as error:
                outcomes[key] = error
        return outcomes

    def _compact(self, key: str) -> None:
        """Section 6.1 retention policy, per poll key: keep the last N
        polling intervals of every sharer.  The cutoff is the oldest
        (N+1)-th most recent poll over the sharers, so every sharer's
        ``t[-N]`` lookback still works; nothing is compacted while any
        sharer has N polls or fewer."""
        keep = self.compact_keep_polls
        sharers = self.subscriptions.sharers(key)
        if any(state.poll_count <= keep for state in sharers):
            return
        cutoff = min(state.polling_times[-(keep + 1)] for state in sharers)
        with span("qss.compact", key=key):
            self.doems.compact_before(key, cutoff)

    # ------------------------------------------------------------------
    # The paper's two other snapshot modes (Section 6): explicit user
    # requests, and source-side trigger signals.
    # ------------------------------------------------------------------

    @_saves_state
    def poll_now(self, name: str) -> Notification | None:
        """Poll one subscription immediately, at the current clock.

        The paper's second mode: "snapshots are obtained following
        explicit user requests."  The on-demand poll joins the polling
        timeline (it becomes ``t[0]``; the scheduled cadence continues
        from it), so filter-query lookbacks stay consistent.  The clock
        must have advanced past the last poll.  A failure is handled as
        in :meth:`run_until` (``on_error``).
        """
        state = self.subscriptions.get(name)
        if state.polling_times and self.clock <= state.polling_times[-1]:
            raise QSSError(
                f"cannot poll {name!r} at {self.clock}: a poll at "
                f"{state.polling_times[-1]} already happened")
        produced = self._poll_batch([state], self.clock)
        return produced[0] if produced else None

    @_saves_state
    def on_source_signal(self, wrapper_name: str) -> list[Notification]:
        """React to a source-side trigger firing (the paper's third mode).

        "Snapshots are obtained as a result of a trigger on the source
        database firing, if the source provides such a triggering
        mechanism."  Every subscription polling through ``wrapper_name``
        is refreshed immediately at the current clock; subscriptions
        whose latest poll is not in the past are skipped (they are
        already up to date).
        """
        self.queries.wrapper(wrapper_name)  # validate
        batch = [state for state in self.subscriptions.states()
                 if state.wrapper_name == wrapper_name and (
                     not state.polling_times
                     or state.polling_times[-1] < self.clock)]
        return self._poll_batch(batch, self.clock)

    def _poll_source(self, state: SubscriptionState,
                     poll_time: Timestamp) -> tuple[OEMDatabase, float]:
        """The source phase of ``state``'s poll key: advance the wrapper
        and run the polling query; returns the result and its seconds.

        Serialized per wrapper, so concurrent batch polls (and polls
        racing a lingering timed-out worker) never interleave on one
        source.  Polls of the same wrapper at the same simulated
        timestamp commute: the second ``advance`` to an already-reached
        time is a no-op and polling queries are read-only.
        """
        started = perf_counter()
        with span("qss.poll.source", key=state.poll_key, at=str(poll_time)), \
                self._wrapper_lock(state.wrapper_name):
            result = self.queries.poll(state, poll_time)
        return result, perf_counter() - started

    def _finish_poll(self, state: SubscriptionState, poll_time: Timestamp,
                     shared_seconds: float,
                     snapshots: dict[str, OEMDatabase]) -> Notification | None:
        """One subscriber's part of a poll, after its key was folded:
        record the poll, filter, package, account, deliver.  Always runs
        on the thread driving the polling loop, in deterministic poll
        order.  ``shared_seconds`` is the key's source and incorporate
        time, counted in every sharer's ``elapsed``."""
        subscription = state.subscription
        started = perf_counter()
        self.subscriptions.record_poll(state, poll_time)
        engine = self.doems.filter_engine(state)
        # Tag the filter run so the obs query log can attribute its
        # fingerprint to this subscription (runs on the coordinator
        # thread, so the thread-local attribution holds).
        from ..obs.querylog import query_attribution
        with span("qss.poll", subscription=subscription.name,
                  at=str(poll_time)):
            with span("qss.filter"), \
                    query_attribution(subscription=subscription.name,
                                      poll_time=str(poll_time)):
                filtered = engine.run(subscription.filter_query)
            with span("qss.package"):
                answer = self._package(state.poll_key, filtered, snapshots)

        elapsed = shared_seconds + (perf_counter() - started)
        self._metrics["polls"].inc()
        self._metrics.histogram("poll_seconds").observe(elapsed)
        record = self._sub_health(subscription.name)
        record["consecutive_timeouts"] = 0
        record["consecutive_errors"] = 0
        metrics_registry().gauge(
            f"qss.sub.{subscription.name}.consecutive_timeouts").set(0)
        if self.slow_poll_threshold is not None and \
                elapsed >= self.slow_poll_threshold:
            self._metrics["slow_polls"].inc()
            self.slow_poll_log.append(SlowPollRecord(
                polling_time=poll_time, subscription=subscription.name,
                seconds=elapsed))
            emit_event("slow_poll", level="warning",
                       subscription=subscription.name, at=str(poll_time),
                       seconds=round(elapsed, 6),
                       threshold=self.slow_poll_threshold)
        notification = Notification(
            subscription=subscription.name,
            polling_time=poll_time,
            poll_index=state.poll_count,
            result=filtered,
            answer=answer,
            elapsed=elapsed,
        )
        if filtered or self.deliver_empty:
            self._metrics["notifications"].inc()
            record["last_notification"] = poll_time
            self.notification_log.append(notification)
            for deliver in self._subscribers.get(subscription.name, ()):
                deliver(notification)
            return notification
        return None

    # ------------------------------------------------------------------
    # Concurrency plumbing
    # ------------------------------------------------------------------

    def _pool(self):
        """The lazy poll pool (``qss.pool`` metrics family)."""
        if self._poll_pool is None:
            from ..parallel.pool import WorkerPool
            self._poll_pool = WorkerPool(self.max_poll_workers,
                                         metrics_prefix="qss.pool",
                                         thread_name_prefix="qss-poll")
        return self._poll_pool

    def _wrapper_lock(self, wrapper_name: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._wrapper_locks.get(wrapper_name)
            if lock is None:
                lock = self._wrapper_locks[wrapper_name] = threading.Lock()
            return lock

    @property
    def poll_pool(self):
        """The poll :class:`~repro.parallel.pool.WorkerPool`, if created."""
        return self._poll_pool

    @_saves_state
    def close(self) -> None:
        """Release the poll pool (no-op for a serial server).

        Does not wait for lingering timed-out polls -- a source that
        never returns must not be able to hang shutdown either.  An
        attached store gets a final subscription table and is flushed
        but left open: the handle is process shared (``repro explain
        --store`` against the same path reads through it), so the last
        owner closes it via :func:`repro.store.close_store`.
        """
        if self._poll_pool is not None:
            self._poll_pool.shutdown(wait=False, cancel_pending=True)
            self._poll_pool = None
        if self.store is not None and not self.store.closed:
            self.store.flush()

    # ------------------------------------------------------------------
    # The subscription table (durable servers only)
    # ------------------------------------------------------------------

    def _save_state(self) -> None:
        """Rewrite the store's subscription table (no-op without a
        writable store: a read-only handle never writes)."""
        if self.store is None or self.store.closed or \
                self.store.mode != "rw":
            return
        from ..store.log import write_json_atomic
        records = []
        for state in self.subscriptions.states():
            record = _definition(state.subscription, state.wrapper_name)
            record.update(
                polling_times=[when.ticks for when in state.polling_times],
                next_poll=state.next_poll.ticks)
            records.append(record)
        write_json_atomic(self.store.path / TABLE_FILE,
                          {"format": TABLE_FORMAT, "clock": self.clock.ticks,
                           "subscriptions": records})

    def _restore_state(self) -> None:
        """Load the store's subscription table, if it has one.

        An unreadable or unknown-format table raises rather than
        silently starting with no subscriptions.
        """
        path = self.store.path / TABLE_FILE
        table = _read_table(path)
        if table is None:
            return
        try:
            self.clock = Timestamp(table["clock"])
            for record in table["subscriptions"]:
                state = self.subscriptions.add(
                    _subscription(record), record["wrapper"], self.clock)
                state.polling_times = [Timestamp(ticks) for ticks
                                       in record["polling_times"]]
                self.subscriptions.schedule(state,
                                            Timestamp(record["next_poll"]))
                self._restored.add(state.subscription.name)
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            raise StoreCorruptionError(
                f"{path}: malformed subscription table: {exc}") from exc

    def __enter__(self) -> "QSSServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def metrics_text(self, prefix: str | None = None) -> str:
        """A ``/metrics``-style text dump of the global registry.

        Includes this server's ``qss.*`` series plus every ``repro.*``
        family (index hit rates, snapshot-cache activity, diff volume).
        ``prefix`` narrows the dump (e.g. ``"qss"``).
        """
        return metrics_registry().render_text(prefix)

    def _sub_health(self, name: str) -> dict:
        record = self._health.get(name)
        if record is None:
            record = self._health[name] = {
                "consecutive_timeouts": 0,
                "consecutive_errors": 0,
                "last_notification": None,
            }
        return record

    def health(self, *, degraded_after: int = 1,
               unhealthy_after: int = 3) -> dict:
        """A structured liveness snapshot of every subscription.

        Per subscription: ``poll_lag_seconds`` (how far behind schedule
        the next poll is, in simulated seconds -- 0 when on time),
        ``notification_age_seconds`` (simulated seconds since the last
        delivered notification, ``None`` if never), and the consecutive
        timeout/error streaks.  A subscription is ``unhealthy`` once its
        timeout streak reaches ``unhealthy_after``, ``degraded`` when
        either streak reaches ``degraded_after``; the server's ``status``
        is the worst subscription's.  Refreshing the snapshot also
        refreshes the ``qss.sub.<name>.*`` gauges, so a ``/metrics``
        scrape taken after ``/health`` reflects the same picture.
        """
        reg = metrics_registry()
        order = {"healthy": 0, "degraded": 1, "unhealthy": 2}
        worst = "healthy"
        subscriptions: dict[str, dict] = {}
        for state in self.subscriptions.states():
            name = state.subscription.name
            record = self._sub_health(name)
            lag = 0.0
            if state.next_poll is not None and state.next_poll < self.clock:
                lag = self.clock - state.next_poll
            age = None
            if record["last_notification"] is not None:
                age = self.clock - record["last_notification"]
            timeouts = record["consecutive_timeouts"]
            errors = record["consecutive_errors"]
            if timeouts >= unhealthy_after:
                status = "unhealthy"
            elif timeouts >= degraded_after or errors >= degraded_after:
                status = "degraded"
            else:
                status = "healthy"
            if order[status] > order[worst]:
                worst = status
            reg.gauge(f"qss.sub.{name}.poll_lag_seconds").set(lag)
            reg.gauge(f"qss.sub.{name}.consecutive_timeouts").set(timeouts)
            if age is not None:
                reg.gauge(f"qss.sub.{name}.notification_age_seconds").set(age)
            subscriptions[name] = {
                "status": status,
                "poll_lag_seconds": lag,
                "notification_age_seconds": age,
                "consecutive_timeouts": timeouts,
                "consecutive_errors": errors,
                "last_poll": str(state.polling_times[-1])
                if state.polling_times else None,
                "next_poll": str(state.next_poll)
                if state.next_poll is not None else None,
            }
        return {
            "status": worst,
            "clock": str(self.clock),
            "subscriptions": subscriptions,
            "polls": self._metrics["polls"].value,
            "notifications": self._metrics["notifications"].value,
            "errors": self._metrics["errors"].value,
            "timeouts": self._metrics["timeouts"].value,
        }

    def _package(self, key: str, filtered,
                 snapshots: dict[str, OEMDatabase]) -> OEMDatabase:
        """Package a filter result as a notification OEM database.

        Results are copied out of the key's *current snapshot*, computed
        once per key and poll (``snapshots``).  Selected objects that are
        no longer live (e.g. targets of removed arcs) are added to a copy
        as value-only nodes, so the notification is still self-contained.
        """
        doem = self.doems.doem(key)
        snapshot = snapshots.get(key)
        if snapshot is None:
            snapshot = snapshots[key] = current_snapshot(doem)
        dead = [value.node for row in filtered for _, value in row.items
                if isinstance(value, ObjectRef)
                and not snapshot.has_node(value.node)]
        if dead:
            snapshot = snapshot.copy()
            for node in dead:
                if not snapshot.has_node(node):
                    snapshot.create_node(node, doem.graph.value(node))
        return filtered.as_oem(snapshot, root="notification")


_DEFINITION = ("name", "frequency", "polling_query", "filter_query",
               "polling_name", "user")


def _definition(subscription: Subscription, wrapper_name: str) -> dict:
    """What defines a subscription, as its subscription-table record."""
    record = {field: str(getattr(subscription, field))
              for field in _DEFINITION}
    record["wrapper"] = wrapper_name
    return record


def _subscription(record: dict) -> Subscription:
    """The subscription a subscription-table record defines."""
    return Subscription(**{field: record[field] for field in _DEFINITION})


def _read_table(path) -> dict | None:
    """A subscription table (``None`` when there is none); an unreadable
    or unknown-format table raises."""
    try:
        table = json.loads(path.read_text("utf-8"))
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise StoreCorruptionError(
            f"{path}: unreadable subscription table: {exc}") from exc
    if not isinstance(table, dict) or table.get("format") != TABLE_FORMAT:
        raise StoreError(f"{path}: unsupported subscription table "
                         f"format (want {{'format': {TABLE_FORMAT}}})")
    return table


def history_name(store, name: str) -> str:
    """The history in ``store`` that ``name`` addresses.

    A stored history of that name, else the poll-key history of the
    subscription so named in the store's subscription table, else
    ``name`` unchanged (the store then reports it missing).
    """
    if name in store:
        return name
    from ..store import sanitize_name
    path = store.path / TABLE_FILE
    table = _read_table(path) or {"subscriptions": []}
    try:
        for record in table["subscriptions"]:
            if record["name"] == name:
                state = SubscriptionState(_subscription(record),
                                          record["wrapper"])
                return sanitize_name(state.poll_key)
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise StoreCorruptionError(
            f"{path}: malformed subscription table: {exc}") from exc
    return name
