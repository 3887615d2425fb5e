"""The three workloads, driven in a closed loop from one thread.

A run is a series of *episodes*.  Each episode builds its inputs from
``(seed, episode index)``, sets up (timed), runs its measured phase
(timed), and checks the outputs (untimed).  Episodes repeat until the
run's wall-time budget is spent, so every run sets up several times and
averages over several generated worlds.  Between timed regions the
episode takes a speed probe (see ``speed.py``); every timed sample is
kept with its start time so it can be scaled by the probes around it.

* ``poll-large`` / ``fanout``: a :class:`~repro.QSSServer` in its
  default serial posture polls a seeded
  :class:`~repro.sources.RestaurantGuideSource` once per simulated day;
  the benchmark calls ``run_until`` one day at a time and waits for it.
  After polling, every subscription's DOEM is read back at eight instants
  of each polling interval (the timed as-of reads); the reads at the poll
  times are compared with a re-poll of a same-seed source (the
  faithfulness check ``Ot(D) ~= R_t``).
* ``history-query``: a generated history is written with
  ``ChangeLogStore.put_history``, reopened read-only (the restart path)
  and rebuilt into a DOEM; then a fixed, weighted mix of Chorel queries
  on :class:`~repro.IndexedChorelEngine` (store log attached) runs,
  each followed by two ``ChangeLogStore.snapshot_at`` as-of reads.
  Rows are checked against ``ChorelEngine(use_planner=False)`` as
  multisets; as-of reads against ``OEMHistory.snapshot_at``.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import repro
from repro.sources.generators import large_database, large_history
from repro.sources.restaurant_guide import RestaurantGuideSource
from repro.store import ChangeLogStore

import checks
from speed import SpeedProbe

START = "1Dec96"
FREQUENCY = "every day at 6:00pm"
ASOF_READS = 8           # timed as-of instants per polling interval
ASOF_SPACING_HOURS = 3


@dataclass
class Recorder:
    """Everything one run measures and checks."""

    tracer: object = None
    speed: SpeedProbe = field(default_factory=SpeedProbe)
    # Timed samples as (start on perf_counter, value).
    setup_s: list = field(default_factory=list)
    op_ms: list = field(default_factory=list)
    busy_s: list = field(default_factory=list)  # per tick or query
    asof_ms: list = field(default_factory=list)
    timed_s: float = 0.0           # every timed region, all episodes
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    checked: Counter = field(default_factory=Counter)
    order_mismatches: int = 0
    checkpoints_per_log: list = field(default_factory=list)
    # history-query: after its minimum cycles, an episode keeps running
    # cycles that end by this perf_counter instant (None: no more).
    deadline: float | None = None
    store_bytes: int = 0           # written while polling (poll-large)
    store_counts: Counter = field(default_factory=Counter)

    @property
    def op_busy_s(self) -> float:
        """Raw time spent in polls or queries."""
        return sum(seconds for _, seconds in self.busy_s)

    @contextmanager
    def region(self, tag: str):
        """A timed region: tracing (if any) is on only inside it."""
        if self.tracer is not None:
            self.tracer.tag = tag
            self.tracer.active = True
        started = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - started
            if self.tracer is not None:
                self.tracer.active = False
            self.timed_s += elapsed

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, kind: str, ok: bool, what: str) -> None:
        self.checked[kind] += 1
        if not ok:
            self.fail(f"{kind}: {what}")


@dataclass(frozen=True)
class Size:
    """Per-workload input sizes; ``SIZES[name][preset]``."""

    restaurants: int = 0
    events_per_day: float = 0.0
    subscriptions: int = 0
    days: int = 0
    items: int = 0
    steps: int = 0
    churn: int = 0
    cycles: int = 0


# "full" is the benchmark; "tiny" and "empty" (set up, then measure
# nothing) serve the benchmark's own tests.
SIZES = {
    "poll-large": {"full": Size(restaurants=200, events_per_day=6,
                                subscriptions=4, days=4),
                   "tiny": Size(restaurants=12, events_per_day=3,
                                subscriptions=4, days=2)},
    "fanout": {"full": Size(restaurants=10, events_per_day=3,
                            subscriptions=50, days=3),
               "tiny": Size(restaurants=4, events_per_day=2,
                            subscriptions=6, days=2)},
    "history-query": {"full": Size(items=150, steps=120, churn=50, cycles=2),
                      "tiny": Size(items=30, steps=12, churn=20, cycles=1)},
}
for presets in SIZES.values():
    presets["empty"] = replace(presets["tiny"], days=0, cycles=0)

# poll-large: four distinct polling queries, (name, polling query, label).
DISTINCT_POLLS = (
    ("all", "select guide.restaurant", "restaurant"),
    ("cheap", "select guide.restaurant where guide.restaurant.price < 30",
     "restaurant"),
    ("thai", 'select guide.restaurant where guide.restaurant.cuisine = "Thai"',
     "restaurant"),
    ("comments", "select guide.restaurant.comment", "comment"),
)


def episode_seed(seed: int, episode: int) -> int:
    return seed * 1000 + episode


# ---------------------------------------------------------------------------
# poll-large and fanout
# ---------------------------------------------------------------------------


def poll_subscriptions(workload: str, size: Size) -> list[tuple[str, str, str]]:
    """``(subscription name, polling query, select label)`` per subscriber."""
    if workload == "poll-large":
        return [(f"s_{name}", query, label)
                for name, query, label in DISTINCT_POLLS[:size.subscriptions]]
    return [(f"f{index:02d}", "select guide.restaurant", "restaurant")
            for index in range(size.subscriptions)]


def poll_episode(workload: str, size: Size, seed: int, episode: int,
                 rec: Recorder, run_dir: Path, *, check: bool = True,
                 break_check: str | None = None) -> None:
    source_seed = episode_seed(seed, episode)
    subs = poll_subscriptions(workload, size)
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=run_dir)) \
        if workload == "poll-large" else None
    delivered: list[tuple[str, float]] = []
    store = server = None
    try:
        day = repro.parse_timestamp(START)
        rec.speed.probe()
        with rec.region(f"e{episode}/setup"):
            started = perf_counter()
            store = ChangeLogStore(store_dir / "store") if store_dir else None
            server = repro.QSSServer(start=START, deliver_empty=True,
                                     store=store)
            source = RestaurantGuideSource(
                seed=source_seed, initial_restaurants=size.restaurants,
                events_per_day=size.events_per_day)
            server.register_wrapper("guide", repro.Wrapper(source))
            for name, query, label in subs:
                server.subscribe(
                    repro.Subscription(
                        name=name, frequency=FREQUENCY, polling_query=query,
                        filter_query=f"select {name}.{label}<cre at T> "
                                     f"where T > t[-1]"),
                    "guide",
                    deliver=lambda note: delivered.append(
                        (note.subscription, perf_counter())))
            day = day.plus(days=1)
            server.run_until(day)          # every subscription's first poll
            rec.setup_s.append((started, perf_counter() - started))
        rec.speed.probe()
        first_polls = len(delivered)
        rec.attempted += len(subs)
        if first_polls != len(subs):
            rec.fail(f"{workload} e{episode}: {first_polls} of {len(subs)} "
                     f"first polls delivered")
        if store is not None:
            bytes_before = store.stats()["bytes_written"]

        for _ in range(size.days):
            day = day.plus(days=1)
            delivered.clear()
            with rec.region(f"e{episode}/{day}"):
                tick = perf_counter()
                try:
                    server.run_until(day)
                except Exception as error:  # counted, episode abandoned
                    rec.attempted += len(subs)
                    rec.fail(f"{workload} run_until({day}): {error!r}")
                    return
            rec.busy_s.append((tick, perf_counter() - tick))
            rec.speed.probe()
            rec.attempted += len(subs)
            rec.op_ms.extend((tick, (at - tick) * 1000) for _, at in delivered)
            if len(delivered) != len(subs):
                rec.fail(f"{workload} {day}: {len(delivered)} of {len(subs)} "
                         f"polls delivered")
        if server.error_log:
            for when, name, error in server.error_log:
                rec.fail(f"{workload} {name} at {when}: {error!r}")
        if store is not None:
            stats = store.stats()
            rec.store_bytes += stats["bytes_written"] - bytes_before
            for key in ("fsyncs", "checkpoints_written", "bytes_written"):
                rec.store_counts[key] += stats[key]

        # The timed as-of reads: every subscription's DOEM at ASOF_READS
        # instants of every polling interval.  The reads at a poll time are
        # checked against R_t at once (so only one poll time's snapshots
        # stay alive); the later ones must equal them.
        expected = _repolls(size, source_seed, subs, server) if check else {}
        if break_check == "faithfulness":
            _corrupt(next(iter(expected.values())))
        doems = [server.doems.doem(name) for name, _, _ in subs]
        for when in server.subscriptions.get(subs[0][0]).polling_times:
            rec.speed.probe()
            for step in range(ASOF_READS):
                instant = when.plus(hours=ASOF_SPACING_HOURS * step)
                rec.attempted += 1
                with rec.region(f"e{episode}/asof"):
                    read_started = perf_counter()
                    snapshots = [repro.snapshot_at(doem, instant)
                                 for doem in doems]
                    rec.asof_ms.append(
                        (read_started, (perf_counter() - read_started) * 1000))
                if not check:
                    continue
                if step == 0:
                    at_poll = snapshots
                    same = checks.isomorphic_pairs(
                        [(snapshot, expected[(query, when)])
                         for (_, query, _), snapshot in zip(subs, snapshots)])
                    for (name, _, _), ok in zip(subs, same):
                        rec.check("faithfulness", ok,
                                  f"{name} at {when}: Ot(D) is not R_t")
                    continue
                for (name, _, _), snapshot, first in zip(subs, snapshots,
                                                          at_poll):
                    rec.check("asof", snapshot.same_as(first),
                              f"{name} at {instant} differs from {when}")
        rec.speed.probe()
    finally:
        if server is not None:
            server.close()
        if store is not None:
            store.close()
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)


def _repolls(size, source_seed, subs, server) -> dict:
    """``R_t`` per (polling query, poll time), from a same-seed source."""
    replica = repro.Wrapper(RestaurantGuideSource(
        seed=source_seed, initial_restaurants=size.restaurants,
        events_per_day=size.events_per_day))
    times = sorted({when for name, _, _ in subs
                    for when in server.subscriptions.get(name).polling_times})
    queries = sorted({query for _, query, _ in subs})
    expected = {}
    for when in times:
        replica.advance(when)
        for query in queries:
            expected[(query, when)] = replica.poll(query)
    return expected


def _corrupt(db) -> None:
    """Make an expected snapshot wrong on purpose (the checks' own test)."""
    extra = db.create_node(db.new_node_id(), "not in the source")
    db.add_arc(db.root, "bogus", extra)


# ---------------------------------------------------------------------------
# history-query
# ---------------------------------------------------------------------------

# (shape, queries per 80-query cycle), cheapest first.  The median falls
# inside the ``point`` band (30%-60%) and the 90th percentile inside the
# ``wildcard`` band (72.5%-97.5%); the two slowest shapes share the top
# 2.5% and move the throughput (see NOTES.md).
QUERY_MIX = (
    ("version", 10),
    ("exists", 14),
    ("point", 24),
    ("range", 10),
    ("wildcard", 20),
    ("last-change", 1),
    ("range-wide", 1),
)
# As-of reads target every 5th history timestamp, drawn in one fixed
# sequence (the same in every generated world), so the checkpoint LRU hits
# and misses the same way from run to run.
ASOF_EVERY = 5
# As-of reads after each query: two, so the 90th percentile (inside the
# checkpoint-load population) rests on enough samples.
ASOF_PER_QUERY = 2
ASOF_SEQUENCE_SEED = 0
# A run is two history-query episodes; each runs its minimum of mix
# cycles, then more while the longest cycle so far still fits in its half
# of the run's budget.
HISTORY_EPISODES = 2
# A speed probe after every this many queries (and at each cycle's end).
PROBE_EVERY = 4


def mix_queries(history) -> dict[str, str]:
    """The mix's query text per shape, anchored on the history's times."""
    times = history.timestamps()
    n = len(times)
    early, middle, late = times[n // 4], times[n // 2], times[max(0, n - 8)]
    return {
        "version": f"select X from root.item.price <at [{middle}.."
                   f"{middle.plus(days=2)}]> X",
        "exists": "select R from root.item R "
                  "where exists S in R.link: S.price < R.price",
        "range": f"select X, T from root.item.price<changed at T in "
                 f"[{early}..{early.plus(days=3)}]> X",
        "point": f"select T, X from root.<add at T>item X where T > {late}",
        "wildcard": f"select T from root.# X, X.%<cre at T> where T > {late}",
        "range-wide": f"select X, T from root.item.price<changed at T in "
                      f"[{times[-1].plus(days=-35)}..{times[-1]}]> X",
        "last-change": "select X, T from root.item.price <last-change at T> X",
    }


def history_episode(size: Size, seed: int, episode: int, rec: Recorder,
                    run_dir: Path, *, check: bool = True,
                    break_check: str | None = None) -> None:
    world_seed = episode_seed(seed, episode)
    rng = random.Random(world_seed)
    origin = large_database(seed=world_seed, items=size.items,
                            extra_links=size.items // 5)
    history = large_history(origin, seed=world_seed, steps=size.steps,
                            churn=size.churn)
    queries = mix_queries(history)
    times = history.timestamps()
    pool = times[ASOF_EVERY - 1::ASOF_EVERY] or times
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=run_dir))
    reader = None
    try:
        rec.speed.probe()
        with rec.region(f"e{episode}/setup"):
            started = perf_counter()
            with ChangeLogStore(store_dir / "store") as writer:
                writer.put_history("world", origin, history)
                write_stats = writer.stats()
            reader = ChangeLogStore(store_dir / "store", mode="ro")
            log = reader.log("world")
            doem = log.get_doem()
            engine = repro.IndexedChorelEngine(doem, name="root")
            engine.log = log
            for text in queries.values():   # the warm pass
                engine.run(text)
            rec.setup_s.append((started, perf_counter() - started))
        rec.speed.probe()
        for key in ("fsyncs", "checkpoints_written", "bytes_written"):
            rec.store_counts[key] += write_stats[key]
        rec.checkpoints_per_log.append(len(log.checkpoints()))
        read_stats = dict(reader.stats())

        oracle_rows: dict[str, list[str]] = {}
        expected_asof: dict = {}
        if check:
            oracle = repro.ChorelEngine(doem, name="root", use_planner=False)
            oracle_rows = {shape: checks.row_texts(oracle.run(text))
                           for shape, text in queries.items()}
            expected_asof = {when: history.snapshot_at(origin, when)
                             for when in pool}
            if break_check == "rows":
                oracle_rows["point"].append("bogus row")
            if break_check == "asof":
                _corrupt(expected_asof[pool[0]])

        reads = random.Random(ASOF_SEQUENCE_SEED)
        cycle, longest = 0, 0.0
        while cycle < size.cycles or (
                cycle and rec.deadline
                and perf_counter() + longest <= rec.deadline):
            cycle_started = perf_counter()
            order = [shape for shape, weight in QUERY_MIX
                     for _ in range(weight)]
            rng.shuffle(order)
            for index, shape in enumerate(order):
                if index and index % PROBE_EVERY == 0:
                    rec.speed.probe()
                rec.attempted += 1 + ASOF_PER_QUERY
                instants = [reads.choice(pool) for _ in range(ASOF_PER_QUERY)]
                with rec.region(f"e{episode}/c{cycle}/q{index}/{shape}"):
                    query_started = perf_counter()
                    try:
                        result = engine.run(queries[shape])
                    except Exception as error:
                        result = None
                        rec.fail(f"query {shape}: {error!r}")
                    elapsed = perf_counter() - query_started
                    snapshots = []
                    for when in instants:
                        read_started = perf_counter()
                        snapshots.append(reader.snapshot_at("world", when))
                        rec.asof_ms.append((read_started, (
                            perf_counter() - read_started) * 1000))
                rec.op_ms.append((query_started, elapsed * 1000))
                rec.busy_s.append((query_started, elapsed))
                if not check:
                    continue
                for when, snapshot in zip(instants, snapshots):
                    rec.check("asof", snapshot.same_as(expected_asof[when]),
                              f"snapshot_at({when}) differs from "
                              f"OEMHistory.snapshot_at")
                if result is None:
                    continue
                rows = checks.row_texts(result)
                expected = oracle_rows[shape]
                rec.check("rows", checks.same_multiset(rows, expected),
                          f"{shape}: {len(rows)} rows vs oracle "
                          f"{len(expected)}")
                if rows != expected and checks.same_multiset(rows, expected):
                    rec.order_mismatches += 1
            rec.speed.probe()
            longest = max(longest, perf_counter() - cycle_started)
            cycle += 1
        stats = reader.stats()
        for key in ("snapshot_queries", "replayed_sets", "checkpoint_loads"):
            rec.store_counts[key] += stats[key] - read_stats[key]
    finally:
        if reader is not None:
            reader.close()
        shutil.rmtree(store_dir, ignore_errors=True)


def run_episode(workload: str, size: Size, seed: int, episode: int,
                rec: Recorder, run_dir: Path, **options) -> None:
    if workload == "history-query":
        history_episode(size, seed, episode, rec, run_dir, **options)
    else:
        poll_episode(workload, size, seed, episode, rec, run_dir, **options)


WORKLOADS = tuple(SIZES)
