"""QSS + durable store: restart a server without re-polling sources.

One store holds both of Figure 7's persistent boxes: the change logs
(DOEM Store) and the server's subscription table (Subscription Store).
"""

from __future__ import annotations

import pytest

from repro import (
    COMPLEX,
    OEMDatabase,
    QSSServer,
    Subscription,
    Wrapper,
    parse_timestamp,
)
from repro.cli import main
from repro.errors import StoreCorruptionError, StoreError, SubscriptionError
from repro.qss.server import TABLE_FILE
from repro.sources.restaurant_guide import RestaurantGuideSource
from repro.store import close_store, is_store, open_store, sanitize_name
from repro.timestamps import Timestamp


class ScriptedGuideSource:
    """Example 2.2's timeline: Hakata appears on 1Jan97."""

    def __init__(self):
        self.now: Timestamp | None = None

    def advance(self, when):
        self.now = parse_timestamp(when)

    def export(self):
        db = OEMDatabase(root="guide")
        counter = [0]

        def atom(value):
            counter[0] += 1
            return db.create_node(f"a{counter[0]}", value)

        names = ["Bangkok Cuisine", "Janta"]
        if self.now is not None and self.now >= parse_timestamp("1Jan97"):
            names.append("Hakata")
        for index, name in enumerate(names):
            node = db.create_node(f"r{index}", COMPLEX)
            db.add_arc("guide", "restaurant", node)
            db.add_arc(node, "name", atom(name))
            db.add_arc(node, "price", atom(10 * (index + 1)))
        return db


def example61_subscription():
    return Subscription.from_definitions(
        name="Restaurants", frequency="every night at 11:30pm",
        polling="define polling query Restaurants as "
                "select guide.restaurant",
        filter_="define filter query NewRestaurants as "
                "select Restaurants.restaurant<cre at T> where T > t[-1]")


@pytest.fixture
def store_path(tmp_path):
    path = tmp_path / "qss-store"
    yield path
    close_store(path)


def run_first_server(store_path, until="2Jan97"):
    server = QSSServer(start="30Dec96 10:00am", deliver_empty=True,
                       store=str(store_path))
    server.register_wrapper("guide", Wrapper(ScriptedGuideSource(),
                                             name="guide"))
    server.subscribe(example61_subscription(), "guide")
    notifications = server.run_until(until)
    return server, notifications


class TestDurableRestart:
    def test_server_persists_polled_changes(self, store_path):
        server, notifications = run_first_server(store_path)
        assert len(notifications) == 3
        assert is_store(store_path)
        server.close()
        store = open_store(store_path, "ro")
        assert store.names(), "polled change sets must land in the store"
        # Only non-empty change sets are persisted: 30Dec96 (initial
        # snapshot) and 1Jan97 (Hakata); the quiet 31Dec96 poll is not.
        log = store.log(store.names()[0])
        assert len(log) == 2

    def test_restart_recovers_doem_without_polling(self, store_path):
        first, _ = run_first_server(store_path)
        key = next(iter(first.doems._doems))
        original = first.doems.doem(key)
        first.close()
        close_store(store_path)

        # A second server over the same store, with *no* wrapper
        # registered: any poll attempt would fail, so equality proves
        # the DOEM was rebuilt purely from the log.
        second = QSSServer(start="2Jan97", store=str(store_path))
        recovered = second.doems.doem(key)
        assert recovered.timestamps() == original.timestamps()
        assert recovered.same_as(original)
        second.close()

    def test_restarted_server_keeps_answering(self, store_path):
        """Polls resume on top of the recovered history."""
        first, _ = run_first_server(store_path)
        key = next(iter(first.doems._doems))
        first.close()
        close_store(store_path)

        second = QSSServer(start="2Jan97", deliver_empty=True,
                           store=str(store_path))
        second.register_wrapper("guide", Wrapper(ScriptedGuideSource(),
                                                 name="guide"))
        second.subscribe(example61_subscription(), "guide")
        notifications = second.run_until("3Jan97")
        assert notifications
        # The recovered history plus the new poll's (empty) delta: the
        # DOEM still spans the pre-restart timestamps.
        doem = second.doems.doem(key)
        assert parse_timestamp("30Dec96 11:30pm") in doem.timestamps()
        second.close()

    def test_store_key_is_sanitized(self, store_path):
        server, _ = run_first_server(store_path)
        key = next(iter(server.doems._doems))
        server.close()
        store = open_store(store_path, "ro")
        assert sanitize_name(key) in store.names()

    def test_compaction_reaches_the_store(self, store_path):
        server, _ = run_first_server(store_path)
        key = next(iter(server.doems._doems))
        log = server.store.log(sanitize_name(key))
        generation_before = log.info()["generation"]
        server.doems.compact_before(key, "31Dec96")
        assert server.store.log(sanitize_name(key)) is log
        assert log.info()["generation"] > generation_before
        server.close()


def reopen(store_path, **kwargs):
    """A fresh server over ``store_path``, as after a process restart."""
    close_store(store_path)
    return QSSServer(store=str(store_path), **kwargs)


class ScriptedSource:
    """A source whose content is keyed by date thresholds."""

    def __init__(self):
        self.now = None

    def advance(self, when):
        self.now = parse_timestamp(when)

    def export(self):
        db = OEMDatabase(root="guide")
        names = ["Janta"]
        if self.now is not None and self.now >= parse_timestamp("1Jan97"):
            names.append("Hakata")
        if self.now is not None and self.now >= parse_timestamp("5Jan97"):
            names.append("Zibibbo")
        for index, name in enumerate(names):
            node = db.create_node(f"r{index}", COMPLEX)
            db.add_arc("guide", "restaurant", node)
            atom = db.create_node(f"a{index}", name)
            db.add_arc(node, "name", atom)
        return db


def make_server(store_path, **kwargs):
    server = QSSServer(start="30Dec96", deliver_empty=True,
                       store=str(store_path), **kwargs)
    server.register_wrapper("guide", Wrapper(ScriptedSource(), name="guide"))
    server.subscribe(Subscription(
        name="S", frequency="every day at 9:00am",
        polling_query="select guide.restaurant",
        filter_query="select S.restaurant<cre at T> where T > t[-1]"),
        "guide")
    return server


class TestSubscriptionTable:
    def test_restart_continues_timeline(self, store_path):
        """Stop after Hakata, restart, observe only Zibibbo -- the DOEM
        history and the t[-1] schedule both survived."""
        server = make_server(store_path)
        first_half = server.run_until("2Jan97")
        # polls at 30Dec/31Dec/1Jan 9am: initial Janta, nothing, Hakata
        assert [len(n.result) for n in first_half] == [1, 0, 1]
        server.close()

        restored = reopen(store_path, deliver_empty=True)
        restored.register_wrapper("guide",
                                  Wrapper(ScriptedSource(), name="guide"))
        second_half = restored.run_until("6Jan97")
        sizes = [len(n.result) for n in second_half]
        # 2Jan..4Jan: nothing; 5Jan: Zibibbo appears; 6Jan 9am is later
        assert sizes == [0, 0, 0, 1]
        restored.close()

    def test_clock_and_schedule_survive(self, store_path):
        server = make_server(store_path)
        server.run_until("2Jan97")
        server.close()
        restored = reopen(store_path, start="1Dec96")
        assert restored.clock == server.clock  # the table's, not start's
        original = server.subscriptions.get("S")
        revived = restored.subscriptions.get("S")
        assert revived.next_poll == original.next_poll
        assert revived.polling_times == original.polling_times
        assert revived.wrapper_name == "guide"
        assert str(revived.subscription.filter_query) == \
            str(original.subscription.filter_query)

    def test_doem_history_survives_exactly(self, store_path):
        server = make_server(store_path)
        server.run_until("2Jan97")
        server.close()
        restored = reopen(store_path)
        assert restored.doems.doem("S").same_as(server.doems.doem("S"))

    def test_sharing_structure_survives(self, store_path):
        server = QSSServer(start="30Dec96", deliver_empty=True,
                           store=str(store_path))
        server.register_wrapper("guide",
                                Wrapper(ScriptedSource(), name="guide"))
        for name, hour in (("A", 6), ("B", 7)):
            server.subscribe(Subscription(
                name=name, frequency=f"every day at {hour}:00am",
                polling_query="select guide.restaurant",
                filter_query=f"select {name}.restaurant<cre at T> "
                             f"where T > t[-1]", polling_name=name),
                "guide")
        server.run_until("31Dec96")
        server.close()
        restored = reopen(store_path)
        assert restored.doems.doem("A") is restored.doems.doem("B")
        key = restored.subscriptions.get("A").poll_key
        assert [state.subscription.name for state
                in restored.subscriptions.sharers(key)] == ["A", "B"]
        assert restored.store.names() == [sanitize_name(key)]

    def test_corrupt_or_unknown_table_raises(self, store_path):
        """A table that cannot be trusted is an error, never a silent
        start with no subscriptions."""
        make_server(store_path).close()
        for content, error in (
                ("{not json", StoreCorruptionError),
                ('{"format": 99, "clock": 0, "subscriptions": []}',
                 StoreError),
                ('["format", 2]', StoreError),
                # Format 1 named each history after its subscription.
                ('{"format": 1, "clock": 0, "subscriptions": []}',
                 StoreError),
                ('{"format": 2, "clock": 0, "subscriptions": [{"name": "S"}]}',
                 StoreCorruptionError)):
            (store_path / TABLE_FILE).write_text(content, encoding="utf-8")
            with pytest.raises(error):
                reopen(store_path)

    def test_store_without_table_restores_nothing(self, store_path):
        origin = OEMDatabase(root="answer")
        open_store(store_path, "rw").create("other", origin)
        server = reopen(store_path, start="3Jan97")
        assert server.subscriptions.states() == []
        assert server.clock == parse_timestamp("3Jan97")
        assert not (store_path / TABLE_FILE).exists()
        server.close()
        assert (store_path / TABLE_FILE).exists()

    def test_resubscribing_attaches_delivery(self, store_path):
        make_server(store_path).run_until("2Jan97")
        restored = reopen(store_path, deliver_empty=True)
        restored.register_wrapper("guide",
                                  Wrapper(ScriptedSource(), name="guide"))
        saved = restored.subscriptions.get("S")
        inbox = []
        state = restored.subscribe(saved.subscription, "guide",
                                   deliver=inbox.append)
        assert state is saved
        restored.run_until("3Jan97")
        assert [n.poll_index for n in inbox] == [4]
        with pytest.raises(SubscriptionError):
            restored.subscribe(saved.subscription, "guide")
        restored.close()

    def test_changed_definition_is_rejected(self, store_path):
        make_server(store_path).close()
        restored = reopen(store_path)
        restored.register_wrapper("guide",
                                  Wrapper(ScriptedSource(), name="guide"))
        with pytest.raises(SubscriptionError):
            restored.subscribe(Subscription(
                name="S", frequency="every day at 10:00am",
                polling_query="select guide.restaurant",
                filter_query="select S.restaurant<cre at T> "
                             "where T > t[-1]"), "guide")

    def test_read_only_store_restores_without_writing(self, store_path):
        make_server(store_path).run_until("2Jan97")
        close_store(store_path)
        table = store_path / TABLE_FILE
        saved = table.read_bytes()
        reader = QSSServer(store=open_store(store_path, "ro"))
        assert reader.subscriptions.get("S").poll_count == 3
        reader.run_until("2Jan97 1:00am")  # nothing due; clock moves
        reader.close()
        assert table.read_bytes() == saved

    def test_unsubscribe_is_saved(self, store_path):
        server = make_server(store_path)
        server.run_until("31Dec96")
        server.unsubscribe("S")
        assert reopen(store_path).subscriptions.states() == []

    def test_store_tools_ignore_the_table(self, store_path, capsys):
        server = make_server(store_path)
        server.run_until("2Jan97")
        server.close()
        close_store(store_path)
        assert (store_path / TABLE_FILE).is_file()
        store = open_store(store_path, "ro")
        history = sanitize_name(server.subscriptions.get("S").poll_key)
        assert store.names() == [history]
        assert list(store.info()["histories"]) == [history]
        report = store.fsck()
        assert report["ok"]
        assert [h["name"] for h in report["histories"]] == [history]
        close_store(store_path)
        assert main(["store", "fsck", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "store: ok" in out and TABLE_FILE not in out


GUIDE_SUBSCRIPTIONS = [
    ("all", "every day at 9:00am", "select guide.restaurant", "restaurant"),
    ("all_evening", "every day at 6:00pm", "select guide.restaurant",
     "restaurant"),
    ("comments", "every day at 9:00am", "select guide.restaurant.comment",
     "comment"),
]


def run_guide_server(server, source, days):
    server.register_wrapper("guide", Wrapper(source, name="guide"))
    for name, frequency, query, label in GUIDE_SUBSCRIPTIONS:
        if name not in {s.subscription.name
                        for s in server.subscriptions.states()}:
            server.subscribe(Subscription(
                name=name, frequency=frequency, polling_query=query,
                filter_query=f"select {name}.{label}<cre at T> "
                             f"where T > t[-1]"), "guide")
    server.run_until(parse_timestamp("1Dec96").plus(days=days))


def notification_keys(server):
    return [(n.subscription, n.polling_time, n.poll_index,
             tuple(map(str, n.result))) for n in server.notification_log]


def guide_source():
    return RestaurantGuideSource(seed=11, initial_restaurants=12,
                                 events_per_day=4)


class TestRestartEquivalence:
    """A store-restarted server is equivalent to one never restarted."""

    @pytest.mark.parametrize("cached", [False, True])
    def test_restarted_equals_never_restarted(self, store_path, cached):
        """Under both space strategies (cached or recomputed R_{i-1})."""
        never = QSSServer(start="1Dec96", deliver_empty=True,
                          cache_previous_result=cached)
        run_guide_server(never, guide_source(), days=10)

        source = guide_source()
        first = QSSServer(start="1Dec96", deliver_empty=True,
                          cache_previous_result=cached,
                          store=str(store_path))
        run_guide_server(first, source, days=5)
        first.close()
        second = reopen(store_path, deliver_empty=True,
                        cache_previous_result=cached)
        run_guide_server(second, source, days=10)
        second.close()

        expected = notification_keys(never)
        assert len(expected) == 30
        assert notification_keys(first) + notification_keys(second) == \
            expected
        for name, *_ in GUIDE_SUBSCRIPTIONS:
            assert second.doems.doem(name).same_as(never.doems.doem(name))
        assert second.doems.doem("all") is second.doems.doem("all_evening")
