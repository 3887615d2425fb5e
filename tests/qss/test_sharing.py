"""Tests for poll-key sharing across subscriptions (Section 6.1, idea #1).

Subscriptions with the same poll key (wrapper, normalised polling query)
share one DOEM database, and the key is polled, diffed and folded once
per poll time; each subscriber runs its own filter query.
"""

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    COMPLEX,
    OEMDatabase,
    QSSServer,
    RestaurantGuideSource,
    Subscription,
    Wrapper,
    parse_timestamp,
)
from repro.qss.server import PollTimeout


class CountingSource:
    """Counts exports so tests can see how often the source was hit."""

    def __init__(self):
        self.now = None
        self.export_count = 0

    def advance(self, when):
        self.now = parse_timestamp(when)

    def export(self):
        self.export_count += 1
        db = OEMDatabase(root="guide")
        names = ["Janta"]
        if self.now is not None and self.now >= parse_timestamp("1Jan97"):
            names.append("Hakata")
        for index, name in enumerate(names):
            node = db.create_node(f"r{index}", COMPLEX)
            db.add_arc("guide", "restaurant", node)
            atom = db.create_node(f"a{index}", name)
            db.add_arc(node, "name", atom)
        return db


class FailingSource(CountingSource):
    """Raises on every export from 31Dec96 on."""

    def export(self):
        if self.now >= parse_timestamp("31Dec96"):
            self.export_count += 1
            raise ConnectionError("source unreachable")
        return super().export()


class HangingSource(CountingSource):
    """Blocks in export() from 31Dec96 until ``release`` is set."""

    def __init__(self, release):
        super().__init__()
        self.release = release

    def export(self):
        if self.now >= parse_timestamp("31Dec96"):
            self.release.wait(timeout=30)
        return super().export()


def subscription(name, hour, polling_query="select guide.restaurant"):
    return Subscription(
        name=name, frequency=f"every day at {hour}:00am",
        polling_query=polling_query,
        filter_query=f"select {name}.restaurant<cre at T> where T > t[-1]",
        polling_name=name)


def make_server(source=None, **kwargs):
    server = QSSServer(start="30Dec96", deliver_empty=True, **kwargs)
    server.register_wrapper("guide", Wrapper(source or CountingSource(),
                                             name="guide"))
    return server


def notification_keys(notifications):
    return [(n.subscription, n.polling_time, n.poll_index,
             tuple(map(str, n.result))) for n in notifications]


class TestSharing:
    def test_shared_doem_is_one_object(self):
        server = make_server()
        server.subscribe(subscription("A", 6), "guide")
        server.subscribe(subscription("B", 7), "guide")
        assert server.doems.doem("A") is server.doems.doem("B")
        key = server.subscriptions.get("A").poll_key
        assert key == server.subscriptions.get("B").poll_key
        assert [state.subscription.name for state
                in server.subscriptions.sharers(key)] == ["A", "B"]

    def test_unshared_doems_are_distinct(self):
        """The same polling query through another wrapper is another key."""
        server = make_server()
        server.register_wrapper("other", Wrapper(CountingSource(),
                                                 name="guide"))
        server.subscribe(subscription("A", 6), "guide")
        server.subscribe(subscription("B", 7), "other")
        assert server.doems.doem("A") is not server.doems.doem("B")

    def test_notifications_unchanged_by_sharing(self):
        """Each sharer is notified as if it were alone on the server."""
        shared = make_server()
        shared.subscribe(subscription("A", 6), "guide")
        shared.subscribe(subscription("B", 7), "guide")
        expected = []
        for name, hour in (("A", 6), ("B", 7)):
            alone = make_server()
            alone.subscribe(subscription(name, hour), "guide")
            expected += [(n.subscription, str(n.polling_time), len(n.result))
                         for n in alone.run_until("2Jan97")]
        actual = [(n.subscription, str(n.polling_time), len(n.result))
                  for n in shared.run_until("2Jan97")]
        assert sorted(actual) == sorted(expected)

    def test_sharing_halves_doem_state(self):
        shared = make_server()
        shared.subscribe(subscription("A", 6), "guide")
        shared.subscribe(subscription("B", 7), "guide")
        shared.run_until("2Jan97")
        separate = []
        for name, hour in (("A", 6), ("B", 7)):
            alone = make_server()
            alone.subscribe(subscription(name, hour), "guide")
            alone.run_until("2Jan97")
            separate.append(alone.doems.doem(name))
        shared_nodes = len({id(shared.doems.doem(n)) for n in "AB"})
        separate_nodes = len({id(doem) for doem in separate})
        assert shared_nodes == 1 and separate_nodes == 2

    def test_redundant_poll_folds_empty_set(self):
        """B's poll an hour after A's sees identical data: empty diff."""
        server = make_server()
        server.subscribe(subscription("A", 6), "guide")
        server.subscribe(subscription("B", 7), "guide")
        key = server.subscriptions.get("A").poll_key
        server.run_until("30Dec96 6:30am")
        assert server.doems.last_diff_stats[key].total > 0
        server.run_until("31Dec96")
        assert server.doems.last_diff_stats[key].total == 0

    def test_different_polling_queries_not_merged(self):
        server = make_server()
        server.subscribe(subscription("A", 6), "guide")
        server.subscribe(subscription(
            "C", 8, 'select guide.restaurant '
                    'where guide.restaurant.name like "%a%"'), "guide")
        assert server.doems.doem("A") is not server.doems.doem("C")

    def test_unsubscribe_keeps_shared_doem_alive(self):
        server = make_server()
        server.subscribe(subscription("A", 6), "guide")
        server.subscribe(subscription("B", 7), "guide")
        server.run_until("31Dec96")
        before = server.doems.doem("B").annotation_count()
        server.unsubscribe("A")
        assert server.doems.doem("B").annotation_count() == before

    def test_last_unsubscribe_drops_state(self):
        server = make_server()
        server.subscribe(subscription("A", 6), "guide")
        server.subscribe(subscription("B", 7), "guide")
        server.run_until("31Dec96")
        server.unsubscribe("A")
        server.unsubscribe("B")
        # a fresh subscription under the same polling query starts empty
        server.subscribe(subscription("C", 9), "guide")
        assert server.doems.doem("C").annotation_count() == 0

    def test_filter_queries_use_own_time_variables(self):
        """Sharing must not leak one subscription's t[-1] into another."""
        server = make_server()
        server.subscribe(subscription("A", 6), "guide")
        server.subscribe(subscription("B", 7), "guide")
        notifications = server.run_until("2Jan97")
        by_sub = {}
        for n in notifications:
            by_sub.setdefault(n.subscription, []).append(len(n.result))
        # Both see: everything at the first poll, Hakata on 1Jan97.
        assert by_sub["A"] == [1, 0, 1]
        assert by_sub["B"] == [1, 0, 1]


class TestOnePollPerKey:
    """The source is polled once per distinct (poll key, poll time)."""

    def test_fifty_subscribers_one_export_per_poll_time(self):
        source = CountingSource()
        server = make_server(source)
        for index in range(50):
            server.subscribe(subscription(f"s{index:02d}", 6), "guide")
        notifications = server.run_until("2Jan97")
        assert len(notifications) == 50 * 3
        assert source.export_count == 3  # 30Dec, 31Dec, 1Jan at 6am

    def test_distinct_keys_and_times_each_poll_once(self):
        source = CountingSource()
        server = make_server(source)
        server.subscribe(subscription("A", 6), "guide")
        server.subscribe(subscription("B", 6), "guide")
        server.subscribe(subscription("C", 7), "guide")
        server.subscribe(subscription(
            "D", 6, 'select guide.restaurant '
                    'where guide.restaurant.name like "%a%"'), "guide")
        server.run_until("31Dec96")
        # 30Dec 6am: two keys; 30Dec 7am: one key.
        assert source.export_count == 3

    def test_source_signal_polls_each_key_once(self):
        source = CountingSource()
        server = make_server(source)
        for name in "ABC":
            server.subscribe(subscription(name, 6), "guide")
        server.run_until("30Dec96 9:00am")
        assert source.export_count == 1
        assert len(server.on_source_signal("guide")) == 3
        assert source.export_count == 2


GUIDE_QUERIES = (
    "select guide.restaurant",
    "select guide.restaurant where guide.restaurant.price < 30",
    'select guide.restaurant where guide.restaurant.cuisine = "Thai"',
)


def guide_subscription(name, query):
    return Subscription(
        name=name, frequency="every day at 6:00pm", polling_query=query,
        filter_query=f"select {name}.restaurant<cre at T> where T > t[-1]")


def run_guide(subscriptions, seed, days=6):
    server = QSSServer(start="1Dec96", deliver_empty=True)
    server.register_wrapper("guide", Wrapper(RestaurantGuideSource(
        seed=seed, initial_restaurants=6, events_per_day=3), name="guide"))
    for name, query in subscriptions:
        server.subscribe(guide_subscription(name, query), "guide")
    server.run_until(parse_timestamp("1Dec96").plus(days=days))
    return notification_keys(server.notification_log)


class TestSharedEqualsAlone:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(queries=st.lists(st.sampled_from(range(len(GUIDE_QUERIES))),
                            min_size=2, max_size=5),
           seed=st.integers(0, 50))
    def test_each_sharer_notified_as_if_alone(self, queries, seed):
        subscriptions = [(f"s{index}", GUIDE_QUERIES[choice])
                         for index, choice in enumerate(queries)]
        shared = run_guide(subscriptions, seed)
        for name, query in subscriptions:
            alone = run_guide([(name, query)], seed)
            assert [key for key in shared if key[0] == name] == alone


class TestSharedFailures:
    def test_failure_recorded_once_per_sharer(self):
        source = FailingSource()
        server = make_server(source, on_error="skip")
        for name in ("A", "B"):
            server.subscribe(subscription(name, 6), "guide")
        server.run_until("31Dec96 12:00pm")
        assert source.export_count == 2  # one per poll time, not per sharer
        failed_at = parse_timestamp("31Dec96 6:00am")
        assert [(when, name) for when, name, _ in server.error_log] == \
            [(failed_at, "A"), (failed_at, "B")]
        health = server.health()["subscriptions"]
        assert health["A"]["consecutive_errors"] == 1
        assert health["B"]["consecutive_errors"] == 1
        assert server.subscriptions.get("B").poll_count == 2

    def test_raise_mode_raises_once(self):
        source = FailingSource()
        server = make_server(source)
        for name in ("A", "B"):
            server.subscribe(subscription(name, 6), "guide")
        server.run_until("30Dec96 12:00pm")
        errors = server._metrics["errors"].value
        with pytest.raises(ConnectionError):
            server.run_until("31Dec96 12:00pm")
        assert server._metrics["errors"].value == errors + 1
        assert source.export_count == 2

    def test_timeout_times_out_every_sharer(self):
        release = threading.Event()
        try:
            source = HangingSource(release)
            with make_server(source, max_poll_workers=2,
                             poll_timeout=0.2) as server:
                for name in ("A", "B"):
                    server.subscribe(subscription(name, 6), "guide")
                server.run_until("31Dec96 12:00pm")
                timeouts = [(when, name) for when, name, error
                            in server.error_log
                            if isinstance(error, PollTimeout)]
                hung_at = parse_timestamp("31Dec96 6:00am")
                assert timeouts == [(hung_at, "A"), (hung_at, "B")]
                assert server.health()["subscriptions"]["B"][
                    "consecutive_timeouts"] == 1
        finally:
            release.set()
