"""Tests for the QSS retention policy (automatic DOEM compaction)."""

import pytest

from repro import (
    QSSServer,
    RestaurantGuideSource,
    Subscription,
    Wrapper,
    snapshot_at,
)
from repro.errors import QSSError


def make_server(keep=None, **kwargs):
    server = QSSServer(start="1Dec96", deliver_empty=True,
                       compact_keep_polls=keep, **kwargs)
    source = RestaurantGuideSource(seed=13, initial_restaurants=8,
                                   events_per_day=3.0)
    server.register_wrapper("guide", Wrapper(source, name="guide"))
    server.subscribe(Subscription(
        name="S", frequency="every day at 6:00pm",
        polling_query="select guide.restaurant",
        filter_query="select S.restaurant<cre at T> where T > t[-1]"),
        "guide")
    return server


class TestRetentionPolicy:
    def test_history_bounded(self):
        server = make_server(keep=3)
        server.run_until("20Dec96")
        doem = server.doems.doem("S")
        # at most the last 3 polling instants survive in annotations
        assert len(doem.timestamps()) <= 3

    def test_unbounded_grows(self):
        server = make_server(keep=None)
        server.run_until("20Dec96")
        assert len(server.doems.doem("S").timestamps()) > 3

    def test_notifications_identical_to_unbounded(self):
        """Filter queries look back one poll; keep>=1 must not change them."""
        outputs = {}
        for keep in (None, 2):
            server = make_server(keep=keep)
            notifications = server.run_until("15Dec96")
            outputs[keep] = [(str(n.polling_time), len(n.result))
                             for n in notifications]
        assert outputs[None] == outputs[2]

    def test_space_actually_saved(self):
        bounded = make_server(keep=2)
        unbounded = make_server(keep=None)
        bounded.run_until("25Dec96")
        unbounded.run_until("25Dec96")
        assert bounded.doems.doem("S").annotation_count() < \
            unbounded.doems.doem("S").annotation_count()

    def test_bad_keep_value(self):
        with pytest.raises(QSSError):
            QSSServer(compact_keep_polls=0)

    def test_shared_key_compacts_for_every_sharer(self):
        """Two sharers at different hours: per-key compaction keeps both
        sharers' notifications, and Ot(D) = R_t at every retained poll
        time of the key."""
        def guide():
            return RestaurantGuideSource(seed=13, initial_restaurants=8,
                                         events_per_day=3.0)

        def shared_server(keep):
            server = QSSServer(start="1Dec96", deliver_empty=True,
                               compact_keep_polls=keep)
            server.register_wrapper("guide", Wrapper(guide(), name="guide"))
            for name, hour in (("A", 6), ("B", 7)):
                server.subscribe(Subscription(
                    name=name, frequency=f"every day at {hour}:00am",
                    polling_query="select guide.restaurant",
                    filter_query=f"select {name}.restaurant<cre at T> "
                                 f"where T > t[-1]", polling_name=name),
                    "guide")
            server.run_until("15Dec96")
            return server

        bounded, unbounded = shared_server(2), shared_server(None)
        assert notification_keys(bounded) == notification_keys(unbounded)
        doem = bounded.doems.doem("A")
        assert doem is bounded.doems.doem("B")
        assert len(doem.timestamps()) < \
            len(unbounded.doems.doem("A").timestamps())

        sharers = bounded.subscriptions.states()
        cutoff = min(state.polling_times[-3] for state in sharers)
        replica = Wrapper(guide(), name="guide")
        retained = 0
        for when in sorted({when for state in sharers
                            for when in state.polling_times}):
            replica.advance(when)
            expected = replica.poll("select guide.restaurant")
            if when >= cutoff:
                assert snapshot_at(doem, when).isomorphic_to(expected), when
                retained += 1
        assert retained >= 4


def notification_keys(server):
    return [(n.subscription, n.polling_time, n.poll_index,
             tuple(map(str, n.result))) for n in server.notification_log]
