"""The QSS health surface: streaks, statuses, gauges, and events.

:meth:`QSSServer.health` is the contract behind the ``/health`` HTTP
endpoint and ``repro top``: per-subscription liveness derived from
consecutive timeout/error streaks, poll lag against the simulated
schedule, and the age of the last delivered notification.  These tests
drive real polling loops (hung and crashing sources from the concurrent
suite) and assert the full degradation ladder: healthy -> degraded (one
bad poll) -> unhealthy (three consecutive timeouts) -> healthy again on
recovery.
"""

from __future__ import annotations

import json
import threading

from repro import metrics_registry, parse_timestamp
from repro.obs.events import configure_events, disable_events
from tests.parallel.test_qss_concurrent import (
    HangingSource,
    ScriptedSource,
    build_server,
)


class RecoveringSource(ScriptedSource):
    """Fails exports between two dates, healthy before and after."""

    def __init__(self, first_bad: str = "3Dec96", last_bad: str = "4Dec96"):
        super().__init__()
        self.first_bad = parse_timestamp(first_bad)
        self.last_bad = parse_timestamp(last_bad)

    def export(self):
        if self.now is not None and self.first_bad <= self.now <= self.last_bad:
            raise ConnectionError("flaking")
        return super().export()


class TestHealthyServer:
    def test_payload_shape_and_status(self):
        server = build_server({"a": ScriptedSource(), "b": ScriptedSource()})
        server.run_until("4Dec96")
        health = server.health()
        assert health["status"] == "healthy"
        assert health["clock"] == str(server.clock)
        assert set(health["subscriptions"]) == {"a", "b"}
        for sub in health["subscriptions"].values():
            assert sub["status"] == "healthy"
            assert sub["consecutive_timeouts"] == 0
            assert sub["consecutive_errors"] == 0
            assert sub["poll_lag_seconds"] == 0.0
            assert sub["last_poll"] is not None
            assert sub["next_poll"] is not None
        assert health["polls"] > 0
        assert health["notifications"] > 0
        assert health["timeouts"] == 0

    def test_notification_age_tracks_clock(self):
        server = build_server({"a": ScriptedSource()})
        server.run_until("3Dec96")
        aged = server.health()["subscriptions"]["a"]
        # Last delivery was the 3Dec96 midnight poll; the clock stopped
        # exactly there, so the notification is fresh.
        assert aged["notification_age_seconds"] == 0.0
        server.clock = parse_timestamp("3Dec96 6:00am")
        assert server.health()["subscriptions"]["a"][
            "notification_age_seconds"] == 6 * 3600.0

    def test_never_notified_subscription_has_no_age(self):
        server = build_server({"a": ScriptedSource()})
        assert server.health()["subscriptions"]["a"][
            "notification_age_seconds"] is None

    def test_poll_lag_measures_overdue_schedule(self):
        server = build_server({"a": ScriptedSource()})
        server.run_until("3Dec96")
        state = server.subscriptions.get("a")
        state.next_poll = parse_timestamp("2Dec96")  # a day overdue
        health = server.health()
        assert health["subscriptions"]["a"]["poll_lag_seconds"] == 86400.0
        assert metrics_registry().snapshot()[
            "qss.sub.a.poll_lag_seconds"] == 86400.0


class TestTimeoutLadder:
    def test_degraded_then_unhealthy_then_recovered(self):
        release = threading.Event()
        try:
            sources = {"hung": HangingSource(release, hang_day="3Dec96"),
                       "good": ScriptedSource()}
            with build_server(sources, max_workers=2,
                              poll_timeout=0.2) as server:
                server.run_until("2Dec96 6:00pm")
                assert server.health()["status"] == "healthy"

                server.run_until("3Dec96 6:00pm")  # first timeout
                health = server.health()
                assert health["status"] == "degraded"
                assert health["subscriptions"]["hung"]["status"] == "degraded"
                assert health["subscriptions"]["hung"][
                    "consecutive_timeouts"] == 1
                assert health["subscriptions"]["good"]["status"] == "healthy"

                server.run_until("5Dec96 6:00pm")  # streak reaches 3
                health = server.health()
                assert health["subscriptions"]["hung"][
                    "consecutive_timeouts"] == 3
                assert health["subscriptions"]["hung"]["status"] == "unhealthy"
                assert health["status"] == "unhealthy"
                assert health["timeouts"] == 3

                # Custom thresholds reinterpret the same streaks.
                assert server.health(unhealthy_after=10)["status"] == \
                    "degraded"

                # Release the zombie and wait it out; the next poll
                # then actually runs (instead of being skipped) and
                # resets the streak.
                release.set()
                zombie = server._inflight.get(
                    server.subscriptions.get("hung").poll_key)
                if zombie is not None:
                    zombie.exception(timeout=30)
                server.run_until("6Dec96 6:00pm")
                health = server.health()
                assert health["subscriptions"]["hung"]["status"] == "healthy"
                assert health["subscriptions"]["hung"][
                    "consecutive_timeouts"] == 0
                assert health["status"] == "healthy"
        finally:
            release.set()

    def test_gauges_follow_the_streak(self):
        release = threading.Event()
        try:
            with build_server({"hung": HangingSource(release)},
                              max_workers=2, poll_timeout=0.2) as server:
                server.run_until("4Dec96 6:00pm")
                server.health()
                snapshot = metrics_registry().snapshot()
                assert snapshot["qss.sub.hung.consecutive_timeouts"] == 2
        finally:
            release.set()


class TestErrorStreaks:
    def test_errors_degrade_and_recover(self):
        server = build_server({"flaky": RecoveringSource()}, on_error="skip")
        server.run_until("4Dec96 6:00pm")  # crashes on 3Dec and 4Dec
        health = server.health()
        assert health["subscriptions"]["flaky"]["consecutive_errors"] == 2
        assert health["subscriptions"]["flaky"]["status"] == "degraded"
        # Errors alone never escalate to unhealthy: that state is
        # reserved for the timeout streak (a wedged source).
        server.run_until("5Dec96 6:00pm")  # recovers
        health = server.health()
        assert health["subscriptions"]["flaky"]["consecutive_errors"] == 0
        assert health["status"] == "healthy"


class TestHealthEvents:
    def test_poll_timeout_event_emitted(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        release = threading.Event()
        configure_events(events_path, level="warning")
        try:
            with build_server({"hung": HangingSource(release)},
                              max_workers=2, poll_timeout=0.2) as server:
                server.run_until("4Dec96 6:00pm")
        finally:
            release.set()
            disable_events()
        events = [json.loads(line) for line
                  in events_path.read_text(encoding="utf-8").splitlines()]
        timeouts = [e for e in events if e["type"] == "poll_timeout"]
        assert len(timeouts) == 2
        assert timeouts[0]["subscription"] == "hung"
        assert timeouts[0]["level"] == "warning"
        assert [e["consecutive"] for e in timeouts] == [1, 2]

    def test_slow_poll_event_emitted(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        configure_events(events_path, level="warning")
        try:
            server = build_server({"a": ScriptedSource()},
                                  slow_poll_threshold=0.0)
            server.run_until("2Dec96 6:00pm")
        finally:
            disable_events()
        events = [json.loads(line) for line
                  in events_path.read_text(encoding="utf-8").splitlines()]
        slow = [e for e in events if e["type"] == "slow_poll"]
        assert slow, "threshold 0.0 must flag every poll as slow"
        assert slow[0]["subscription"] == "a"
        assert slow[0]["seconds"] >= 0
        assert slow[0]["threshold"] == 0.0
