"""WorkerPool behaviour: ordering, accounting, shutdown under load."""

from __future__ import annotations

import threading
import time

import pytest

from repro.parallel import WorkerPool


class TestMapOrdered:
    def test_results_in_submission_order(self):
        with WorkerPool(4) as pool:
            # Reverse sleep times so later submissions finish first.
            out = pool.map_ordered(
                lambda pair: (time.sleep(pair[1]), pair[0])[1],
                [(i, 0.02 * (4 - i)) for i in range(5)])
        assert out == [0, 1, 2, 3, 4]

    def test_exception_propagates(self):
        def boom(x):
            raise ValueError(x)

        with WorkerPool(2) as pool:
            with pytest.raises(ValueError):
                pool.map_ordered(boom, [1])
            assert pool.map_ordered(lambda x: x + 1, [1, 2]) == [2, 3]

    def test_empty_input(self):
        with WorkerPool(2) as pool:
            assert pool.map_ordered(lambda x: x, []) == []


class TestAccounting:
    def test_counters_and_utilization(self):
        barrier = threading.Barrier(3)
        with WorkerPool(3, metrics_prefix="test.pool.a") as pool:
            pool.map_ordered(lambda _: barrier.wait(timeout=5), range(3))
            stats = pool.stats()
        assert stats["test.pool.a.submitted"] == 3
        assert stats["test.pool.a.completed"] == 3
        assert stats["test.pool.a.errors"] == 0
        # The barrier forces all three tasks to overlap.
        assert pool.peak_active == 3
        assert pool.utilization == 1.0
        assert stats["test.pool.a.task_seconds"]["count"] == 3

    def test_errors_counted(self):
        with WorkerPool(2, metrics_prefix="test.pool.b") as pool:
            future = pool.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                future.result()
            stats = pool.stats()
        assert stats["test.pool.b.errors"] == 1
        assert stats["test.pool.b.completed"] == 0

    def test_active_returns_to_zero(self):
        with WorkerPool(2) as pool:
            pool.map_ordered(lambda x: x, range(8))
            assert pool.active == 0


class TestShutdown:
    def test_submit_after_shutdown_rejected(self):
        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(lambda: 1)

    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(1)
        pool.shutdown()
        pool.shutdown(cancel_pending=True)

    def test_shutdown_under_load_cancels_queue(self):
        """Queued-but-unstarted work is cancelled, counted, and the
        shutdown returns promptly instead of draining the backlog."""
        release = threading.Event()
        pool = WorkerPool(1, metrics_prefix="test.pool.c")
        try:
            # One worker: the blocker occupies it, the backlog queues.
            blocker = pool.submit(release.wait, 10)
            backlog = [pool.submit(lambda: "ran") for _ in range(5)]
            pool.shutdown(wait=False, cancel_pending=True)
            release.set()
            assert blocker.result(timeout=5) is True
            assert all(future.cancelled() for future in backlog)
            assert pool.stats()["test.pool.c.cancelled"] >= 5
            with pytest.raises(RuntimeError):
                pool.submit(lambda: 1)
        finally:
            release.set()
            pool.shutdown(wait=False, cancel_pending=True)

    def test_shutdown_waits_for_running_task(self):
        results = []
        with WorkerPool(1) as pool:
            pool.submit(lambda: (time.sleep(0.05), results.append("done")))
        # The context manager shutdown(wait=True) joins the worker.
        assert results == ["done"]


class TestDefaults:
    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


def _traced_task(n):
    from repro.obs.trace import span

    with span(f"task.{n}"):
        return n * n


class TestTracing:
    def test_thread_pool_spans_nest_under_submitting_span(self):
        """Pool tasks attach to the submitter's active span instead of
        becoming orphaned roots."""
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        with WorkerPool(2) as pool:
            with tracer.capture() as cap:
                with tracer.span("parent.batch"):
                    futures = [pool.submit(_traced_task, n) for n in range(3)]
                    assert sorted(f.result() for f in futures) == [0, 1, 4]
        parent = cap.find("parent.batch")
        assert parent is not None
        assert sorted(c.name for c in parent.children) == \
            ["task.0", "task.1", "task.2"]
        assert not any(root.name.startswith("task.") for root in cap.spans)
