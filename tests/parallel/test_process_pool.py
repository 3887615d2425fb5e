"""WorkerPool behavioural contract: ordering, errors, shutdown, accounting.

The class is parametrized over the pool kind so each case keeps a stable
name per kind; thread pools are the only kind :class:`WorkerPool` builds.
"""

from __future__ import annotations

import time

import pytest

from repro.parallel import WorkerPool


def square(x):
    return x * x


def sleepy_first(pair):
    """Sleep ``pair[1]`` seconds, return ``pair[0]``."""
    time.sleep(pair[1])
    return pair[0]


def boom(x):
    raise ValueError(x)


@pytest.fixture(params=["thread"])
def kind(request):
    return request.param


class TestKindParity:
    """The WorkerPool contract callers rely on."""

    def test_map_ordered_returns_submission_order(self, kind):
        with WorkerPool(2) as pool:
            # Reverse sleep times so later submissions finish first.
            out = pool.map_ordered(sleepy_first,
                                   [(i, 0.05 * (3 - i)) for i in range(4)])
        assert out == [0, 1, 2, 3]

    def test_map_ordered_empty(self, kind):
        with WorkerPool(2) as pool:
            assert pool.map_ordered(square, []) == []

    def test_exception_propagates_and_pool_survives(self, kind):
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError):
                pool.map_ordered(boom, [1])
            # An ordinary exception must not poison the pool.
            assert pool.map_ordered(square, [2, 3]) == [4, 9]

    def test_submit_after_shutdown_rejected(self, kind):
        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(square, 2)

    def test_shutdown_is_idempotent(self, kind):
        pool = WorkerPool(1)
        pool.shutdown()
        pool.shutdown(cancel_pending=True)

    def test_accounting(self, kind):
        prefix = f"test.ppool.{kind}"
        with WorkerPool(2, metrics_prefix=prefix) as pool:
            assert pool.map_ordered(square, [1, 2, 3]) == [1, 4, 9]
            with pytest.raises(ValueError):
                pool.submit(boom, 0).result()
            stats = pool.stats()
        assert stats[f"{prefix}.submitted"] == 4
        assert stats[f"{prefix}.completed"] == 3
        assert stats[f"{prefix}.errors"] == 1
        assert stats[f"{prefix}.task_seconds"]["count"] == 4
        assert pool.active == 0
