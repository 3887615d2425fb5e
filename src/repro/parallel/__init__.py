"""The bounded worker pool behind concurrent QSS source polling.

:class:`WorkerPool` is a thread pool with registry-backed utilization
metrics; the QSS server fans each poll tick's source calls out over one
(``QSSServer(max_poll_workers=, poll_timeout=)``).  Query evaluation is
serial -- see ``docs/parallel.md`` for the thread-safety contract the
concurrent polls rely on.
"""

from .pool import WorkerPool, default_worker_count

__all__ = [
    "WorkerPool",
    "default_worker_count",
]
