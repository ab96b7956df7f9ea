"""Liveness machinery of the service's long-lived worker pool.

A :class:`~repro.service.workers.WorkerPool` child process can die (hard
crash, OOM kill) *without* reporting through the shared result queue, and
the naive ``queue.get()`` loop then blocks forever.  The cure is to poll the
queue with a timeout, watch process liveness between polls, and only declare
a process lost after a grace period (the multiprocessing queue feeder may
still be flushing a result the process enqueued just before exiting).

:class:`DeadProcessDetector` packages that grace-period logic.  The
multi-walk coordinator (:mod:`repro.parallel.multiwalk`) needs no grace: each
of its walkers owns a pipe, whose send is synchronous, so a walker's death
is EOF on that pipe.  It uses only :func:`poll_interval`, to pace its
deadline checks.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, List, Optional, Protocol

__all__ = ["DeadProcessDetector", "poll_interval"]


class _ProcessLike(Protocol):  # pragma: no cover - typing helper
    def is_alive(self) -> bool: ...


def poll_interval(join_timeout: float) -> float:
    """Queue-poll timeout derived from the join timeout (bounded 50-500 ms)."""
    return max(0.05, min(0.5, join_timeout / 10.0))


class DeadProcessDetector:
    """Grace-period detection of child processes that died without reporting.

    Call :meth:`poll` periodically with the map of still-pending processes;
    it returns the ids of processes that have been observed dead for longer
    than *grace* seconds (and therefore cannot still have a result in
    flight).  The grace clock is **per process**: one worker dying is
    detected within its own grace period even while its siblings keep
    reporting results at full rate — otherwise steady traffic from healthy
    workers would starve detection forever and the dead worker's job would
    hang its clients.  A process that reports (and leaves *pending*) or is
    respawned (alive again under the same id) has its clock dropped
    automatically.
    """

    def __init__(self, grace: float) -> None:
        self.grace = grace
        self._dead_since: Dict[Hashable, float] = {}

    def poll(
        self,
        pending: Dict[Hashable, _ProcessLike],
        now: Optional[float] = None,
    ) -> List[Hashable]:
        """Ids in *pending* whose processes are confirmed dead past the grace.

        Returns an empty list while every pending process is alive, or while
        the dead ones are still within their grace period (the
        multiprocessing queue feeder may be flushing a final result).
        """
        if now is None:
            now = time.perf_counter()
        dead = {key for key, proc in pending.items() if not proc.is_alive()}
        # Drop clocks of processes that reported, were respawned, or left.
        self._dead_since = {
            key: since for key, since in self._dead_since.items() if key in dead
        }
        expired = [
            key
            for key in dead
            if now - self._dead_since.setdefault(key, now) > self.grace
        ]
        return sorted(expired, key=repr)
