"""Solver-as-a-service layer: store, scheduler, worker pool, facade, HTTP API.

The engine (:mod:`repro.core`) and the multi-walk driver
(:mod:`repro.parallel`) treat every solve as a one-shot batch job.  This
subpackage adds the serving layer the ROADMAP's "heavy traffic" north star
needs, composed of four pieces a request flows through:

1. :mod:`repro.service.store` — a SQLite-backed persistent solution store.
   Solutions are keyed by ``(problem_kind, n, canonical_form)`` with Costas
   arrays canonicalised through :mod:`repro.costas.symmetry`, so one stored
   array answers its entire rotation/reflection class; repeated and
   symmetry-equivalent requests are served in microseconds.
2. :mod:`repro.service.scheduler` — a priority request queue with
   *coalescing* (concurrent requests for the same instance share one
   in-flight solve), bounded depth with explicit backpressure, and
   cancellation.
3. :mod:`repro.service.workers` — a long-lived process worker pool: workers
   start once, pull jobs over queues, run the compiled Adaptive Search walk
   (or whichever solver the request names), and drain gracefully on
   shutdown.
4. :mod:`repro.service.api` — the :class:`~repro.service.api.SolverService`
   facade composing store -> algebraic-construction shortcut -> scheduler ->
   pool, exposed over stdlib HTTP by the asyncio front-end
   (:mod:`repro.service.http_async` — batch submit, SSE progress streaming,
   thousands of concurrent waiting clients) and by the ``repro serve`` /
   ``repro request`` CLI commands.
"""

from repro.service.api import ProgressSubscription, ServiceConfig, SolverService
from repro.service.scheduler import RequestScheduler, SchedulerSaturatedError, Ticket
from repro.service.store import SolutionStore, StoreStats
from repro.service.workers import WorkerPool

__all__ = [
    "ProgressSubscription",
    "ServiceConfig",
    "SolverService",
    "RequestScheduler",
    "SchedulerSaturatedError",
    "Ticket",
    "SolutionStore",
    "StoreStats",
    "WorkerPool",
]
