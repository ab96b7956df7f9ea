"""The :class:`SolverService` facade: store -> construction -> scheduler -> pool.

A request for "a solution of kind k and order n" — any family of the
:mod:`repro.problems` registry: Costas, N-Queens, All-Interval, Magic
Square — flows through three tiers, cheapest first:

1. **Store** — a previously solved (or symmetry-equivalent under the
   family's own group) instance answers from SQLite in microseconds.
2. **Construction** — orders with an algebraic shortcut (Welch / Lempel /
   Golomb for Costas, the modular closed form for N-Queens, the zigzag for
   All-Interval) are answered without search and the result is inserted into
   the store, so the search tier never sees them.
3. **Search** — everything else is admitted to the coalescing scheduler and
   solved by the long-lived worker pool; the solution is inserted into the
   store on the way out, upgrading all future requests for its symmetry class
   to tier 1.

Every submission returns a :class:`ServiceRequest` whose ``future`` resolves
to a :class:`ServiceResponse`; ``submit()``/``result()``/``cancel()``/
``stats()`` are the whole surface the HTTP layer needs, and
:func:`submit_kwargs` turns one JSON solve object into ``submit()``'s
keywords.
"""

from __future__ import annotations

import itertools
import queue as queue_module
import threading
import time
from concurrent.futures import CancelledError, Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import _ckernels
from repro.exceptions import ReproError, SolverError
from repro.problems import get_family
from repro.service.faults import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    FaultInjector,
    FaultPlan,
    ServiceDegradedError,
)
from repro.service.qos import (
    BACKGROUND,
    DEFAULT_LANE,
    DEFAULT_TENANT,
    INTERACTIVE,
    LaneSpec,
    LatencyHistogram,
    TenantQuotas,
    classify_lane,
    default_lanes,
    parse_lanes,
)
from repro.service.scheduler import Job, RequestScheduler, Ticket
from repro.service.store import SolutionStore, StoreUnavailableError
from repro.service.workers import PoolJobHandle, WorkerPool
from repro.solvers import (
    canonical_portfolio,
    get_solver,
    portfolio_label,
    resolve_portfolio,
)

__all__ = [
    "ProgressSubscription",
    "ServiceConfig",
    "ServiceRequest",
    "ServiceResponse",
    "SolverService",
    "submit_kwargs",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`SolverService` instance."""

    store_path: str = ":memory:"
    n_workers: Optional[int] = None
    max_queue_depth: int = 256
    #: Independent walks per search-tier job (first past the post).  A
    #: portfolio request always gets at least one walk per portfolio member.
    walks_per_job: int = 1
    #: Vectorised walks per worker slot (compiled walk engine only): each
    #: walk of a job advances this many independent walks in one kernel
    #: batch and reports the best.  Solvers without population support run a
    #: single walk per slot regardless.
    population: int = 1
    #: Default per-walk wall-clock budget (seconds); ``None`` = unbounded.
    default_max_time: Optional[float] = 300.0
    #: Solver (or portfolio) used when a request does not name one: a
    #: registry name ("adaptive", "tabu"), an inline portfolio
    #: ("adaptive+tabu"), a named portfolio ("mixed") or a spec dict/list.
    #: ``None`` is the registry default, the compiled walk ("compiled").
    default_solver: Optional[Any] = None
    #: Disable tiers globally (benchmarks use these to build the naive rival).
    use_store: bool = True
    use_constructions: bool = True
    seed_root: Optional[int] = None
    mp_context: Optional[str] = None
    #: Minimum seconds between progress samples per walk (the workers throttle
    #: at this cadence; ``0`` disables worker-side progress reporting).
    progress_interval: float = 0.25
    #: Upper bound on the number of items one ``submit_batch`` call (one
    #: ``POST /solve-batch`` body) may carry.
    max_batch_items: int = 128
    #: Fault-injection plan: a :class:`~repro.service.faults.FaultPlan`, its
    #: dict/JSON/CLI-shorthand form, or ``None`` to fall back to whatever the
    #: ``REPRO_FAULTS`` environment variable carries (usually nothing).
    fault_plan: Optional[Any] = None
    #: Consecutive search failures of one ``(kind, n)`` before its circuit
    #: breaker opens, and how long it stays open before a half-open probe.
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    #: How many times one walk is requeued after its worker died; the retry
    #: delays follow an exponential-backoff policy inside the pool.
    max_walk_retries: int = 2
    #: Seconds past a walk's time budget before it is declared hung and its
    #: worker terminated.
    hang_grace: float = 5.0
    #: Default per-request deadline in seconds (``None`` = no deadline).
    default_deadline: Optional[float] = None
    #: Bounded wait for in-flight requests during graceful shutdown.
    drain_timeout: float = 10.0
    #: Seconds the pool may be observed with zero live workers before
    #: degraded mode refuses fresh solves.  Worker deaths are routinely
    #: transient (the collector sees each at once and respawns the slot,
    #: backing off only while its workers keep dying), so a
    #: momentarily-empty pool queues work instead of bouncing it; only a
    #: pool that *stays* dead — respawns not taking — trips the refusal.
    pool_dead_grace: float = 10.0
    #: QoS lanes: ``None`` keeps the single-lane scheduler (the pre-lane
    #: behaviour); ``True`` enables the stock interactive/batch/background
    #: policy; a ``--lanes`` spec string or a :class:`~repro.service.qos.LaneSpec`
    #: sequence customises it.  Per-lane depth defaults to
    #: ``max_queue_depth``, which also stays the *global* queued bound —
    #: hitting it sheds the newest job from the cheapest lane.
    lanes: Optional[Any] = None
    #: Per-tenant admission quotas: a :class:`~repro.service.qos.TenantQuotas`,
    #: a ``--quota`` spec string (``tenant=rate[:burst]``, ``*`` catch-all)
    #: or ``None`` for no limits.  One token is charged per *new* job.
    quotas: Optional[Any] = None
    #: Requests with a relative deadline at or under this many seconds are
    #: classified interactive when no explicit lane is named.
    interactive_deadline: float = 10.0
    #: In-process LRU read-through cache entries in front of the SQLite
    #: store (``0`` disables; hot keys then always touch disk).
    store_cache: int = 256


@dataclass
class ServiceResponse:
    """Terminal outcome of one request."""

    order: int
    kind: str
    solution: Optional[np.ndarray]
    source: str  # "store" | "construction" | "search"
    solved: bool
    elapsed: float
    request_id: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "request_id": self.request_id,
            "kind": self.kind,
            "order": self.order,
            "solved": self.solved,
            "source": self.source,
            "solution": None
            if self.solution is None
            else [int(v) for v in self.solution],
            "elapsed": self.elapsed,
            "detail": self.detail,
        }


@dataclass
class ServiceRequest:
    """Client-side handle: a future plus enough identity to cancel it."""

    request_id: str
    order: int
    kind: str
    future: Future
    ticket: Optional[Ticket] = None
    #: ``time.perf_counter()`` at registration: where the request's service
    #: time (``ServiceResponse.elapsed``) starts.
    submitted_at: float = field(default_factory=time.perf_counter)
    #: QoS classification the request was admitted under.
    lane: str = DEFAULT_LANE
    tenant: str = DEFAULT_TENANT

    def result(self, timeout: Optional[float] = None) -> ServiceResponse:
        return self.future.result(timeout)

    def done(self) -> bool:
        return self.future.done()


def submit_kwargs(
    obj: Any, *, priority: int = 0, tenant: Optional[str] = None
) -> Dict[str, Any]:
    """Turn one JSON solve object into :meth:`SolverService.submit` keywords.

    *obj* is a ``POST /solve`` body or one ``POST /solve-batch`` item.
    *priority* and *tenant* apply when the object names none (a batch's own
    fields, the ``X-Repro-Tenant`` header).  Fields ``submit`` does not take,
    such as ``wait``, are ignored.  A malformed field raises
    :class:`~repro.exceptions.SolverError`, which the HTTP layer answers
    with 400.
    """
    if not isinstance(obj, Mapping):
        raise SolverError(
            f"a solve object must be a JSON object, got {type(obj).__name__}"
        )
    if "order" not in obj:
        raise SolverError('a solve object needs an "order" field')
    try:
        order = int(obj["order"])
    except (TypeError, ValueError):
        raise SolverError("order must be an integer") from None
    try:
        priority = int(obj.get("priority", priority))
        max_time = obj.get("max_time")
        max_time = float(max_time) if max_time is not None else None
        deadline = obj.get("deadline")
        deadline = float(deadline) if deadline is not None else None
    except (TypeError, ValueError):
        raise SolverError("priority/max_time/deadline must be numeric") from None
    model_options = obj.get("model_options")
    if model_options is not None and not isinstance(model_options, Mapping):
        raise SolverError("model_options must be an object")
    lane = obj.get("lane")
    tenant = obj.get("tenant") or tenant
    return {
        "order": order,
        "kind": str(obj.get("kind", "costas")),
        "priority": priority,
        "max_time": max_time,
        "deadline": deadline,
        "solver": obj.get("solver"),
        "model_options": model_options,
        "use_store": obj.get("use_store"),
        "use_constructions": obj.get("use_constructions"),
        "lane": str(lane) if lane is not None else None,
        "tenant": str(tenant) if tenant else None,
    }


#: Event names that end a progress stream.
_TERMINAL_EVENTS = frozenset({"done", "failed", "cancelled"})


class ProgressSubscription:
    """One consumer's live event stream for one request.

    Obtained from :meth:`SolverService.subscribe`; the HTTP layer's
    ``GET /events/<id>`` turns it into a ``text/event-stream``.  Events are
    plain dicts with an ``"event"`` key: ``"status"`` (the initial snapshot),
    ``"progress"`` (throttled per-walk search samples straight from the
    strategy harness's callback plumbing), and exactly one terminal event —
    ``"done"`` (with the full result payload), ``"failed"`` or
    ``"cancelled"`` — after which :meth:`get` returns ``None`` forever.

    The queue is bounded; when a slow consumer falls behind, the oldest
    *progress* sample is dropped in favour of the newest (terminal events are
    never dropped: :meth:`push` retries after evicting).
    """

    def __init__(self, request_id: str, *, maxsize: int = 256) -> None:
        self.request_id = request_id
        self._queue: "queue_module.Queue[Dict[str, Any]]" = queue_module.Queue(maxsize)
        self._closed = threading.Event()
        self._terminated = False
        self._listener: Optional[Any] = None
        self._listener_lock = threading.Lock()

    def push(self, event: Dict[str, Any]) -> None:
        """Enqueue *event*, evicting the oldest sample when full."""
        if self._closed.is_set():
            return
        # The queue fallback stays inside the same critical section as the
        # listener check: otherwise an event racing set_listener() could land
        # in the queue *after* the listener drained it and never be seen.
        with self._listener_lock:
            listener = self._listener
            if listener is not None:
                try:
                    listener(event)
                except Exception:  # pragma: no cover - consumer bug guard
                    pass
                return
            while True:
                try:
                    self._queue.put_nowait(event)
                    return
                except queue_module.Full:
                    try:
                        self._queue.get_nowait()
                    except queue_module.Empty:  # pragma: no cover - racing consumer
                        pass

    def set_listener(self, listener: Any) -> None:
        """Switch from pull (:meth:`get`) to push delivery.

        Already-queued events are replayed to *listener* first (in order),
        then every future :meth:`push` invokes it directly.  The async HTTP
        front-end uses this to bridge events onto its loop without parking a
        thread per stream.
        """
        with self._listener_lock:
            while True:
                try:
                    event = self._queue.get_nowait()
                except queue_module.Empty:
                    break
                try:
                    listener(event)
                except Exception:  # pragma: no cover - consumer bug guard
                    pass
            self._listener = listener

    def get(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Next event, or ``None`` on timeout / closed-and-drained stream."""
        if self._terminated and self._queue.empty():
            return None
        try:
            event = self._queue.get(timeout=timeout)
        except queue_module.Empty:
            return None
        if event.get("event") in _TERMINAL_EVENTS:
            self._terminated = True
        return event

    def close(self) -> None:
        """Stop accepting events (the consumer went away)."""
        self._closed.set()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


class SolverService:
    """Solver-as-a-service: persistent store, coalescing, warm workers.

    Thread-safe; designed to sit behind the HTTP front-end of
    :mod:`repro.service.http_async` but equally usable in-process::

        with SolverService(ServiceConfig(store_path="solutions.db")) as svc:
            response = svc.submit(18).result(timeout=600)
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.fault_plan = self._resolve_fault_plan(self.config.fault_plan)
        #: Injector behind the front-ends' ``http.drop`` point (scoped so it
        #: draws independently of the store's and the workers' streams).
        self.http_faults = FaultInjector(self.fault_plan, scope="http")
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
        )
        self.store = SolutionStore(
            self.config.store_path,
            faults=FaultInjector(self.fault_plan, scope="store"),
            cache_size=self.config.store_cache,
        )
        self.lanes = self._resolve_lanes(
            self.config.lanes, self.config.max_queue_depth
        )
        self.quotas = self._resolve_quotas(self.config.quotas)
        self.scheduler = RequestScheduler(
            max_depth=self.config.max_queue_depth,
            lanes=self.lanes,
            quotas=self.quotas,
            on_cancel_running=self._abort_running_job,
        )
        self.pool = WorkerPool(
            self.config.n_workers,
            mp_context=self.config.mp_context,
            seed_root=self.config.seed_root,
            max_walk_retries=self.config.max_walk_retries,
            hang_grace=self.config.hang_grace,
            faults=self.fault_plan,
        )
        self._lock = threading.Lock()
        self._requests: Dict[str, ServiceRequest] = {}
        self._req_counter = itertools.count(1)
        #: request_id -> live progress subscriptions (SSE clients).
        self._subscribers: Dict[str, List[ProgressSubscription]] = {}
        #: id(ticket) -> request_id, for routing pool progress samples from a
        #: (possibly coalesced) job to every attached request's subscribers.
        self._ticket_requests: Dict[int, str] = {}
        #: scheduler Job -> pool handle, for cancellation of running jobs.
        self._job_handles: Dict[int, PoolJobHandle] = {}
        #: scheduler Job -> slot permits it holds (portfolio jobs hold more).
        self._job_permits: Dict[int, int] = {}
        self._dispatch_thread: Optional[threading.Thread] = None
        # Startup claim + completion signal: the slow process spawns in
        # start() run outside _lock (see start()'s docstring).
        self._start_claimed = False
        self._started = threading.Event()
        # One permit per walks_per_job workers: jobs stay *queued in the
        # scheduler* (where they count toward max_depth and remain
        # coalescable/cancellable) until worker slots free up, instead of
        # draining into the pool's FIFO, which neither coalesces nor
        # prioritises.  An ordinary job takes one permit; a portfolio job
        # takes one permit per walks_per_job walks it fans out (capped at
        # the pool), so heterogeneous requests cannot oversubscribe the
        # workers behind the semaphore's back.
        self._total_slots = max(
            1, self.pool.n_workers // max(1, self.config.walks_per_job)
        )
        self._slots = threading.Semaphore(self._total_slots)
        # Validate the configured default solver once, at construction: a
        # typo must fail fast here, not on the first request or stats() call.
        self._default_solver_label = portfolio_label(
            resolve_portfolio(self.config.default_solver)
        )
        self._closed = False
        self._started_at = time.monotonic()
        #: Monotonic instant the pool was first observed with zero live
        #: workers (``None`` while any worker is alive); degraded mode only
        #: refuses once this persists past ``pool_dead_grace``.
        self._pool_dead_since: Optional[float] = None
        self._immediate = {"store": 0, "construction": 0}
        self._searches = 0
        self._batches = 0
        #: Per-request service-time histograms for GET /stats: one overall,
        #: plus one per lane when QoS lanes are enabled.
        self._latency: Dict[str, LatencyHistogram] = {"overall": LatencyHistogram()}
        if self.lanes is not None:
            for spec in self.lanes:
                self._latency[spec.name] = LatencyHistogram()
        #: Worker-slot permits currently held by non-interactive jobs; the
        #: dispatcher uses it to always hold one slot back for the
        #: interactive lane (lane-aware slot reservation).
        self._nonint_permits = 0
        self._reserved_lanes: Optional[Tuple[str, ...]] = (
            (INTERACTIVE,)
            if self.lanes is not None
            and any(spec.name == INTERACTIVE for spec in self.lanes)
            else None
        )
        #: Per-family observability: requests and solved responses by tier.
        self._kinds: Dict[str, Dict[str, int]] = {}
        # Per-solver observability: requests by requested portfolio label,
        # search solves by the winning strategy's name.
        self._solver_requests: Dict[str, int] = {}
        self._solver_solves: Dict[str, int] = {}

    # ------------------------------------------------------------ failure policy
    @staticmethod
    def _resolve_fault_plan(plan: Any) -> Optional[FaultPlan]:
        """Normalise the config's fault plan; fall back to ``REPRO_FAULTS``.

        A malformed environment value raises here, at construction: silently
        running without the chaos that was asked for would make a red chaos
        suite look green.
        """
        if plan is None:
            return FaultPlan.from_env()
        if isinstance(plan, FaultPlan):
            return plan
        if isinstance(plan, str):
            return FaultPlan.parse(plan)
        if isinstance(plan, Mapping):
            return FaultPlan.from_dict(plan)
        raise SolverError(
            f"fault_plan must be a FaultPlan, str, mapping or None, "
            f"got {type(plan).__name__}"
        )

    @staticmethod
    def _resolve_lanes(
        lanes: Any, default_depth: Optional[int]
    ) -> Optional[Tuple[LaneSpec, ...]]:
        """Normalise the config's lane policy (``None`` = single-lane mode)."""
        if lanes is None or lanes is False:
            return None
        try:
            if lanes is True:
                return default_lanes(default_depth)
            if isinstance(lanes, str):
                return parse_lanes(lanes, default_depth)
            specs = tuple(lanes)
        except (TypeError, ValueError) as exc:
            raise SolverError(f"invalid lanes config: {exc}") from None
        if not specs or not all(isinstance(s, LaneSpec) for s in specs):
            raise SolverError("lanes must be a spec string, True, or LaneSpec list")
        return specs

    @staticmethod
    def _resolve_quotas(quotas: Any) -> Optional[TenantQuotas]:
        """Normalise the config's tenant quotas (``None`` = unlimited)."""
        if quotas is None:
            return None
        if isinstance(quotas, TenantQuotas):
            return quotas
        try:
            if isinstance(quotas, str):
                return TenantQuotas.from_spec(quotas)
            if isinstance(quotas, Mapping):
                limits = {
                    str(k): (float(v[0]), float(v[1]))
                    for k, v in quotas.items()
                    if k != "*"
                }
                default = quotas.get("*")
                if default is not None:
                    default = (float(default[0]), float(default[1]))
                return TenantQuotas(limits, default)
        except (TypeError, ValueError, IndexError) as exc:
            raise SolverError(f"invalid quota config: {exc}") from None
        raise SolverError("quotas must be a spec string, mapping or TenantQuotas")

    def _classify(
        self,
        lane: Optional[str],
        deadline: Optional[float],
        priority: int,
    ) -> Optional[str]:
        """Pipeline stage 1 (*classify*): pick the lane for one request.

        Returns ``None`` in single-lane mode (the scheduler's implicit
        lane); raises :class:`~repro.exceptions.SolverError` (HTTP 400) for
        an explicitly named lane that is not configured.
        """
        if self.lanes is None:
            return None
        if deadline is None:
            deadline = self.config.default_deadline
        try:
            return classify_lane(
                lane=lane,
                deadline=deadline,
                priority=priority,
                lanes=self.scheduler.lane_order,
                interactive_deadline=self.config.interactive_deadline,
            )
        except ValueError as exc:
            raise SolverError(str(exc)) from None

    def degraded_reason(self) -> Optional[str]:
        """Why fresh solves are currently refused, or ``None`` when healthy.

        Degraded mode refuses only the search tier: store hits and
        construction answers keep flowing, so a sick pool or a quarantined
        store shrinks the service instead of killing it.
        """
        quarantined = self.store.quarantined
        if quarantined is not None:
            return f"store quarantined: {quarantined}"
        pool_stats = self.pool.stats()
        if pool_stats["started"] and pool_stats["alive_workers"] == 0:
            # Worker deaths are routinely transient — the collector respawns
            # them — so an empty pool queues work rather than bouncing it.
            # Refuse only when the pool *stays* dead past the grace window,
            # i.e. respawns are not taking.
            now = time.monotonic()
            if self._pool_dead_since is None:
                self._pool_dead_since = now
            if now - self._pool_dead_since >= self.config.pool_dead_grace:
                return "no live workers"
        else:
            self._pool_dead_since = None
        return None

    def _admit_search(
        self, kind: str, order: int, lane: Optional[str] = None
    ) -> None:
        """Gate one search-tier admission: degraded mode, then the breaker.

        Runs *after* the immediate tiers so degraded mode never refuses what
        the store or a construction can still answer.  With QoS lanes
        enabled, *reduced* capacity (some — not all — workers down) refuses
        the background lane first, keeping the remaining workers for
        interactive and batch traffic; full degradation refuses every lane
        as before.
        """
        reason = self.degraded_reason()
        if reason is not None:
            raise ServiceDegradedError(
                f"service degraded ({reason}); fresh solves are refused",
                retry_after=5.0,
            )
        if lane == BACKGROUND and self.lanes is not None:
            pool_stats = self.pool.stats()
            alive = pool_stats["alive_workers"]
            if pool_stats["started"] and 0 < alive < pool_stats["n_workers"]:
                raise ServiceDegradedError(
                    f"service degraded ({pool_stats['n_workers'] - alive} "
                    "worker(s) down); background lane is refused first",
                    retry_after=5.0,
                    lane=lane,
                )
        allowed, retry_after = self.breaker.allow((kind, int(order)))
        if not allowed:
            raise CircuitOpenError(
                f"circuit open for {kind} n={order} after repeated failures; "
                f"retry in {retry_after:.1f}s",
                retry_after=retry_after,
            )

    def _deadline_at(self, deadline: Optional[float]) -> Optional[float]:
        """Absolute ``time.monotonic()`` deadline for a request, or ``None``.

        The monotonic clock is system-wide, so the pool's worker processes
        read the same deadline, and a wall-clock step cannot expire it."""
        if deadline is None:
            deadline = self.config.default_deadline
        if deadline is None:
            return None
        deadline = float(deadline)
        if deadline <= 0:
            raise SolverError(f"deadline must be > 0 seconds, got {deadline}")
        return time.monotonic() + deadline

    # ----------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start the pool and the scheduler->pool dispatch thread (idempotent).

        Spawning the worker processes takes whole seconds under the spawn
        start method, so it must happen *outside* ``_lock``: holding the
        service lock across it would freeze every concurrent ``stats()`` /
        ``health()`` / ``request()`` call for the duration.  The first
        caller claims startup under the lock, releases it to do the slow
        work, and signals ``_started``; racing callers just wait on the
        event.
        """
        with self._lock:
            if self._start_claimed:
                claimed_elsewhere = True
            else:
                self._start_claimed = True
                claimed_elsewhere = False
        if claimed_elsewhere:
            self._started.wait()
            return
        try:
            self.pool.start()
            thread = threading.Thread(
                target=self._dispatch_loop, name="repro-service-dispatch", daemon=True
            )
            thread.start()
            with self._lock:
                self._dispatch_thread = thread
        finally:
            self._started.set()

    def close(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut down: refuse new requests, drain or abort, release everything."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.scheduler.close()
        if self._dispatch_thread is not None:
            self._dispatch_thread.join(timeout=5.0)
        self.pool.shutdown(drain=drain, timeout=timeout)
        # Fail whatever is still unresolved so clients never hang.  A future
        # may legitimately resolve between the snapshot and here (a straggler
        # collector callback), so losing that race is fine.
        with self._lock:
            pending = [r for r in self._requests.values() if not r.future.done()]
        for request in pending:
            try:
                request.future.set_exception(SolverError("service shut down"))
            except InvalidStateError:
                pass
        # Failing the futures published terminal events through the normal
        # done-callback path; anything still registered (a subscriber that
        # raced its registration against shutdown) is force-closed here so no
        # SSE stream is left hanging.
        with self._lock:
            leftovers = [sub for subs in self._subscribers.values() for sub in subs]
            self._subscribers.clear()
        for sub in leftovers:
            sub.push(
                {
                    "event": "failed",
                    "request_id": sub.request_id,
                    "status": "failed",
                    "error": "service shut down",
                }
            )
            sub.close()
        self.store.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "SolverService":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------- submit
    def submit(
        self,
        order: int,
        *,
        kind: str = "costas",
        priority: int = 0,
        max_time: Optional[float] = None,
        deadline: Optional[float] = None,
        solver: Optional[Any] = None,
        model_options: Optional[Mapping[str, Any]] = None,
        use_store: Optional[bool] = None,
        use_constructions: Optional[bool] = None,
        lane: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> ServiceRequest:
        """Submit one solve request; returns immediately with a future.

        ``kind`` selects any family of the :mod:`repro.problems` registry
        (``"costas"``, ``"queens"``, ``"all-interval"``, ``"magic-square"``,
        aliases included); ``order`` is the family's natural size parameter
        (the board/series order, the magic square's side).  Store and
        construction hits resolve the future before ``submit`` returns;
        search-tier requests resolve when the (possibly shared) solve
        finishes.  Raises
        :class:`~repro.service.scheduler.SchedulerSaturatedError` when the
        search queue is full.

        ``solver`` selects the search strategy (or a portfolio raced
        first-past-the-post) from the :mod:`repro.solvers` registry; it only
        affects the search tier — a store or construction hit answers the
        *instance* regardless of which algorithm was requested (pass
        ``use_store=False``/``use_constructions=False`` to force the solver
        to actually run).  Unknown solver names, unknown kinds, and
        solver/kind mismatches (the CP solver only accepts Costas) raise
        :class:`~repro.exceptions.SolverError` before anything is queued.

        ``model_options`` is forwarded to the family's problem factory in
        the workers (e.g. ``{"err_weight": "constant"}`` for the basic
        Costas model) and is part of the coalescing identity.

        ``use_store=False`` opts this request out of being *answered* from
        the store (a fresh solve is wanted); whether results are *inserted*
        is service policy (``config.use_store``) on every tier, so a bypass
        request still warms the store for everyone else.

        ``deadline`` (seconds from now) bounds the *whole* request: a job
        still queued past it fails with
        :class:`~repro.service.faults.DeadlineExceededError`, and a running
        walk's time budget is capped by what remains.  Search admission can
        also raise :class:`~repro.service.faults.ServiceDegradedError` (sick
        pool or quarantined store) or
        :class:`~repro.service.faults.CircuitOpenError` (this ``(kind, n)``
        keeps failing) — both fail fast *after* the immediate tiers had their
        chance, so store and construction answers flow even then.

        With QoS lanes enabled (``config.lanes``), the request is
        *classified* first: an explicit ``lane`` wins, otherwise a tight
        deadline or positive priority maps to ``interactive``, negative
        priority to ``background``, the rest to ``batch``.  ``tenant``
        (usually the ``X-Repro-Tenant`` header) selects the token bucket
        charged for new jobs; an exhausted bucket raises
        :class:`~repro.service.scheduler.SchedulerQuotaError` (HTTP 429).
        Store/construction answers bypass classification entirely — cheap
        requests never queue behind expensive fresh solves.
        """
        if self._closed:
            raise SolverError("service is closed")
        request, entry = self._admit_one(
            order,
            kind=kind,
            priority=priority,
            max_time=max_time,
            deadline=deadline,
            solver=solver,
            model_options=model_options,
            use_store=use_store,
            use_constructions=use_constructions,
            lane=lane,
            tenant=tenant,
        )
        if entry is None:
            return request
        key, payload, priority, deadline_at, lane_name, tenant_name = entry
        try:
            ticket = self.scheduler.submit(
                key,
                payload,
                priority=priority,
                deadline_at=deadline_at,
                lane=lane_name,
                tenant=tenant_name,
            )
        except ReproError:
            self._forget(request)
            raise
        except RuntimeError as exc:
            # The scheduler closed between our _closed check and here (a
            # request racing close()); don't leak a never-resolving entry.
            self._forget(request)
            raise SolverError("service is closed") from exc
        self._attach_ticket(request, ticket)
        return request

    def submit_batch(
        self,
        items: Sequence[Mapping[str, Any]],
        *,
        priority: int = 0,
        tenant: Optional[str] = None,
    ) -> List[Union[ServiceRequest, ReproError]]:
        """Submit many solve requests in **one** pass (``POST /solve-batch``).

        Each *item* is a JSON solve object (see :func:`submit_kwargs`):
        the fields :meth:`submit` takes as keywords, plus the mandatory
        ``"order"``; *priority* and *tenant* apply to items that name none.
        The store and construction tiers are consulted per item as usual;
        everything that needs the search tier is admitted to the scheduler
        under a single lock acquisition
        (:meth:`~repro.service.scheduler.RequestScheduler.submit_batch`), so
        N instances pay one scheduler pass instead of N.

        Failures are **per item**, never whole-batch: the returned list is
        aligned with *items* and each slot holds either the admitted
        :class:`ServiceRequest` or the :class:`~repro.exceptions.ReproError`
        that rejected that item (a
        :class:`~repro.service.scheduler.SchedulerSaturatedError` slot means
        backpressure — HTTP 503 semantics — while other
        :class:`~repro.exceptions.SolverError`\\ s are client errors).  Only a
        closed service raises.
        """
        if self._closed:
            raise SolverError("service is closed")
        outcomes: List[Union[ServiceRequest, ReproError]] = []
        # Identical instances inside one batch share a single store read /
        # construction call — part of the batch's amortisation.
        immediate_cache: Dict[Tuple[Any, ...], Optional[Tuple[np.ndarray, str]]] = {}
        #: (item index, request, scheduler entry) of every search-tier item.
        queued: List[Tuple[int, ServiceRequest, Tuple[Any, ...]]] = []
        for index, item in enumerate(items):
            try:
                request, entry = self._admit_one(
                    **submit_kwargs(item, priority=priority, tenant=tenant),
                    immediate_cache=immediate_cache,
                )
            except ReproError as exc:
                outcomes.append(exc)
                continue
            outcomes.append(request)
            if entry is not None:
                queued.append((index, request, entry))
        if queued:
            try:
                tickets: List[Union[Ticket, ReproError]] = self.scheduler.submit_batch(
                    [entry for _, _, entry in queued]
                )
            except RuntimeError:
                # The scheduler closed underneath the batch: fail the queued
                # items, keep the already-resolved ones.
                tickets = [SolverError("service is closed") for _ in queued]
            for (index, request, _), ticket in zip(queued, tickets):
                if isinstance(ticket, ReproError):
                    self._forget(request)
                    outcomes[index] = ticket
                else:
                    self._attach_ticket(request, ticket)
        with self._lock:
            self._batches += 1
        return outcomes

    # ------------------------------------------------------- submission helpers
    def _admit_one(
        self,
        order: int,
        *,
        kind: str,
        priority: int,
        max_time: Optional[float],
        deadline: Optional[float],
        solver: Optional[Any],
        model_options: Optional[Mapping[str, Any]],
        use_store: Optional[bool],
        use_constructions: Optional[bool],
        lane: Optional[str],
        tenant: Optional[str],
        immediate_cache: Optional[Dict[Tuple[Any, ...], Any]] = None,
    ) -> Tuple[ServiceRequest, Optional[Tuple[Any, ...]]]:
        """One request up to its scheduler admission, shared by
        :meth:`submit` and :meth:`submit_batch`.

        Validates, classifies, tries the store and construction tiers,
        builds the search payload and passes the degraded/breaker gate.
        Returns the registered request plus, unless an immediate tier
        already resolved it, the scheduler entry ``(key, payload, priority,
        deadline_at, lane, tenant)`` that admits it.  A refused request
        raises :class:`~repro.exceptions.ReproError` and stays unregistered.
        """
        family, kind, specs = self._resolve_selection(order, kind, solver)
        lane_name = self._classify(lane, deadline, priority)
        tenant = tenant or DEFAULT_TENANT
        deadline_at = self._deadline_at(deadline)
        self.start()
        request = self._new_request(order, kind, lane=lane_name, tenant=tenant)
        if self._try_immediate(
            request,
            family,
            lookup_store=use_store,
            try_construct=use_constructions,
            immediate_cache=immediate_cache,
        ):
            return request, None
        payload = self._search_payload(
            kind, order, specs, max_time, model_options, deadline_at,
            lane=lane_name, tenant=tenant,
        )
        try:
            self._admit_search(kind, order, lane_name)
        except ReproError:
            self._forget(request)
            raise
        key = self._instance_key(kind, order, payload)
        return request, (key, payload, priority, deadline_at, lane_name, tenant)

    def _forget(self, request: ServiceRequest) -> None:
        """Unregister a request the scheduler or its gate refused."""
        with self._lock:
            self._requests.pop(request.request_id, None)

    def _resolve_selection(
        self, order: int, kind: str, solver: Optional[Any]
    ) -> Tuple[Any, str, List[Any]]:
        """Validate ``(order, kind, solver)``; bump the request counters.

        Returns ``(family, canonical kind, portfolio specs)``.  Raising here
        means nothing was registered or queued — the HTTP layer turns the
        :class:`SolverError` into a 400 for exactly this request/item.
        """
        family = get_family(kind)
        kind = family.name
        if order < family.min_order:
            raise SolverError(
                f"{family.name} order must be >= {family.min_order}, got {order}"
            )
        # Validate and canonicalise the solver selection up front, so a bad
        # name (or a solver that cannot run this family, like CP on queens)
        # fails fast (HTTP 400) instead of failing inside a worker.
        specs = resolve_portfolio(
            solver if solver is not None else self.config.default_solver
        )
        for spec in specs:
            info = get_solver(spec.name)
            if (
                "permutation" not in info.problem_kinds
                and family.name not in info.problem_kinds
            ):
                raise SolverError(
                    f"solver {info.name!r} does not accept problem kind "
                    f"{family.name!r} (supports: {', '.join(info.problem_kinds)})"
                )
        solver_label = portfolio_label(specs)
        with self._lock:
            self._solver_requests[solver_label] = (
                self._solver_requests.get(solver_label, 0) + 1
            )
            self._kind_counter_locked(kind, "requests")
        return family, kind, specs

    def _new_request(
        self,
        order: int,
        kind: str,
        *,
        lane: Optional[str] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> ServiceRequest:
        """Register a fresh request handle (terminal events auto-published)."""
        request_id = f"r{next(self._req_counter)}"
        future: Future = Future()
        request = ServiceRequest(
            request_id=request_id,
            order=order,
            kind=kind,
            future=future,
            lane=lane if lane is not None else DEFAULT_LANE,
            tenant=tenant,
        )
        # Every terminal transition (result, failure, cancellation — from any
        # tier or from close()) flows through the future, so one callback
        # feeds every progress subscriber reliably.
        future.add_done_callback(
            lambda fut, request=request: self._publish_terminal(request, fut)
        )
        with self._lock:
            self._requests[request_id] = request
            self._evict_settled_locked()
        return request

    def _try_immediate(
        self,
        request: ServiceRequest,
        family: Any,
        *,
        lookup_store: Optional[bool],
        try_construct: Optional[bool],
        immediate_cache: Optional[Dict[Tuple[Any, ...], Any]] = None,
    ) -> bool:
        """Tiers 1+2: answer from the store or a construction; ``True`` if so.

        ``immediate_cache`` (one dict per :meth:`submit_batch` call) lets
        identical instances inside a batch share a single store read or
        construction: the cached entry is ``(solution, source)`` or ``None``
        for a miss.  Cached answers still count as per-kind ``store``/
        ``construction`` responses in the service stats, but only the first
        touches SQLite.
        """
        lookup = self.config.use_store if lookup_store is None else lookup_store
        construct = (
            self.config.use_constructions if try_construct is None else try_construct
        )
        kind = family.name
        cache_key = (kind, int(request.order), lookup, construct)
        if immediate_cache is not None and cache_key in immediate_cache:
            hit = immediate_cache[cache_key]
            if hit is None:
                return False
            solution, source = hit
            if source == "construction":
                with self._lock:
                    self._immediate["construction"] += 1
            self._resolve(request, solution, source=source, solved=True)
            return True
        # Tier 1: the persistent store (answers whole symmetry classes).
        if lookup:
            cached = self.store.get(kind, family.instance_size(request.order))
            if cached is not None:
                if immediate_cache is not None:
                    immediate_cache[cache_key] = (cached, "store")
                self._resolve(request, cached, source="store", solved=True)
                return True
        # Tier 2: algebraic constructions (family-specific shortcuts).
        if construct:
            solution = family.try_construct(request.order)
            if solution is not None:
                if self.config.use_store:
                    try:
                        self.store.insert(kind, solution, source="construction")
                    except StoreUnavailableError:
                        pass  # the construction answer is served regardless
                if immediate_cache is not None:
                    immediate_cache[cache_key] = (solution, "construction")
                with self._lock:
                    self._immediate["construction"] += 1
                self._resolve(request, solution, source="construction", solved=True)
                return True
        if immediate_cache is not None:
            immediate_cache[cache_key] = None
        return False

    def _search_payload(
        self,
        kind: str,
        order: int,
        specs: List[Any],
        max_time: Optional[float],
        model_options: Optional[Mapping[str, Any]],
        deadline_at: Optional[float] = None,
        *,
        lane: Optional[str] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> Dict[str, Any]:
        """Tier-3 job payload.  A single-member portfolio travels as one spec
        dict; a real portfolio as a list the pool assigns round-robin.

        ``deadline_at`` rides in the payload (workers cap their budget with
        it) but is **not** part of the coalescing identity — two requests
        differing only in patience share one solve; the scheduler keeps the
        job's deadline as the loosest of its tickets'.  ``lane``/``tenant``
        likewise ride along for pool observability only (the dispatcher
        refreshes the lane if a coalesced join promoted the job).
        """
        solver_payload = (
            specs[0].as_dict() if len(specs) == 1 else [s.as_dict() for s in specs]
        )
        return {
            "kind": kind,
            "order": int(order),
            "solver": solver_payload,
            "max_time": max_time if max_time is not None else self.config.default_max_time,
            "deadline_at": deadline_at,
            "model_options": dict(model_options) if model_options else {},
            "progress_interval": self.config.progress_interval,
            "population": max(1, int(self.config.population)),
            "lane": lane if lane is not None else DEFAULT_LANE,
            "tenant": tenant,
        }

    def _attach_ticket(self, request: ServiceRequest, ticket: Ticket) -> None:
        request.ticket = ticket
        with self._lock:
            self._ticket_requests[id(ticket)] = request.request_id
        ticket.future.add_done_callback(
            lambda fut: self._on_ticket_done(request, fut)
        )

    #: Requests retained for ``GET /result/<id>``.  Each registration beyond
    #: this evicts the oldest settled ones (``_requests`` is insertion
    #: ordered), reading the map from the front and stopping at the excess, so
    #: the cost is the pending requests ahead of them, not the whole map.
    #: Pending requests are never evicted.
    _MAX_RETAINED_REQUESTS = 10_000

    def _evict_settled_locked(self) -> None:
        excess = len(self._requests) - self._MAX_RETAINED_REQUESTS
        if excess <= 0:
            return
        settled: List[str] = []
        for request_id, request in self._requests.items():
            if request.future.done():
                settled.append(request_id)
                if len(settled) == excess:
                    break
        for request_id in settled:
            del self._requests[request_id]

    @staticmethod
    def _instance_key(kind: str, order: int, payload: Dict[str, Any]) -> Tuple[Any, ...]:
        """Identity under which concurrent requests coalesce.

        ``(family, order, model_options, solver)`` plus the time budget: a
        ``tabu`` request must not piggyback on an in-flight ``adaptive``
        solve of the same instance — the client asked for that algorithm's
        walk — and a basic-model Costas solve is not the same instance as
        the optimised-model one.
        """
        model_options = payload.get("model_options") or {}
        return (
            kind,
            int(order),
            tuple(sorted((str(k), repr(v)) for k, v in model_options.items())),
            payload.get("max_time"),
            canonical_portfolio(payload.get("solver")),
        )

    def _kind_counter_locked(self, kind: str, counter: str) -> None:
        """Bump one per-family observability counter (caller holds the lock)."""
        bucket = self._kinds.setdefault(
            kind,
            {"requests": 0, "store": 0, "construction": 0, "search": 0, "unsolved": 0},
        )
        bucket[counter] += 1

    def _resolve(
        self,
        request: ServiceRequest,
        solution: Optional[np.ndarray],
        *,
        source: str,
        solved: bool,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        with self._lock:
            if source == "store":
                self._immediate["store"] += 1
            self._kind_counter_locked(request.kind, source if solved else "unsolved")
        elapsed = time.perf_counter() - request.submitted_at
        self._latency["overall"].record(elapsed)
        lane_hist = self._latency.get(request.lane)
        if lane_hist is not None and request.lane != "overall":
            lane_hist.record(elapsed)
        response = ServiceResponse(
            order=request.order,
            kind=request.kind,
            solution=solution,
            source=source,
            solved=solved,
            elapsed=elapsed,
            request_id=request.request_id,
            detail=detail or {},
        )
        if not request.future.done():
            request.future.set_result(response)

    def _on_ticket_done(self, request: ServiceRequest, fut: Future) -> None:
        """Scheduler ticket resolved (from the pool collector thread)."""
        if request.ticket is not None:
            with self._lock:
                self._ticket_requests.pop(id(request.ticket), None)
        if request.future.done():
            return
        if fut.cancelled():
            request.future.cancel()
            return
        exc = fut.exception()
        if exc is not None:
            request.future.set_exception(exc)
            return
        outcome: Dict[str, Any] = fut.result()
        self._resolve(
            request,
            outcome.get("solution"),
            source="search",
            solved=outcome.get("solved", False),
            detail=outcome.get("detail", {}),
        )

    # ----------------------------------------------------------------- dispatch
    def _dispatch_loop(self) -> None:
        """Move jobs from the scheduler onto the worker pool, slot-gated.

        Lane-aware slot reservation: with QoS lanes enabled, once
        non-interactive jobs hold all but one worker slot, the remaining
        slot only accepts interactive work — a flooded batch/background
        queue can saturate at most ``total_slots - 1`` workers, so an
        interactive fresh solve always finds capacity within one job's
        service time.
        """
        while True:
            if not self._slots.acquire(timeout=0.2):
                if self.scheduler.closed:
                    return
                continue
            only_lanes: Optional[Tuple[str, ...]] = None
            if self._reserved_lanes is not None and self._total_slots > 1:
                with self._lock:
                    if self._nonint_permits >= self._total_slots - 1:
                        only_lanes = self._reserved_lanes
            job = self.scheduler.next_job(timeout=0.2, only_lanes=only_lanes)
            if job is None:
                self._slots.release()
                if self.scheduler.closed:
                    return
                continue
            self._searches += 1
            # Late coalescers may have loosened the job's deadline since
            # admission (or promoted its lane); the workers read the payload,
            # so refresh it now that the job is leaving the scheduler.
            job.payload["deadline_at"] = job.deadline_at
            job.payload["lane"] = job.lane
            # A heterogeneous portfolio needs one walk per member to actually
            # race; a larger walks_per_job fans each member out over seeds too.
            solver = job.payload.get("solver")
            members = len(solver) if isinstance(solver, (list, tuple)) else 1
            walks = max(self.config.walks_per_job, members)
            # The permit already held covers walks_per_job walks; a wider
            # portfolio job pays for the extra workers it occupies (capped at
            # the whole pool so an oversized portfolio throttles rather than
            # deadlocks), keeping the slot-gating backpressure honest.
            walks_per_permit = max(1, self.config.walks_per_job)
            permits = min(-(-walks // walks_per_permit), self._total_slots)
            # Waiting here holds up later (possibly narrower) jobs — the
            # dispatch order is deliberately FIFO-by-priority, a wide
            # portfolio is not allowed to be overtaken into starvation — but
            # a job whose every ticket was cancelled must not keep hoarding
            # permits nobody is waiting on.
            extra_held = 0
            abort: Optional[BaseException] = None
            while extra_held < permits - 1:
                if self.scheduler.closed:
                    abort = SolverError("service is closed")
                    break
                if not job.tickets:
                    abort = CancelledError()
                    break
                if self._slots.acquire(timeout=0.2):
                    extra_held += 1
            if abort is not None:
                for _ in range(extra_held + 1):
                    self._slots.release()
                self.scheduler.fail(job, abort)
                if self.scheduler.closed:
                    return
                continue
            try:
                handle = self.pool.submit(
                    job.payload,
                    walks=walks,
                    on_done=lambda h, job=job: self._on_pool_done(job, h),
                    on_progress=lambda h, sample, job=job: self._on_job_progress(
                        job, sample
                    ),
                )
            except ReproError as exc:
                for _ in range(permits):
                    self._slots.release()
                self.scheduler.fail(job, exc)
                continue
            with self._lock:
                self._job_handles[id(job)] = handle
                self._job_permits[id(job)] = permits
                if self._reserved_lanes is not None and job.lane != INTERACTIVE:
                    self._nonint_permits += permits
            # A cancellation that landed between next_job() and the handle
            # registration above found nothing to abort; re-check now that
            # the handle is visible so the walk doesn't run (for up to its
            # whole time budget) with nobody waiting.
            if not job.tickets:
                self.pool.cancel(handle)

    def _on_pool_done(self, job: Job, handle: PoolJobHandle) -> None:
        """Pool collector callback: persist, record breaker outcome, fan out.

        Breaker accounting: a worker-level failure (repeated deaths, an
        exception in the walk) counts against the ``(kind, n)`` breaker; a
        clean outcome — solved, or honestly unsolved within its budget —
        counts as a success; cancellations and deadline expiries count as
        neither (they say nothing about the instance's health).
        """
        with self._lock:
            self._job_handles.pop(id(job), None)
            permits = self._job_permits.pop(id(job), 1)
            if self._reserved_lanes is not None and job.lane != INTERACTIVE:
                self._nonint_permits -= permits
        for _ in range(permits):
            self._slots.release()
        breaker_key = (job.payload["kind"], int(job.payload["order"]))
        best = handle.best
        if handle.cancelled and (best is None or not best.solved):
            self.scheduler.fail(job, CancelledError())
            return
        deadline_at = job.deadline_at
        deadline_expired = deadline_at is not None and time.monotonic() >= deadline_at
        if best is None:
            if deadline_expired:
                self.scheduler.fail(
                    job,
                    DeadlineExceededError(
                        f"deadline expired before {breaker_key[0]} "
                        f"n={breaker_key[1]} finished"
                    ),
                )
                return
            self.breaker.record_failure(breaker_key)
            self.scheduler.fail(
                job,
                SolverError(handle.failure or "search produced no result"),
            )
            return
        if not best.solved and deadline_expired:
            self.scheduler.fail(
                job,
                DeadlineExceededError(
                    f"deadline expired while solving {breaker_key[0]} "
                    f"n={breaker_key[1]}"
                ),
            )
            return
        if handle.failure is not None and not best.solved:
            # Some walks died even though others reported: a partial failure
            # still feeds the breaker.
            self.breaker.record_failure(breaker_key)
        else:
            self.breaker.record_success(breaker_key)
        solution = best.configuration if best.solved else None
        if best.solved:
            with self._lock:
                self._solver_solves[best.solver] = (
                    self._solver_solves.get(best.solver, 0) + 1
                )
        if best.solved and self.config.use_store:
            try:
                self.store.insert(job.payload["kind"], solution, source="search")
            except StoreUnavailableError:
                # The client still gets its solution; the store's sickness is
                # visible through health() and degraded-mode admission.
                pass
            except ReproError:  # pragma: no cover - invalid result guard
                self.scheduler.fail(
                    job, SolverError("search returned an invalid solution")
                )
                return
        self.scheduler.complete(
            job,
            {
                "solution": solution,
                "solved": bool(best.solved),
                "detail": {
                    "iterations": int(best.iterations),
                    "wall_time": float(best.wall_time),
                    "stop_reason": best.stop_reason,
                    "solver": best.solver,
                    "walks": handle.walks,
                    "coalesced_width": job.width,
                    # Which engine ran the winning walk ("compiled",
                    # "numpy-fallback", absent for non-adaptive strategies)
                    # and how wide its in-process population was.
                    "engine": best.extra.get("engine"),
                    "population": int(best.extra.get("population", 1)),
                },
            },
        )

    # ------------------------------------------------------------ progress fan-out
    def subscribe(self, request_id: str) -> Optional[ProgressSubscription]:
        """Open a live event stream for *request_id*; ``None`` when unknown.

        The stream starts with a ``"status"`` snapshot, carries throttled
        ``"progress"`` samples while the search tier works (shared solves fan
        the same samples out to every coalesced subscriber), and ends with
        exactly one terminal event.  A subscription to an already-settled
        request gets its snapshot and terminal event immediately.
        """
        with self._lock:
            request = self._requests.get(request_id)
        if request is None:
            return None
        sub = ProgressSubscription(request_id)
        sub.push(
            {
                "event": "status",
                "request_id": request_id,
                "kind": request.kind,
                "order": request.order,
                "status": "done" if request.future.done() else "pending",
            }
        )
        with self._lock:
            if not request.future.done():
                # Registered under the same lock _publish_terminal pops with,
                # so a request settling concurrently cannot miss this stream.
                self._subscribers.setdefault(request_id, []).append(sub)
                return sub
        # Already settled: synthesize the terminal event this stream missed.
        sub.push(self._terminal_event(request_id, request.future))
        return sub

    def unsubscribe(self, sub: ProgressSubscription) -> None:
        """Detach *sub* (the consumer went away); idempotent."""
        sub.close()
        with self._lock:
            subs = self._subscribers.get(sub.request_id)
            if subs and sub in subs:
                subs.remove(sub)
                if not subs:
                    del self._subscribers[sub.request_id]

    @staticmethod
    def _terminal_event(request_id: str, fut: Future) -> Dict[str, Any]:
        if fut.cancelled():
            return {"event": "cancelled", "request_id": request_id, "status": "cancelled"}
        exc = fut.exception()
        if exc is not None:
            return {
                "event": "failed",
                "request_id": request_id,
                "status": "failed",
                "error": str(exc),
            }
        response: ServiceResponse = fut.result()
        return {"event": "done", "status": "done", **response.as_dict()}

    def _publish_terminal(self, request: ServiceRequest, fut: Future) -> None:
        """Future done-callback: push the terminal event, end the streams."""
        with self._lock:
            subs = self._subscribers.pop(request.request_id, None)
        if not subs:
            return
        event = self._terminal_event(request.request_id, fut)
        for sub in subs:
            sub.push(event)
            sub.close()

    def _on_job_progress(self, job: Job, sample: Dict[str, Any]) -> None:
        """Pool collector hook: fan one walk's progress sample out to every
        subscriber of every request coalesced onto *job*."""
        with self._lock:
            if not self._subscribers:
                return
            targets: list = []
            for ticket in list(job.tickets):
                request_id = self._ticket_requests.get(id(ticket))
                if request_id is None:
                    continue
                for sub in self._subscribers.get(request_id, ()):
                    targets.append((sub, request_id))
        for sub, request_id in targets:
            sub.push({"event": "progress", "request_id": request_id, **sample})

    def _abort_running_job(self, job: Job) -> None:
        """Scheduler callback: the last ticket of a running job was cancelled."""
        with self._lock:
            handle = self._job_handles.get(id(job))
        if handle is not None:
            self.pool.cancel(handle)

    # ------------------------------------------------------------------ queries
    def result(
        self, request_id: str, timeout: Optional[float] = None
    ) -> Optional[ServiceResponse]:
        """Resolve a request id; ``None`` when the id is unknown.

        Raises the underlying error for failed requests and
        :class:`concurrent.futures.TimeoutError` when *timeout* elapses.
        """
        with self._lock:
            request = self._requests.get(request_id)
        if request is None:
            return None
        return request.result(timeout)

    def request(self, request_id: str) -> Optional[ServiceRequest]:
        with self._lock:
            return self._requests.get(request_id)

    def cancel(self, request_id: str) -> bool:
        """Cancel a pending request; ``False`` if unknown or already settled."""
        with self._lock:
            request = self._requests.get(request_id)
        if request is None or request.future.done():
            return False
        if request.ticket is not None:
            return self.scheduler.cancel(request.ticket)
        return request.future.cancel()

    def health(self) -> Dict[str, Any]:
        """Readiness/liveness report: ``ok`` / ``degraded`` / ``failing``.

        ``failing`` means the service answers nothing (it is closed);
        ``degraded`` means the immediate tiers still answer but fresh solves
        are refused (quarantined store, dead pool) or capacity is reduced
        (dead-but-respawning workers, open breakers).  The per-component
        detail under ``"components"`` names the culprit.  The legacy
        top-level ``"status"`` and ``"pool"`` keys are preserved for older
        monitoring.
        """
        store_health = self.store.health()
        pool_stats = self.pool.stats()
        breaker = self.breaker.snapshot()
        scheduler_stats = self.scheduler.stats()
        alive = pool_stats["alive_workers"]
        degraded = None if self._closed else self.degraded_reason()
        if not pool_stats["started"]:
            pool_status = "ok"  # lazily started on first search-tier request
        elif alive == 0:
            # Dead-but-within-grace means the collector is respawning and
            # queued work will still be served; only a pool that stayed
            # dead past the grace window is genuinely failing.
            pool_status = "failing" if degraded == "no live workers" else "degraded"
        elif alive < pool_stats["n_workers"]:
            pool_status = "degraded"
        else:
            pool_status = "ok"
        breaker_status = "degraded" if breaker["open"] else "ok"
        components = {
            "store": store_health,
            # Informational: which Adaptive Search engine path workers run
            # ("c" = compiled walk kernels, "numpy" = pure-Python fallback)
            # and the per-slot vectorised population width.  NumPy mode is a
            # slower but fully functional path, hence never degraded.
            "engine": {
                "status": "ok",
                "kernel_mode": _ckernels.mode(),
                "population": max(1, int(self.config.population)),
            },
            "pool": {"status": pool_status, **pool_stats},
            "scheduler": {
                "status": "ok" if not self.scheduler.closed else "failing",
                **scheduler_stats,
            },
            "breaker": {"status": breaker_status, **breaker},
        }
        reason: Optional[str] = None
        if self._closed:
            status = "failing"
            reason = "service is closed"
        else:
            reason = degraded
            if reason is None and (
                pool_status == "degraded" or breaker_status == "degraded"
            ):
                reason = (
                    f"{pool_stats['n_workers'] - alive} worker(s) down"
                    if pool_status == "degraded"
                    else f"open breakers: {', '.join(breaker['open'])}"
                )
            status = "ok" if reason is None else "degraded"
        return {
            "status": status,
            "reason": reason,
            "pool": pool_stats,
            "components": components,
            "faults": {
                "enabled": self.fault_plan is not None and self.fault_plan.enabled,
                "rates": dict(self.fault_plan.rates) if self.fault_plan else {},
            },
        }

    def stats(self) -> Dict[str, Any]:
        """One JSON-friendly snapshot across store, scheduler and pool."""
        with self._lock:
            open_requests = sum(
                1 for r in self._requests.values() if not r.future.done()
            )
            immediate = dict(self._immediate)
            searches = self._searches
            batches = self._batches
            progress_subscribers = sum(len(s) for s in self._subscribers.values())
            solver_requests = dict(self._solver_requests)
            solver_solves = dict(self._solver_solves)
            kinds = {kind: dict(counters) for kind, counters in self._kinds.items()}
        return {
            "uptime": time.monotonic() - self._started_at,
            "open_requests": open_requests,
            "immediate": immediate,
            "searches_dispatched": searches,
            "batches": batches,
            "progress_subscribers": progress_subscribers,
            # Per-family requests and solved responses by answering tier.
            "kinds": kinds,
            "solvers": {
                # Requests by the portfolio label clients asked for, search
                # solves by the strategy that actually won the race.
                "requests": solver_requests,
                "solved": solver_solves,
            },
            # Per-request service-time histograms (overall plus per lane
            # when QoS lanes are enabled): count, mean/max, p50/p95/p99 ms.
            "latency": {
                name: hist.snapshot() for name, hist in self._latency.items()
            },
            "qos": {
                "enabled": self.lanes is not None,
                "lanes": list(self.scheduler.lane_order),
                "quotas": self.quotas.snapshot() if self.quotas is not None else {},
            },
            "store": self.store.snapshot(),
            "scheduler": self.scheduler.stats(),
            "pool": self.pool.stats(),
            "breaker": self.breaker.snapshot(),
            # Which Adaptive Search engine path the workers run ("c" =
            # compiled walk kernels, "numpy" = fallback) and the vectorised
            # per-slot population width.
            "engine": {
                "kernel_mode": _ckernels.mode(),
                "population": max(1, int(self.config.population)),
            },
            "config": {
                "n_workers": self.pool.n_workers,
                "walks_per_job": self.config.walks_per_job,
                "population": max(1, int(self.config.population)),
                "max_queue_depth": self.config.max_queue_depth,
                "default_solver": self._default_solver_label,
                "use_store": self.config.use_store,
                "use_constructions": self.config.use_constructions,
            },
        }
