"""Priority request queue with lanes, coalescing, quotas, backpressure, shedding.

This is the admission-control layer of the service, organised as an explicit
pipeline — **classify** happens upstream (:func:`repro.service.qos.classify_lane`);
this module owns **admit**, **coalesce**, **schedule** and **shed**:

* **Lanes** — jobs live in per-lane priority heaps (:class:`~repro.service.qos.LaneSpec`,
  most-valuable-first).  The consumer pops across lanes with smooth weighted
  round-robin, so a flooded batch/background lane can never starve the
  interactive lane.  When constructed without ``lanes`` the scheduler runs a
  single implicit lane whose depth is ``max_depth`` — the exact pre-lane
  behaviour, through the same code path.
* **Coalescing** — concurrent requests for the same instance key attach to
  one in-flight job (queued *or* already running) and all receive its result.
  N identical requests trigger exactly one solve.  A join from a more
  valuable lane *promotes* the queued job into that lane, mirroring the
  priority bump below.
* **Priority ordering** — within a lane, higher priority pops first; a
  coalesced join with a higher priority than the queued job *bumps* the job
  (lazily, via stale heap entries), so a premium request never waits behind
  the batch queue.
* **Per-tenant quotas** — an optional :class:`~repro.service.qos.TenantQuotas`
  charges one token per *new* job (joins are free); an empty bucket raises
  :class:`SchedulerQuotaError`, which the HTTP layer maps to *429 Too Many
  Requests* with ``Retry-After``.
* **Bounded depth with explicit backpressure** — each lane bounds its own
  distinct-queued-job count, and ``max_depth`` bounds the global total.  A
  new job in a full lane raises :class:`SchedulerSaturatedError` (*503*).
  When only the *global* bound is hit, the scheduler **sheds**: the newest
  queued job in the cheapest-to-refuse lane (scanning lane order backwards,
  strictly cheaper than the arriving lane) is failed with
  :class:`RequestSheddedError` and the newcomer admitted — saturation
  refuses the cheapest work, not whoever arrives next.
* **Cancellation** — every request holds its own ticket; cancelling the last
  ticket of a queued job removes the job, and cancelling the last ticket of a
  running job fires the ``on_cancel_running`` callback so the worker pool can
  abort the walk.

Threading model: all state is guarded by one lock; consumers block on a
condition in :meth:`next_job`.  Futures are
:class:`concurrent.futures.Future`, so callers can wait with timeouts or add
callbacks without this module caring which.  Ticket futures are always
settled *outside* the lock.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import ReproError
from repro.service.faults import DeadlineExceededError
from repro.service.qos import DEFAULT_LANE, DEFAULT_TENANT, LaneSpec, TenantQuotas

__all__ = [
    "Job",
    "RequestScheduler",
    "RequestSheddedError",
    "SchedulerQuotaError",
    "SchedulerSaturatedError",
    "Ticket",
]


class SchedulerSaturatedError(ReproError, RuntimeError):
    """The lane (or queue) is at depth; the caller must retry later (503)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class SchedulerQuotaError(ReproError, RuntimeError):
    """The tenant's token bucket is empty; retry after ``retry_after`` (429)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class RequestSheddedError(ReproError, RuntimeError):
    """The job was shed to admit more valuable work; retry later (503)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


#: Job lifecycle states.
QUEUED, RUNNING, DONE, CANCELLED = "queued", "running", "done", "cancelled"

#: Per-lane and per-tenant monotonic counter names exposed by stats().
_LANE_COUNTERS = ("admitted", "coalesced", "rejected", "shed", "expired", "completed")
_TENANT_COUNTERS = ("admitted", "coalesced", "rejected", "quota_rejected", "shed")


@dataclass
class Job:
    """One unit of solving work, shared by every coalesced ticket."""

    key: Tuple[Any, ...]
    payload: Dict[str, Any]
    priority: int
    seqno: int
    state: str = QUEUED
    tickets: List["Ticket"] = field(default_factory=list)
    #: Absolute ``time.monotonic()`` deadline shared by the job's tickets,
    #: or ``None`` when any attached request is unbounded.  A job
    #: still queued past its deadline is failed at pop time instead of being
    #: handed to a worker it can no longer satisfy.
    deadline_at: Optional[float] = None
    #: QoS lane the job is queued in (may be promoted by a coalesced join
    #: from a more valuable lane) and the tenant that created the job.
    lane: str = DEFAULT_LANE
    tenant: str = DEFAULT_TENANT

    @property
    def width(self) -> int:
        """Number of requests currently attached (the coalescing width)."""
        return len(self.tickets)


@dataclass
class Ticket:
    """One request's handle on a (possibly shared) job."""

    job: Job
    future: Future = field(default_factory=Future)
    cancelled: bool = False

    @property
    def key(self) -> Tuple[Any, ...]:
        return self.job.key

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block for the job's outcome (raises its exception on failure)."""
        return self.future.result(timeout)

    def done(self) -> bool:
        return self.future.done()


class RequestScheduler:
    """Coalescing priority queue between the facade and the worker pool.

    Parameters
    ----------
    max_depth:
        Maximum number of *distinct queued* jobs across all lanes (running
        jobs and coalesced joins do not count).  ``None`` disables the
        global bound.  Without ``lanes`` this is also the single implicit
        lane's depth — the original single-queue behaviour.
    lanes:
        Optional :class:`~repro.service.qos.LaneSpec` sequence, most
        valuable first.  Enables per-lane depth bounds, weighted-fair
        popping and shedding.
    quotas:
        Optional :class:`~repro.service.qos.TenantQuotas`; new jobs charge
        one token from the submitting tenant's bucket.
    on_cancel_running:
        Callback invoked (outside the lock) with a :class:`Job` whose last
        ticket was cancelled while the job was running; the pool uses it to
        abort the walk.
    """

    def __init__(
        self,
        *,
        max_depth: Optional[int] = None,
        lanes: Optional[Sequence[LaneSpec]] = None,
        quotas: Optional[TenantQuotas] = None,
        on_cancel_running: Optional[Callable[[Job], None]] = None,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {max_depth}")
        self.max_depth = max_depth
        self.on_cancel_running = on_cancel_running
        self.multi_lane = lanes is not None
        if lanes is None:
            lanes = (LaneSpec(DEFAULT_LANE, depth=max_depth, weight=1),)
        self._lane_order: Tuple[str, ...] = tuple(spec.name for spec in lanes)
        self._lane_specs: Dict[str, LaneSpec] = {spec.name: spec for spec in lanes}
        if len(self._lane_specs) != len(self._lane_order):
            raise ValueError("duplicate lane names")
        self._lane_rank = {name: i for i, name in enumerate(self._lane_order)}
        # Unclassified submits land in the least-valuable lane (the implicit
        # lane in single-lane mode) so direct scheduler users are never
        # accidentally prioritised.
        self._fallback_lane = self._lane_order[-1]
        self._quotas = quotas
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        # One (-priority, seqno, job) heap per lane; entries go stale on
        # priority bump, cancellation and lane promotion, and are skipped
        # lazily at pop time.
        self._heaps: Dict[str, List[Tuple[int, int, Job]]] = {
            name: [] for name in self._lane_order
        }
        self._inflight: Dict[Tuple[Any, ...], Job] = {}  # QUEUED or RUNNING
        self._queued_count = 0
        self._lane_queued: Dict[str, int] = {name: 0 for name in self._lane_order}
        # Smooth weighted round-robin credit per lane.
        self._wrr_credit: Dict[str, int] = {name: 0 for name in self._lane_order}
        self._seq = itertools.count()
        self._closed = False
        # Monotonic counters for stats().
        self._submitted = 0
        self._coalesced = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._cancelled_jobs = 0
        self._expired = 0
        self._shed = 0
        self._quota_rejected = 0
        self._lane_stats: Dict[str, Dict[str, int]] = {
            name: dict.fromkeys(_LANE_COUNTERS, 0) for name in self._lane_order
        }
        self._tenant_stats: Dict[str, Dict[str, int]] = {}

    # ---------------------------------------------------------------- producer
    def submit(
        self,
        key: Tuple[Any, ...],
        payload: Dict[str, Any],
        *,
        priority: int = 0,
        deadline_at: Optional[float] = None,
        lane: Optional[str] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> Ticket:
        """Admit a request; coalesce onto an in-flight job when one exists.

        ``deadline_at`` is an absolute ``time.monotonic()`` deadline; a job
        whose every ticket carries one is abandoned (tickets failed with
        :class:`~repro.service.faults.DeadlineExceededError`) if it is still
        queued when the deadline passes.  Raises
        :class:`SchedulerSaturatedError` when a *new* job would exceed its
        lane depth (or the global bound with nothing cheaper to shed),
        :class:`SchedulerQuotaError` when the tenant is out of quota, and
        ``RuntimeError`` after :meth:`close`.
        """
        shed: List[Tuple[Job, List[Ticket]]] = []
        try:
            with self._lock:
                if self._closed:
                    raise RuntimeError("scheduler is closed")
                return self._admit_locked(
                    key, payload, priority, deadline_at, lane, tenant, shed
                )
        finally:
            self._settle_shed(shed)

    def submit_batch(
        self,
        entries: Sequence[Tuple],
    ) -> List[Ticket | ReproError]:
        """Admit many requests under **one** lock acquisition (one scheduler
        pass for a whole ``POST /solve-batch`` body).

        ``entries`` is a list of ``(key, payload, priority)`` triples;
        optional further elements carry the absolute deadline, lane and
        tenant.  The result list is aligned with the input: each slot holds
        either the admitted :class:`Ticket` or the
        :class:`SchedulerSaturatedError` / :class:`SchedulerQuotaError` that
        rejected that item.  Saturation is judged item by item in input
        order, so a batch that straddles a depth bound admits a prefix of
        its distinct keys and rejects the rest — identical 503 semantics to
        the same requests arriving back to back, and items coalescing onto
        admitted (or already in-flight) jobs are always accepted.  Raises
        ``RuntimeError`` after :meth:`close` (nothing is admitted then).
        """
        results: List[Ticket | ReproError] = []
        shed: List[Tuple[Job, List[Ticket]]] = []
        try:
            with self._lock:
                if self._closed:
                    raise RuntimeError("scheduler is closed")
                for entry in entries:
                    key, payload, priority = entry[0], entry[1], entry[2]
                    deadline_at = entry[3] if len(entry) > 3 else None
                    lane = entry[4] if len(entry) > 4 else None
                    tenant = entry[5] if len(entry) > 5 else DEFAULT_TENANT
                    try:
                        results.append(
                            self._admit_locked(
                                key, payload, priority, deadline_at, lane, tenant, shed
                            )
                        )
                    except (SchedulerSaturatedError, SchedulerQuotaError) as exc:
                        results.append(exc)
        finally:
            self._settle_shed(shed)
        return results

    def _tenant_counters(self, tenant: str) -> Dict[str, int]:
        counters = self._tenant_stats.get(tenant)
        if counters is None:
            counters = self._tenant_stats[tenant] = dict.fromkeys(_TENANT_COUNTERS, 0)
        return counters

    def _admit_locked(
        self,
        key: Tuple[Any, ...],
        payload: Dict[str, Any],
        priority: int,
        deadline_at: Optional[float],
        lane: Optional[str],
        tenant: str,
        shed_out: List[Tuple[Job, List[Ticket]]],
    ) -> Ticket:
        """One admission: coalesce, reject on quota/saturation, shed, or
        enqueue.

        The single shared implementation behind :meth:`submit` and
        :meth:`submit_batch`; the caller holds the lock and settles any
        shed victims collected in *shed_out* after releasing it.
        """
        if lane is None:
            lane = self._fallback_lane
        spec = self._lane_specs.get(lane)
        if spec is None:
            raise ValueError(
                f"unknown lane {lane!r}; configured lanes: "
                f"{', '.join(self._lane_order)}"
            )
        self._submitted += 1
        tenant_stats = self._tenant_counters(tenant)
        job = self._inflight.get(key)
        if job is not None:
            ticket = Ticket(job)
            job.tickets.append(ticket)
            self._coalesced += 1
            self._lane_stats[job.lane]["coalesced"] += 1
            tenant_stats["coalesced"] += 1
            # The job's deadline is the *loosest* of its tickets': one
            # unbounded join makes the job unbounded, otherwise the latest
            # deadline wins — an earlier joiner's patience never cuts short
            # a later joiner's budget.
            if deadline_at is None:
                job.deadline_at = None
            elif job.deadline_at is not None:
                job.deadline_at = max(job.deadline_at, deadline_at)
            if job.state == QUEUED:
                repush = False
                if priority > job.priority:
                    # Bump: re-push with the stronger priority; the old heap
                    # entry becomes stale and is skipped on pop.
                    job.priority = priority
                    repush = True
                if self._lane_rank[lane] < self._lane_rank[job.lane]:
                    # Lane promotion: a more valuable joiner lifts the whole
                    # job into its lane (the analogue of the priority bump).
                    self._lane_queued[job.lane] -= 1
                    self._lane_queued[lane] += 1
                    job.lane = lane
                    repush = True
                if repush:
                    heapq.heappush(
                        self._heaps[job.lane],
                        (-job.priority, next(self._seq), job),
                    )
                    self._available.notify()
            return ticket
        # New job: charge the tenant's quota first — a rate-limited tenant
        # should not influence shedding decisions.
        if self._quotas is not None:
            retry_after = self._quotas.take(tenant)
            if retry_after is not None:
                self._rejected += 1
                self._quota_rejected += 1
                self._lane_stats[lane]["rejected"] += 1
                tenant_stats["rejected"] += 1
                tenant_stats["quota_rejected"] += 1
                raise SchedulerQuotaError(
                    f"tenant {tenant!r} is out of quota; retry later",
                    retry_after=round(retry_after, 3),
                )
        if spec.depth is not None and self._lane_queued[lane] >= spec.depth:
            self._rejected += 1
            self._lane_stats[lane]["rejected"] += 1
            tenant_stats["rejected"] += 1
            raise SchedulerSaturatedError(
                f"request queue is full ({self._lane_queued[lane]} jobs queued, "
                f"max_depth={spec.depth}"
                + (f", lane={lane}" if self.multi_lane else "")
                + "); retry later"
            )
        if self.max_depth is not None and self._queued_count >= self.max_depth:
            # Global saturation with lane headroom: shed the newest queued
            # job from the cheapest-to-refuse lane strictly cheaper than the
            # arriving one; with nothing cheaper queued, refuse the newcomer.
            victim = self._shed_victim_locked(lane)
            if victim is None:
                self._rejected += 1
                self._lane_stats[lane]["rejected"] += 1
                tenant_stats["rejected"] += 1
                raise SchedulerSaturatedError(
                    f"request queue is full ({self._queued_count} jobs queued, "
                    f"max_depth={self.max_depth}); retry later"
                )
            self._shed += 1
            self._lane_stats[victim.lane]["shed"] += 1
            self._tenant_counters(victim.tenant)["shed"] += 1
            self._queued_count -= 1
            self._lane_queued[victim.lane] -= 1
            shed_out.append((victim, self._settle_locked(victim, DONE)))
        job = Job(
            key=key,
            payload=dict(payload),
            priority=priority,
            seqno=next(self._seq),
            deadline_at=deadline_at,
            lane=lane,
            tenant=tenant,
        )
        ticket = Ticket(job)
        job.tickets.append(ticket)
        self._inflight[key] = job
        self._queued_count += 1
        self._lane_queued[lane] += 1
        self._lane_stats[lane]["admitted"] += 1
        tenant_stats["admitted"] += 1
        heapq.heappush(self._heaps[lane], (-job.priority, job.seqno, job))
        self._available.notify()
        return ticket

    def _shed_victim_locked(self, arriving_lane: str) -> Optional[Job]:
        """Newest queued job in the cheapest lane strictly cheaper than
        *arriving_lane*, or ``None``."""
        arriving_rank = self._lane_rank[arriving_lane]
        for lane in reversed(self._lane_order):
            if self._lane_rank[lane] <= arriving_rank:
                break
            if self._lane_queued[lane] == 0:
                continue
            victim: Optional[Job] = None
            for job in self._inflight.values():
                if job.state == QUEUED and job.lane == lane:
                    if victim is None or job.seqno > victim.seqno:
                        victim = job
            if victim is not None:
                return victim
        return None

    @staticmethod
    def _settle_shed(shed: List[Tuple[Job, List[Ticket]]]) -> None:
        for victim, tickets in shed:
            exc = RequestSheddedError(
                f"request for {victim.key!r} was shed to admit higher-value "
                f"work (lane={victim.lane}); retry later"
            )
            for ticket in tickets:
                if not ticket.future.done():
                    ticket.future.set_exception(exc)

    # ---------------------------------------------------------------- consumer
    def next_job(
        self,
        timeout: Optional[float] = None,
        only_lanes: Optional[Collection[str]] = None,
    ) -> Optional[Job]:
        """Pop the next queued job, blocking up to *timeout*.

        Lane selection is smooth weighted round-robin over non-empty lanes
        (restricted to *only_lanes* when given — the dispatcher's lane-aware
        slot reservation); within a lane, highest priority first, FIFO
        within a priority.  Returns ``None`` on timeout or once the
        scheduler is closed and drained.  The returned job is atomically
        marked RUNNING.  Jobs whose deadline already passed while queued are
        failed with :class:`~repro.service.faults.DeadlineExceededError`
        instead of being returned — their ticket futures are resolved
        *outside* the lock so user callbacks can never run under it.
        """
        while True:
            expired: List[Tuple[Job, List[Ticket]]] = []
            job: Optional[Job] = None
            give_up = False
            with self._lock:
                while True:
                    candidate = self._pop_locked(only_lanes)
                    if candidate is not None:
                        self._queued_count -= 1
                        self._lane_queued[candidate.lane] -= 1
                        if (
                            candidate.deadline_at is not None
                            and time.monotonic() >= candidate.deadline_at
                        ):
                            self._expired += 1
                            self._lane_stats[candidate.lane]["expired"] += 1
                            expired.append(
                                (candidate, self._settle_locked(candidate, DONE))
                            )
                            continue
                        candidate.state = RUNNING
                        job = candidate
                        break
                    if expired:
                        # Settle the expired tickets before deciding whether
                        # to wait again.
                        break
                    if self._closed:
                        give_up = True
                        break
                    if not self._available.wait(timeout=timeout):
                        give_up = True
                        break
            for stale, tickets in expired:
                exc = DeadlineExceededError(
                    f"deadline expired before job {stale.key!r} could start"
                )
                for ticket in tickets:
                    if not ticket.future.done():
                        ticket.future.set_exception(exc)
            if job is not None or give_up:
                return job

    def _pop_lane_locked(self, lane: str) -> Optional[Job]:
        heap = self._heaps[lane]
        while heap:
            neg_priority, _, job = heapq.heappop(heap)
            if (
                job.state != QUEUED
                or -neg_priority != job.priority
                or job.lane != lane
            ):
                continue  # cancelled/shed job, stale bump or promotion entry
            return job
        return None

    def _pop_locked(
        self, only_lanes: Optional[Collection[str]] = None
    ) -> Optional[Job]:
        """Smooth weighted round-robin across lanes with queued work."""
        while True:
            candidates = [
                name
                for name in self._lane_order
                if self._heaps[name] and (only_lanes is None or name in only_lanes)
            ]
            if not candidates:
                return None
            if len(candidates) == 1:
                chosen = candidates[0]
            else:
                # Nginx-style smooth WRR: every contender earns its weight,
                # the richest lane pops and pays back the total.  Ties break
                # toward the more valuable lane (candidates are in lane
                # order and ``max`` keeps the first maximum).
                total = 0
                for name in candidates:
                    weight = self._lane_specs[name].weight
                    total += weight
                    self._wrr_credit[name] += weight
                chosen = max(candidates, key=lambda n: self._wrr_credit[n])
                self._wrr_credit[chosen] -= total
            job = self._pop_lane_locked(chosen)
            if job is not None:
                return job
            # The chosen heap held only stale entries (now drained); retry.

    # ------------------------------------------------------------- completion
    def complete(self, job: Job, result: Any) -> None:
        """Resolve every ticket of *job* with *result*."""
        with self._lock:
            tickets = self._settle_locked(job, DONE)
            self._completed += 1
            self._lane_stats[job.lane]["completed"] += 1
        for ticket in tickets:
            if not ticket.future.done():
                ticket.future.set_result(result)

    def fail(self, job: Job, exc: BaseException) -> None:
        """Fail every ticket of *job* with *exc*."""
        with self._lock:
            tickets = self._settle_locked(job, DONE)
            self._failed += 1
        for ticket in tickets:
            if not ticket.future.done():
                ticket.future.set_exception(exc)

    def _settle_locked(self, job: Job, state: str) -> List[Ticket]:
        job.state = state
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        return list(job.tickets)

    # ------------------------------------------------------------ cancellation
    def cancel(self, ticket: Ticket) -> bool:
        """Detach *ticket*; cancel its job when it was the last one attached.

        Returns ``True`` when the ticket was still pending (its future is then
        cancelled); ``False`` when the job had already settled.
        """
        notify: Optional[Job] = None
        with self._lock:
            job = ticket.job
            if ticket.cancelled or job.state in (DONE, CANCELLED):
                return False
            ticket.cancelled = True
            job.tickets.remove(ticket)
            if not job.tickets:
                if job.state == QUEUED:
                    job.state = CANCELLED  # lazily skipped by _pop_lane_locked
                    self._queued_count -= 1
                    self._lane_queued[job.lane] -= 1
                    self._cancelled_jobs += 1
                    if self._inflight.get(job.key) is job:
                        del self._inflight[job.key]
                elif job.state == RUNNING:
                    # The pool decides whether to abort.  Remove the job from
                    # the coalescing map immediately: a fresh request arriving
                    # after this point must trigger a *new* solve, not attach
                    # to a walk that is about to be aborted and inherit a
                    # CancelledError it never asked for.
                    if self._inflight.get(job.key) is job:
                        del self._inflight[job.key]
                    notify = job
        ticket.future.cancel()
        if notify is not None and self.on_cancel_running is not None:
            self.on_cancel_running(notify)
        return True

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Refuse new submissions and wake blocked consumers."""
        with self._lock:
            self._closed = True
            self._available.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def lane_order(self) -> Tuple[str, ...]:
        """Configured lane names, most valuable first."""
        return self._lane_order

    def pending_jobs(self, lane: Optional[str] = None) -> int:
        """Distinct jobs queued (not yet handed to the pool)."""
        with self._lock:
            if lane is None:
                return self._queued_count
            return self._lane_queued[lane]

    def inflight_jobs(self) -> int:
        """Distinct jobs queued or running."""
        with self._lock:
            return len(self._inflight)

    def stats(self) -> Dict[str, Any]:
        """Monotonic counters plus current depth, per lane and per tenant."""
        with self._lock:
            lanes = {
                name: {
                    "queued": self._lane_queued[name],
                    "depth": (
                        self._lane_specs[name].depth
                        if self._lane_specs[name].depth is not None
                        else -1
                    ),
                    "weight": self._lane_specs[name].weight,
                    **self._lane_stats[name],
                }
                for name in self._lane_order
            }
            tenants = {
                name: dict(counters)
                for name, counters in self._tenant_stats.items()
            }
            return {
                "submitted": self._submitted,
                "coalesced": self._coalesced,
                "rejected": self._rejected,
                "completed": self._completed,
                "failed": self._failed,
                "cancelled_jobs": self._cancelled_jobs,
                "expired": self._expired,
                "shed": self._shed,
                "quota_rejected": self._quota_rejected,
                "queued": self._queued_count,
                "inflight": len(self._inflight),
                "max_depth": self.max_depth if self.max_depth is not None else -1,
                "lanes": lanes,
                "tenants": tenants,
            }
