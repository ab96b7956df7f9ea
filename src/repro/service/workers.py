"""Long-lived process worker pool for the solver service.

Like the warm walkers of :class:`~repro.parallel.multiwalk.MultiWalkSolver`,
the pool pays process start-up, module import and (on first use) C-kernel
compilation once, not per request: ``n_workers`` processes are started
**once**, and each runs one walk at a time (the compiled Adaptive Search walk
unless the job names another solver).  Unlike the walkers, the pool serves
many concurrent jobs, each of any family, order and walk count, and it
cancels, respawns and requeues per slot.

Each slot is one worker process with one duplex pipe and a cancel
``multiprocessing.Event`` of its own.  Walks that wait for a worker sit in
the pool's FIFO; the collector thread sends each one to an idle slot, so the
pool always knows which slot runs which walk and which workers are free
(:meth:`WorkerPool.wait_for_capacity`), and cancelling a job simply sets
its slots' events, which the engine observes through its ``stop_check``
hook.  The collector is the only user of the pipes: it blocks in
:func:`multiprocessing.connection.wait` on them, reads progress samples
and reports, and sees a worker's death as EOF on its pipe (a pipe send is
synchronous, so nothing the worker sent is still in flight).  It then
requeues the walk (bounded retries) and respawns the slot after the retry
policy's backoff for the slot's consecutive deaths, so one OOM-killed child
degrades a single request instead of wedging the service, and a
crash-looping slot does not fork in a hot loop.

A worker killed inside an Event call can leave the Event's internal lock
held, so a respawned worker never inherits its predecessor's Event, and the
pool sets Events only after releasing its own lock.  Multi-walk jobs fan the
same instance out to several slots with independent seeds; the first solved
walk cancels its siblings, and its unsent siblings never start, mirroring
the paper's first-past-the-post multi-walk.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_ready
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.result import SolveResult
from repro.exceptions import ParallelExecutionError
from repro.problems import make_problem
from repro.service.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.solvers import run_spec

__all__ = ["WorkerPool", "PoolJobHandle"]

#: How many times a walk is requeued after its worker died before giving up.
_MAX_WALK_RETRIES = 2

#: Pipe ends every pool of this process holds, closed in each forked child:
#: a worker must hold no copy of a parent-side end, its own included, or it
#: would never see EOF once the pool's process is gone.
_PARENT_ENDS: Set[Any] = set()


def _close_parent_ends() -> None:
    for conn in list(_PARENT_ENDS):
        conn.close()
    _PARENT_ENDS.clear()


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_close_parent_ends)


class _ProgressReporter:
    """Throttled :class:`~repro.core.callbacks.IterationCallback` that
    forwards search progress over the worker's pipe.

    The NumPy engine's harness (:class:`repro.core.strategy.StrategyRun`)
    dispatches ``on_iteration`` on every loop iteration, the compiled walk
    once per ``check_period``.  Either way this reporter checks the clock
    only once 64 more iterations have run (it reads the *iteration* argument,
    not its own call count) and sends at most one ``("progress", sample)``
    message per *interval* seconds, so the hot path pays an integer
    comparison per call and the pipe sees a few messages per second per
    walk at worst.  The samples travel ahead of the walk's report.
    """

    __slots__ = ("_conn", "_solver", "_interval", "_next_at", "_check_at")

    def __init__(self, conn: Any, solver: Optional[str], interval: float) -> None:
        self._conn = conn
        self._solver = solver
        self._interval = interval
        self._next_at = time.perf_counter() + interval
        self._check_at = 64

    def on_iteration(self, iteration: int, cost: int) -> None:
        if iteration < self._check_at:
            return
        self._check_at = iteration + 64
        now = time.perf_counter()
        if now < self._next_at:
            return
        self._next_at = now + self._interval
        self._conn.send(
            (
                "progress",
                {"iteration": int(iteration), "cost": int(cost), "solver": self._solver},
            )
        )

    def on_event(self, event: str, iteration: int, cost: int) -> None:
        # Progress streams sample the cost trajectory; discrete engine events
        # stay local to the walk.
        return


def _run_walk(conn, cancel_event, injector: FaultInjector, spec: Dict[str, Any]) -> tuple:
    """Run one walk and return its report: ``("done", result dict)`` or
    ``("error", message)``.

    ``spec`` is a plain dict (picklable under ``spawn``): ``{"kind",
    "order", "solver": spec-dict | None, "seed", "max_time", "deadline_at",
    "model_options", "population", "progress_interval"}``.  ``kind`` selects
    any family of the :mod:`repro.problems` registry; ``solver`` selects any
    strategy of the :mod:`repro.solvers` registry (``None`` = the registry
    default, the compiled walk), and its parameters travel inside it.
    ``deadline_at`` is an absolute ``time.monotonic()`` deadline that caps
    the walk's time budget (an already-expired deadline is reported as an
    error without solving).  ``population`` (default 1) runs that many
    vectorised walks per slot in one compiled-kernel batch, reporting the
    best walk's result; solvers without population support degrade to a
    single walk.
    """
    if injector.fires("worker.hang"):
        # A true hang ignores cancel events; only the pool's hung-walk
        # watchdog (terminate) is expected to get us out of this.
        time.sleep(injector.plan.hang_seconds)
    if injector.fires("worker.slow"):
        time.sleep(injector.plan.slow_seconds)
    try:
        max_time = spec.get("max_time")
        deadline_at = spec.get("deadline_at")
        if deadline_at is not None:
            remaining = float(deadline_at) - time.monotonic()
            if remaining <= 0.0:
                return (
                    "error",
                    "DeadlineExceededError: deadline expired before the walk could start",
                )
            max_time = remaining if max_time is None else min(float(max_time), remaining)
        problem = make_problem(spec["kind"], spec["order"], **spec.get("model_options", {}))
        interval = spec.get("progress_interval")
        reporter: Optional[_ProgressReporter] = None
        if interval:
            solver_spec = spec.get("solver")
            solver_name = (
                solver_spec.get("name") if isinstance(solver_spec, dict) else solver_spec
            )
            reporter = _ProgressReporter(conn, solver_name, float(interval))
        result = run_spec(
            spec.get("solver"),
            problem,
            seed=spec["seed"],
            stop_check=cancel_event.is_set,
            max_time=max_time,
            callbacks=reporter,
            population=int(spec.get("population") or 1),
        )
        return ("done", result.as_dict())
    except Exception as exc:  # pragma: no cover - defensive crash path
        return ("error", repr(exc))


def _pool_worker(conn, cancel_event, fault_scope: str = "") -> None:
    """Body of one long-lived worker process: run every walk received on
    *conn* and send its report back, until EOF (the pool is gone) or
    termination.

    A terminal's Ctrl-C reaches the whole process group, so workers ignore
    SIGINT and leave it to the service, which drains or cancels their walks;
    SIGTERM gets its default action back (a forked worker inherits the
    server's handler), which is how the pool stops a hung walk.

    Chaos: the :data:`~repro.service.faults.FAULTS_ENV_VAR` plan inherited
    from the parent drives the ``worker.crash`` / ``worker.hang`` /
    ``worker.slow`` injection points, scoped by *fault_scope* (worker slot +
    incarnation) so respawned workers draw fresh — deterministic but not
    identical — fault streams.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        plan = FaultPlan.from_env()
    except ValueError:  # pragma: no cover - malformed env is parent's bug
        plan = None
    injector = FaultInjector(plan, scope=fault_scope)
    while True:
        try:
            spec = conn.recv()
            if injector.fires("worker.crash"):
                # A hard death (OOM kill, segfault) after the walk arrived:
                # no cleanup, no goodbye.  The pool sees EOF and has to
                # requeue exactly this walk.
                os._exit(17)
            conn.send(_run_walk(conn, cancel_event, injector, spec))
        except (EOFError, OSError):  # the pool is gone
            return


def _set_all(events: List[Any]) -> None:
    """Set cancel Events; callers must not hold the pool's ``_lock``, since a
    set() on an Event whose worker died inside it blocks."""
    for event in events:
        event.set()


@dataclass
class PoolJobHandle:
    """Dispatcher-side bookkeeping of one in-flight pool job."""

    job_id: int
    spec: Dict[str, Any]
    walks: int
    on_done: Callable[["PoolJobHandle"], None]
    #: Optional live-progress hook: ``on_progress(handle, sample)`` fires on
    #: the collector thread for every throttled walk sample (advisory — it
    #: must be cheap and must not raise).
    on_progress: Optional[Callable[["PoolJobHandle", Dict[str, Any]], None]] = None
    results: List[SolveResult] = field(default_factory=list)
    #: walk_index -> worker slot currently running it (sent walks only).
    running: Dict[int, int] = field(default_factory=dict)
    #: walk_index -> ``time.monotonic()`` of its send (hung-walk watchdog input).
    claimed_at: Dict[int, float] = field(default_factory=dict)
    #: walk_index -> retry count for walks whose worker died.
    retries: Dict[int, int] = field(default_factory=dict)
    outstanding: int = 0
    cancelled: bool = False
    settled: bool = False
    failure: Optional[str] = None
    submitted_at: float = 0.0

    @property
    def best(self) -> Optional[SolveResult]:
        if not self.results:
            return None
        return SolveResult.best_of(self.results)

    @property
    def solved(self) -> bool:
        return any(r.solved for r in self.results)


class WorkerPool:
    """Long-lived multiprocessing pool executing solve jobs.

    Parameters
    ----------
    n_workers:
        Worker process count (default: CPU count).
    mp_context:
        ``multiprocessing`` start method (``fork`` on POSIX by default).
    seed_root:
        Root for per-walk seed spawning; walks of distinct jobs get
        independent seeds derived from a monotonically increasing stream.
    max_walk_retries:
        How many times one walk is requeued after its worker died (or a stale
        cancel aborted it) before the job is failed.
    retry:
        Backoff policy spacing those requeues (exponential with jitter), so a
        crash-looping instance does not hammer the workers, and spacing the
        respawns of a slot whose workers keep dying before they finish a walk.
    hang_grace:
        Seconds past a walk's time budget (``max_time`` / ``deadline_at``)
        before the hung-walk watchdog terminates its worker.
    faults:
        Optional :class:`~repro.service.faults.FaultPlan` published to
        ``REPRO_FAULTS`` at :meth:`start` so worker children inherit it.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        *,
        mp_context: Optional[str] = None,
        seed_root: Optional[int] = None,
        max_walk_retries: int = _MAX_WALK_RETRIES,
        retry: Optional[RetryPolicy] = None,
        hang_grace: float = 5.0,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.n_workers = n_workers if n_workers is not None else (os.cpu_count() or 1)
        if self.n_workers < 1:
            raise ParallelExecutionError(f"n_workers must be >= 1, got {self.n_workers}")
        if max_walk_retries < 0:
            raise ParallelExecutionError(
                f"max_walk_retries must be >= 0, got {max_walk_retries}"
            )
        self.max_walk_retries = max_walk_retries
        self.hang_grace = hang_grace
        self._retry = retry if retry is not None else RetryPolicy()
        self._fault_plan = faults
        if mp_context is None:
            mp_context = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(mp_context)
        n = self.n_workers
        #: Per slot: its current worker, the pool's end of its pipe (``None``
        #: while the slot waits for a respawn), its worker's cancel Event, the
        #: walk it runs, its consecutive deaths, and when it respawns.
        self._procs: List[Optional[mp.process.BaseProcess]] = [None] * n
        self._conns: List[Any] = [None] * n
        self._cancel_events: List[Any] = [None] * n
        self._current: List[Optional[Tuple[PoolJobHandle, int]]] = [None] * n
        self._deaths = [0] * n
        self._respawn_at: List[Optional[float]] = [None] * n
        self._incarnations = [0] * n
        #: Walks waiting for a worker, oldest first: ``(ready_at, handle,
        #: walk_index, spec)``; a requeued walk is ready after its backoff.
        #: Only walks that will run wait here: a job's waiting walks are
        #: dropped when it is cancelled or settles.
        self._waiting: List[Tuple[float, PoolJobHandle, int, Dict[str, Any]]] = []
        self._lock = threading.RLock()
        #: Notified whenever a worker may have become free (a slot spawned, a
        #: walk reported, waiting walks were dropped), a job settled, or
        #: shutdown began.
        self._changed = threading.Condition(self._lock)
        self._jobs: Dict[int, PoolJobHandle] = {}
        self._job_ids = iter(range(1, 1 << 62))
        self._seed_seq = np.random.SeedSequence(seed_root)
        self._collector: Optional[threading.Thread] = None
        #: The collector's wake-up pipe (created by start()).
        self._wake_r: Any = None
        self._wake_w: Any = None
        self._started = False
        self._closing = False
        self._stopping = False
        self._jobs_done = 0
        self._walks_run = 0
        #: Monotonic walks submitted per QoS lane (specs without a lane —
        #: direct pool users — count under "default").
        self._walks_by_lane: Dict[str, int] = {}
        self._workers_respawned = 0
        self._walks_requeued = 0
        self._hung_terminated = 0

    # ----------------------------------------------------------------- startup
    def start(self) -> None:
        """Spawn the worker processes and the collector thread (idempotent).

        The spawns happen *outside* ``_lock``: starting N processes takes
        whole seconds under the spawn method, and ``submit()`` / ``stats()``
        need the lock.  ``_started`` flips first (under the lock), so the
        one claiming thread owns the spawn loop; jobs submitted meanwhile
        just wait in the pool's FIFO until the collector comes up.
        """
        with self._lock:
            if self._started:
                return
            self._started = True
            self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
            _PARENT_ENDS.update((self._wake_r, self._wake_w))
            if self._fault_plan is not None:
                # Children inherit the parent environment under both fork and
                # spawn, so publishing before the first Process.start() is
                # enough to arm the workers' injectors.
                self._fault_plan.install_env()
        for slot in range(self.n_workers):
            self._spawn(slot)
        with self._lock:
            self._collector = threading.Thread(
                target=self._collect_loop, name="repro-pool-collector", daemon=True
            )
            self._collector.start()

    def _spawn(self, slot: int) -> None:
        """Start a fresh worker for *slot*, with a new pipe and cancel Event.

        Called by :meth:`start` and, for respawns, by the collector only, so
        spawns never overlap.  Incarnation counters keep respawned workers on
        fresh deterministic fault streams: without them a worker whose first
        injected draw is "crash" would crash-loop forever under the same seed.
        """
        self._incarnations[slot] += 1
        scope = f"w{slot}.{self._incarnations[slot]}"
        cancel_event = self._ctx.Event()
        conn, worker_end = self._ctx.Pipe()
        # Registered before the fork, so the worker's at-fork hook closes
        # its copy of the pool's end.
        _PARENT_ENDS.add(conn)
        proc = self._ctx.Process(
            target=_pool_worker,
            args=(worker_end, cancel_event, scope),
            daemon=True,
            name=f"repro-pool-worker-{slot}",
        )
        proc.start()
        worker_end.close()
        with self._lock:
            if self._procs[slot] is not None:
                self._workers_respawned += 1
            self._procs[slot] = proc
            self._conns[slot] = conn
            self._cancel_events[slot] = cancel_event
            self._respawn_at[slot] = None
            self._changed.notify_all()

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(drain=False)

    # ------------------------------------------------------------------ submit
    def submit(
        self,
        spec: Dict[str, Any],
        *,
        walks: int = 1,
        on_done: Callable[[PoolJobHandle], None],
        on_progress: Optional[Callable[[PoolJobHandle, Dict[str, Any]], None]] = None,
    ) -> PoolJobHandle:
        """Enqueue *spec* as one job fanned out over *walks* independent walks.

        ``on_done`` fires exactly once when the job settles (first solved walk
        wins and cancels its siblings; an unsolved job settles when every
        walk reported), from the collector thread, or from the thread whose
        :meth:`cancel` or :meth:`shutdown` settled it.

        When ``spec["solver"]`` is a *list* of solver spec dicts (a
        heterogeneous portfolio), walks are assigned members round-robin, so
        the job races different strategies first-past-the-post.
        """
        if not self._started:
            self.start()
        if walks < 1:
            raise ParallelExecutionError(f"walks must be >= 1, got {walks}")
        with self._lock:
            if self._closing:
                raise ParallelExecutionError("worker pool is shutting down")
            job_id = next(self._job_ids)
            handle = PoolJobHandle(
                job_id=job_id,
                spec=dict(spec),
                walks=walks,
                on_done=on_done,
                on_progress=on_progress,
                outstanding=walks,
                submitted_at=time.perf_counter(),
            )
            self._jobs[job_id] = handle
            lane = str(spec.get("lane") or "default")
            self._walks_by_lane[lane] = self._walks_by_lane.get(lane, 0) + walks
            now = time.monotonic()
            for walk_index in range(walks):
                self._waiting.append(
                    (now, handle, walk_index, self._walk_spec(handle, walk_index))
                )
                self._walks_run += 1
        self._wake()
        return handle

    def _wake(self) -> None:
        """Interrupt the collector's wait (never under ``_lock``)."""
        try:
            self._wake_w.send_bytes(b"")
        except OSError:  # the collector has stopped; shutdown fails the job
            pass

    def _walk_spec(self, handle: PoolJobHandle, walk_index: int) -> Dict[str, Any]:
        """One walk's job spec: fresh seed, portfolio member picked round-robin.

        Also used by the requeue paths (stale cancel, dead worker) so a
        requeued walk keeps racing with the *same* strategy it was assigned.
        """
        walk_spec = dict(handle.spec)
        solver = handle.spec.get("solver")
        if isinstance(solver, (list, tuple)) and solver:
            walk_spec["solver"] = solver[walk_index % len(solver)]
        walk_spec["seed"] = self._next_seeds(1)[0]
        return walk_spec

    def _next_seeds(self, count: int) -> List[int]:
        children = self._seed_seq.spawn(count)
        return [int(child.generate_state(1, dtype=np.uint64)[0] % (2**63)) for child in children]

    # ---------------------------------------------------------------- capacity
    def wait_for_capacity(
        self, need: int, timeout: Optional[float] = None
    ) -> Optional[Dict[str, int]]:
        """Block until *need* live workers are idle beyond the walks already
        waiting for one; return how many walks each lane holds, running or
        waiting.

        Returns ``None`` on timeout or once shutdown began.  A walk of a
        settled job still counts until it reports.  The answer is a
        snapshot: a worker may die, or a walk be requeued, before the caller
        submits.
        """
        with self._changed:
            free = self._changed.wait_for(
                lambda: self._closing
                or len(self._idle_slots_locked()) - len(self._waiting) >= need,
                timeout,
            )
            if not free or self._closing:
                return None
            lanes: Dict[str, int] = {}
            held = [current[0] for current in self._current if current is not None]
            for handle in held + [entry[1] for entry in self._waiting]:
                lane = str(handle.spec.get("lane") or "default")
                lanes[lane] = lanes.get(lane, 0) + 1
            return lanes

    def _idle_slots_locked(self) -> List[int]:
        """Slots with a live worker and no walk (caller holds the lock)."""
        return [
            slot
            for slot, conn in enumerate(self._conns)
            if conn is not None and self._current[slot] is None
        ]

    def _drop_waiting_locked(self, handle: PoolJobHandle) -> int:
        """Drop *handle*'s waiting walks; returns how many (caller holds the
        lock)."""
        kept = [entry for entry in self._waiting if entry[1] is not handle]
        dropped = len(self._waiting) - len(kept)
        if dropped:
            self._waiting = kept
            self._changed.notify_all()
        return dropped

    # ------------------------------------------------------------------ cancel
    def cancel(self, handle: PoolJobHandle) -> None:
        """Abort a job: running walks are signalled, waiting walks dropped.

        The job still settles through ``on_done`` (with whatever results
        arrived before the abort): at once when none of its walks runs,
        else when the first aborted walk reports.
        """
        with self._lock:
            if handle.settled:
                return
            handle.cancelled = True
            handle.outstanding -= self._drop_waiting_locked(handle)
            events = [self._cancel_events[slot] for slot in handle.running.values()]
            settle = handle.outstanding <= 0 and self._settle_locked(handle)
        _set_all(events)
        if settle:
            handle.on_done(handle)

    # ---------------------------------------------------------------- collector
    def _collect_loop(self) -> None:
        """Collector thread: the only user of the slots' pipes.

        Each round respawns the slots whose backoff ran out, sends ready
        walks to idle slots, terminates hung walks, then blocks until a
        worker reports or dies, the pool wakes it, or the earliest of those
        timers falls due.
        """
        try:
            while True:
                with self._lock:
                    if self._stopping:
                        return
                    now = time.monotonic()
                    due = [
                        slot
                        for slot, at in enumerate(self._respawn_at)
                        if at is not None and at <= now
                    ]
                for slot in due:
                    self._spawn(slot)
                timers = [self._dispatch()]
                self._terminate_hung_walks()
                with self._lock:
                    timers += [at for at in self._respawn_at if at is not None]
                    timers += [limit for limit, _ in self._hang_limits_locked()]
                    live = {
                        conn: slot
                        for slot, conn in enumerate(self._conns)
                        if conn is not None
                    }
                timers = [at for at in timers if at is not None]
                timeout = (
                    max(0.0, min(timers) - time.monotonic()) if timers else None
                )
                for conn in wait_ready([self._wake_r, *live], timeout=timeout):
                    if conn is self._wake_r:
                        while conn.poll():
                            conn.recv_bytes()
                        continue
                    slot = live[conn]
                    try:
                        kind, payload = conn.recv()
                    except (EOFError, OSError):  # died without reporting
                        self._on_death(slot)
                        continue
                    if kind == "progress":
                        self._on_walk_progress(slot, payload)
                    else:
                        self._on_walk_report(slot, kind, payload)
        finally:
            # Idle workers see EOF and exit; busy ones fail their next send.
            with self._lock:
                conns, self._conns = self._conns, [None] * self.n_workers
            for conn in [*conns, self._wake_r, self._wake_w]:
                if conn is not None:
                    conn.close()
                    _PARENT_ENDS.discard(conn)

    def _dispatch(self) -> Optional[float]:
        """Send ready waiting walks to idle slots, oldest first.

        Returns when the next delayed walk gets ready if a slot is idle for
        it, else ``None`` (a report wakes the collector when a slot frees
        up).
        """
        while True:
            now = time.monotonic()
            with self._lock:
                idle = self._idle_slots_locked()
                ready = [i for i, entry in enumerate(self._waiting) if entry[0] <= now]
                if not idle or not ready:
                    return min((e[0] for e in self._waiting), default=None) if idle else None
                _, handle, walk_index, spec = self._waiting.pop(ready[0])
                slot = idle[0]
                self._current[slot] = (handle, walk_index)
                handle.running[walk_index] = slot
                handle.claimed_at[walk_index] = now
                conn, event = self._conns[slot], self._cancel_events[slot]
            # Only an idle worker's Event is cleared, and an idle worker is in
            # no Event call, so this cannot block on a lock a dead worker held.
            # A cancel that lands from here on aborts this walk.
            event.clear()
            try:
                conn.send(spec)
            except OSError:  # the worker died; its EOF requeues the walk
                pass
            except Exception as exc:  # an unpicklable spec fails its walk only
                self._on_walk_report(slot, "error", repr(exc))

    def _on_walk_progress(self, slot: int, payload: Dict[str, Any]) -> None:
        with self._lock:
            handle, walk_index = self._current[slot]
        on_progress = handle.on_progress
        if on_progress is None or handle.settled:
            return
        sample = dict(payload)
        sample["walk"] = walk_index
        try:
            on_progress(handle, sample)
        except Exception:  # pragma: no cover - advisory hook must not kill collector
            pass

    def _on_walk_report(self, slot: int, kind: str, payload: Any) -> None:
        """A walk's ``done`` or ``error`` report: the slot is idle again."""
        result = SolveResult.from_dict(payload) if kind == "done" else None
        settle = False
        siblings: List[Any] = []
        with self._lock:
            handle, walk_index = self._current[slot]
            self._current[slot] = None
            self._changed.notify_all()
            self._deaths[slot] = 0
            handle.running.pop(walk_index, None)
            handle.claimed_at.pop(walk_index, None)
            if handle.settled:
                return
            if result is None:
                handle.failure = payload
                handle.outstanding -= 1
                settle = handle.outstanding <= 0
            else:
                result.extra["worker_id"] = slot
                result.extra["walk_index"] = walk_index
                stale_stop = (
                    result.stop_reason == "external_stop"
                    and not result.solved
                    and not handle.cancelled
                    and not handle.solved
                )
                if stale_stop and handle.retries.get(walk_index, 0) < self.max_walk_retries:
                    # A stale cancel (set for this slot's previous walk just
                    # as it finished) aborted an innocent walk: requeue it.
                    self._requeue_locked(handle, walk_index)
                    return
                handle.results.append(result)
                handle.outstanding -= 1
                if result.solved and not handle.cancelled:
                    # First past the post: abort the sibling walks.
                    siblings = [self._cancel_events[w] for w in handle.running.values()]
                settle = handle.outstanding <= 0 or result.solved or handle.cancelled
            settle = settle and self._settle_locked(handle)
        _set_all(siblings)
        if settle:
            handle.on_done(handle)

    def _on_death(self, slot: int) -> None:
        """EOF on *slot*'s pipe: its worker died.  Schedule the respawn and
        requeue (or fail) the walk it ran."""
        with self._lock:
            conn, self._conns[slot] = self._conns[slot], None
            current, self._current[slot] = self._current[slot], None
            self._deaths[slot] += 1
            if not self._stopping:
                self._respawn_at[slot] = time.monotonic() + self._retry.delay(
                    self._deaths[slot] - 1
                )
            settle = False
            if current is not None:
                handle, walk_index = current
                handle.running.pop(walk_index, None)
                handle.claimed_at.pop(walk_index, None)
                if not handle.settled:
                    if handle.cancelled:
                        handle.outstanding -= 1
                    elif handle.retries.get(walk_index, 0) < self.max_walk_retries:
                        self._requeue_locked(handle, walk_index)
                    else:
                        handle.failure = f"worker {slot} died repeatedly on walk {walk_index}"
                        handle.outstanding -= 1
                    settle = handle.outstanding <= 0 and self._settle_locked(handle)
        conn.close()
        _PARENT_ENDS.discard(conn)
        if settle:
            handle.on_done(handle)

    def _settle_locked(self, handle: PoolJobHandle) -> bool:
        """Mark *handle* settled exactly once, dropping its waiting walks;
        returns whether we won the race."""
        if handle.settled:
            return False
        handle.settled = True
        self._drop_waiting_locked(handle)
        self._jobs.pop(handle.job_id, None)
        self._jobs_done += 1
        self._changed.notify_all()
        return True

    def _requeue_locked(self, handle: PoolJobHandle, walk_index: int) -> None:
        """Requeue one walk with exponential backoff (caller holds the lock).

        The backoff keeps a crash-looping instance from monopolising the
        workers; the walk is dropped unsent if its job settles or is
        cancelled meanwhile.
        """
        retries = handle.retries.get(walk_index, 0)
        handle.retries[walk_index] = retries + 1
        self._walks_requeued += 1
        ready_at = time.monotonic() + self._retry.delay(retries)
        self._waiting.append((ready_at, handle, walk_index, self._walk_spec(handle, walk_index)))

    def _hang_limits_locked(self) -> List[Tuple[float, int]]:
        """``(limit, slot)`` of every running walk with a time budget: the
        instant it counts as hung (caller holds the lock)."""
        limits = []
        for slot, current in enumerate(self._current):
            if current is None:
                continue
            handle, walk_index = current
            claimed = handle.claimed_at.get(walk_index)
            if claimed is None:  # terminated already
                continue
            budget = handle.spec.get("max_time")
            deadline_at = handle.spec.get("deadline_at")
            slot_limits = []
            if budget:
                slot_limits.append(claimed + float(budget) + self.hang_grace)
            if deadline_at is not None:
                slot_limits.append(float(deadline_at) + self.hang_grace)
            if slot_limits:
                limits.append((min(slot_limits), slot))
        return limits

    def _terminate_hung_walks(self) -> int:
        """Terminate workers stuck far past their walk's time budget.

        A healthy walk stops itself at ``max_time`` (engine clock) or is
        stopped by cancellation; one that blows ``hang_grace`` past its
        budget — or past its request deadline — is wedged (injected hang, a
        stuck native loop) and only ``terminate()`` gets the slot back.  The
        worker's death then takes the ordinary EOF → respawn → requeue path.
        """
        now = time.monotonic()
        victims: List[mp.process.BaseProcess] = []
        with self._lock:
            for limit, slot in self._hang_limits_locked():
                if now > limit:
                    handle, walk_index = self._current[slot]
                    del handle.claimed_at[walk_index]
                    victims.append(self._procs[slot])
            self._hung_terminated += len(victims)
        for proc in victims:
            proc.terminate()
        return len(victims)

    # ---------------------------------------------------------------- shutdown
    def shutdown(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool.

        ``drain=True`` waits (up to *timeout*) for in-flight jobs to settle
        before stopping; ``drain=False`` aborts running walks immediately.
        The collector then closes every pipe, so each worker exits at EOF or
        at its next send; workers still running are terminated.  Jobs left
        unsettled fail.  No children leak.
        """
        events: List[Any] = []
        with self._lock:
            if not self._started:
                return
            self._closing = True
            if not drain:
                for handle in self._jobs.values():
                    handle.cancelled = True
                self._waiting = []
                # None: a slot whose first spawn is still under way.
                events = [e for e in self._cancel_events if e is not None]
            self._changed.notify_all()
        _set_all(events)
        deadline = time.perf_counter() + timeout
        if drain:
            with self._lock:
                self._changed.wait_for(lambda: not self._jobs, timeout=timeout)
        with self._lock:
            self._stopping = True
        self._wake()
        if self._collector is not None:
            self._collector.join(timeout=5.0)
        procs = [proc for proc in self._procs if proc is not None]
        for proc in procs:
            proc.join(timeout=max(0.1, deadline - time.perf_counter()))
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        # Fail any job that never settled (drain timeout or hard abort).
        orphans: List[PoolJobHandle] = []
        with self._lock:
            for handle in list(self._jobs.values()):
                if self._settle_locked(handle):
                    handle.failure = handle.failure or "worker pool shut down"
                    orphans.append(handle)
        for handle in orphans:
            handle.on_done(handle)

    # ------------------------------------------------------------------- stats
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            inflight_by_lane: Dict[str, int] = {}
            for handle in self._jobs.values():
                lane = str(handle.spec.get("lane") or "default")
                inflight_by_lane[lane] = inflight_by_lane.get(lane, 0) + 1
            return {
                "n_workers": self.n_workers,
                "started": self._started,
                "alive_workers": sum(
                    1 for p in self._procs if p is not None and p.is_alive()
                ),
                "inflight_jobs": len(self._jobs),
                "inflight_by_lane": inflight_by_lane,
                "jobs_done": self._jobs_done,
                "walks_run": self._walks_run,
                "walks_by_lane": dict(self._walks_by_lane),
                "workers_respawned": self._workers_respawned,
                "walks_requeued": self._walks_requeued,
                "hung_walks_terminated": self._hung_terminated,
            }
