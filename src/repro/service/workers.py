"""Long-lived process worker pool for the solver service.

Like the warm walkers of :class:`~repro.parallel.multiwalk.MultiWalkSolver`,
the pool pays process start-up, module import and (on first use) C-kernel
compilation once, not per request: ``n_workers`` processes are started
**once**, block on a shared job queue, run the requested strategy (the
compiled Adaptive Search walk unless the job names another solver), and push
results back on a shared result queue.  A request therefore costs one queue
round-trip instead of a fork.  Unlike the walkers, the pool serves many
concurrent jobs, each of any family, order and walk count, and it cancels,
respawns and requeues per slot.

Per-walk control uses a dedicated ``multiprocessing.Event`` per worker
incarnation (created just before its process starts, so it works under both
``fork`` and ``spawn``): a worker announces which job it picked up, the
dispatcher records the slot, and cancelling the job simply sets that slot's
event, which the engine observes through its ``stop_check`` hook.  A worker
killed inside an Event call can leave the Event's internal lock held, so a
respawned worker never inherits its predecessor's Event, and the pool sets
Events only after releasing its own lock.  Multi-walk jobs fan the same
instance out to several slots with independent seeds; the first solved walk
cancels its siblings, mirroring the paper's first-past-the-post multi-walk.

Liveness uses :class:`repro.parallel.liveness.DeadProcessDetector`: a
worker that dies mid-job is detected, its slot respawned, and the walk
requeued (bounded retries), so one OOM-killed child degrades a single
request instead of wedging the service.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.result import SolveResult
from repro.exceptions import ParallelExecutionError
from repro.parallel.liveness import DeadProcessDetector, poll_interval
from repro.service.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.solvers import run_spec

__all__ = ["WorkerPool", "PoolJobHandle"]

#: How many times a walk is requeued after its worker died before giving up.
_MAX_WALK_RETRIES = 2

_SENTINEL = ("__shutdown__", None)


class _ProgressReporter:
    """Throttled :class:`~repro.core.callbacks.IterationCallback` that
    forwards search progress over the pool's result queue.

    The NumPy engine's harness (:class:`repro.core.strategy.StrategyRun`)
    dispatches ``on_iteration`` on every loop iteration, the compiled walk
    once per ``check_period``.  Either way this reporter checks the clock
    only once 64 more iterations have run (it reads the *iteration* argument,
    not its own call count) and posts at most one ``("progress", ...)``
    message per *interval* seconds, so the hot path pays an integer
    comparison per call and the queue sees a few messages per second per
    walk at worst.  A full queue drops the sample (progress is advisory).
    """

    __slots__ = ("_queue", "_worker_id", "_job_id", "_walk_index", "_solver",
                 "_interval", "_next_at", "_check_at")

    def __init__(
        self,
        result_queue: Any,
        worker_id: int,
        job_id: int,
        walk_index: int,
        solver: Optional[str],
        interval: float,
    ) -> None:
        self._queue = result_queue
        self._worker_id = worker_id
        self._job_id = job_id
        self._walk_index = walk_index
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
        try:
            self._queue.put_nowait(
                (
                    "progress",
                    self._worker_id,
                    self._job_id,
                    self._walk_index,
                    {
                        "iteration": int(iteration),
                        "cost": int(cost),
                        "solver": self._solver,
                    },
                )
            )
        except queue_module.Full:  # pragma: no cover - advisory sample dropped
            pass

    def on_event(self, event: str, iteration: int, cost: int) -> None:
        # Progress streams sample the cost trajectory; discrete engine events
        # stay local to the walk.
        return


def _pool_worker(
    worker_id: int,
    job_queue,
    result_queue,
    cancel_event,
    shutdown_event,
    fault_scope: str = "",
) -> None:
    """Body of one long-lived worker process.

    Loops forever: pull ``(job_id, walk_index, spec)``, announce the claim,
    solve, report.  ``spec`` is a plain dict (picklable under ``spawn``):
    ``{"kind", "order", "solver": spec-dict | None, "seed", "max_time",
    "deadline_at", "model_options", "population"}``.  ``kind`` selects any
    family of the :mod:`repro.problems` registry; ``solver`` selects any
    strategy of the :mod:`repro.solvers` registry (``None`` = the registry
    default, the compiled walk), and its parameters travel inside it.
    ``deadline_at`` is an absolute ``time.monotonic()`` deadline that caps
    the walk's time budget (an already-expired deadline is reported as an
    error without solving).  ``population`` (default 1) runs that many
    vectorised walks per slot in one compiled-kernel batch, reporting the
    best walk's result; solvers without population support degrade to a
    single walk.

    Chaos: the :data:`~repro.service.faults.FAULTS_ENV_VAR` plan inherited
    from the parent drives the ``worker.crash`` / ``worker.hang`` /
    ``worker.slow`` injection points, scoped by *fault_scope* (worker slot +
    incarnation) so respawned workers draw fresh — deterministic but not
    identical — fault streams.
    """
    from repro.problems import make_problem

    try:
        plan = FaultPlan.from_env()
    except ValueError:  # pragma: no cover - malformed env is parent's bug
        plan = None
    injector = FaultInjector(plan, scope=fault_scope)

    while not shutdown_event.is_set():
        try:
            item = job_queue.get(timeout=0.2)
        except queue_module.Empty:
            continue
        if item == _SENTINEL or item[0] == "__shutdown__":
            break
        job_id, walk_index, spec = item
        cancel_event.clear()
        result_queue.put(("started", worker_id, job_id, walk_index, None))
        if injector.fires("worker.crash"):
            # Simulate a hard death (OOM kill, segfault) *after* the claim
            # was observed: flush the queue's feeder thread so the "started"
            # announcement survives, then exit with no cleanup and no goodbye.
            # The pool's liveness detector has to notice on its own and
            # requeue exactly this walk.  (Exiting before the claim flushes
            # would model a crash before claiming — a different case, where
            # the walk is still in the job queue for a sibling to pick up.)
            result_queue.close()
            result_queue.join_thread()
            os._exit(17)
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
                    result_queue.put(
                        (
                            "error",
                            worker_id,
                            job_id,
                            walk_index,
                            "DeadlineExceededError: deadline expired before "
                            "the walk could start",
                        )
                    )
                    continue
                max_time = (
                    remaining if max_time is None else min(float(max_time), remaining)
                )
            problem = make_problem(
                spec["kind"], spec["order"], **spec.get("model_options", {})
            )
            interval = spec.get("progress_interval")
            reporter: Optional[_ProgressReporter] = None
            if interval:
                solver_spec = spec.get("solver")
                solver_name = (
                    solver_spec.get("name")
                    if isinstance(solver_spec, dict)
                    else solver_spec
                )
                reporter = _ProgressReporter(
                    result_queue,
                    worker_id,
                    job_id,
                    walk_index,
                    solver_name,
                    float(interval),
                )
            result = run_spec(
                spec.get("solver"),
                problem,
                seed=spec["seed"],
                stop_check=cancel_event.is_set,
                max_time=max_time,
                callbacks=reporter,
                population=int(spec.get("population") or 1),
            )
            result.extra["worker_id"] = worker_id
            result.extra["walk_index"] = walk_index
            result_queue.put(("done", worker_id, job_id, walk_index, result.as_dict()))
        except Exception as exc:  # pragma: no cover - defensive crash path
            result_queue.put(("error", worker_id, job_id, walk_index, repr(exc)))


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
    #: walk_index -> worker slot currently running it (claimed walks only).
    running: Dict[int, int] = field(default_factory=dict)
    #: walk_index -> ``time.monotonic()`` of its claim (hung-walk watchdog input).
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
        crash-looping instance does not hammer the queue.
    liveness_grace:
        Seconds a worker may be observed dead before its walks are requeued
        (the queue feeder may still be flushing its last result).
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
        liveness_grace: float = 5.0,
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
        self.liveness_grace = liveness_grace
        self.hang_grace = hang_grace
        self._retry = retry if retry is not None else RetryPolicy()
        self._fault_plan = faults
        if mp_context is None:
            mp_context = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(mp_context)
        self._job_queue = self._ctx.Queue()
        self._result_queue = self._ctx.Queue()
        self._shutdown_event = self._ctx.Event()
        #: Cancel Event of each slot's current incarnation (set by _spawn).
        self._cancel_events: List[Any] = [None] * self.n_workers
        self._procs: List[mp.process.BaseProcess] = []
        self._lock = threading.RLock()
        self._jobs: Dict[int, PoolJobHandle] = {}
        self._job_ids = iter(range(1, 1 << 62))
        self._seed_seq = np.random.SeedSequence(seed_root)
        self._dispatcher: Optional[threading.Thread] = None
        self._started = False
        self._closing = False
        self._jobs_done = 0
        self._walks_run = 0
        #: Monotonic walks submitted per QoS lane (specs without a lane —
        #: direct pool users — count under "default").
        self._walks_by_lane: Dict[str, int] = {}
        self._workers_respawned = 0
        self._walks_requeued = 0
        self._hung_terminated = 0
        self._incarnations = [0] * self.n_workers
        self._timers: List[threading.Timer] = []

    # ----------------------------------------------------------------- startup
    def start(self) -> None:
        """Spawn the worker processes and the collector thread (idempotent).

        The spawns happen *outside* ``_lock``: starting N processes takes
        whole seconds under the spawn method, and ``submit()`` / ``stats()``
        need the lock.  ``_started`` flips first (under the lock), so the
        one claiming thread owns the spawn loop; jobs submitted meanwhile
        just sit in the mp queue until the workers come up.
        """
        with self._lock:
            if self._started:
                return
            self._started = True
            if self._fault_plan is not None:
                # Children inherit the parent environment under both fork and
                # spawn, so publishing before the first Process.start() is
                # enough to arm the workers' injectors.
                self._fault_plan.install_env()
        procs = [self._spawn(worker_id) for worker_id in range(self.n_workers)]
        with self._lock:
            self._procs.extend(procs)
            self._dispatcher = threading.Thread(
                target=self._collect_loop, name="repro-pool-collector", daemon=True
            )
            self._dispatcher.start()

    def _spawn(self, worker_id: int) -> mp.process.BaseProcess:
        # Incarnation counters keep respawned workers on fresh deterministic
        # fault streams: without them a worker whose first injected draw is
        # "crash" would crash-loop forever under the same seed.
        self._incarnations[worker_id] += 1
        scope = f"w{worker_id}.{self._incarnations[worker_id]}"
        cancel_event = self._ctx.Event()
        self._cancel_events[worker_id] = cancel_event
        proc = self._ctx.Process(
            target=_pool_worker,
            args=(
                worker_id,
                self._job_queue,
                self._result_queue,
                cancel_event,
                self._shutdown_event,
                scope,
            ),
            daemon=True,
            name=f"repro-pool-worker-{worker_id}",
        )
        proc.start()
        return proc

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

        ``on_done`` fires exactly once from the collector thread when the job
        settles (first solved walk wins and cancels its siblings; an unsolved
        job settles when every walk reported).

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
            for walk_index in range(walks):
                self._job_queue.put((job_id, walk_index, self._walk_spec(handle, walk_index)))
                self._walks_run += 1
        return handle

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

    # ------------------------------------------------------------------ cancel
    def cancel(self, handle: PoolJobHandle) -> None:
        """Abort a job: running walks are signalled, queued walks discarded.

        The job still settles through ``on_done`` (with whatever results
        arrived before the abort).
        """
        with self._lock:
            if handle.settled:
                return
            handle.cancelled = True
            events = [self._cancel_events[w] for w in handle.running.values()]
        _set_all(events)

    # ---------------------------------------------------------------- collector
    def _collect_loop(self) -> None:
        """Collector thread: route worker messages, watch liveness, respawn."""
        detector = DeadProcessDetector(grace=self.liveness_grace)
        poll = poll_interval(self.liveness_grace)
        last_liveness = time.perf_counter()
        while True:
            if self._shutdown_event.is_set() and not self._jobs:
                break
            # Liveness must run even under a steady message stream from the
            # healthy workers, or a worker that dies mid-job while its
            # siblings stay busy would never be detected.
            now = time.perf_counter()
            if now - last_liveness >= poll:
                last_liveness = now
                self._check_liveness(detector)
            try:
                kind, worker_id, job_id, walk_index, payload = self._result_queue.get(
                    timeout=poll
                )
            except queue_module.Empty:
                continue
            except (EOFError, OSError):  # pragma: no cover - queue torn down
                break
            with self._lock:
                handle = self._jobs.get(job_id)
            if handle is None:
                # Late message for a settled job.  A late *claim* means a
                # leftover queued walk (its job settled first): abort it so
                # the slot frees up at the next stop_check instead of running
                # a full solve nobody is waiting for.
                if kind == "started":
                    self._cancel_events[worker_id].set()
                continue
            if kind == "started":
                self._on_started(handle, walk_index, worker_id)
            elif kind == "progress":
                self._on_walk_progress(handle, walk_index, payload)
            elif kind == "done":
                self._on_walk_done(handle, walk_index, worker_id, payload)
            else:  # "error"
                self._on_walk_error(handle, walk_index, worker_id, payload)

    def _on_walk_progress(
        self, handle: PoolJobHandle, walk_index: int, payload: Dict[str, Any]
    ) -> None:
        on_progress = handle.on_progress
        if on_progress is None or handle.settled:
            return
        sample = dict(payload)
        sample["walk"] = walk_index
        try:
            on_progress(handle, sample)
        except Exception:  # pragma: no cover - advisory hook must not kill collector
            pass

    def _on_started(self, handle: PoolJobHandle, walk_index: int, worker_id: int) -> None:
        with self._lock:
            handle.running[walk_index] = worker_id
            handle.claimed_at[walk_index] = time.monotonic()
            # Cancellation raced the claim: abort this walk now.
            abort = handle.cancelled
        if abort:
            self._cancel_events[worker_id].set()

    def _on_walk_done(
        self, handle: PoolJobHandle, walk_index: int, worker_id: int, payload: Dict[str, Any]
    ) -> None:
        result = SolveResult.from_dict(payload)
        settle = False
        siblings: List[Any] = []
        with self._lock:
            handle.running.pop(walk_index, None)
            handle.claimed_at.pop(walk_index, None)
            stale_stop = (
                result.stop_reason == "external_stop"
                and not result.solved
                and not handle.cancelled
                and not handle.solved
            )
            if stale_stop and handle.retries.get(walk_index, 0) < self.max_walk_retries:
                # A stale cancel event (set for this slot's previous job just
                # as it finished) aborted an innocent walk: requeue it.
                self._requeue_locked(handle, walk_index)
                return
            handle.results.append(result)
            handle.outstanding -= 1
            if result.solved and not handle.cancelled:
                # First past the post: abort the sibling walks.
                siblings = [self._cancel_events[w] for w in handle.running.values()]
            settle = handle.outstanding <= 0 or result.solved or handle.cancelled
            if settle:
                settle = self._settle_locked(handle)
        _set_all(siblings)
        if settle:
            handle.on_done(handle)

    def _on_walk_error(
        self, handle: PoolJobHandle, walk_index: int, worker_id: int, payload: str
    ) -> None:
        settle = False
        with self._lock:
            handle.running.pop(walk_index, None)
            handle.claimed_at.pop(walk_index, None)
            handle.failure = payload
            handle.outstanding -= 1
            settle = handle.outstanding <= 0
            if settle:
                settle = self._settle_locked(handle)
        if settle:
            handle.on_done(handle)

    def _settle_locked(self, handle: PoolJobHandle) -> bool:
        """Mark *handle* settled exactly once; returns whether we won the race."""
        if handle.settled:
            return False
        handle.settled = True
        self._jobs.pop(handle.job_id, None)
        self._jobs_done += 1
        return True

    def _requeue_locked(self, handle: PoolJobHandle, walk_index: int) -> None:
        """Requeue one walk with exponential backoff (caller holds the lock).

        The backoff keeps a crash-looping instance from monopolising the job
        queue; the delayed put is skipped (and the walk written off) when the
        job settled, was cancelled, or the pool started closing meanwhile.
        """
        retries = handle.retries.get(walk_index, 0)
        handle.retries[walk_index] = retries + 1
        self._walks_requeued += 1
        walk_spec = self._walk_spec(handle, walk_index)
        delay = self._retry.delay(retries)

        def put() -> None:
            settle = False
            with self._lock:
                if handle.settled:
                    return
                if handle.cancelled or self._closing:
                    handle.outstanding -= 1
                    settle = handle.outstanding <= 0 and self._settle_locked(handle)
                else:
                    self._job_queue.put((handle.job_id, walk_index, walk_spec))
            if settle:
                handle.on_done(handle)

        if delay <= 0.0:
            self._job_queue.put((handle.job_id, walk_index, walk_spec))
            return
        timer = threading.Timer(delay, put)
        timer.daemon = True
        self._timers = [t for t in self._timers if t.is_alive()]
        self._timers.append(timer)
        timer.start()

    def _terminate_hung_walks(self) -> int:
        """Terminate workers stuck far past their walk's time budget.

        A healthy walk stops itself at ``max_time`` (engine clock) or is
        stopped by cancellation; one that blows ``hang_grace`` past its
        budget — or past its request deadline — is wedged (injected hang, a
        stuck native loop) and only ``terminate()`` gets the slot back.  The
        resulting dead process flows through the ordinary liveness →
        respawn → requeue path.
        """
        now = time.monotonic()
        victims: List[mp.process.BaseProcess] = []
        with self._lock:
            victim_ids = set()
            for handle in self._jobs.values():
                budget = handle.spec.get("max_time")
                deadline_at = handle.spec.get("deadline_at")
                for walk_index, worker_id in handle.running.items():
                    claimed = handle.claimed_at.get(walk_index)
                    if claimed is None:
                        continue
                    limits = []
                    if budget:
                        limits.append(claimed + float(budget) + self.hang_grace)
                    if deadline_at is not None:
                        limits.append(float(deadline_at) + self.hang_grace)
                    if limits and now > min(limits):
                        victim_ids.add(worker_id)
            for worker_id in victim_ids:
                proc = self._procs[worker_id]
                if proc.is_alive():
                    victims.append(proc)
            self._hung_terminated += len(victims)
        for proc in victims:
            proc.terminate()
        return len(victims)

    def _check_liveness(self, detector: DeadProcessDetector) -> None:
        """Respawn dead workers and requeue (or fail) the walks they carried."""
        if self._shutdown_event.is_set():
            return
        self._terminate_hung_walks()
        with self._lock:
            alive_map = {i: proc for i, proc in enumerate(self._procs)}
        dead = detector.poll(alive_map)
        if not dead:
            return
        # Spawn the replacements before taking the lock: a process start can
        # take seconds under the spawn method, and submit()/stats() callers
        # must not stall behind it.  Only this liveness thread respawns, so
        # the unlocked spawns cannot race another respawn of the same slot.
        replacements = {worker_id: self._spawn(worker_id) for worker_id in dead}
        to_settle: List[PoolJobHandle] = []
        with self._lock:
            for worker_id in dead:
                self._procs[worker_id] = replacements[worker_id]
                self._workers_respawned += 1
                for handle in list(self._jobs.values()):
                    for walk_index, running_worker in list(handle.running.items()):
                        if running_worker != worker_id:
                            continue
                        handle.running.pop(walk_index, None)
                        handle.claimed_at.pop(walk_index, None)
                        retries = handle.retries.get(walk_index, 0)
                        if handle.cancelled:
                            handle.outstanding -= 1
                        elif retries < self.max_walk_retries:
                            self._requeue_locked(handle, walk_index)
                        else:
                            handle.failure = (
                                f"worker {worker_id} died repeatedly on walk {walk_index}"
                            )
                            handle.outstanding -= 1
                        if handle.outstanding <= 0 and self._settle_locked(handle):
                            to_settle.append(handle)
        for handle in to_settle:
            handle.on_done(handle)

    # ---------------------------------------------------------------- shutdown
    def shutdown(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool.

        ``drain=True`` waits (up to *timeout*) for in-flight jobs to settle
        before stopping; ``drain=False`` aborts running walks immediately.
        Always joins, then terminates stragglers — no leaked children.
        """
        events: List[Any] = []
        with self._lock:
            if not self._started:
                return
            self._closing = True
            timers, self._timers = self._timers, []
            if not drain:
                for handle in list(self._jobs.values()):
                    handle.cancelled = True
                # None: a slot whose first spawn is still under way.
                events = [e for e in self._cancel_events if e is not None]
        _set_all(events)
        for timer in timers:
            # Jobs whose delayed requeue never lands are failed as orphans
            # below; cancelling keeps no timer thread alive past shutdown.
            timer.cancel()
        deadline = time.perf_counter() + timeout
        if drain:
            while time.perf_counter() < deadline:
                with self._lock:
                    if not self._jobs:
                        break
                time.sleep(0.05)
        self._shutdown_event.set()
        for _ in self._procs:
            try:
                self._job_queue.put_nowait(_SENTINEL)
            except Exception:  # pragma: no cover - full queue during teardown
                break
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.perf_counter()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=2.0)
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
                "alive_workers": sum(1 for p in self._procs if p.is_alive()),
                "inflight_jobs": len(self._jobs),
                "inflight_by_lane": inflight_by_lane,
                "jobs_done": self._jobs_done,
                "walks_run": self._walks_run,
                "walks_by_lane": dict(self._walks_by_lane),
                "workers_respawned": self._workers_respawned,
                "walks_requeued": self._walks_requeued,
                "hung_walks_terminated": self._hung_terminated,
            }
