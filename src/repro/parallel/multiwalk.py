"""Real parallel independent multi-walk on the local machine.

This is the component a user runs to actually solve hard instances faster:
``k`` walker *processes* (not threads — the GIL would serialise pure-Python
search threads) each run a sequential search strategy with their own seed.
The first walk to find a solution sets a shared event; all walks poll
that event every ``check_period`` iterations through the strategy's
``stop_check`` hook, mirroring the non-blocking MPI probe of the paper, and
stop as soon as it is set.

The walker processes are *warm*: the first ``k``-walk solve starts a set of
``k`` walkers, and later solves in the same process with the same start
method and ``k`` reuse it, so a solve costs one job and one report per walk
instead of a fork, a start-up and a reap.  Each walker owns one pipe to the
coordinator, and its death shows up as EOF on that pipe.  A set goes back to
the idle list only after a solve in which every walk reported cleanly; any
other outcome terminates it.  :func:`close_idle_walkers` stops the idle sets.

By default every walk runs the compiled Adaptive Search walk (the registry's
default, ``"compiled"``), but any solver of the :mod:`repro.solvers`
registry can be selected with ``solver=``, including a
**heterogeneous portfolio**: a list of solver specs assigned round-robin
across the walks, racing first-past-the-post.  A portfolio turns the paper's
multi-walk termination into an algorithm race — useful when no single
strategy dominates on an instance family.

The problem instance is described by a *factory* (a picklable callable
returning a fresh :class:`~repro.core.problem.PermutationProblem`), because
the problem object itself is stateful and must be constructed inside each
walker; it travels, pickled, with every job.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_ready
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.params import ASParameters
from repro.core.problem import PermutationProblem
from repro.core.result import SolveResult
from repro.exceptions import ParallelExecutionError
from repro.parallel.liveness import poll_interval
from repro.parallel.seeds import spawned_seeds
from repro.solvers import SpecLike, portfolio_label, resolve_portfolio, run_spec

__all__ = ["MultiWalkResult", "MultiWalkSolver", "close_idle_walkers"]

#: Grace added to the max_time-derived collection deadline: a walk's budget
#: only starts ticking inside its walker, after process start-up (on a set's
#: first solve), imports and problem construction (first use may even
#: compile the C kernels), and the engine polls max_time only every
#: ``check_period`` iterations.
_STARTUP_ALLOWANCE = 15.0


@dataclass
class MultiWalkResult:
    """Aggregate outcome of a parallel multi-walk run.

    ``best`` is the winning walk's result (or the best unsolved one);
    ``results`` holds whatever the walks reported back before termination
    (the losers report their partial statistics too); ``wall_time`` is the
    end-to-end time measured by the coordinating process, which is what the
    speed-up tables use.
    """

    best: SolveResult
    results: List[SolveResult]
    n_workers: int
    wall_time: float
    seeds: List[int] = field(default_factory=list)
    #: Walk indices that never reported (walker died or missed the deadline).
    #: Empty on a clean run; non-empty results are still usable — ``best`` and
    #: ``results`` cover every walk that did report.
    missing_walks: List[int] = field(default_factory=list)
    #: ``True`` when the run was cut short by SIGINT/SIGTERM: the walks were
    #: drained gracefully and ``results`` holds their partial statistics.
    interrupted: bool = False

    @property
    def solved(self) -> bool:
        """Whether any walk found a solution."""
        return self.best.solved

    @property
    def total_iterations(self) -> int:
        """Sum of iterations across all reporting walks (total work performed)."""
        return sum(r.iterations for r in self.results)

    @property
    def solvers(self) -> List[str]:
        """Distinct solver names among the reporting walks (sorted).

        A pure run yields one name (``["compiled-adaptive-search"]`` by
        default); a heterogeneous portfolio run lists every strategy that
        participated.
        """
        return sorted({r.solver for r in self.results})


def _run_job(
    stop_event,
    problem_factory: Callable[[], PermutationProblem],
    params: Optional[ASParameters],
    spec_dict: dict,
    seed: int,
    walk_index: int,
    max_time: Optional[float],
    population: int,
) -> tuple:
    """One walk inside a walker: run this walk's strategy until solved,
    stopped or out of budget, and return its report."""
    try:
        problem = problem_factory()
        result = run_spec(
            spec_dict,
            problem,
            seed=seed,
            stop_check=stop_event.is_set,
            max_time=max_time,
            as_params=params,
            population=population,
        )
        if result.solved:
            stop_event.set()
        result.extra["walk_index"] = walk_index
        return ("ok", walk_index, result.as_dict())
    except Exception as exc:
        return ("error", walk_index, repr(exc))


def _walker(conn, stop_event) -> None:
    """Body of one warm walker process: run every job received on *conn* and
    send its report back, until EOF (the coordinator is gone) or termination.

    A terminal's Ctrl-C reaches the whole process group, so walkers ignore
    SIGINT and leave it to the coordinator, which drains them through
    *stop_event*; SIGTERM keeps its default action, which is how a set is
    closed.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            job = conn.recv()
            conn.send(_run_job(stop_event, *job))
        except (EOFError, OSError):  # the coordinator is gone
            return


class _WalkerSet:
    """``k`` walker processes sharing one stop Event, each with its own pipe."""

    def __init__(self, ctx, key: Tuple[str, int]) -> None:
        self.ctx = ctx
        self.key = key
        self.stop_event = ctx.Event()
        self.conns: list = []
        self.procs: list = []

    def start(self) -> None:
        for _ in range(self.key[1]):
            conn, walker_end = self.ctx.Pipe()
            # Listed before the fork, so the walker's at-fork hook closes its
            # copy and sees EOF once the coordinator is gone.
            self.conns.append(conn)
            proc = self.ctx.Process(
                target=_walker, args=(walker_end, self.stop_event), daemon=True
            )
            proc.start()
            self.procs.append(proc)
            walker_end.close()

    def close(self) -> None:
        """Terminate and reap the walkers; needs nothing from them, not even
        to read EOF."""
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.join()
        for conn in self.conns:
            conn.close()


class _WalkerRegistry:
    """This process's walker sets: at most one idle set per
    ``(start method, k)``, and every open set (idle or in a solve).

    Processes are started, terminated and joined only outside ``_lock``.
    ``_starting`` serialises set starts, so that no walker forked for one
    set copies a pipe end another set has not listed yet.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._starting = threading.Lock()
        self._idle: Dict[Tuple[str, int], _WalkerSet] = {}
        self._open: Set[_WalkerSet] = set()

    def checkout(self, ctx, k: int) -> _WalkerSet:
        """The idle set for ``(ctx's start method, k)``, else a new one."""
        key = (ctx.get_start_method(), k)
        with self._lock:
            walkers = self._idle.pop(key, None)
        if walkers is not None:
            if all(proc.is_alive() for proc in walkers.procs):
                return walkers
            self.checkin(walkers, reusable=False)  # a walker died while idle
        walkers = _WalkerSet(ctx, key)
        with self._lock:
            self._open.add(walkers)
        try:
            with self._starting:
                walkers.start()
        except BaseException:
            self.checkin(walkers, reusable=False)
            raise
        return walkers

    def checkin(self, walkers: _WalkerSet, reusable: bool) -> None:
        """Keep *walkers* idle for the next solve, or close them when the
        solve was abnormal or another set already idles under their key."""
        with self._lock:
            if reusable and walkers.key not in self._idle:
                self._idle[walkers.key] = walkers
                return
            self._open.discard(walkers)
        walkers.close()

    def close_idle(self) -> None:
        with self._lock:
            idle = list(self._idle.values())
            self._idle.clear()
            self._open.difference_update(idle)
        for walkers in idle:
            walkers.close()

    def after_fork_in_child(self) -> None:
        """Drop the parent's sets in a forked child and close the child's
        copies of their pipes.  The processes are the parent's: untouched."""
        inherited = self._open
        # Another parent thread may hold either lock.
        self._lock = threading.Lock()
        self._starting = threading.Lock()
        self._idle = {}
        self._open = set()
        for walkers in inherited:
            for conn in walkers.conns:
                conn.close()


_REGISTRY = _WalkerRegistry()
if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_REGISTRY.after_fork_in_child)


def close_idle_walkers() -> None:
    """Terminate this process's idle walker sets; the next solve starts new
    ones.  For tests, and for long-lived embedders that want the memory back."""
    _REGISTRY.close_idle()


class MultiWalkSolver:
    """Independent multi-walk Adaptive Search using ``multiprocessing``.

    With ``n_workers >= 2`` the walks run on warm walker processes shared by
    every solver of this process with the same start method and walk count
    (see the module docstring); with one walk, inline.

    Parameters
    ----------
    problem_factory:
        Picklable zero-argument callable producing a fresh problem instance;
        it is pickled with every walk's job, under ``fork`` too.
    params:
        Engine parameters shared by every Adaptive Search walk (walks whose
        spec carries its own ``params`` use those instead).  ``None`` (the
        default) leaves the choice to :func:`repro.solvers.run_spec`: the
        registry's tuned table for the problem's family.
    solver:
        Which strategy (or strategies) to run: a registry name
        (``"tabu"``), a spec dict (``{"name": "tabu", "params": {...}}``), a
        named or inline portfolio (``"mixed"``, ``"adaptive+tabu"``) or a
        list of specs.  Portfolio members are assigned to walks round-robin
        (``n_workers`` is raised to the portfolio size when smaller, so every
        member is guaranteed a walk); the first solved walk stops everyone
        (first past the post).  Default: the compiled Adaptive Search walk
        (``"compiled"``; ``"adaptive"`` selects the NumPy engine).
    n_workers:
        Number of walks, one walker process each (default: the machine's CPU
        count).
    seeds:
        Explicit per-walk seeds; by default independent seeds are spawned from
        ``seed_root``.
    seed_root:
        Root seed used when *seeds* is not given.
    mp_context:
        ``multiprocessing`` start method (``"fork"`` by default on POSIX —
        cheapest; use ``"spawn"`` for portability).
    population:
        Vectorised walks *per walker process* (default 1).  Each walker
        whose strategy supports it (the compiled walk engine) advances
        ``population`` independent walks in one kernel batch and reports the
        best one, so the run races ``n_workers × population`` walks on
        ``n_workers`` cores.  Strategies without population support run a
        single walk per walker, unchanged.
    """

    def __init__(
        self,
        problem_factory: Callable[[], PermutationProblem],
        params: Optional[ASParameters] = None,
        *,
        solver: SpecLike | Sequence[SpecLike] = None,
        n_workers: Optional[int] = None,
        seeds: Optional[Sequence[int]] = None,
        seed_root: Optional[int] = None,
        mp_context: Optional[str] = None,
        population: int = 1,
    ) -> None:
        self.problem_factory = problem_factory
        self.params = params
        self.solver_specs = resolve_portfolio(solver)
        self.n_workers = n_workers if n_workers is not None else (os.cpu_count() or 1)
        if self.n_workers < 1:
            raise ParallelExecutionError(f"n_workers must be >= 1, got {self.n_workers}")
        if population < 1:
            raise ParallelExecutionError(f"population must be >= 1, got {population}")
        self.population = population
        # A portfolio races first-past-the-post only if every member actually
        # gets a walk; silently dropping the tail of the round-robin would
        # run a different portfolio than the one requested.
        self.n_workers = max(self.n_workers, len(self.solver_specs))
        self._explicit_seeds = list(seeds) if seeds is not None else None
        if self._explicit_seeds is not None and len(self._explicit_seeds) < self.n_workers:
            raise ParallelExecutionError(
                f"{len(self._explicit_seeds)} seeds provided for {self.n_workers} workers"
            )
        self.seed_root = seed_root
        if mp_context is None:
            mp_context = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(mp_context)

    @property
    def portfolio(self) -> str:
        """Label of the configured solver portfolio (``"adaptive+tabu"``)."""
        return portfolio_label(self.solver_specs)

    def _walk_spec(self, walk_index: int) -> dict:
        """The (picklable) solver spec walk *walk_index* runs — round-robin."""
        spec = self.solver_specs[walk_index % len(self.solver_specs)]
        return spec.as_dict()

    # ------------------------------------------------------------------ public
    def solve(
        self,
        *,
        max_time: Optional[float] = None,
        join_timeout: float = 30.0,
    ) -> MultiWalkResult:
        """Run the walks and return as soon as every walk has reported.

        ``max_time`` bounds each walk's wall-clock time.  ``join_timeout``
        bounds how long the coordinator waits for walks that stay silent:
        past ``max_time`` (plus a fixed startup allowance), and after a
        signal asked them to stop.

        The ``k >= 2`` walks run on this process's warm walker set for the
        start method and ``k``, started on first use.  Result collection
        never blocks forever.  A walker that dies without reporting (hard
        crash, OOM kill) is seen at once, as EOF on its pipe, while its
        siblings keep running; when ``max_time`` is set, a global deadline of
        ``max_time + join_timeout`` plus the startup allowance (each walk's
        clock starts inside its walker, after start-up and problem
        construction) backstops walks that hang without dying.  If at least
        one walk reported, the partial outcome is returned with every walk
        that did not listed in :attr:`MultiWalkResult.missing_walks` (a dead
        loser must not discard a solved winner); when *no* walk reported, a
        :class:`~repro.exceptions.ParallelExecutionError` listing the missing
        walks is raised.  Any such outcome, a walk error, an exception or a
        signal terminates the walker set instead of keeping it for the next
        solve.

        SIGINT/SIGTERM are handled gracefully while the walks run (when
        called from the main thread): the first signal sets the shared stop
        event, every walk stops at its next ``check_period`` poll and
        reports its partial statistics, and the partial
        :class:`MultiWalkResult` is returned with
        :attr:`~MultiWalkResult.interrupted` set — no child processes are
        left behind.  Walks that fail to drain within ``join_timeout`` are
        listed in :attr:`~MultiWalkResult.missing_walks`.  Walkers ignore
        SIGINT, so a terminal's Ctrl-C, which reaches the whole process
        group, drains them the same way.
        """
        seeds = (
            self._explicit_seeds[: self.n_workers]
            if self._explicit_seeds is not None
            else spawned_seeds(self.n_workers, self.seed_root)
        )

        if self.n_workers == 1:
            # Degenerate case: run inline (used by tests and the 1-core baselines).
            start = time.perf_counter()
            problem = self.problem_factory()
            result = run_spec(
                self._walk_spec(0),
                problem,
                seed=seeds[0],
                max_time=max_time,
                as_params=self.params,
                population=self.population,
            )
            result.extra["walk_index"] = 0
            elapsed = time.perf_counter() - start
            return MultiWalkResult(result, [result], 1, elapsed, list(seeds))

        start = time.perf_counter()
        results: List[SolveResult] = []
        errors: List[str] = []
        dead: List[int] = []
        overdue: List[int] = []
        # Walks legitimately run unbounded when max_time is None, so the
        # global deadline only exists when a per-walk budget does; dead
        # walkers are seen regardless, as EOF.
        deadline = (
            start + max_time + join_timeout + _STARTUP_ALLOWANCE
            if max_time is not None
            else None
        )
        poll = poll_interval(join_timeout)
        # Graceful SIGINT/SIGTERM: the first signal tells every walk to stop
        # (they report partial stats); walks that fail to drain within
        # join_timeout are listed as missing.  Signal handlers can only be
        # installed from the main thread; elsewhere (e.g. a pool dispatcher)
        # the default handling is left untouched.
        signals_seen: List[int] = []
        drain_deadline: Optional[float] = None
        old_handlers = {}
        in_main_thread = threading.current_thread() is threading.main_thread()
        reusable = False

        def _on_signal(signum, frame):  # pragma: no cover - exercised via test
            signals_seen.append(signum)
            walkers.stop_event.set()

        walkers = _REGISTRY.checkout(self._ctx, self.n_workers)
        try:
            # Cleared before the handlers go in, so no signal's set() is undone.
            walkers.stop_event.clear()
            if in_main_thread:
                for signum in (signal.SIGINT, signal.SIGTERM):
                    try:
                        old_handlers[signum] = signal.signal(signum, _on_signal)
                    except (ValueError, OSError):  # pragma: no cover - exotic platforms
                        pass
            pending = {}
            for walk_index, (conn, seed) in enumerate(zip(walkers.conns, seeds)):
                job = (
                    self.problem_factory,
                    self.params,
                    self._walk_spec(walk_index),
                    int(seed),
                    walk_index,
                    max_time,
                    self.population,
                )
                try:
                    conn.send(job)
                except OSError:  # the walker died since checkout
                    dead.append(walk_index)
                else:
                    pending[conn] = walk_index
            while pending:
                now = time.perf_counter()
                if signals_seen and drain_deadline is None:
                    drain_deadline = now + join_timeout
                cutoffs = [d for d in (deadline, drain_deadline) if d is not None]
                if cutoffs and now > min(cutoffs):
                    overdue = sorted(pending.values())
                    break
                for conn in wait_ready(list(pending), timeout=poll):
                    walk_index = pending.pop(conn)
                    try:
                        kind, _, payload = conn.recv()
                    except (EOFError, OSError):  # died without reporting
                        dead.append(walk_index)
                        continue
                    if kind == "ok":
                        results.append(SolveResult.from_dict(payload))
                    else:
                        errors.append(f"walk {walk_index}: {payload}")
            reusable = not (dead or overdue or errors or signals_seen)
        finally:
            for signum, handler in old_handlers.items():
                signal.signal(signum, handler)
            _REGISTRY.checkin(walkers, reusable)
        elapsed = time.perf_counter() - start

        if not results:
            if signals_seen:
                raise ParallelExecutionError(
                    f"interrupted by signal {signals_seen[0]} before any walk reported"
                )
            reasons = []
            if dead:
                reasons.append(f"walk(s) {sorted(dead)} died without reporting")
            if overdue:
                reasons.append(
                    f"walk(s) {overdue} missed the deadline "
                    f"(max_time={max_time}s + join_timeout={join_timeout}s "
                    f"+ {_STARTUP_ALLOWANCE}s startup allowance)"
                )
            if errors:
                reasons.append("walk errors: " + "; ".join(errors))
            raise ParallelExecutionError("; ".join(reasons))
        best = SolveResult.best_of(results)
        return MultiWalkResult(
            best,
            results,
            self.n_workers,
            elapsed,
            list(seeds),
            missing_walks=sorted(dead + overdue),
            interrupted=bool(signals_seen),
        )
