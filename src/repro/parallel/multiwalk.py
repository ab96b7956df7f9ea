"""Real parallel independent multi-walk on the local machine.

This is the component a user runs to actually solve hard instances faster:
``k`` worker *processes* (not threads — the GIL would serialise pure-Python
search threads) each run a sequential search strategy with their own seed.
The first worker to find a solution sets a shared event; all workers poll
that event every ``check_period`` iterations through the strategy's
``stop_check`` hook, mirroring the non-blocking MPI probe of the paper, and
stop as soon as it is set.

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
worker.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_module
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.params import ASParameters
from repro.core.problem import PermutationProblem
from repro.core.result import SolveResult
from repro.exceptions import ParallelExecutionError
from repro.parallel.liveness import DeadProcessDetector, poll_interval
from repro.parallel.seeds import spawned_seeds
from repro.solvers import SpecLike, portfolio_label, resolve_portfolio, run_spec

__all__ = ["MultiWalkResult", "MultiWalkSolver"]

#: Grace added to the max_time-derived collection deadline: a walk's budget
#: only starts ticking inside its worker, after process start-up, imports and
#: problem construction (first use may even compile the C kernels), and the
#: engine polls max_time only every ``check_period`` iterations.
_STARTUP_ALLOWANCE = 15.0


@dataclass
class MultiWalkResult:
    """Aggregate outcome of a parallel multi-walk run.

    ``best`` is the winning walk's result (or the best unsolved one);
    ``results`` holds whatever the workers reported back before termination
    (the losers report their partial statistics too); ``wall_time`` is the
    end-to-end time measured by the coordinating process, which is what the
    speed-up tables use.
    """

    best: SolveResult
    results: List[SolveResult]
    n_workers: int
    wall_time: float
    seeds: List[int] = field(default_factory=list)
    #: Walk indices that never reported (worker died or missed the deadline).
    #: Empty on a clean run; non-empty results are still usable — ``best`` and
    #: ``results`` cover every walk that did report.
    missing_walks: List[int] = field(default_factory=list)
    #: ``True`` when the run was cut short by SIGINT/SIGTERM: the workers were
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


def _worker(
    problem_factory: Callable[[], PermutationProblem],
    params: ASParameters,
    spec_dict: dict,
    seed: int,
    walk_index: int,
    stop_event,
    queue,
    max_time: Optional[float],
    population: int = 1,
) -> None:
    """Body of one worker process: run this walk's strategy until solved,
    stopped or out of budget."""
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
        queue.put(("ok", walk_index, result.as_dict()))
    except Exception as exc:  # pragma: no cover - defensive: worker crash path
        queue.put(("error", walk_index, repr(exc)))


class MultiWalkSolver:
    """Independent multi-walk Adaptive Search using ``multiprocessing``.

    Parameters
    ----------
    problem_factory:
        Picklable zero-argument callable producing a fresh problem instance.
    params:
        Engine parameters shared by every Adaptive Search walk (walks whose
        spec carries its own ``params`` use those instead).
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
        Number of worker processes (default: the machine's CPU count).
    seeds:
        Explicit per-walk seeds; by default independent seeds are spawned from
        ``seed_root``.
    seed_root:
        Root seed used when *seeds* is not given.
    mp_context:
        ``multiprocessing`` start method (``"fork"`` by default on POSIX —
        cheapest; use ``"spawn"`` for portability).
    population:
        Vectorised walks *per worker process* (default 1).  Each worker slot
        whose strategy supports it (the compiled walk engine) advances
        ``population`` independent walks in one kernel batch and reports the
        best one, so the run races ``n_workers × population`` walks on
        ``n_workers`` cores.  Strategies without population support run a
        single walk per slot, unchanged.
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
        self.params = params if params is not None else ASParameters()
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
        """Run the walks and return as soon as every worker has reported.

        ``max_time`` bounds each walk's wall-clock time; ``join_timeout`` is a
        safety net for collecting worker processes after termination.

        Result collection never blocks forever: if a worker process dies
        without reporting (hard crash, OOM kill), the unreported walks are
        detected within ``join_timeout``; when ``max_time`` is set, a global
        deadline of ``max_time + join_timeout`` plus a fixed startup
        allowance (each walk's clock starts inside its worker, after process
        spawn and problem construction) backstops workers that hang without
        dying.  If at least one walk reported, the partial outcome is
        returned with the gaps listed in
        :attr:`MultiWalkResult.missing_walks` (a dead loser must not discard
        a solved winner); when *no* walk reported, a
        :class:`~repro.exceptions.ParallelExecutionError` listing the missing
        walks is raised.

        SIGINT/SIGTERM are handled gracefully while the walks run (when
        called from the main thread): the first signal sets the shared stop
        event, every worker exits at its next ``check_period`` poll and
        reports its partial statistics, and the partial
        :class:`MultiWalkResult` is returned with
        :attr:`~MultiWalkResult.interrupted` set — no child processes are
        leaked.  Workers that fail to drain within ``join_timeout`` are
        terminated and listed in :attr:`~MultiWalkResult.missing_walks`.
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
        stop_event = self._ctx.Event()
        queue = self._ctx.Queue()
        workers = []
        for idx, seed in enumerate(seeds):
            proc = self._ctx.Process(
                target=_worker,
                args=(
                    self.problem_factory,
                    self.params,
                    self._walk_spec(idx),
                    int(seed),
                    idx,
                    stop_event,
                    queue,
                    max_time,
                    self.population,
                ),
                daemon=True,
            )
            proc.start()
            workers.append(proc)

        results: List[SolveResult] = []
        errors: List[str] = []
        pending = {idx: proc for idx, proc in enumerate(workers)}
        # Workers legitimately run unbounded when max_time is None, so the
        # global deadline only exists when a per-walk budget does; dead
        # workers are detected regardless through liveness polling.
        deadline = (
            start + max_time + join_timeout + _STARTUP_ALLOWANCE
            if max_time is not None
            else None
        )
        poll = poll_interval(join_timeout)
        # Give the queue feeder a grace period to flush any result a worker
        # enqueued just before exiting (shared with the service worker pool).
        detector = DeadProcessDetector(grace=join_timeout)
        missing: List[int] = []
        # Graceful SIGINT/SIGTERM: the first signal tells every walk to stop
        # (they report partial stats and exit); workers that fail to drain
        # within join_timeout are reaped as missing.  Signal handlers can
        # only be installed from the main thread; elsewhere (e.g. a pool
        # dispatcher) the default handling is left untouched.
        signals_seen: List[int] = []
        drain_deadline: Optional[float] = None
        old_handlers = {}

        def _on_signal(signum, frame):  # pragma: no cover - exercised via test
            signals_seen.append(signum)
            stop_event.set()

        in_main_thread = threading.current_thread() is threading.main_thread()
        if in_main_thread:
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    old_handlers[signum] = signal.signal(signum, _on_signal)
                except (ValueError, OSError):  # pragma: no cover - exotic platforms
                    pass
        try:
            while pending:
                if signals_seen and drain_deadline is None:
                    drain_deadline = time.perf_counter() + join_timeout
                try:
                    kind, walk_index, payload = queue.get(timeout=poll)
                except queue_module.Empty:
                    now = time.perf_counter()
                    dead = detector.poll(pending, now)
                    if dead:
                        missing = dead
                        if results or signals_seen:
                            break  # degrade: keep the walks that reported
                        raise ParallelExecutionError(
                            f"walk(s) {dead} died without reporting "
                            f"(no result within join_timeout={join_timeout}s)"
                            + ("; worker errors: " + "; ".join(errors) if errors else "")
                        )
                    effective_deadline = deadline
                    if drain_deadline is not None:
                        effective_deadline = (
                            min(deadline, drain_deadline)
                            if deadline is not None
                            else drain_deadline
                        )
                    if effective_deadline is not None and now > effective_deadline:
                        missing = sorted(pending)
                        if results or signals_seen:
                            break  # degrade: keep the walks that reported
                        raise ParallelExecutionError(
                            f"walk(s) {missing} missed the deadline "
                            f"(max_time={max_time}s + join_timeout={join_timeout}s "
                            f"+ {_STARTUP_ALLOWANCE}s startup allowance)"
                        )
                    continue
                pending.pop(walk_index, None)
                if kind == "ok":
                    results.append(SolveResult.from_dict(payload))
                else:  # pragma: no cover - defensive
                    errors.append(f"walk {walk_index}: {payload}")
        finally:
            # On success this is the normal join; on error or interrupt it
            # also tells the surviving walks to stop before reaping them.
            stop_event.set()
            for proc in workers:
                proc.join(timeout=join_timeout if not pending else 0.1)
                if proc.is_alive():
                    proc.terminate()
            if in_main_thread:
                for signum, handler in old_handlers.items():
                    signal.signal(signum, handler)
        elapsed = time.perf_counter() - start

        if not results:
            if signals_seen:
                raise ParallelExecutionError(
                    f"interrupted by signal {signals_seen[0]} before any walk reported"
                )
            raise ParallelExecutionError(
                "every worker failed: " + "; ".join(errors) if errors else "no results"
            )
        best = SolveResult.best_of(results)
        return MultiWalkResult(
            best,
            results,
            len(workers),
            elapsed,
            list(seeds),
            missing_walks=missing,
            interrupted=bool(signals_seen),
        )
