"""Driver for the compiled walk engine (the ``as_walk_*`` kernels).

PR 1 moved the *evaluation* of moves into C but kept the per-iteration
control flow — culprit selection, tabu bookkeeping, plateau/local-minimum
policy, resets, restarts — in Python, crossing the ctypes boundary every
iteration.  This module moves the whole inner loop across: one
``as_walk_run`` call advances up to ``check_period`` iterations of W
independent walks over batched ``(W, …)`` tables, and Python only runs at
check-period boundaries to poll ``stop_check``/``max_time`` and dispatch
callbacks — exactly the cadence :class:`~repro.core.strategy.StrategyRun`
polls at, so the external-stop contract ("a stop is honoured within one
``check_period``") is preserved.

Randomness comes from a per-walk xoshiro256** stream embedded in the kernel
(seeded through splitmix64), with a line-for-line Python mirror in
:mod:`repro.core.cwalk_mirror`; compiled and mirror trajectories are
bit-exact, which is how the kernel is tested.  Because the stream differs
from NumPy's PCG64, compiled runs are *different random walks* than the
NumPy engine's — equally valid, same semantics and counters, not the same
trajectory.

Three families compile (Costas, N-Queens, All-Interval).  Everything else —
and every environment without a C toolchain or with ``REPRO_NO_CKERNELS``
set — transparently falls back to the NumPy engine, reporting
``extra["engine"] = "numpy-fallback"``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core import _ckernels
from repro.core.callbacks import IterationCallback, _call_event, _call_iteration
from repro.core.params import ASParameters
from repro.core.problem import PermutationProblem
from repro.core.result import SolveResult
from repro.core.rng import SeedLike, derive_seed

__all__ = [
    "CompiledAdaptiveSearch",
    "WalkPopulation",
    "WalkSpec",
    "walk_spec",
    "supports",
    "population_seeds",
]

# ------------------------------------------------------------------- layout
# Slot indices mirroring the enums in _kernels.c — keep in lockstep.
(
    WK_N, WK_FAMILY, WK_TARGET, WK_MAXITER, WK_TENURE, WK_RESET_LIMIT,
    WK_RESET_K, WK_RESTART_LIMIT, WK_MAX_RESTARTS, WK_CLEAR_TABU,
    WK_DEDICATED, WK_D, WK_WX, WK_OFF, WK_L, WK_NCONSTS,
) = range(16)
WK_NPARAMS = 16

WD_PLATEAU, WD_LOCALMIN = 0, 1

(
    WS_RNG0, WS_RNG1, WS_RNG2, WS_RNG3, WS_COST, WS_ITER, WS_SWAPS,
    WS_PLATEAU, WS_LOCALMIN, WS_RESETS, WS_RESTARTS, WS_MARKED, WS_ISR,
    WS_ERRVALID, WS_BEST, WS_STATUS,
) = range(16)
WS_NSLOTS = 16

#: WS_STATUS values.
STATUS_RUNNING, STATUS_SOLVED, STATUS_MAX_ITERATIONS = 0, 1, 2

FAMILY_COSTAS, FAMILY_QUEENS, FAMILY_ALL_INTERVAL = 0, 1, 2

_MASK64 = (1 << 64) - 1


@dataclass
class WalkSpec:
    """Kernel-ready description of one problem + parameter combination."""

    family: int
    n: int
    pi: np.ndarray  # int64[WK_NPARAMS]
    pd: np.ndarray  # float64[2]
    wd: np.ndarray  # int64 costas distance weights (dummy for other families)
    consts: np.ndarray  # int64 costas reset constants (dummy when none)


def _family_of(problem: PermutationProblem) -> Optional[int]:
    # Imported lazily: repro.models modules import repro.core submodules.
    from repro.models.all_interval import AllIntervalProblem
    from repro.models.costas import _CostasBase
    from repro.models.queens import NQueensProblem

    if isinstance(problem, _CostasBase):
        return FAMILY_COSTAS
    if isinstance(problem, NQueensProblem):
        return FAMILY_QUEENS
    if isinstance(problem, AllIntervalProblem):
        return FAMILY_ALL_INTERVAL
    return None


def supports(problem: PermutationProblem) -> bool:
    """Whether *problem* belongs to a family the walk kernel compiles."""
    return _family_of(problem) is not None


def walk_spec(
    problem: PermutationProblem, params: ASParameters
) -> Optional[WalkSpec]:
    """Build the kernel parameter blocks, or ``None`` for unsupported models."""
    family = _family_of(problem)
    if family is None:
        return None
    n = problem.size
    pi = np.zeros(WK_NPARAMS, dtype=np.int64)
    wd = np.ones(1, dtype=np.int64)
    consts = np.zeros(1, dtype=np.int64)
    n_consts = 0
    if family == FAMILY_COSTAS:
        D = int(problem._max_d)
        wd = np.ascontiguousarray(problem._weights[1 : D + 1])
        clist = [int(c) for c in problem._reset_constants]
        if clist:
            consts = np.asarray(clist, dtype=np.int64)
        n_consts = len(clist)
        pi[WK_D] = D
        pi[WK_WX] = 2 * n
        pi[WK_OFF] = n - 1
        pi[WK_L] = 3 * n
        pi[WK_DEDICATED] = 1 if problem._dedicated_reset else 0
    # The generic reset re-randomises k variables; k is computed here so the
    # kernel, the mirror and the NumPy engine share Python's round().
    reset_k = max(2, int(round(params.reset_percentage * n)))
    reset_k = min(reset_k, n)
    pi[WK_N] = n
    pi[WK_FAMILY] = family
    pi[WK_TARGET] = int(params.target_cost)
    pi[WK_MAXITER] = (
        -1 if params.max_iterations is None else int(params.max_iterations)
    )
    pi[WK_TENURE] = int(params.tabu_tenure)
    pi[WK_RESET_LIMIT] = int(params.reset_limit)
    pi[WK_RESET_K] = reset_k
    pi[WK_RESTART_LIMIT] = (
        -1 if params.restart_limit is None else int(params.restart_limit)
    )
    pi[WK_MAX_RESTARTS] = int(params.max_restarts)
    pi[WK_CLEAR_TABU] = 1 if params.clear_tabu_on_reset else 0
    pi[WK_NCONSTS] = n_consts
    pd = np.array(
        [params.plateau_probability, params.local_min_accept_probability],
        dtype=np.float64,
    )
    return WalkSpec(family=family, n=n, pi=pi, pd=pd, wd=wd, consts=consts)


def population_seeds(seed: SeedLike, population: int) -> List[int]:
    """The per-walk kernel seeds a population run derives from *seed*.

    Deterministic for integer seeds (``SeedSequence.spawn``), fresh entropy
    otherwise.  Exposed so tests and workers can reproduce population walks
    individually.
    """
    ss = np.random.SeedSequence(seed if seed is not None else None)
    return [
        int(child.generate_state(1, dtype=np.uint64)[0])
        for child in ss.spawn(population)
    ]


# --------------------------------------------------------------- population
class WalkPopulation:
    """W compiled walks over batched tables, advanced by one kernel call.

    This is the low-level handle: it owns the ``(W, …)`` arrays, feeds them
    to ``as_walk_init``/``as_walk_run`` and exposes the raw state matrix.
    :class:`CompiledAdaptiveSearch` wraps it with the solver protocol; the
    trajectory tests drive it directly with ``steps=1``.
    """

    def __init__(self, spec: WalkSpec, lib: Optional[Any] = None) -> None:
        self.spec = spec
        self.lib = lib if lib is not None else _ckernels.load()
        if self.lib is None:
            raise RuntimeError("compiled walk engine requires the C kernels")
        n, family = spec.n, spec.family
        if family == FAMILY_COSTAS:
            D = int(spec.pi[WK_D])
            self._s1, self._s2 = (D + 1) * n, (D + 1) * int(spec.pi[WK_WX])
        elif family == FAMILY_QUEENS:
            self._s1, self._s2 = 2 * n - 1, 2 * n - 1
        else:
            self._s1, self._s2 = n, 1  # tbl2 unused by all-interval
        m = 2 * (n - 1) + int(spec.pi[WK_NCONSTS]) + 3
        self._scratch_len = 6 * n - 1 + m * (n + 2)
        self.W = 0

    def init(
        self,
        seeds: Sequence[int],
        given: Optional[np.ndarray] = None,
    ) -> None:
        """Allocate the batch for ``len(seeds)`` walks and initialise them.

        ``given`` (shape ``(W, n)``) starts every walk from a fixed
        permutation instead of drawing one from its RNG stream.
        """
        spec = self.spec
        W, n = len(seeds), spec.n
        self.W = W
        self.seeds = [int(s) & _MASK64 for s in seeds]
        self._cseeds = np.array(self.seeds, dtype=np.uint64).view(np.int64)
        self.state = np.zeros((W, WS_NSLOTS), dtype=np.int64)
        self.perm = np.zeros((W, n), dtype=np.int64)
        self.tabu = np.zeros((W, n), dtype=np.int64)
        self.errs = np.zeros((W, n), dtype=np.int64)
        self.best = np.zeros((W, n), dtype=np.int64)
        self.tbl1 = np.zeros((W, self._s1), dtype=np.int64)
        self.tbl2 = np.zeros((W, self._s2), dtype=np.int64)
        self.scratch = np.zeros(self._scratch_len, dtype=np.int64)
        use_given = 0
        if given is not None:
            self.perm[:] = np.asarray(given, dtype=np.int64).reshape(W, n)
            use_given = 1
        self.lib.as_walk_init(
            spec.pi.ctypes.data,
            spec.wd.ctypes.data,
            W,
            self._cseeds.ctypes.data,
            use_given,
            self.state.ctypes.data,
            self.perm.ctypes.data,
            self.tabu.ctypes.data,
            self.best.ctypes.data,
            self.tbl1.ctypes.data,
            self.tbl2.ctypes.data,
        )
        # as_walk_run's arguments around `steps`, bound once per batch: the
        # twelve .ctypes.data reads cost ~8 us a call on a 2-core x86 VM,
        # about a tenth of a 64-iteration Costas 16 period there.  The
        # arrays are only ever written in place, so the addresses hold.
        self._run_head = (
            spec.pi.ctypes.data,
            spec.pd.ctypes.data,
            spec.wd.ctypes.data,
            spec.consts.ctypes.data,
            W,
        )
        self._run_tail = tuple(
            a.ctypes.data
            for a in (
                self.state, self.perm, self.tabu, self.errs, self.best,
                self.tbl1, self.tbl2, self.scratch,
            )
        )

    def run(self, steps: int) -> int:
        """Advance every running walk by up to *steps* iterations.

        Returns the number of walks still running.  ``steps=0`` only settles
        statuses (target / iteration-budget checks) without consuming RNG
        draws — the driver uses it for the iteration-0 boundary.
        """
        return int(
            self.lib.as_walk_run(*self._run_head, int(steps), *self._run_tail)
        )


# ------------------------------------------------------------------- solver
class CompiledAdaptiveSearch:
    """Adaptive Search with the entire inner loop compiled to C.

    Satisfies :class:`~repro.core.strategy.SearchStrategy`.  Per-iteration
    semantics (culprit/tabu/plateau/local-minimum/reset/restart decisions and
    every counter) match the NumPy engine; trajectories are driven by the
    kernel's own RNG stream instead of NumPy's, so results for a given seed
    differ from ``AdaptiveSearch`` while remaining deterministic per seed.

    ``stop_check``/``max_time`` are polled and ``callbacks.on_iteration`` is
    dispatched only at ``check_period`` boundaries — same contract as the
    NumPy engine, but the callback granularity is one call per period rather
    than per iteration.

    Unsupported problem families (and environments without the C kernels)
    fall back to the NumPy engine transparently; the result keeps this
    solver's name and reports ``extra["engine"] = "numpy-fallback"``.
    """

    name = "compiled-adaptive-search"

    def __init__(self, params: Optional[ASParameters] = None) -> None:
        self.params = params if params is not None else ASParameters()

    # ----------------------------------------------------------------- public
    def solve(
        self,
        problem: PermutationProblem,
        seed: SeedLike = None,
        *,
        params: Optional[ASParameters] = None,
        stop_check: Optional[Callable[[], bool]] = None,
        callbacks: Optional[IterationCallback] = None,
        initial_configuration: Optional[np.ndarray] = None,
        max_time: Optional[float] = None,
    ) -> SolveResult:
        """Run one compiled walk; the walk's RNG is seeded with *seed* itself.

        An integer seed is used as is; a generator or ``SeedSequence`` yields
        one derived integer seed, so it stays reproducible; ``None`` draws
        fresh entropy.
        """
        p = params if params is not None else self.params
        spec = None if _ckernels.load() is None else walk_spec(problem, p)
        if spec is None:
            return self._fallback(
                problem,
                seed,
                params=p,
                stop_check=stop_check,
                callbacks=callbacks,
                initial_configuration=initial_configuration,
                max_time=max_time,
            )
        if isinstance(seed, (int, np.integer)):
            walk_seed = int(seed)
        elif seed is None:
            walk_seed = int.from_bytes(os.urandom(8), "little")
        else:
            walk_seed = derive_seed(seed, 0)
        given = (
            None
            if initial_configuration is None
            else np.asarray(initial_configuration, dtype=np.int64).reshape(
                1, spec.n
            )
        )
        return self._run(
            problem,
            spec,
            p,
            [walk_seed],
            stop_check=stop_check,
            callbacks=callbacks,
            max_time=max_time,
            given=given,
            first_solution_stops=False,
        )[0]

    def solve_population(
        self,
        problem: PermutationProblem,
        seed: SeedLike = None,
        *,
        population: int,
        params: Optional[ASParameters] = None,
        stop_check: Optional[Callable[[], bool]] = None,
        callbacks: Optional[IterationCallback] = None,
        max_time: Optional[float] = None,
    ) -> List[SolveResult]:
        """Run *population* walks in one kernel batch; first solution stops.

        Per-walk seeds come from :func:`population_seeds`; every walk gets
        its own :class:`SolveResult` (walks outrun by a sibling's solution
        report ``stop_reason="external_stop"``).  Falls back to sequential
        NumPy-engine walks when the kernels or the family are unavailable.
        """
        if population < 1:
            raise ValueError(f"population must be >= 1, got {population}")
        p = params if params is not None else self.params
        seeds = population_seeds(seed, population)
        spec = None if _ckernels.load() is None else walk_spec(problem, p)
        if spec is None:
            results = []
            stop = [False]
            check = stop_check
            if population > 1:
                def check() -> bool:  # first solution stops the siblings
                    return stop[0] or (stop_check() if stop_check else False)
            for w, walk_seed in enumerate(seeds):
                result = self._fallback(
                    problem,
                    walk_seed,
                    params=p,
                    stop_check=check,
                    callbacks=callbacks,
                    initial_configuration=None,
                    max_time=max_time,
                )
                result.extra["population"] = population
                result.extra["walk"] = w
                if result.solved:
                    stop[0] = True
                results.append(result)
            return results
        return self._run(
            problem,
            spec,
            p,
            seeds,
            stop_check=stop_check,
            callbacks=callbacks,
            max_time=max_time,
            given=None,
            first_solution_stops=True,
        )

    # --------------------------------------------------------------- internals
    def _run(
        self,
        problem: PermutationProblem,
        spec: WalkSpec,
        p: ASParameters,
        seeds: List[int],
        *,
        stop_check: Optional[Callable[[], bool]],
        callbacks: Optional[IterationCallback],
        max_time: Optional[float],
        given: Optional[np.ndarray],
        first_solution_stops: bool,
    ) -> List[SolveResult]:
        start = time.perf_counter()
        W = len(seeds)
        pop = WalkPopulation(spec)
        pop.init(seeds, given=given)
        state = pop.state
        period = int(p.check_period)
        external_reason: Optional[str] = None

        # Settle iteration-0 statuses (target / budget) before the first
        # boundary poll, mirroring StrategyRun.running()'s check order.
        running = pop.run(0)
        while running > 0:
            if first_solution_stops and (
                state[:, WS_STATUS] == STATUS_SOLVED
            ).any():
                break
            if stop_check is not None and stop_check():
                external_reason = "external_stop"
                break
            if (
                max_time is not None
                and time.perf_counter() - start >= max_time
            ):
                external_reason = "max_time"
                break
            running = pop.run(period)
            if callbacks is not None:
                _call_iteration(
                    callbacks,
                    int(state[:, WS_ITER].max()),
                    int(state[:, WS_COST].min()),
                )

        elapsed = time.perf_counter() - start
        target = int(spec.pi[WK_TARGET])
        results = []
        for w in range(W):
            st = state[w]
            best_cost = int(st[WS_BEST])
            solved = best_cost <= target
            if solved:
                reason = "solved"
            elif int(st[WS_STATUS]) == STATUS_MAX_ITERATIONS:
                reason = "max_iterations"
            elif external_reason is not None:
                reason = external_reason
            else:
                reason = "external_stop"  # outrun by a sibling walk
            extra: Dict[str, Any] = {"engine": "compiled", "population": W}
            if W > 1:
                extra["walk"] = w
            results.append(
                SolveResult(
                    solved=solved,
                    configuration=pop.best[w].copy(),
                    cost=best_cost,
                    iterations=int(st[WS_ITER]),
                    local_minima=int(st[WS_LOCALMIN]),
                    plateau_moves=int(st[WS_PLATEAU]),
                    resets=int(st[WS_RESETS]),
                    restarts=int(st[WS_RESTARTS]),
                    swaps=int(st[WS_SWAPS]),
                    wall_time=elapsed,
                    seed=seeds[w],
                    stop_reason=reason,
                    solver=self.name,
                    problem=problem.describe(),
                    extra=extra,
                )
            )
        best_walk = min(range(W), key=lambda w: int(state[w, WS_BEST]))
        problem.load_trusted_configuration(pop.best[best_walk].copy())
        if callbacks is not None and results[best_walk].solved:
            _call_event(
                callbacks,
                "solution",
                results[best_walk].iterations,
                results[best_walk].cost,
            )
        return results

    def _fallback(
        self,
        problem: PermutationProblem,
        seed: SeedLike,
        *,
        params: ASParameters,
        stop_check: Optional[Callable[[], bool]],
        callbacks: Optional[IterationCallback],
        initial_configuration: Optional[np.ndarray],
        max_time: Optional[float],
    ) -> SolveResult:
        from repro.core.engine import AdaptiveSearch

        result = AdaptiveSearch(params).solve(
            problem,
            seed,
            stop_check=stop_check,
            callbacks=callbacks,
            initial_configuration=initial_configuration,
            max_time=max_time,
        )
        result.solver = self.name
        result.extra = dict(result.extra)
        result.extra["engine"] = "numpy-fallback"
        return result
