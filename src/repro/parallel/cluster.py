"""Virtual-cluster performance model for large-scale multi-walk runs.

The paper evaluates independent multi-walk Adaptive Search on three machines
(HA8000, Grid'5000 Suno/Helios, Blue Gene/P JUGENE) with up to 8,192 cores.
We obviously cannot rent those machines from a test-suite, but the independent
multi-walk scheme has a property that makes faithful simulation possible: the
walks do not interact.  A ``k``-core run is therefore fully determined by the
``k`` i.i.d. sequential runtimes of its walks — its wall-clock time is the
minimum of those runtimes plus the termination-polling latency (at most one
``check_period`` slice) — and simulating a parallel run only requires sampling
``k`` sequential runtimes.

:class:`VirtualCluster` supports three sampling strategies, in decreasing
order of fidelity and cost:

``direct``
    Actually run ``k`` fresh sequential walks (exact; used for small ``k`` and
    by the tests).
``bootstrap``
    Resample ``k`` runtimes (with replacement) from a pre-collected pool of
    sequential runs of the same instance (the :class:`~repro.parallel.runner.RunPool`).
    This is statistically exact up to pool-sampling noise and is how the
    benchmark harness reaches 256–8,192 cores.
``exponential``
    Sample from a shifted-exponential fit of the pool (the distribution family
    the paper's Figure 4 shows to match CAP runtimes).  Used for analytic
    speed-up predictions and cross-checking the bootstrap.

Machine heterogeneity is modelled by :class:`MachineModel`: every machine has
an *iteration rate factor* relative to the reference host, derived from the
clock ratio of its CPU (e.g. JUGENE's 850 MHz PowerPC vs the reference
3.2 GHz Xeon).  Simulated times are ``iterations / (host_rate * factor)``,
so they scale exactly like the paper's observation that JUGENE cores are
"significantly slower to solve a given problem".
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.params import ASParameters
from repro.core.problem import PermutationProblem
from repro.exceptions import AnalysisError, ParallelExecutionError
from repro.core.rng import SeedLike, ensure_generator
from repro.solvers import run_spec

__all__ = [
    "MachineModel",
    "WalkSample",
    "ParallelRunEstimate",
    "VirtualCluster",
    "HA8000",
    "SUNO",
    "HELIOS",
    "JUGENE",
    "LOCAL_HOST",
]


@dataclass(frozen=True)
class MachineModel:
    """A named machine with a per-core speed factor relative to the local host.

    ``clock_ghz`` is documentation (the paper's hardware description);
    ``speed_factor`` is what the simulation uses: a core of this machine
    executes ``speed_factor`` times as many engine iterations per second as a
    core of the machine the run pool was measured on.
    """

    name: str
    cores_per_node: int
    clock_ghz: float
    speed_factor: float = 1.0
    max_cores: Optional[int] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.speed_factor <= 0:
            raise ValueError(f"speed_factor must be positive, got {self.speed_factor}")
        if self.cores_per_node < 1:
            raise ValueError(f"cores_per_node must be >= 1, got {self.cores_per_node}")

    def scaled(self, reference_clock_ghz: float) -> "MachineModel":
        """Return a copy whose ``speed_factor`` is the clock ratio to *reference*."""
        if reference_clock_ghz <= 0:
            raise ValueError("reference clock must be positive")
        return MachineModel(
            name=self.name,
            cores_per_node=self.cores_per_node,
            clock_ghz=self.clock_ghz,
            speed_factor=self.clock_ghz / reference_clock_ghz,
            max_cores=self.max_cores,
            description=self.description,
        )


#: The machines of Section V-A, with speed factors relative to the paper's
#: sequential reference host (3.2 GHz Xeon W5580).  A simple clock-ratio model
#: is deliberately used: the goal is the *shape* of the scaling curves, not
#: absolute times.
LOCAL_HOST = MachineModel(
    "local", cores_per_node=1, clock_ghz=3.2, speed_factor=1.0,
    description="Reference host the sequential run pools are measured on.",
)
HA8000 = MachineModel(
    "HA8000", cores_per_node=16, clock_ghz=2.3, speed_factor=2.3 / 3.2,
    max_cores=1024,
    description="Hitachi HA8000 (AMD Opteron 8356, 2.3 GHz), University of Tokyo.",
)
SUNO = MachineModel(
    "Suno", cores_per_node=8, clock_ghz=2.4, speed_factor=2.4 / 3.2,
    max_cores=360,
    description="Grid'5000 Sophia-Antipolis Suno cluster (Dell PowerEdge R410).",
)
HELIOS = MachineModel(
    "Helios", cores_per_node=4, clock_ghz=2.2, speed_factor=2.2 / 3.2,
    max_cores=224,
    description="Grid'5000 Sophia-Antipolis Helios cluster (Sun Fire X4100).",
)
JUGENE = MachineModel(
    "JUGENE", cores_per_node=4, clock_ghz=0.85, speed_factor=0.85 / 3.2,
    max_cores=294_912,
    description="IBM Blue Gene/P (PowerPC 450, 850 MHz), Julich Supercomputing Centre.",
)


@dataclass(frozen=True)
class WalkSample:
    """One sequential walk: how many engine iterations it needed, and whether it solved."""

    iterations: int
    solved: bool
    wall_time: float = 0.0
    seed: Optional[int] = None
    local_minima: int = 0


@dataclass
class ParallelRunEstimate:
    """Simulated outcome of one k-core multi-walk execution."""

    cores: int
    machine: str
    #: Iterations of the winning walk (or the budget when nothing solved).
    winning_iterations: int
    #: Simulated wall-clock seconds of the parallel run.
    wall_time: float
    solved: bool
    #: Sum of iterations executed by all cores until termination (total work).
    total_iterations: int
    #: Fraction of the bootstrap pool that was budget-censored (unsolved
    #: walks, which resampling necessarily skips).  A high value means the
    #: pool under-represents slow walks and the estimate is biased low;
    #: 0.0 for ``direct`` and ``exponential`` sampling.
    censored_fraction: float = 0.0


class VirtualCluster:
    """Simulate k-core independent multi-walk runs on a modelled machine.

    Parameters
    ----------
    machine:
        The machine model (speed factor, core limits).
    host_iteration_rate:
        Measured engine iterations per second of the *local* host for the
        instance being simulated (obtained from the run pool).  Combined with
        ``machine.speed_factor`` it converts iteration counts to simulated
        seconds.
    check_period:
        The termination-polling period (iterations between non-blocking
        probes); the loser cores run up to one extra period.
    """

    def __init__(
        self,
        machine: MachineModel,
        *,
        host_iteration_rate: float,
        check_period: int = 64,
    ) -> None:
        if host_iteration_rate <= 0:
            raise ParallelExecutionError(
                f"host_iteration_rate must be positive, got {host_iteration_rate}"
            )
        if check_period < 1:
            raise ParallelExecutionError(f"check_period must be >= 1, got {check_period}")
        self.machine = machine
        self.host_iteration_rate = float(host_iteration_rate)
        self.check_period = int(check_period)

    # ------------------------------------------------------------------ helpers
    @property
    def iterations_per_second(self) -> float:
        """Simulated iteration rate of one core of the modelled machine."""
        return self.host_iteration_rate * self.machine.speed_factor

    def seconds(self, iterations: float) -> float:
        """Convert an iteration count into simulated seconds on this machine."""
        return float(iterations) / self.iterations_per_second

    def _check_cores(self, cores: int) -> None:
        if cores < 1:
            raise ParallelExecutionError(f"core count must be >= 1, got {cores}")
        if self.machine.max_cores is not None and cores > self.machine.max_cores:
            raise ParallelExecutionError(
                f"{self.machine.name} has at most {self.machine.max_cores} cores, "
                f"{cores} requested"
            )

    # --------------------------------------------------------------- simulation
    #: Above this censored fraction a bootstrap pool is considered unusable
    #: without an explicit opt-in: the resampled times would mostly describe
    #: the lucky minority of walks that finished within budget.
    MAX_CENSORED_FRACTION = 0.5

    def simulate_run(
        self,
        samples: Sequence[WalkSample],
        cores: int,
        rng: SeedLike = None,
        *,
        sampling: str = "bootstrap",
        exponential_fit: Optional[tuple[float, float]] = None,
        allow_censored: bool = False,
    ) -> ParallelRunEstimate:
        """Simulate one k-core run by drawing k walks and applying the protocol.

        Parameters
        ----------
        samples:
            Pool of sequential walk samples of the instance (only used by
            ``bootstrap``; must be non-empty and contain at least one solved
            walk).
        cores:
            Number of cores (independent walks) of the simulated run.
        rng:
            Randomness for the resampling.
        sampling:
            ``"bootstrap"`` (resample the pool) or ``"exponential"`` (sample a
            shifted exponential; requires ``exponential_fit=(shift, scale)``
            in iteration units).
        allow_censored:
            Bootstrap resampling can only draw the *solved* walks, so a pool
            with many budget-censored (unsolved) samples biases
            time-to-solution low.  When more than
            :data:`MAX_CENSORED_FRACTION` of the pool is censored the run is
            refused with :class:`~repro.exceptions.AnalysisError` unless this
            flag is set, in which case a :class:`UserWarning` is emitted and
            the bias is surfaced on
            :attr:`ParallelRunEstimate.censored_fraction`.
        """
        self._check_cores(cores)
        generator = ensure_generator(rng)
        censored_fraction = 0.0

        if sampling == "bootstrap":
            if not samples:
                raise AnalysisError("bootstrap sampling requires a non-empty pool")
            solved_pool = np.array(
                [s.iterations for s in samples if s.solved], dtype=np.float64
            )
            if solved_pool.size == 0:
                raise AnalysisError("the run pool contains no solved walks")
            censored_fraction = 1.0 - solved_pool.size / len(samples)
            if censored_fraction > self.MAX_CENSORED_FRACTION:
                message = (
                    f"{censored_fraction:.0%} of the run pool is budget-censored "
                    "(unsolved); bootstrap estimates from the solved minority "
                    "are biased low"
                )
                if not allow_censored:
                    raise AnalysisError(
                        message + " — pass allow_censored=True to proceed anyway"
                    )
                warnings.warn(message, UserWarning, stacklevel=2)
            draws = generator.choice(solved_pool, size=cores, replace=True)
        elif sampling == "exponential":
            if exponential_fit is None:
                raise AnalysisError("exponential sampling requires exponential_fit=(shift, scale)")
            shift, scale = exponential_fit
            if scale <= 0:
                raise AnalysisError(f"exponential scale must be positive, got {scale}")
            draws = shift + generator.exponential(scale, size=cores)
            draws = np.maximum(draws, 1.0)
        else:
            raise AnalysisError(f"unknown sampling strategy {sampling!r}")

        winning = float(draws.min())
        # Losers stop at their first poll after the winner finishes (or earlier
        # if they would have finished on their own).
        next_poll = (np.floor(winning / self.check_period) + 1) * self.check_period
        executed = np.minimum(draws, next_poll)
        total = float(executed.sum())
        return ParallelRunEstimate(
            cores=cores,
            machine=self.machine.name,
            winning_iterations=int(round(winning)),
            wall_time=self.seconds(winning),
            solved=True,
            total_iterations=int(round(total)),
            censored_fraction=censored_fraction,
        )

    def simulate_many(
        self,
        samples: Sequence[WalkSample],
        cores: int,
        repetitions: int,
        rng: SeedLike = None,
        *,
        sampling: str = "bootstrap",
        exponential_fit: Optional[tuple[float, float]] = None,
        allow_censored: bool = False,
    ) -> List[ParallelRunEstimate]:
        """Simulate *repetitions* independent k-core runs (one table cell of the paper)."""
        if repetitions < 1:
            raise ParallelExecutionError(f"repetitions must be >= 1, got {repetitions}")
        generator = ensure_generator(rng)
        return [
            self.simulate_run(
                samples,
                cores,
                generator,
                sampling=sampling,
                exponential_fit=exponential_fit,
                allow_censored=allow_censored,
            )
            for _ in range(repetitions)
        ]

    def direct_run(
        self,
        problem_factory: Callable[[], PermutationProblem],
        params: ASParameters,
        cores: int,
        seeds: Sequence[int],
    ) -> ParallelRunEstimate:
        """Exact simulation: actually run *cores* fresh sequential walks of
        the default engine, then replay the termination protocol on their
        iteration counts.

        The winner is the solved walk with the fewest iterations; every other
        walk stops at the first multiple of ``check_period`` after it (the
        poll of Section V-A), or earlier when it finished on its own.  The
        walks are independent, so running each to completion and replaying
        the poll gives exactly the counts an interleaved run would.

        Only sensible for small core counts.
        """
        self._check_cores(cores)
        if len(seeds) < cores:
            raise ParallelExecutionError(
                f"{len(seeds)} seeds provided for {cores} cores"
            )
        iteration_counts: List[int] = []
        solved_counts: List[int] = []
        for seed in seeds[:cores]:
            result = run_spec(None, problem_factory(), int(seed), as_params=params)
            iteration_counts.append(result.iterations)
            if result.solved:
                solved_counts.append(result.iterations)
        winning = min(solved_counts or iteration_counts)
        next_poll = (winning // self.check_period + 1) * self.check_period
        executed = [min(c, next_poll) for c in iteration_counts]
        return ParallelRunEstimate(
            cores=cores,
            machine=self.machine.name,
            winning_iterations=int(winning),
            wall_time=self.seconds(winning),
            solved=bool(solved_counts),
            total_iterations=int(sum(executed)),
        )
