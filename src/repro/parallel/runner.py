"""Experiment runner: collect sequential run pools and drive the virtual cluster.

The experiment drivers need, for each instance, a pool of independent
sequential runs (the raw material of Tables I and of every simulated parallel
table).  Collecting such a pool is by far the most expensive part of the
reproduction, so :class:`RunPool` supports JSON round-tripping and the runner
caches pools in memory and optionally on disk under ``.repro_cache/``.

:class:`ExperimentRunner` then answers the questions the experiment drivers
ask: "give me the sequential summary of instance n" (Table I rows) and "give
me the avg/med/min/max simulated times of a k-core run on machine M"
(Tables III–V cells), reusing one pool per instance across all core counts and
machines, exactly like the paper reuses one implementation across testbeds.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import RunSummary, summarize
from repro.core.engine import AdaptiveSearch
from repro.core.params import ASParameters
from repro.core.problem import PermutationProblem
from repro.core.result import SolveResult
from repro.exceptions import AnalysisError, ParallelExecutionError
from repro.parallel.cluster import MachineModel, ParallelRunEstimate, VirtualCluster, WalkSample
from repro.parallel.seeds import spawned_seeds
from repro.core.rng import ensure_generator

__all__ = ["RunPool", "ExperimentRunner"]


@dataclass
class RunPool:
    """A pool of independent sequential runs of one problem instance."""

    problem: str
    samples: List[WalkSample] = field(default_factory=list)
    #: Iterations per second measured while collecting the pool (host rate).
    host_iteration_rate: float = 0.0

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self.samples)

    @property
    def solved_samples(self) -> List[WalkSample]:
        """Samples whose walk found a solution."""
        return [s for s in self.samples if s.solved]

    def iterations(self, *, solved_only: bool = True) -> np.ndarray:
        """Iteration counts of the pool as an array."""
        source = self.solved_samples if solved_only else self.samples
        return np.array([s.iterations for s in source], dtype=np.float64)

    def wall_times(self, *, solved_only: bool = True) -> np.ndarray:
        """Measured wall-clock times of the pool as an array."""
        source = self.solved_samples if solved_only else self.samples
        return np.array([s.wall_time for s in source], dtype=np.float64)

    def summary(self, metric: str = "iterations") -> RunSummary:
        """Aggregate statistics of the solved samples (Table I style)."""
        if metric == "iterations":
            values = self.iterations()
        elif metric == "wall_time":
            values = self.wall_times()
        else:
            raise AnalysisError(f"unknown pool metric {metric!r}")
        return summarize(values)

    # -------------------------------------------------------------- persistence
    def to_dict(self) -> Dict:
        """JSON-friendly representation."""
        return {
            "problem": self.problem,
            "host_iteration_rate": self.host_iteration_rate,
            "samples": [
                {
                    "iterations": s.iterations,
                    "solved": s.solved,
                    "wall_time": s.wall_time,
                    "seed": s.seed,
                    "local_minima": s.local_minima,
                }
                for s in self.samples
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunPool":
        """Inverse of :meth:`to_dict`."""
        return cls(
            problem=data["problem"],
            host_iteration_rate=float(data.get("host_iteration_rate", 0.0)),
            samples=[
                WalkSample(
                    iterations=int(s["iterations"]),
                    solved=bool(s["solved"]),
                    wall_time=float(s.get("wall_time", 0.0)),
                    seed=s.get("seed"),
                    local_minima=int(s.get("local_minima", 0)),
                )
                for s in data.get("samples", [])
            ],
        )

    def save(self, path: Path | str) -> None:
        """Write the pool as JSON."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: Path | str) -> "RunPool":
        """Read a pool previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


class ExperimentRunner:
    """Collects sequential run pools and simulates parallel executions from them.

    Parameters
    ----------
    cache_dir:
        Directory for on-disk pool caching (``None`` disables it).  Pools are
        keyed by the problem description, the engine parameters and the number
        of runs, so changing any of those re-collects.
    """

    def __init__(self, cache_dir: Optional[Path | str] = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._memory_cache: Dict[str, RunPool] = {}

    # ------------------------------------------------------------------- pools
    def _cache_key(self, problem: PermutationProblem, params: ASParameters, runs: int) -> str:
        # Must be stable across processes: ``hash(str)`` is salted per process
        # (PYTHONHASHSEED), which made on-disk pool caches unreachable on the
        # next run.  A truncated SHA-256 of the payload is deterministic.
        payload = f"{problem.describe()}|{params}|runs={runs}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def collect_pool(
        self,
        problem_factory: Callable[[], PermutationProblem],
        params: ASParameters,
        runs: int,
        *,
        seed_root: Optional[int] = 12345,
        use_cache: bool = True,
    ) -> RunPool:
        """Run *runs* independent sequential walks and return the pool.

        Seeds are spawned deterministically from ``seed_root`` so repeated
        collections (and cache misses after trivial code changes) stay
        reproducible.
        """
        if runs < 1:
            raise ParallelExecutionError(f"runs must be >= 1, got {runs}")
        sample_problem = problem_factory()
        key = self._cache_key(sample_problem, params, runs)
        if use_cache and key in self._memory_cache:
            return self._memory_cache[key]
        if use_cache and self.cache_dir is not None:
            path = self.cache_dir / f"pool-{key}.json"
            if path.exists():
                pool = RunPool.load(path)
                self._memory_cache[key] = pool
                return pool

        engine = AdaptiveSearch()
        seeds = spawned_seeds(runs, seed_root)
        samples: List[WalkSample] = []
        total_iterations = 0
        total_time = 0.0
        for seed in seeds:
            problem = problem_factory()
            result = engine.solve(problem, seed=seed, params=params)
            samples.append(
                WalkSample(
                    iterations=result.iterations,
                    solved=result.solved,
                    wall_time=result.wall_time,
                    seed=seed,
                    local_minima=result.local_minima,
                )
            )
            total_iterations += result.iterations
            total_time += result.wall_time
        rate = total_iterations / total_time if total_time > 0 else 1.0
        pool = RunPool(
            problem=sample_problem.describe(),
            samples=samples,
            host_iteration_rate=rate,
        )
        if use_cache:
            self._memory_cache[key] = pool
            if self.cache_dir is not None:
                pool.save(self.cache_dir / f"pool-{key}.json")
        return pool

    # -------------------------------------------------------------- simulation
    def simulate_parallel(
        self,
        pool: RunPool,
        machine: MachineModel,
        cores: int,
        repetitions: int,
        *,
        rng=None,
        check_period: int = 64,
        sampling: str = "auto",
    ) -> List[ParallelRunEstimate]:
        """Simulate *repetitions* independent k-core runs from a collected pool.

        ``sampling`` may be ``"bootstrap"``, ``"exponential"`` or ``"auto"``
        (the default): bootstrap resampling is statistically exact but cannot
        extrapolate below the smallest runtime in the pool, so ``"auto"``
        switches to the shifted-exponential model (the distribution family the
        paper's Figure 4 justifies) once the simulated core count exceeds half
        the pool size.
        """
        if not pool.solved_samples:
            raise AnalysisError(
                f"pool for {pool.problem} has no solved runs; cannot simulate"
            )
        if sampling == "auto":
            sampling = (
                "bootstrap" if cores <= max(1, len(pool.solved_samples) // 2) else "exponential"
            )
        cluster = VirtualCluster(
            machine,
            host_iteration_rate=max(pool.host_iteration_rate, 1e-9),
            check_period=check_period,
        )
        exponential_fit = None
        if sampling == "exponential":
            from repro.analysis.ttt import fit_shifted_exponential

            fit = fit_shifted_exponential(pool.iterations())
            exponential_fit = (fit.shift, fit.scale)
        return cluster.simulate_many(
            pool.solved_samples,
            cores,
            repetitions,
            ensure_generator(rng),
            sampling=sampling,
            exponential_fit=exponential_fit,
        )

    def parallel_time_summary(
        self,
        pool: RunPool,
        machine: MachineModel,
        cores: int,
        repetitions: int,
        *,
        rng=None,
        check_period: int = 64,
        sampling: str = "auto",
    ) -> RunSummary:
        """Avg/med/min/max simulated wall-clock time of k-core runs (one table cell)."""
        estimates = self.simulate_parallel(
            pool,
            machine,
            cores,
            repetitions,
            rng=rng,
            check_period=check_period,
            sampling=sampling,
        )
        return summarize([e.wall_time for e in estimates])

    def sequential_time_summary(
        self, pool: RunPool, machine: MachineModel
    ) -> RunSummary:
        """Avg/med/min/max sequential time of the pool scaled to *machine*'s speed."""
        if not pool.solved_samples:
            raise AnalysisError(f"pool for {pool.problem} has no solved runs")
        cluster = VirtualCluster(
            machine, host_iteration_rate=max(pool.host_iteration_rate, 1e-9)
        )
        times = [cluster.seconds(s.iterations) for s in pool.solved_samples]
        return summarize(times)
