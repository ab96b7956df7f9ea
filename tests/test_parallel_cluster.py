"""Tests for machine models and the virtual-cluster performance simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import ASParameters
from repro.exceptions import AnalysisError, ParallelExecutionError
from repro.models import CostasProblem
from repro.parallel.cluster import (
    HA8000,
    HELIOS,
    JUGENE,
    LOCAL_HOST,
    SUNO,
    MachineModel,
    VirtualCluster,
    WalkSample,
)
from repro.solvers import run_spec


def make_pool(rng: np.random.Generator, size: int = 200) -> list[WalkSample]:
    iterations = rng.exponential(500.0, size).astype(int) + 5
    return [WalkSample(iterations=int(it), solved=True) for it in iterations]


class TestMachineModels:
    def test_paper_machines_have_expected_relative_speeds(self):
        assert JUGENE.speed_factor < HELIOS.speed_factor <= HA8000.speed_factor < 1.01
        assert SUNO.speed_factor > JUGENE.speed_factor
        assert LOCAL_HOST.speed_factor == 1.0

    def test_scaled_factory(self):
        scaled = JUGENE.scaled(reference_clock_ghz=1.7)
        assert scaled.speed_factor == pytest.approx(0.85 / 1.7)
        with pytest.raises(ValueError):
            JUGENE.scaled(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineModel("bad", cores_per_node=1, clock_ghz=1.0, speed_factor=0.0)
        with pytest.raises(ValueError):
            MachineModel("bad", cores_per_node=0, clock_ghz=1.0)


class TestVirtualCluster:
    def test_seconds_conversion_uses_speed_factor(self):
        fast = VirtualCluster(LOCAL_HOST, host_iteration_rate=1000.0)
        slow = VirtualCluster(JUGENE, host_iteration_rate=1000.0)
        assert fast.seconds(1000) == pytest.approx(1.0)
        assert slow.seconds(1000) == pytest.approx(1.0 / JUGENE.speed_factor)

    def test_validation(self):
        with pytest.raises(ParallelExecutionError):
            VirtualCluster(HA8000, host_iteration_rate=0.0)
        with pytest.raises(ParallelExecutionError):
            VirtualCluster(HA8000, host_iteration_rate=10.0, check_period=0)

    def test_core_limits_enforced(self, rng):
        cluster = VirtualCluster(HELIOS, host_iteration_rate=1000.0)
        pool = make_pool(rng)
        with pytest.raises(ParallelExecutionError):
            cluster.simulate_run(pool, HELIOS.max_cores + 1, rng)
        with pytest.raises(ParallelExecutionError):
            cluster.simulate_run(pool, 0, rng)

    def test_bootstrap_run_statistics(self, rng):
        cluster = VirtualCluster(HA8000, host_iteration_rate=1000.0, check_period=10)
        pool = make_pool(rng)
        estimate = cluster.simulate_run(pool, 64, rng)
        assert estimate.solved
        assert estimate.cores == 64
        assert estimate.machine == "HA8000"
        assert estimate.winning_iterations >= 1
        assert estimate.total_iterations >= estimate.winning_iterations
        # Total work is bounded by cores x (winner + one polling period).
        assert estimate.total_iterations <= 64 * (estimate.winning_iterations + 10)

    def test_more_cores_reduce_expected_time(self, rng):
        cluster = VirtualCluster(HA8000, host_iteration_rate=1000.0)
        pool = make_pool(rng)
        few = cluster.simulate_many(pool, 4, 200, rng)
        many = cluster.simulate_many(pool, 64, 200, rng)
        assert np.mean([e.wall_time for e in many]) < np.mean(
            [e.wall_time for e in few]
        )

    def test_bootstrap_requires_solved_samples(self, rng):
        cluster = VirtualCluster(HA8000, host_iteration_rate=1000.0)
        with pytest.raises(AnalysisError):
            cluster.simulate_run([], 8, rng)
        unsolved = [WalkSample(iterations=10, solved=False)]
        with pytest.raises(AnalysisError):
            cluster.simulate_run(unsolved, 8, rng)

    def test_bootstrap_surfaces_censored_fraction(self, rng):
        """Regression: unsolved (budget-censored) pool samples used to be
        discarded silently; the estimate must carry the censored fraction."""
        cluster = VirtualCluster(HA8000, host_iteration_rate=1000.0)
        pool = make_pool(rng, 80) + [
            WalkSample(iterations=10_000, solved=False) for _ in range(20)
        ]
        estimate = cluster.simulate_run(pool, 16, rng)
        assert estimate.censored_fraction == pytest.approx(0.2)
        assert estimate.solved
        # A clean pool reports zero censoring.
        clean = cluster.simulate_run(make_pool(rng), 16, rng)
        assert clean.censored_fraction == 0.0

    def test_mostly_censored_pool_is_refused_without_opt_in(self, rng):
        cluster = VirtualCluster(HA8000, host_iteration_rate=1000.0)
        pool = make_pool(rng, 20) + [
            WalkSample(iterations=10_000, solved=False) for _ in range(80)
        ]
        with pytest.raises(AnalysisError, match="budget-censored"):
            cluster.simulate_run(pool, 16, rng)
        with pytest.raises(AnalysisError, match="budget-censored"):
            cluster.simulate_many(pool, 16, 3, rng)
        # The documented opt-in downgrades the refusal to a warning and
        # surfaces the bias on the estimate.
        with pytest.warns(UserWarning, match="biased low"):
            estimate = cluster.simulate_run(pool, 16, rng, allow_censored=True)
        assert estimate.censored_fraction == pytest.approx(0.8)
        with pytest.warns(UserWarning):
            many = cluster.simulate_many(pool, 16, 3, rng, allow_censored=True)
        assert all(e.censored_fraction == pytest.approx(0.8) for e in many)

    def test_exponential_sampling_reports_no_censoring(self, rng):
        cluster = VirtualCluster(HA8000, host_iteration_rate=1000.0)
        estimate = cluster.simulate_run(
            [], 16, rng, sampling="exponential", exponential_fit=(10.0, 500.0)
        )
        assert estimate.censored_fraction == 0.0

    def test_exponential_sampling(self, rng):
        cluster = VirtualCluster(HA8000, host_iteration_rate=1000.0)
        estimate = cluster.simulate_run(
            [], 128, rng, sampling="exponential", exponential_fit=(10.0, 800.0)
        )
        assert estimate.solved
        with pytest.raises(AnalysisError):
            cluster.simulate_run([], 8, rng, sampling="exponential")
        with pytest.raises(AnalysisError):
            cluster.simulate_run(
                [], 8, rng, sampling="exponential", exponential_fit=(1.0, 0.0)
            )

    def test_unknown_sampling_rejected(self, rng):
        cluster = VirtualCluster(HA8000, host_iteration_rate=1000.0)
        with pytest.raises(AnalysisError):
            cluster.simulate_run(make_pool(rng), 8, rng, sampling="magic")

    def test_simulate_many_validation(self, rng):
        cluster = VirtualCluster(HA8000, host_iteration_rate=1000.0)
        with pytest.raises(ParallelExecutionError):
            cluster.simulate_many(make_pool(rng), 8, 0, rng)

    def test_direct_run_on_real_problem(self):
        cluster = VirtualCluster(LOCAL_HOST, host_iteration_rate=1000.0)
        estimate = cluster.direct_run(
            lambda: CostasProblem(9),
            ASParameters.for_costas(9),
            cores=3,
            seeds=[1, 2, 3],
        )
        assert estimate.solved
        assert estimate.cores == 3
        with pytest.raises(ParallelExecutionError):
            cluster.direct_run(
                lambda: CostasProblem(9), ASParameters.for_costas(9), 3, seeds=[1]
            )


class TestDirectRunTermination:
    """``direct_run`` replays the paper's termination poll (Section V-A) on
    real walks: the first solution stops every other walk at its next
    ``check_period`` poll."""

    @staticmethod
    def _walks(order, params, seeds):
        return [
            run_spec(None, CostasProblem(order), seed, as_params=params)
            for seed in seeds
        ]

    def test_winner_and_total_work_follow_the_poll(self):
        params = ASParameters.for_costas(9)
        seeds = [1, 2, 3, 4, 5, 6, 7]
        cluster = VirtualCluster(LOCAL_HOST, host_iteration_rate=1000.0, check_period=16)
        estimate = cluster.direct_run(
            lambda: CostasProblem(9), params, cores=len(seeds), seeds=seeds
        )
        walks = self._walks(9, params, seeds)
        winning = min(w.iterations for w in walks if w.solved)
        next_poll = (winning // 16 + 1) * 16
        assert estimate.solved
        assert estimate.winning_iterations == winning
        assert estimate.total_iterations == sum(
            min(w.iterations, next_poll) for w in walks
        )
        # The seeds are chosen so some loser is really cut short by the poll.
        assert any(w.iterations > next_poll for w in walks)

    def test_unsolved_when_no_walk_solves_within_the_budget(self):
        params = ASParameters.for_costas(12, max_iterations=3)
        cluster = VirtualCluster(LOCAL_HOST, host_iteration_rate=1000.0)
        estimate = cluster.direct_run(lambda: CostasProblem(12), params, 2, seeds=[1, 2])
        assert not estimate.solved
        assert estimate.total_iterations == 6

    def test_more_walks_never_raise_the_winning_iterations(self):
        params = ASParameters.for_costas(10)
        cluster = VirtualCluster(LOCAL_HOST, host_iteration_rate=1000.0)
        few = cluster.direct_run(lambda: CostasProblem(10), params, 2, seeds=[1, 2])
        many = cluster.direct_run(
            lambda: CostasProblem(10), params, 6, seeds=[1, 2, 3, 4, 5, 6]
        )
        assert few.solved and many.solved
        assert many.winning_iterations <= few.winning_iterations

    def test_one_core_runs_one_whole_walk(self):
        params = ASParameters.for_costas(9)
        cluster = VirtualCluster(LOCAL_HOST, host_iteration_rate=1000.0, check_period=16)
        estimate = cluster.direct_run(lambda: CostasProblem(9), params, 1, seeds=[3])
        (walk,) = self._walks(9, params, [3])
        assert estimate.solved == walk.solved
        assert estimate.winning_iterations == walk.iterations
        assert estimate.total_iterations == walk.iterations
        assert estimate.wall_time == pytest.approx(cluster.seconds(walk.iterations))

    def test_runs_the_first_cores_seeds(self):
        params = ASParameters.for_costas(9)
        cluster = VirtualCluster(LOCAL_HOST, host_iteration_rate=1000.0)
        exact = cluster.direct_run(lambda: CostasProblem(9), params, 2, seeds=[1, 2])
        spare = cluster.direct_run(
            lambda: CostasProblem(9), params, 2, seeds=[1, 2, 3, 4]
        )
        assert spare == exact

    def test_rejects_a_run_without_cores(self):
        cluster = VirtualCluster(LOCAL_HOST, host_iteration_rate=1000.0)
        with pytest.raises(ParallelExecutionError):
            cluster.direct_run(
                lambda: CostasProblem(9), ASParameters.for_costas(9), 0, seeds=[]
            )
