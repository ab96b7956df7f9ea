"""Tests for the Adaptive Search engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.callbacks import CallbackList, CostTraceRecorder, EventCounter
from repro.core.engine import AdaptiveSearch, solve
from repro.core.params import ASParameters
from repro.core.problem import FunctionalPermutationProblem
from repro.costas.array import is_costas
from repro.models import AllIntervalProblem, CostasProblem, NQueensProblem


class TestSolvesProblems:
    def test_solves_small_costas(self):
        result = solve(CostasProblem(9), seed=0, params=ASParameters.for_costas(9))
        assert result.solved
        assert result.cost == 0
        assert is_costas(result.configuration)
        assert result.stop_reason == "solved"

    def test_solves_nqueens(self):
        result = solve(
            NQueensProblem(20), seed=1, params=ASParameters.for_problem_size(20)
        )
        assert result.solved
        problem = NQueensProblem(20)
        problem.set_configuration(result.configuration)
        assert problem.cost() == 0

    def test_solves_all_interval(self):
        result = solve(
            AllIntervalProblem(10), seed=2, params=ASParameters.for_problem_size(10)
        )
        assert result.solved

    def test_deterministic_given_seed(self):
        a = solve(CostasProblem(9), seed=7, params=ASParameters.for_costas(9))
        b = solve(CostasProblem(9), seed=7, params=ASParameters.for_costas(9))
        assert a.iterations == b.iterations
        assert list(a.configuration) == list(b.configuration)

    def test_different_seeds_generally_differ(self):
        a = solve(CostasProblem(10), seed=1, params=ASParameters.for_costas(10))
        b = solve(CostasProblem(10), seed=2, params=ASParameters.for_costas(10))
        assert a.iterations != b.iterations or list(a.configuration) != list(
            b.configuration
        )


class TestBudgetsAndStops:
    def test_max_iterations_respected(self):
        params = ASParameters.for_costas(12, max_iterations=5)
        result = solve(CostasProblem(12), seed=0, params=params)
        assert result.iterations <= 5
        if not result.solved:
            assert result.stop_reason == "max_iterations"

    def test_external_stop_check(self):
        calls = {"n": 0}

        def stop() -> bool:
            calls["n"] += 1
            return calls["n"] > 1

        params = ASParameters.for_costas(12, check_period=1)
        result = solve(CostasProblem(12), seed=0, params=params, stop_check=stop)
        assert result.stop_reason in ("external_stop", "solved")
        assert calls["n"] >= 1

    def test_max_time_stops_run(self):
        params = ASParameters.for_costas(13, check_period=1)
        result = solve(CostasProblem(13), seed=0, params=params, max_time=1e-9)
        assert result.stop_reason in ("max_time", "solved")

    def test_already_solved_initial_configuration(self, example_costas_5):
        problem = CostasProblem(5)
        result = solve(
            problem,
            seed=0,
            params=ASParameters.for_costas(5),
            initial_configuration=np.array(example_costas_5),
        )
        assert result.solved
        assert result.iterations == 0

    def test_restart_counter(self):
        params = ASParameters.for_costas(
            12, restart_limit=5, max_restarts=3, max_iterations=50
        )
        result = solve(CostasProblem(12), seed=3, params=params)
        assert result.restarts <= 3


class TestInstrumentation:
    def test_callbacks_receive_events_and_iterations(self):
        trace = CostTraceRecorder()
        events = EventCounter()
        callbacks = CallbackList([trace, events])
        result = solve(
            CostasProblem(10),
            seed=4,
            params=ASParameters.for_costas(10),
            callbacks=callbacks,
        )
        assert len(trace) == result.iterations
        assert events["solution"] == 1
        total_moves = (
            events["improving_move"] + events["plateau_move"] + events["tabu_mark"]
        )
        assert total_moves > 0

    def test_result_counters_consistent(self):
        result = solve(CostasProblem(10), seed=5, params=ASParameters.for_costas(10))
        assert result.solved
        assert result.swaps <= result.iterations
        assert result.local_minima <= result.iterations
        assert result.resets <= result.iterations
        assert result.wall_time > 0
        assert result.seed == 5
        assert result.iterations_per_second > 0

    def test_solver_and_problem_fields(self):
        result = solve(CostasProblem(9), seed=0, params=ASParameters.for_costas(9))
        assert result.solver == "adaptive-search"
        assert "costas" in result.problem


class TestGenericReset:
    def test_generic_reset_preserves_permutation(self, rng):
        problem = FunctionalPermutationProblem(10, lambda perm: 1)  # never solved
        problem.initialise(rng)
        AdaptiveSearch._generic_reset(problem, rng, 0.3)
        assert sorted(problem.configuration()) == list(range(10))

    def test_generic_reset_used_when_no_custom_reset(self):
        # A functional problem has no custom reset; the engine must still run
        # and stay within budget without errors.
        problem = FunctionalPermutationProblem(
            8, lambda perm: int(np.sum(perm[:2])) + 1
        )  # cost never 0 -> exercise reset/restart paths
        params = ASParameters(
            tabu_tenure=2,
            reset_limit=1,
            reset_percentage=0.25,
            plateau_probability=0.5,
            local_min_accept_probability=0.0,
            max_iterations=200,
        )
        result = solve(problem, seed=0, params=params)
        assert not result.solved
        assert result.resets > 0
        assert sorted(result.configuration) == list(range(8))


class _EverywhereLocalMinimum(FunctionalPermutationProblem):
    """Cost 1 + (#misplaced values): the identity is a strict local minimum
    with nonzero cost, so every iteration marks the culprit tabu."""

    def __init__(self, n: int) -> None:
        super().__init__(
            n,
            cost_fn=lambda perm: 1 + int(np.sum(perm != np.arange(len(perm)))),
            variable_errors_fn=lambda perm: np.ones(len(perm), dtype=np.int64),
            name="stuck",
        )


class TestAllTabuEdgeCase:
    """When every variable is tabu the mask is skipped and tabu variables
    become selectable again (pinned behaviour; see AdaptiveSearch.solve)."""

    def test_engine_keeps_selecting_once_everything_is_tabu(self):
        n = 6
        problem = _EverywhereLocalMinimum(n)
        events = EventCounter()
        # Huge tenure, reset threshold never reached, no uphill escapes and no
        # plateaus: after n iterations every variable is tabu simultaneously.
        params = ASParameters(
            tabu_tenure=10_000,
            reset_limit=1_000_000,
            plateau_probability=0.0,
            local_min_accept_probability=0.0,
            max_iterations=4 * n,
        )
        result = solve(
            problem,
            seed=0,
            params=params,
            callbacks=CallbackList([events]),
            initial_configuration=np.arange(n),
        )
        # The run must keep iterating (and marking) well past the point where
        # all n variables are tabu, rather than dying on an empty candidate
        # set or an all -1 error vector.
        assert not result.solved
        assert result.iterations == 4 * n
        assert events["tabu_mark"] == 4 * n
        assert events["local_minimum"] == 4 * n
        assert result.resets == 0

    def test_no_moves_are_applied_while_stuck(self):
        # Sanity companion: the all-tabu iterations mark variables but never
        # move, so the configuration is untouched for the whole run.
        n = 6
        problem = _EverywhereLocalMinimum(n)
        params = ASParameters(
            tabu_tenure=10_000,
            reset_limit=1_000_000,
            plateau_probability=0.0,
            local_min_accept_probability=0.0,
            max_iterations=3 * n,
        )
        result = solve(
            problem,
            seed=1,
            params=params,
            initial_configuration=np.arange(n),
        )
        assert result.swaps == 0
        assert result.iterations == 3 * n
        assert list(problem.configuration()) == list(range(n))


class TestEngineObject:
    def test_engine_params_default_and_override(self):
        engine = AdaptiveSearch(params=ASParameters.for_costas(9))
        result = engine.solve(CostasProblem(9), seed=0)
        assert result.solved
        override = ASParameters.for_costas(9, max_iterations=1)
        capped = engine.solve(CostasProblem(12), seed=0, params=override)
        assert capped.iterations <= 1
