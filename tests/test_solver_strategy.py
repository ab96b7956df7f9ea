"""Strategy-layer tests: registry, specs, portfolios and the cross-solver
conformance suite.

The conformance suite is the contract behind ``repro.solvers``: *every*
registered strategy solves small instances of *every* registered problem
family it accepts (:mod:`repro.problems`), is deterministic under a seed,
honours ``stop_check`` within one ``check_period``, honours ``max_time``, and
returns a well-formed :class:`~repro.core.result.SolveResult`.  Anything that
passes here can be multi-walked, served, raced and cancelled by the upper
layers without special cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import _ckernels
from repro.core.strategy import SearchStrategy, StrategyRun
from repro.costas.array import is_costas
from repro.exceptions import SolverError
from repro.models import CostasProblem, NQueensProblem
from repro.models.costas import ReferenceCostasProblem
from repro.problems import get_family, list_families
from repro.solvers import (
    SolverSpec,
    build_solver,
    canonical_portfolio,
    get_solver,
    list_portfolios,
    list_solvers,
    portfolio_label,
    resolve_portfolio,
    resolve_spec,
    run_spec,
    solver_names,
)

#: Per-solver parameter overrides keeping the conformance runs fast and the
#: stop_check polling tight (check_period=1 makes "within one check_period"
#: sharp).
_FAST_PARAMS = {
    "adaptive": {"check_period": 1, "max_iterations": 200_000},
    "compiled": {"check_period": 1, "max_iterations": 200_000},
    "tabu": {"check_period": 1},
    "random-restart": {"check_period": 1},
    "dialectic": {"check_period": 1},
    "cp": {"check_period": 1},
}


def _spec(name: str) -> dict:
    return {"name": name, "params": _FAST_PARAMS[name]}


#: Small, quickly solvable orders per registered problem family.
_FAMILY_ORDERS = {"costas": 7, "queens": 8, "all-interval": 8, "magic-square": 3}


def _problems_for(info):
    """Every registered family the solver accepts, as (kind, factory) pairs."""
    problems = []
    for family in list_families():
        if (
            "permutation" in info.problem_kinds
            or family.name in info.problem_kinds
        ):
            order = _FAMILY_ORDERS[family.name]
            problems.append(
                (family.name, lambda f=family, o=order: f.make(o))
            )
    return problems


class TestRegistry:
    def test_all_expected_solvers_registered(self):
        assert solver_names() == [
            "adaptive", "compiled", "cp", "dialectic", "random-restart", "tabu"
        ]

    def test_aliases_resolve_to_canonical_entries(self):
        assert get_solver("as").name == "adaptive"
        assert get_solver("ADAPTIVE-SEARCH").name == "adaptive"
        assert get_solver("ds").name == "dialectic"
        assert get_solver("cp-backtracking").name == "cp"

    def test_unknown_solver_raises(self):
        with pytest.raises(SolverError, match="unknown solver"):
            get_solver("simulated-annealing")

    def test_every_entry_builds_a_strategy(self):
        for info in list_solvers():
            solver, rebuilt = build_solver(info.name)
            assert rebuilt is info
            assert isinstance(solver, SearchStrategy)

    def test_param_resolution_from_plain_dict(self):
        solver, info = build_solver({"name": "tabu", "params": {"tenure": 5}})
        assert solver.params.tenure == 5

    def test_unknown_param_raises_solver_error(self):
        with pytest.raises(SolverError, match="invalid parameters"):
            build_solver({"name": "tabu", "params": {"temperature": 0.5}})

    def test_bad_params_rejected_at_resolve_time(self):
        # Validation must not wait until a worker builds the solver.
        with pytest.raises(SolverError, match="invalid parameters"):
            resolve_spec({"name": "tabu", "params": {"temperature": 0.5}})
        with pytest.raises(SolverError, match="invalid parameters"):
            resolve_spec({"name": "tabu", "params": {"tenure": [8]}})

    def test_canonical_is_hashable_even_with_list_params(self):
        # JSON clients may send list values; the coalescing key must not
        # blow up on them (validation rejects them earlier, but canonical()
        # itself must stay total).
        spec = SolverSpec("adaptive", {"weights": [1, 2]})
        hash(spec.canonical())

    def test_invalid_param_value_raises_solver_error(self):
        with pytest.raises(SolverError, match="invalid parameters"):
            build_solver({"name": "tabu", "params": {"tenure": 0}})

    def test_param_defaults_exposed(self):
        defaults = get_solver("tabu").param_defaults()
        assert defaults["restart_after"] == 2_000
        assert "check_period" in defaults

    def test_adaptive_tuned_defaults_are_per_family(self):
        """Every family resolves its own tuned ASParameters table through the
        registry hook: the four tables are pairwise distinct and the Costas
        one is still the paper's."""
        from repro.core.params import ASParameters
        from repro.problems import get_family

        info = get_solver("adaptive")
        tables = {}
        for kind, order in (
            ("costas", 14),
            ("queens", 14),
            ("all-interval", 14),
            ("magic-square", 4),
        ):
            size = get_family(kind).instance_size(order)
            params = info.default_params(kind, size)
            assert isinstance(params, ASParameters), kind
            tables[kind] = params
        assert tables["costas"] == ASParameters.for_costas(14)
        seen = list(tables.values())
        assert len({repr(p) for p in seen}) == len(seen), "family tables collide"
        # And the generic fallback still answers unregistered kinds.
        assert isinstance(info.default_params("", 14), ASParameters)

    def test_build_solver_resolves_family_table(self):
        """build_solver with no explicit params picks the family's tuned
        table (magic-square: plateau probability 0.9, tenure 2)."""
        solver, _ = build_solver("adaptive", problem_kind="magic-square", order=16)
        assert solver.params.plateau_probability == 0.9
        assert solver.params.tabu_tenure == 2
        solver, _ = build_solver("adaptive", problem_kind="all-interval", order=12)
        assert solver.params.local_min_accept_probability == 0.5
        assert solver.params.reset_limit == 1
        solver, _ = build_solver("adaptive", problem_kind="queens", order=32)
        assert solver.params.reset_percentage == 0.15

    def test_params_precedence_spec_then_as_params_then_family_table(self):
        """A spec's own params win over ``as_params``, which wins over the
        family's tuned table."""
        from repro.core.params import ASParameters

        caller =ASParameters.for_costas(9, tabu_tenure=5)
        solver, _ = build_solver(
            {"name": "adaptive", "params": {"tabu_tenure": 3}},
            problem_kind="costas",
            order=9,
            as_params=caller,
        )
        assert solver.params.tabu_tenure == 3
        solver, _ = build_solver(
            "adaptive", problem_kind="costas", order=9, as_params=caller
        )
        assert solver.params == caller
        solver, _ = build_solver("adaptive", problem_kind="costas", order=9)
        assert solver.params == ASParameters.for_costas(9)

    def test_run_spec_resolves_the_family_from_the_problem(self, monkeypatch):
        """run_spec names the family that claims ``problem.name``, through
        the family aliases ("nqueens" is queens); a name no family claims
        gets the generic table ("")."""
        import repro.solvers as solvers

        kinds = []
        real_build = solvers.build_solver

        def recording_build(spec, **kwargs):
            kinds.append((kwargs["problem_kind"], kwargs["order"]))
            return real_build(spec, **kwargs)

        monkeypatch.setattr(solvers, "build_solver", recording_build)
        for problem in (
            CostasProblem(9),
            NQueensProblem(8),
            get_family("magic-square").make(4),
            ReferenceCostasProblem(9),
        ):
            run_spec(None, problem, seed=0, stop_check=lambda: True)
        assert kinds == [("costas", 9), ("queens", 8), ("magic-square", 16), ("", 9)]


class TestSpecsAndPortfolios:
    def test_resolve_spec_forms(self):
        assert resolve_spec(None) == SolverSpec("compiled")
        assert resolve_spec("tabu") == SolverSpec("tabu")
        assert resolve_spec({"name": "ds"}).name == "dialectic"
        spec = resolve_spec({"name": "tabu", "params": {"tenure": 3}})
        assert spec.params == {"tenure": 3}

    def test_default_solve_runs_the_compiled_walk_or_its_fallback(self):
        """The default engine runs the walk in C when the kernels load and
        says so when a build without them falls back to NumPy."""
        result = run_spec(None, CostasProblem(9), seed=3)
        assert result.solved
        expected = "compiled" if _ckernels.load() is not None else "numpy-fallback"
        assert result.extra["engine"] == expected

    def test_inline_portfolio_string(self):
        specs = resolve_portfolio("adaptive+tabu")
        assert [s.name for s in specs] == ["adaptive", "tabu"]
        assert portfolio_label(specs) == "adaptive+tabu"

    def test_named_portfolio(self):
        assert "mixed" in list_portfolios()
        specs = resolve_portfolio("mixed")
        assert [s.name for s in specs] == ["adaptive", "tabu", "dialectic"]

    def test_list_of_mixed_spec_forms(self):
        specs = resolve_portfolio(["tabu", {"name": "adaptive", "params": {"tabu_tenure": 3}}])
        assert [s.name for s in specs] == ["tabu", "adaptive"]
        assert specs[1].params == {"tabu_tenure": 3}

    def test_canonical_identity_is_order_insensitive_in_params(self):
        a = canonical_portfolio({"name": "tabu", "params": {"tenure": 3, "check_period": 4}})
        b = canonical_portfolio({"name": "tabu", "params": {"check_period": 4, "tenure": 3}})
        assert a == b

    def test_canonical_identity_distinguishes_solvers(self):
        assert canonical_portfolio("tabu") != canonical_portfolio("adaptive")
        assert canonical_portfolio("adaptive+tabu") != canonical_portfolio("tabu")

    def test_empty_portfolio_rejected(self):
        with pytest.raises(SolverError):
            resolve_portfolio([])


class TestConformance:
    """Every registered solver passes the same behavioural contract."""

    @pytest.mark.parametrize("name", solver_names())
    def test_solves_small_instances(self, name):
        info = get_solver(name)
        problems = _problems_for(info)
        # The CP baseline covers Costas only; every local-search strategy
        # must cover all four registered families.
        expected = 1 if info.problem_kinds == ("costas",) else len(list_families())
        assert len(problems) == expected
        for kind, factory in problems:
            result = run_spec(_spec(name), factory(), seed=0)
            assert result.solved, f"{name} failed on {kind}: {result.summary()}"
            assert result.cost == 0
            # The family's own validator accepts the returned configuration.
            assert get_family(kind).validator(np.asarray(result.configuration))
            if kind == "costas":
                assert is_costas(result.configuration)

    @pytest.mark.parametrize("name", solver_names())
    def test_deterministic_under_seed(self, name):
        info = get_solver(name)
        for kind, factory in _problems_for(info):
            a = run_spec(_spec(name), factory(), seed=42)
            b = run_spec(_spec(name), factory(), seed=42)
            assert list(a.configuration) == list(b.configuration)
            assert (a.cost, a.iterations, a.solved) == (b.cost, b.iterations, b.solved)

    @pytest.mark.parametrize("name", solver_names())
    def test_honours_stop_check_within_one_check_period(self, name):
        # The solver must notice an already-set stop before doing any real
        # work: with check_period=1 it may complete at most one iteration.
        result = run_spec(
            _spec(name),
            CostasProblem(12),
            seed=0,
            stop_check=lambda: True,
        )
        assert not result.solved
        assert result.stop_reason == "external_stop"
        assert result.iterations <= 1

    @pytest.mark.parametrize("name", solver_names())
    def test_honours_stop_check_mid_run(self, name):
        # First poll lets the run proceed, second poll stops it: the solver
        # must halt within one further check_period of iterations.
        calls = {"n": 0}

        def stop_after_first_poll():
            calls["n"] += 1
            return calls["n"] > 1

        params = dict(_FAST_PARAMS[name], check_period=1)
        result = run_spec(
            {"name": name, "params": params},
            CostasProblem(13),
            seed=3,
            stop_check=stop_after_first_poll,
        )
        if not result.solved:  # a solve within 2 iterations would be legitimate
            assert result.stop_reason == "external_stop"
            assert result.iterations <= 2

    @pytest.mark.parametrize("name", solver_names())
    def test_honours_max_time(self, name):
        # An order far beyond what any strategy solves in 50 ms, so the clock
        # must be what ends the run.
        result = run_spec(
            _spec(name),
            CostasProblem(20),
            seed=0,
            max_time=0.05,
        )
        assert not result.solved
        assert result.stop_reason == "max_time"

    @pytest.mark.parametrize("name", solver_names())
    def test_result_is_well_formed(self, name):
        info = get_solver(name)
        result = run_spec(_spec(name), CostasProblem(7), seed=1)
        assert result.solver == (info.result_name or info.name)
        assert result.seed == 1
        assert result.wall_time >= 0.0
        assert result.iterations >= 0
        config = np.asarray(result.configuration)
        assert sorted(config.tolist()) == list(range(7))
        # The dict round-trip used by the process boundaries must be lossless.
        round_tripped = type(result).from_dict(result.as_dict())
        assert round_tripped.solver == result.solver
        assert list(round_tripped.configuration) == list(config)

    @pytest.mark.parametrize("name", ["adaptive", "tabu", "random-restart", "dialectic"])
    def test_callbacks_receive_iterations(self, name):
        from repro.core.callbacks import CallbackList, CostTraceRecorder

        trace = CostTraceRecorder()
        result = run_spec(
            _spec(name),
            CostasProblem(8),
            seed=0,
            callbacks=CallbackList([trace]),
        )
        assert result.solved
        # Tabu-marking iterations do not move; every solver still reports at
        # least one iteration sample unless it solved during initialisation.
        if result.iterations > 0:
            assert len(trace) > 0

    def test_cp_rejects_non_costas_problems(self):
        with pytest.raises(SolverError, match="Costas"):
            run_spec(_spec("cp"), NQueensProblem(8), seed=0)


class TestStrategyRun:
    def test_running_respects_target_cost(self):
        run = StrategyRun(CostasProblem(7), "x", 0, target_cost=5)
        assert not run.running(5)
        assert run.running(6)
        assert run.iteration == 1

    def test_running_respects_max_iterations_exactly(self):
        run = StrategyRun(CostasProblem(7), "x", 0, max_iterations=3)
        seen = 0
        while run.running(99):
            seen += 1
        assert seen == 3
        assert run.stop_reason == "max_iterations"

    def test_finish_reports_best_configuration(self):
        problem = CostasProblem(7)
        problem.initialise(0)
        run = StrategyRun(problem, "probe", 7)
        run.track_best(problem.cost())
        result = run.finish(extra={"tag": 1})
        assert result.solver == "probe"
        assert result.seed == 7
        assert result.extra == {"tag": 1}
        assert list(result.configuration) == list(problem.configuration())
