"""Compiled walk engine tests: RNG stream spec, compiled-vs-mirror
trajectory bit-exactness, population semantics and the fallback contract.

The central invariant is the one :mod:`repro.core.cwalk_mirror` exists for:
a compiled walk (``as_walk_run``) and a :class:`MirrorWalk` started from the
same seed must agree on *every bit of state after every iteration* —
permutation, cost, tabu marks, all five counters, the best-so-far — across
all three compiled families and every ablation flag the kernel branches on.
The comparison steps both sides one iteration at a time (``steps=1``), so
the first divergence pinpoints the iteration that broke.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import _ckernels
from repro.core.cwalk import (
    STATUS_MAX_ITERATIONS,
    STATUS_RUNNING,
    STATUS_SOLVED,
    WS_BEST,
    WS_COST,
    WS_ITER,
    WS_LOCALMIN,
    WS_PLATEAU,
    WS_RESETS,
    WS_RESTARTS,
    WS_STATUS,
    WS_SWAPS,
    CompiledAdaptiveSearch,
    WalkPopulation,
    population_seeds,
    supports,
    walk_spec,
)
from repro.core.cwalk_mirror import MirrorWalk, Xoshiro256
from repro.core.params import ASParameters
from repro.models import (
    AllIntervalProblem,
    CostasProblem,
    MagicSquareProblem,
    NQueensProblem,
)

requires_kernels = pytest.mark.skipif(
    _ckernels.load() is None, reason="C kernels unavailable"
)


# ------------------------------------------------------------------ RNG spec
@requires_kernels
class TestRngStream:
    """The kernel's xoshiro256** stream matches the Python mirror bit-for-bit."""

    @given(seed=st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=25, deadline=None)
    def test_raw_stream_matches_mirror(self, seed):
        lib = _ckernels.load()
        count = 64
        out = np.zeros(count, dtype=np.int64)
        lib.walk_rng_stream(seed if seed < (1 << 63) else seed - (1 << 64),
                            count, out.ctypes.data)
        rng = Xoshiro256(seed)
        expected = [rng.next_u64() for _ in range(count)]
        assert out.view(np.uint64).tolist() == expected

    @given(
        seed=st.integers(min_value=0, max_value=(1 << 63) - 1),
        k=st.integers(min_value=1, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_derived_draws_match_mirror(self, seed, k):
        # below(k) and the [0,1) double must consume draws identically.
        lib = _ckernels.load()
        count = 32
        below = np.zeros(count, dtype=np.int64)
        dbl = np.zeros(count, dtype=np.float64)
        lib.walk_rng_draws(seed, k, count, below.ctypes.data, dbl.ctypes.data)
        rng = Xoshiro256(seed)
        for i in range(count):
            assert below[i] == rng.below(k)
            assert dbl[i] == rng.random()

    def test_distinct_seeds_distinct_streams(self):
        a, b = Xoshiro256(1), Xoshiro256(2)
        assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


# ----------------------------------------------------------- trajectory spec
def _problem_cases():
    """(label, problem factory, params, iteration budget) across families
    and ablation flags."""
    return [
        (
            "costas-dedicated",
            lambda: CostasProblem(9),
            ASParameters.for_costas(9),
            400,
        ),
        (
            "costas-generic-reset",
            lambda: CostasProblem(9, dedicated_reset=False),
            ASParameters.for_costas(9),
            400,
        ),
        (
            "costas-basic-nochang",
            lambda: CostasProblem(
                8, err_weight="constant", use_chang=False, dedicated_reset=False
            ),
            ASParameters.for_problem_size(8),
            400,
        ),
        (
            "costas-clear-tabu-off",
            lambda: CostasProblem(9),
            ASParameters.for_costas(9, clear_tabu_on_reset=False),
            400,
        ),
        (
            # The benchmark's order: a quarter of its iterations are
            # dedicated resets, whose candidates are scored lazily.
            "costas-16-benchmark",
            lambda: CostasProblem(16),
            ASParameters.for_costas(16),
            1000,
        ),
        (
            # Full triangle, D = 12: the most cells one swap score undoes.
            "costas-13-nochang",
            lambda: CostasProblem(13, use_chang=False),
            ASParameters.for_costas(13),
            400,
        ),
        (
            "queens",
            lambda: NQueensProblem(10),
            ASParameters.for_problem_size(
                10, plateau_probability=0.5, reset_limit=3
            ),
            400,
        ),
        (
            "queens-restarts",
            lambda: NQueensProblem(9),
            ASParameters.for_problem_size(
                9, restart_limit=40, max_restarts=5, plateau_probability=0.3
            ),
            400,
        ),
        (
            "all-interval",
            lambda: AllIntervalProblem(10),
            ASParameters.for_problem_size(
                10,
                tabu_tenure=3,
                reset_limit=1,
                plateau_probability=0.9,
                local_min_accept_probability=0.5,
            ),
            400,
        ),
    ]


def _assert_walks_identical(pop, mirror, label, seed, iteration):
    st_row = pop.state[0]
    context = f"{label} seed={seed} iter={iteration}"
    assert pop.perm[0].tolist() == mirror.perm, context
    assert int(st_row[WS_COST]) == mirror.cost, context
    assert int(st_row[WS_ITER]) == mirror.iteration, context
    assert int(st_row[WS_SWAPS]) == mirror.swaps, context
    assert int(st_row[WS_PLATEAU]) == mirror.plateau_moves, context
    assert int(st_row[WS_LOCALMIN]) == mirror.local_minima, context
    assert int(st_row[WS_RESETS]) == mirror.resets, context
    assert int(st_row[WS_RESTARTS]) == mirror.restarts, context
    assert pop.tabu[0].tolist() == mirror.tabu, context
    assert int(st_row[WS_BEST]) == mirror.best_cost, context
    assert pop.best[0].tolist() == mirror.best, context
    assert int(st_row[WS_STATUS]) == mirror.status, context


@requires_kernels
class TestTrajectoryBitExactness:
    """Compiled walk == Python mirror, one iteration at a time."""

    @pytest.mark.parametrize(
        "label,factory,params,budget",
        _problem_cases(),
        ids=[c[0] for c in _problem_cases()],
    )
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_full_trajectory_matches_mirror(
        self, label, factory, params, budget, seed
    ):
        import dataclasses

        params = dataclasses.replace(params, max_iterations=budget)
        problem = factory()
        spec = walk_spec(problem, params)
        assert spec is not None
        pop = WalkPopulation(spec)
        pop.init([seed])
        mirror = MirrorWalk(spec.pi, spec.pd, spec.wd, spec.consts, seed)

        # Initial permutations (one RNG-driven shuffle each) already agree.
        assert pop.perm[0].tolist() == mirror.perm

        pop.run(0)  # settle iteration-0 statuses exactly like the mirror loop
        mirror.run(0)
        for iteration in range(budget + 1):
            if int(pop.state[0, WS_STATUS]) != STATUS_RUNNING:
                break
            pop.run(1)
            mirror.run(1)
            _assert_walks_identical(pop, mirror, label, seed, iteration)
        # Both sides settled the same terminal status.
        assert int(pop.state[0, WS_STATUS]) == mirror.status
        assert int(pop.state[0, WS_STATUS]) in (
            STATUS_SOLVED,
            STATUS_MAX_ITERATIONS,
        )

    @given(seed=st.integers(min_value=0, max_value=(1 << 63) - 1))
    @settings(max_examples=10, deadline=None)
    def test_costas_trajectory_property(self, seed):
        # Property form of the same invariant: arbitrary seeds on the full
        # costas model (dedicated reset + chang + quadratic weights).
        import dataclasses

        params = dataclasses.replace(
            ASParameters.for_costas(8), max_iterations=200
        )
        spec = walk_spec(CostasProblem(8), params)
        pop = WalkPopulation(spec)
        pop.init([seed])
        mirror = MirrorWalk(spec.pi, spec.pd, spec.wd, spec.consts, seed)
        pop.run(0)
        mirror.run(0)
        while int(pop.state[0, WS_STATUS]) == STATUS_RUNNING:
            pop.run(1)
            mirror.run(1)
            _assert_walks_identical(pop, mirror, "costas-property", seed, None)

    def test_given_initial_configuration_skips_the_shuffle(self):
        params = ASParameters.for_costas(8)
        problem = CostasProblem(8)
        spec = walk_spec(problem, params)
        start = np.arange(8, dtype=np.int64)[::-1].copy()
        pop = WalkPopulation(spec)
        pop.init([7], given=start.reshape(1, 8))
        mirror = MirrorWalk(
            spec.pi, spec.pd, spec.wd, spec.consts, 7, given=start.tolist()
        )
        assert pop.perm[0].tolist() == mirror.perm == start.tolist()
        pop.run(50)
        mirror.run(50)
        _assert_walks_identical(pop, mirror, "given-start", 7, None)


# ----------------------------------------------------------------- solver API
@requires_kernels
class TestCompiledSolver:
    def test_solves_all_three_families(self):
        cases = [
            (CostasProblem(10), ASParameters.for_costas(10)),
            (
                NQueensProblem(12),
                ASParameters.for_problem_size(12, plateau_probability=0.5),
            ),
            (
                AllIntervalProblem(8),
                ASParameters.for_problem_size(
                    8,
                    tabu_tenure=2,
                    reset_limit=1,
                    plateau_probability=0.9,
                    local_min_accept_probability=0.5,
                ),
            ),
        ]
        for problem, params in cases:
            assert supports(problem)
            result = CompiledAdaptiveSearch(params).solve(problem, seed=5)
            assert result.solved, problem.describe()
            assert result.extra["engine"] == "compiled"
            assert problem.cost() == 0
            # The solution was loaded back into the problem instance.
            assert problem.configuration().tolist() == list(
                result.configuration
            )

    def test_deterministic_per_seed_and_counters_consistent(self):
        params = ASParameters.for_costas(11)
        a = CompiledAdaptiveSearch(params).solve(CostasProblem(11), seed=99)
        b = CompiledAdaptiveSearch(params).solve(CostasProblem(11), seed=99)
        assert list(a.configuration) == list(b.configuration)
        for attr in (
            "cost",
            "iterations",
            "swaps",
            "plateau_moves",
            "local_minima",
            "resets",
            "restarts",
            "stop_reason",
        ):
            assert getattr(a, attr) == getattr(b, attr), attr
        # An iteration either swaps or marks; swaps can never exceed iterations.
        assert a.swaps <= a.iterations

    def test_counters_match_mirror_end_to_end(self):
        import dataclasses

        params = dataclasses.replace(
            ASParameters.for_costas(9), max_iterations=300
        )
        result = CompiledAdaptiveSearch(params).solve(CostasProblem(9), seed=17)
        spec = walk_spec(CostasProblem(9), params)
        mirror = MirrorWalk(spec.pi, spec.pd, spec.wd, spec.consts, 17)
        while mirror.run(64):
            pass
        assert result.iterations == mirror.iteration
        assert result.swaps == mirror.swaps
        assert result.plateau_moves == mirror.plateau_moves
        assert result.local_minima == mirror.local_minima
        assert result.resets == mirror.resets
        assert result.restarts == mirror.restarts
        assert result.cost == mirror.best_cost

    def test_max_iterations_stop_reason(self):
        import dataclasses

        params = dataclasses.replace(
            ASParameters.for_costas(16), max_iterations=50
        )
        result = CompiledAdaptiveSearch(params).solve(CostasProblem(16), seed=0)
        if not result.solved:  # 50 iterations virtually never solve n=16
            assert result.stop_reason == "max_iterations"
            assert result.iterations == 50

    def test_unsupported_family_falls_back_to_numpy(self):
        problem = MagicSquareProblem(3)
        assert not supports(problem)
        params = ASParameters.for_problem_size(9)
        result = CompiledAdaptiveSearch(params).solve(problem, seed=4)
        assert result.solver == "compiled-adaptive-search"
        assert result.extra["engine"] == "numpy-fallback"

    def test_kill_switch_falls_back(self, monkeypatch):
        # Simulate REPRO_NO_CKERNELS / no-compiler: the memoised load()
        # verdict is forced to "unavailable" (monkeypatch restores it).
        monkeypatch.setattr(_ckernels, "_lib", None)
        monkeypatch.setattr(_ckernels, "_loaded", True)
        result = CompiledAdaptiveSearch(
            ASParameters.for_costas(8)
        ).solve(CostasProblem(8), seed=2)
        assert result.extra["engine"] == "numpy-fallback"
        assert result.solver == "compiled-adaptive-search"


# ---------------------------------------------------------------- population
@requires_kernels
class TestPopulation:
    def test_population_walk_equals_single_walk_with_same_seed(self):
        # Walk w of a population run is bit-identical to a single-walk run
        # seeded with population_seeds(seed, W)[w] — batching must not change
        # any walk's trajectory (modulo the sibling first-past-the-post stop,
        # so compare the raw kernel states on a fixed iteration budget).
        import dataclasses

        params = dataclasses.replace(
            ASParameters.for_costas(10), max_iterations=120
        )
        spec = walk_spec(CostasProblem(10), params)
        seeds = population_seeds(42, 4)
        batch = WalkPopulation(spec)
        batch.init(seeds)
        while batch.run(64):
            pass
        for w, seed in enumerate(seeds):
            single = WalkPopulation(spec)
            single.init([seed])
            while single.run(64):
                pass
            assert single.state[0].tolist() == batch.state[w].tolist(), w
            assert single.perm[0].tolist() == batch.perm[w].tolist(), w
            assert single.best[0].tolist() == batch.best[w].tolist(), w

    def test_population_results_and_first_past_the_post(self):
        params = ASParameters.for_costas(12)
        solver = CompiledAdaptiveSearch(params)
        results = solver.solve_population(
            CostasProblem(12), seed=7, population=4
        )
        assert len(results) == 4
        assert any(r.solved for r in results)
        assert {r.extra["walk"] for r in results} == {0, 1, 2, 3}
        assert [r.seed for r in results] == population_seeds(7, 4)
        winner_iters = min(r.iterations for r in results if r.solved)
        for r in results:
            assert r.extra["population"] == 4
            if not r.solved:
                # Losers stopped at the boundary following the win: within
                # one check_period of the winning walk's solve iteration.
                assert r.stop_reason == "external_stop"
                assert (
                    r.iterations
                    <= (winner_iters // params.check_period + 1)
                    * params.check_period
                )

    def test_population_stop_check_within_one_check_period(self):
        import dataclasses

        params = dataclasses.replace(
            ASParameters.for_costas(18), check_period=32
        )
        polls = {"n": 0}

        def stop_after_first_poll():
            polls["n"] += 1
            return polls["n"] > 1

        results = CompiledAdaptiveSearch(params).solve_population(
            CostasProblem(18),
            seed=1,
            population=3,
            stop_check=stop_after_first_poll,
        )
        for r in results:
            if not r.solved:
                assert r.stop_reason == "external_stop"
            # One period ran between the two polls; no walk may exceed it.
            assert r.iterations <= params.check_period

    def test_population_seeds_deterministic(self):
        assert population_seeds(5, 3) == population_seeds(5, 3)
        assert population_seeds(5, 3) != population_seeds(6, 3)

    def test_population_fallback_sequential(self, monkeypatch):
        monkeypatch.setattr(_ckernels, "_lib", None)
        monkeypatch.setattr(_ckernels, "_loaded", True)
        results = CompiledAdaptiveSearch(
            ASParameters.for_costas(8)
        ).solve_population(CostasProblem(8), seed=3, population=2)
        assert len(results) == 2
        assert any(r.solved for r in results)
        for w, r in enumerate(results):
            assert r.extra["engine"] == "numpy-fallback"
            assert r.extra["population"] == 2
            assert r.extra["walk"] == w

    def test_population_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="population"):
            CompiledAdaptiveSearch().solve_population(
                CostasProblem(8), population=0
            )


# ------------------------------------------------------------------ plumbing
@requires_kernels
class TestPlumbing:
    def test_run_spec_population_returns_best_with_aggregate(self):
        from repro.solvers import run_spec

        result = run_spec(
            "compiled",
            CostasProblem(12),
            seed=11,
            population=4,
        )
        assert result.solved
        assert result.extra["population"] == 4
        assert result.extra["population_iterations"] >= result.iterations

    def test_run_spec_population_degrades_for_plain_solvers(self):
        from repro.solvers import run_spec

        result = run_spec(
            "tabu", CostasProblem(8), seed=0, population=4
        )
        assert result.solved
        assert "population" not in result.extra

    def test_multiwalk_population_inline(self):
        from repro.parallel.multiwalk import MultiWalkSolver
        from repro.problems import problem_factory

        mw = MultiWalkSolver(
            problem_factory("costas", 10),
            ASParameters.for_costas(10),
            solver="compiled",
            n_workers=1,
            seed_root=9,
            population=3,
        )
        outcome = mw.solve(max_time=30)
        assert outcome.solved
        assert outcome.best.extra["population"] == 3

    def test_service_surfaces_engine_mode_and_population(self):
        from repro.service.api import ServiceConfig, SolverService

        config = ServiceConfig(
            store_path=":memory:", n_workers=1, population=2,
            use_constructions=False, default_solver="compiled",
            default_max_time=30.0,
        )
        with SolverService(config) as svc:
            stats = svc.stats()
            assert stats["engine"]["kernel_mode"] in ("c", "numpy")
            assert stats["engine"]["population"] == 2
            assert stats["config"]["population"] == 2
            health = svc.health()
            assert health["components"]["engine"]["population"] == 2
            response = svc.submit(10, kind="costas").result(timeout=60)
            assert response.solved
            assert response.detail["population"] == 2
            assert response.detail["engine"] == "compiled"
