"""Speed gates of the Costas engines, as ratios taken within one run.

Each test times two engines on the same instances and seeds and asserts the
ratio of their iteration rates, so the gate holds on any host: the
incremental count-table model against the full-recompute reference (whose
trajectories are bit-identical, see ``test_incremental_equivalence.py``),
and the compiled walk against the NumPy Adaptive Search loop.  The default
cases are small; the ``slow`` cases are the documented full-size runs.

A timing ratio means nothing under a sanitizer, so CI runs this module only
in the ordinary test job.
"""

from __future__ import annotations

import pytest

from repro.core import _ckernels
from repro.core.cwalk import CompiledAdaptiveSearch
from repro.core.engine import AdaptiveSearch
from repro.core.params import ASParameters
from repro.models.costas import CostasProblem, ReferenceCostasProblem


def _adaptive(problem, seed, params):
    return AdaptiveSearch().solve(problem, seed=seed, params=params)


def _compiled(problem, seed, params):
    return CompiledAdaptiveSearch(params).solve(problem, seed=seed)


def _iterations_per_second(run, model, order, iterations, seeds):
    """Engine iterations per second over seeds ``0..seeds-1``."""
    params = ASParameters.for_costas(order, max_iterations=iterations)
    results = [run(model(order), seed, params) for seed in range(seeds)]
    return sum(r.iterations for r in results) / sum(r.wall_time for r in results)


@pytest.mark.parametrize(
    "orders,iterations,seeds,floor",
    [
        ((10, 14), 600, 1, 3.0),
        pytest.param((18,), 2000, 2, 10.0, marks=pytest.mark.slow),
    ],
)
def test_incremental_model_outpaces_full_recompute(orders, iterations, seeds, floor):
    reference = {
        n: _iterations_per_second(_adaptive, ReferenceCostasProblem, n, iterations, seeds)
        for n in orders
    }
    incremental = {
        n: _iterations_per_second(_adaptive, CostasProblem, n, iterations, seeds)
        for n in orders
    }
    speedups = {n: round(incremental[n] / reference[n], 2) for n in orders}
    print(f"incremental over reference it/s by order: {speedups}")
    assert all(speedup >= floor for speedup in speedups.values()), speedups


@pytest.mark.slow
def test_compiled_walk_outpaces_numpy_engine():
    if _ckernels.load() is None:
        pytest.skip("C kernels unavailable: the compiled walk cannot run")
    order, iterations, seeds = 18, 40_000, 3
    numpy_rate = _iterations_per_second(_adaptive, CostasProblem, order, iterations, seeds)
    compiled_rate = _iterations_per_second(_compiled, CostasProblem, order, iterations, seeds)
    speedup = compiled_rate / numpy_rate
    print(f"compiled walk over NumPy engine it/s at n={order}: {speedup:.2f}x")
    assert speedup >= 5.0
