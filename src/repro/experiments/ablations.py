"""Section IV-B ablations: how much does each model refinement matter?

The paper quantifies three refinements of the basic Costas model:

* the weighted error function ``ERR(d) = n² − d²`` (≈ 17% faster than
  ``ERR(d) = 1``);
* Chang's half-triangle restriction (≈ 30% less evaluation work);
* the dedicated reset procedure (≈ 3.7× faster than the generic reset).

This driver re-measures each of them (plus two engine-level knobs this
reproduction exposes: the plateau probability and the probability of escaping
a local minimum uphill) by running the same seeds through each variant and
comparing average wall-clock time and iteration counts.  The test-suite checks
each ablation separately at the default scale (``slow`` cases), so a
regression in any individual refinement is visible.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stats import summarize
from repro.analysis.tables import format_table
from repro.core.engine import AdaptiveSearch
from repro.core.params import ASParameters
from repro.experiments.base import ExperimentResult, costas_params, shared_runner
from repro.experiments.config import ExperimentScale
from repro.models.costas import CostasProblem
from repro.parallel.runner import ExperimentRunner
from repro.parallel.seeds import spawned_seeds

__all__ = [
    "run_ablation",
    "ABLATIONS",
    "err_weight_variants",
    "chang_variants",
    "reset_variants",
    "plateau_variants",
    "local_min_variants",
]

Variant = Tuple[str, Callable[[int], CostasProblem], Callable[[int], ASParameters]]


def err_weight_variants() -> List[Variant]:
    """``ERR(d) = 1`` versus ``ERR(d) = n² − d²`` (everything else fixed)."""
    return [
        (
            "err=constant",
            lambda n: CostasProblem(n, err_weight="constant"),
            lambda n: costas_params(n),
        ),
        (
            "err=quadratic",
            lambda n: CostasProblem(n, err_weight="quadratic"),
            lambda n: costas_params(n),
        ),
    ]


def chang_variants() -> List[Variant]:
    """Full difference triangle versus Chang's half triangle."""
    return [
        (
            "full-triangle",
            lambda n: CostasProblem(n, use_chang=False),
            lambda n: costas_params(n),
        ),
        (
            "half-triangle",
            lambda n: CostasProblem(n, use_chang=True),
            lambda n: costas_params(n),
        ),
    ]


def reset_variants() -> List[Variant]:
    """Generic percentage reset versus the paper's dedicated reset procedure."""
    return [
        (
            "generic-reset",
            lambda n: CostasProblem(n, dedicated_reset=False),
            lambda n: costas_params(n),
        ),
        (
            "dedicated-reset",
            lambda n: CostasProblem(n, dedicated_reset=True),
            lambda n: costas_params(n),
        ),
    ]


def plateau_variants() -> List[Variant]:
    """Sweep of the plateau-following probability."""
    return [
        (
            f"plateau={p:.2f}",
            lambda n: CostasProblem(n),
            lambda n, p=p: costas_params(n, plateau_probability=p),
        )
        for p in (0.0, 0.5, 0.9, 1.0)
    ]


def local_min_variants() -> List[Variant]:
    """Sweep of the probability of escaping a local minimum uphill."""
    return [
        (
            f"uphill={p:.2f}",
            lambda n: CostasProblem(n),
            lambda n, p=p: costas_params(n, local_min_accept_probability=p),
        )
        for p in (0.0, 0.25, 0.5, 0.75)
    ]


#: Registry of ablation studies: name -> variant generator.
ABLATIONS: Dict[str, Callable[[], List[Variant]]] = {
    "err_weight": err_weight_variants,
    "chang": chang_variants,
    "reset": reset_variants,
    "plateau": plateau_variants,
    "local_min": local_min_variants,
}


def run_ablation(
    name: str,
    scale: Optional[ExperimentScale] = None,
    runner: Optional[ExperimentRunner] = None,
    *,
    orders: Optional[Sequence[int]] = None,
    runs: Optional[int] = None,
) -> ExperimentResult:
    """Run one named ablation study and return per-variant summaries."""
    if name not in ABLATIONS:
        raise ValueError(f"unknown ablation {name!r}; expected one of {sorted(ABLATIONS)}")
    scale = scale if scale is not None else ExperimentScale.default()
    shared_runner(runner)  # keeps the global cache warm for other experiments
    orders = list(orders) if orders is not None else list(scale.ablation_orders)
    runs = runs if runs is not None else scale.ablation_runs

    engine = AdaptiveSearch()
    result = ExperimentResult(experiment=f"ablation-{name}", scale=scale.name)
    table_rows = []

    for order in orders:
        seeds = spawned_seeds(runs, 9000 + order)
        for label, problem_factory, params_factory in ABLATIONS[name]():
            times = []
            iterations = []
            solved = 0
            for seed in seeds:
                res = engine.solve(
                    problem_factory(order), seed=seed, params=params_factory(order)
                )
                if res.solved:
                    solved += 1
                    times.append(res.wall_time)
                    iterations.append(res.iterations)
            time_summary = summarize(times) if times else None
            iter_summary = summarize(iterations) if iterations else None
            result.rows.append(
                {
                    "order": order,
                    "variant": label,
                    "runs": runs,
                    "solved": solved,
                    "avg_time": time_summary.mean if time_summary else None,
                    "avg_iterations": iter_summary.mean if iter_summary else None,
                    "median_iterations": iter_summary.median if iter_summary else None,
                }
            )
            table_rows.append(
                [
                    order,
                    label,
                    solved,
                    time_summary.mean if time_summary else None,
                    iter_summary.mean if iter_summary else None,
                ]
            )

    result.metadata["orders"] = orders
    result.metadata["runs"] = runs
    result.metadata["table"] = format_table(
        ["Size", "Variant", "Solved", "Avg time (s)", "Avg iterations"],
        table_rows,
        float_format="{:.3f}",
        title=f"Ablation — {name}",
    )
    return result
