"""Figure 3 — speed-ups on the JUGENE machine model (512–8,192 cores).

The paper reports nearly linear speed-ups on the Blue Gene/P: 15.33x for
CAP 21 and 13.25x for CAP 22 when going from 512 to 8,192 cores (the ideal
factor being 16), and 3.71x for CAP 23 from 2,048 to 8,192 cores (ideal 4).
The reproduction computes the same speed-up series for the scaled-down
instances of the chosen preset, relative to the smallest simulated core count.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.speedup import speedup_series
from repro.analysis.tables import format_table
from repro.experiments.base import (
    ExperimentResult,
    cell_seed,
    costas_factory,
    costas_params,
    shared_runner,
)
from repro.experiments.config import ExperimentScale
from repro.parallel.cluster import JUGENE
from repro.parallel.runner import ExperimentRunner

__all__ = ["run_figure3"]


def run_figure3(
    scale: Optional[ExperimentScale] = None,
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Reproduce Figure 3 (JUGENE speed-up curves) at the given scale."""
    scale = scale if scale is not None else ExperimentScale.default()
    runner = shared_runner(runner)
    cores = list(scale.figure3_cores)
    reference = min(cores)
    result = ExperimentResult(experiment="figure3", scale=scale.name)

    table_rows = []
    for order in scale.figure3_orders:
        pool = runner.collect_pool(
            costas_factory(order), costas_params(order), scale.pool_runs
        )
        times: Dict[int, float] = {}
        for core_count in cores:
            summary = runner.parallel_time_summary(
                pool,
                JUGENE,
                core_count,
                scale.cell_repetitions,
                rng=cell_seed("jugene", order, core_count),
            )
            times[core_count] = summary.mean
        series = speedup_series(times, reference_cores=reference)
        for point in series:
            result.rows.append(
                {
                    "order": order,
                    "cores": point.cores,
                    "avg_time": point.time,
                    "speedup": point.speedup,
                    "ideal": point.ideal,
                    "efficiency": point.efficiency,
                }
            )
            table_rows.append([order, point.cores, point.time, point.speedup, point.ideal])

    result.metadata["reference_cores"] = reference
    result.metadata["table"] = format_table(
        ["Size", "Cores", "Avg time (s)", "Speed-up", "Ideal"],
        table_rows,
        float_format="{:.3f}",
        title=f"Figure 3 — speed-ups on JUGENE w.r.t. {reference} cores",
    )
    return result
