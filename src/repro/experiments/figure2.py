"""Figure 2 — speed-ups w.r.t. 32 cores on HA8000 and Grid'5000 (log-log).

The paper plots, for its largest common instance (CAP 22), the speed-up of the
average solving time relative to the 32-core configuration on HA8000, Suno and
Helios, showing that the curve follows the ideal line (time halves when the
core count doubles).  The reproduction produces the same series — speed-up per
machine and core count, plus the ideal reference — for the scaled-down
instance of the chosen preset.
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
from repro.parallel.cluster import HA8000, HELIOS, SUNO
from repro.parallel.runner import ExperimentRunner

__all__ = ["run_figure2"]


def run_figure2(
    scale: Optional[ExperimentScale] = None,
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Reproduce Figure 2 (speed-ups w.r.t. the smallest measured core count)."""
    scale = scale if scale is not None else ExperimentScale.default()
    runner = shared_runner(runner)
    order = scale.figure2_order
    cores = list(scale.figure2_cores)
    result = ExperimentResult(experiment="figure2", scale=scale.name)

    pool = runner.collect_pool(
        costas_factory(order), costas_params(order), scale.pool_runs
    )

    machines = [HA8000, SUNO, HELIOS]
    table_rows = []
    reference = min(cores)
    for machine in machines:
        times: Dict[int, float] = {}
        for core_count in cores:
            if machine.max_cores is not None and core_count > machine.max_cores:
                continue
            summary = runner.parallel_time_summary(
                pool,
                machine,
                core_count,
                scale.cell_repetitions,
                rng=cell_seed(machine.name, core_count),
            )
            times[core_count] = summary.mean
        series = speedup_series(times, reference_cores=reference)
        for point in series:
            result.rows.append(
                {
                    "order": order,
                    "machine": machine.name,
                    "cores": point.cores,
                    "avg_time": point.time,
                    "speedup": point.speedup,
                    "ideal": point.ideal,
                    "efficiency": point.efficiency,
                }
            )
            table_rows.append(
                [machine.name, point.cores, point.time, point.speedup, point.ideal]
            )

    result.metadata["order"] = order
    result.metadata["reference_cores"] = reference
    result.metadata["table"] = format_table(
        ["Machine", "Cores", "Avg time (s)", "Speed-up", "Ideal"],
        table_rows,
        float_format="{:.3f}",
        title=(
            f"Figure 2 — speed-ups for CAP {order} w.r.t. {reference} cores "
            "(HA8000 / Suno / Helios)"
        ),
    )
    return result
