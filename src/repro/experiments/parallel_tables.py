"""Shared machinery for the parallel execution tables (Tables III, IV, V).

Each of the paper's parallel tables has the same structure: one block of rows
per instance order (avg / med / min / max solving time) and one column per
core count, measured on a particular machine.  The reproduction builds those
cells from one sequential run pool per order (collected once and cached by the
shared :class:`~repro.parallel.runner.ExperimentRunner`) and the
:class:`~repro.parallel.cluster.VirtualCluster` bootstrap simulation; the
1-core column is the pool itself rescaled to the machine's clock.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.analysis.stats import RunSummary
from repro.analysis.tables import format_paper_table
from repro.experiments.base import ExperimentResult, costas_factory, costas_params
from repro.experiments.config import ExperimentScale
from repro.parallel.cluster import MachineModel
from repro.parallel.runner import ExperimentRunner, RunPool

__all__ = ["build_parallel_table", "collect_pools"]


def collect_pools(
    runner: ExperimentRunner,
    orders: Sequence[int],
    pool_runs: int,
) -> Dict[int, RunPool]:
    """Collect (or fetch from cache) one sequential run pool per order."""
    pools: Dict[int, RunPool] = {}
    for order in orders:
        pools[order] = runner.collect_pool(
            costas_factory(order), costas_params(order), pool_runs
        )
    return pools


def _summary_cell(summary: RunSummary) -> Dict[str, float]:
    return {
        "avg": summary.mean,
        "med": summary.median,
        "min": summary.minimum,
        "max": summary.maximum,
        "std": summary.std,
    }


def build_parallel_table(
    experiment: str,
    title: str,
    scale: ExperimentScale,
    runner: ExperimentRunner,
    machine: MachineModel,
    orders: Sequence[int],
    cores: Sequence[int],
    *,
    repetitions: Optional[int] = None,
    pool_runs: Optional[int] = None,
    rng_seed: int = 2024,
) -> ExperimentResult:
    """Build one parallel execution table (a machine x orders x cores grid).

    The 1-core column reports the sequential run pool rescaled to the target
    machine; every other column reports ``repetitions`` bootstrap simulations
    of a k-core independent multi-walk run.
    """
    repetitions = repetitions if repetitions is not None else scale.cell_repetitions
    pool_runs = pool_runs if pool_runs is not None else scale.pool_runs
    pools = collect_pools(runner, orders, pool_runs)

    result = ExperimentResult(experiment=experiment, scale=scale.name)
    statistics: Dict[int, Dict[str, Dict[str, float]]] = {}

    for order in orders:
        pool = pools[order]
        per_core: Dict[str, Dict[str, float]] = {}
        for core_count in cores:
            if core_count == 1:
                summary = runner.sequential_time_summary(pool, machine)
            else:
                summary = runner.parallel_time_summary(
                    pool,
                    machine,
                    core_count,
                    repetitions,
                    rng=rng_seed + order * 1000 + core_count,
                )
            per_core[str(core_count)] = _summary_cell(summary)
            result.rows.append(
                {
                    "order": order,
                    "machine": machine.name,
                    "cores": core_count,
                    **{f"time_{k}": v for k, v in per_core[str(core_count)].items()},
                }
            )
        statistics[order] = per_core

    result.metadata["machine"] = machine.name
    result.metadata["statistics"] = statistics
    result.metadata["cores"] = list(cores)
    result.metadata["orders"] = list(orders)
    result.metadata["pool_runs"] = pool_runs
    result.metadata["repetitions"] = repetitions
    result.metadata["table"] = format_paper_table(
        list(orders),
        statistics,
        [str(c) for c in cores],
        float_format="{:.3f}",
        title=title,
    )
    return result
