#!/usr/bin/env python
"""Independent multi-walk parallelism: real processes plus the virtual cluster.

Part 1 runs the paper's multi-start scheme for real on this machine's cores
(one process per walk, first solution terminates everyone) and compares the
wall-clock time with a single sequential walk.  Both sides run the default
engine, the compiled walk, so the comparison is one engine against itself.

Part 2 collects a pool of sequential runs and uses the virtual-cluster model
to predict how the same instance would behave on the paper's machines (HA8000
and the Blue Gene/P JUGENE) for core counts far beyond this laptop, printing a
miniature version of the paper's Table III / Figure 2.

Run with::

    python examples/parallel_speedup.py [order]
"""

from __future__ import annotations

import os
import sys

from repro import ASParameters, parallel_solve_costas, solve_costas
from repro.analysis.speedup import speedup_series
from repro.analysis.tables import format_table
from repro.experiments.base import costas_factory, costas_params
from repro.parallel.cluster import HA8000, JUGENE
from repro.parallel.runner import ExperimentRunner


def real_parallel_demo(order: int) -> None:
    workers = max(2, os.cpu_count() or 2)
    print(f"--- Real multi-walk on this machine ({workers} worker processes) ---")
    sequential = solve_costas(order, seed=0)
    print(f"sequential walk : {sequential.wall_time:.3f}s "
          f"({sequential.iterations} iterations)")
    parallel = parallel_solve_costas(order, n_workers=workers, seed_root=0)
    print(f"{workers}-walk parallel: {parallel.wall_time:.3f}s "
          f"(winner did {parallel.best.iterations} iterations, "
          f"{parallel.total_iterations} in total)")


def virtual_cluster_demo(order: int) -> None:
    print("\n--- Virtual cluster projection (independent multi-walk model) ---")
    runner = ExperimentRunner()
    pool = runner.collect_pool(costas_factory(order), costas_params(order), runs=100)
    print(f"collected {len(pool)} sequential walks "
          f"(avg {pool.summary('iterations').mean:.0f} iterations, "
          f"best {pool.summary('iterations').minimum:.0f})")

    rows = []
    for machine in (HA8000, JUGENE):
        times = {}
        core_counts = (1, 32, 64, 128, 256) if machine is HA8000 else (512, 1024, 2048)
        for cores in core_counts:
            if cores == 1:
                summary = runner.sequential_time_summary(pool, machine)
            else:
                summary = runner.parallel_time_summary(pool, machine, cores, 50, rng=cores)
            times[cores] = summary.mean
            rows.append([machine.name, cores, summary.mean, summary.median, summary.maximum])
        series = speedup_series(times)
        best = series[-1]
        print(f"{machine.name}: speed-up x{best.speedup:.1f} at {best.cores} cores "
              f"(ideal x{best.ideal:.0f}) relative to {series[0].cores} core(s)")

    print()
    print(format_table(
        ["Machine", "Cores", "avg (s)", "med (s)", "max (s)"],
        rows,
        float_format="{:.3f}",
        title=f"Simulated multi-walk times for CAP {order}",
    ))


if __name__ == "__main__":
    order = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    real_parallel_demo(order)
    virtual_cluster_demo(order)
