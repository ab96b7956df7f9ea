"""Figure 4 — time-to-target plots and exponential fits.

For one instance and several core counts, the paper plots the empirical CDF of
the solving time over 200 runs together with the best shifted-exponential
approximation, and reads off statements such as "about 50% chance of a
solution within 100 seconds on 32 cores, 75% / 95% / 100% with 64 / 128 / 256
cores".  The reproduction produces, for each core count of the chosen preset:

* the empirical CDF (as paired arrays, ready for plotting);
* the shifted-exponential fit and its Kolmogorov–Smirnov distance to the
  sample (the quantitative version of "very close to an exponential");
* the probability of having found a solution within a common reference time
  (the median 32-core — i.e. smallest-core-count — time), reproducing the
  "50% / 75% / 95% / 100%" reading of the figure.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.tables import format_table
from repro.analysis.ttt import empirical_cdf, fit_shifted_exponential, ks_distance
from repro.experiments.base import (
    ExperimentResult,
    cell_seed,
    costas_factory,
    costas_params,
    shared_runner,
)
from repro.experiments.config import ExperimentScale
from repro.parallel.cluster import HA8000
from repro.parallel.runner import ExperimentRunner

__all__ = ["run_figure4"]


def run_figure4(
    scale: Optional[ExperimentScale] = None,
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Reproduce Figure 4 (time-to-target plots) at the given scale."""
    scale = scale if scale is not None else ExperimentScale.default()
    runner = shared_runner(runner)
    order = scale.figure4_order
    cores = list(scale.figure4_cores)
    result = ExperimentResult(experiment="figure4", scale=scale.name)

    pool = runner.collect_pool(
        costas_factory(order), costas_params(order), scale.pool_runs
    )

    per_core_times = {}
    for core_count in cores:
        estimates = runner.simulate_parallel(
            pool,
            HA8000,
            core_count,
            scale.figure4_samples,
            rng=cell_seed("ttt", order, core_count),
        )
        per_core_times[core_count] = np.array([e.wall_time for e in estimates])

    reference_time = float(np.median(per_core_times[min(cores)]))

    table_rows = []
    for core_count in cores:
        times = per_core_times[core_count]
        xs, ps = empirical_cdf(times)
        fit = fit_shifted_exponential(times)
        ks = ks_distance(times, fit)
        prob_within_reference = float(np.mean(times <= reference_time))
        result.rows.append(
            {
                "order": order,
                "cores": core_count,
                "samples": len(times),
                "cdf_times": xs.tolist(),
                "cdf_probs": ps.tolist(),
                "fit_shift": fit.shift,
                "fit_scale": fit.scale,
                "ks_distance": ks,
                "prob_within_reference_time": prob_within_reference,
                "reference_time": reference_time,
            }
        )
        table_rows.append(
            [
                core_count,
                float(times.mean()),
                fit.shift,
                fit.scale,
                ks,
                prob_within_reference,
            ]
        )

    result.metadata["order"] = order
    result.metadata["reference_time"] = reference_time
    result.metadata["table"] = format_table(
        [
            "Cores",
            "Avg time (s)",
            "Fit shift",
            "Fit scale",
            "KS distance",
            f"P[T <= {reference_time:.2f}s]",
        ],
        table_rows,
        float_format="{:.3f}",
        title=f"Figure 4 — time-to-target statistics for CAP {order} (HA8000 model)",
    )
    return result
