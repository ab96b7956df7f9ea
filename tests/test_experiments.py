"""Integration tests: every experiment driver runs end-to-end at smoke scale.

These are the tests that tie the library to the paper: each driver must
produce rows with the expected structure, and the qualitative claims the paper
makes (costs grow with the order, parallel time shrinks with the core count,
speed-ups are close to ideal, the runtime distribution looks exponential) must
hold on the reproduction's own data even at smoke scale.  The ``slow`` class
at the end checks the same claims, with firmer bounds, at the default scale.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter

import pytest

from repro.experiments import ExperimentScale
from repro.experiments.ablations import ABLATIONS, run_ablation
from repro.experiments.registry import (
    EXPERIMENTS,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.parallel.runner import ExperimentRunner


@pytest.fixture(scope="module")
def scale() -> ExperimentScale:
    return ExperimentScale.smoke()


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    # One shared runner so pools collected by one experiment are reused by the others.
    return ExperimentRunner()


class TestScalePresets:
    def test_by_name(self):
        assert ExperimentScale.by_name("smoke").name == "smoke"
        assert ExperimentScale.by_name("default").name == "default"
        assert ExperimentScale.by_name("paper").table1_orders[-1] == 20
        with pytest.raises(ValueError):
            ExperimentScale.by_name("gigantic")

    def test_registry_contents(self):
        identifiers = list_experiments()
        for expected in ("table1", "table2", "table3", "table4", "table5",
                         "figure2", "figure3", "figure4", "cp"):
            assert expected in identifiers
        assert all(f"ablation-{name}" in identifiers for name in ABLATIONS)
        with pytest.raises(KeyError):
            get_experiment("table99")


class TestSequentialExperiments:
    def test_table1(self, scale, runner):
        result = run_experiment("table1", scale, runner)
        assert result.experiment == "table1"
        assert len(result.rows) == len(scale.table1_orders)
        for row in result.rows:
            assert row["solved"] > 0
            assert row["time_min"] <= row["time_avg"] <= row["time_max"]
            assert row["iterations_min"] <= row["iterations_avg"] <= row["iterations_max"]
            assert row["ratio_avg_over_min"] >= 1.0
        # Average iterations grow with the order (exponential behaviour claim).
        iters = [row["iterations_avg"] for row in result.rows]
        assert iters == sorted(iters)
        assert "Table I" in result.format()

    def test_table2(self, scale, runner):
        result = run_experiment("table2", scale, runner)
        assert len(result.rows) == len(scale.table2_orders)
        for row in result.rows:
            assert row["as_solved"] > 0
            assert row["ds_solved"] >= 0
            if row["ds_avg_time"] is not None and row["as_avg_time"]:
                assert row["ds_over_as"] > 0
        assert "Dialectic" in result.format()

    def test_cp_comparison(self, scale, runner):
        result = run_experiment("cp", scale, runner)
        assert len(result.rows) == len(scale.cp_orders)
        for row in result.rows:
            assert row["cp_avg_nodes"] is None or row["cp_avg_nodes"] > 0


class TestParallelExperiments:
    def test_table3_cells_decrease_with_cores(self, scale, runner):
        result = run_experiment("table3", scale, runner)
        stats = result.metadata["statistics"]
        repetitions = result.metadata["repetitions"]
        for order in scale.table3_orders:
            cells = [stats[order][str(c)] for c in scale.table3_cores]
            # Parallel columns must not be slower than the sequential column.
            assert cells[-1]["avg"] <= cells[0]["avg"]
            # And the largest core count should be the (weakly) fastest
            # parallel cell.  At smoke scale the 8- and 16-core cells both
            # sit at the pool's floor of a few iterations, so their averages
            # tie up to sampling noise: the largest core count may exceed
            # another parallel cell by at most 4 standard errors of the
            # difference of the two averages.
            last = cells[-1]
            for cell in cells[1:-1]:
                se = ((last["std"] ** 2 + cell["std"] ** 2) / repetitions) ** 0.5
                assert last["avg"] <= cell["avg"] + 4 * se, (order, last, cell)
        assert result.metadata["machine"] == "HA8000"

    def test_table4_jugene(self, scale, runner):
        result = run_experiment("table4", scale, runner)
        assert result.metadata["machine"] == "JUGENE"
        stats = result.metadata["statistics"]
        for order in scale.table4_orders:
            times = [stats[order][str(c)]["avg"] for c in scale.table4_cores]
            # Adding cores must not make things noticeably worse (saturation
            # regime tolerance; see EXPERIMENTS.md).
            assert times[-1] <= times[0] * 1.2

    def test_table5_has_both_clusters(self, scale, runner):
        result = run_experiment("table5", scale, runner)
        machines = {row["machine"] for row in result.rows}
        assert machines == {"Suno", "Helios"}

    def test_figure2_speedups(self, scale, runner):
        result = run_experiment("figure2", scale, runner)
        assert result.rows, "expected at least one speed-up point"
        for row in result.rows:
            assert row["speedup"] > 0
            assert row["ideal"] >= 1.0
        # For each machine, speed-up grows with the core count.
        by_machine = {}
        for row in result.rows:
            by_machine.setdefault(row["machine"], []).append((row["cores"], row["speedup"]))
        for series in by_machine.values():
            series.sort()
            speedups = [s for _, s in series]
            assert speedups[-1] >= speedups[0]

    def test_figure3_near_linear(self, scale, runner):
        result = run_experiment("figure3", scale, runner)
        for row in result.rows:
            assert 0 < row["speedup"] <= row["ideal"] * 1.5
        largest = [r for r in result.rows if r["cores"] == max(scale.figure3_cores)]
        # At smoke scale (tiny instances) saturation is expected; the speed-up
        # at the largest core count must at least not degrade.
        assert all(r["speedup"] > 0.85 for r in largest)

    def test_figure_cells_seeded_the_same_in_every_process(self):
        """Cell seeds must not depend on the per-process string-hash salt, or
        one preset gives a different figure in every process."""
        code = (
            "from repro.experiments import ExperimentScale\n"
            "from repro.experiments.figure3 import run_figure3\n"
            "rows = run_figure3(ExperimentScale.smoke()).rows\n"
            "print([(r['order'], r['cores'], round(r['speedup'], 9)) for r in rows])\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONHASHSEED": salt},
            ).stdout
            for salt in ("1", "2")
        ]
        assert outputs[0] == outputs[1]

    def test_figure4_distribution_looks_exponential(self, scale, runner):
        result = run_experiment("figure4", scale, runner)
        assert len(result.rows) == len(scale.figure4_cores)
        for row in result.rows:
            assert len(row["cdf_times"]) == row["samples"]
            assert row["fit_scale"] > 0
            assert 0 <= row["ks_distance"] <= 1
            assert 0 <= row["prob_within_reference_time"] <= 1
        # More cores -> higher probability of reaching the target within the
        # reference time (the paper's 50% / 75% / 95% / 100% reading).
        probs = [row["prob_within_reference_time"] for row in result.rows]
        assert probs[-1] >= probs[0]


class TestAblations:
    def test_ablation_rows_structure(self, scale, runner):
        result = run_ablation("err_weight", scale, runner)
        assert result.rows
        labels = {row["variant"] for row in result.rows}
        assert labels == {"err=constant", "err=quadratic"}
        for row in result.rows:
            assert row["solved"] > 0

    def test_unknown_ablation_rejected(self, scale):
        with pytest.raises(ValueError):
            run_ablation("nonexistent", scale)

    def test_registry_driver_for_ablation(self, scale, runner):
        result = run_experiment("ablation-reset", scale, runner)
        labels = {row["variant"] for row in result.rows}
        assert labels == {"generic-reset", "dedicated-reset"}


def _run_default(identifier, runner):
    result = run_experiment(identifier, ExperimentScale.default(), runner)
    print(result.format())
    return result


def _avg_iterations_at_largest_order(result):
    largest = max(row["order"] for row in result.rows)
    return {
        row["variant"]: row["avg_iterations"]
        for row in result.rows
        if row["order"] == largest
    }


@pytest.mark.slow
class TestPaperClaimsAtDefaultScale:
    """The paper's qualitative claims at the default scale, one test per
    table, figure, CP comparison and ablation."""

    def test_table1_effort_grows_steeply_and_best_run_is_far_faster(self, runner):
        result = _run_default("table1", runner)
        iters = [row["iterations_avg"] for row in result.rows]
        assert iters == sorted(iters)
        assert iters[-1] > 2 * iters[0]
        assert all(row["ratio_avg_over_min"] >= 2 for row in result.rows[1:])

    def test_table2_adaptive_search_beats_dialectic_search(self, runner):
        result = _run_default("table2", runner)
        ratios = [row["ds_over_as"] for row in result.rows if row["ds_avg_time"]]
        assert ratios, "expected at least one DS/AS ratio"
        assert sum(ratios) / len(ratios) > 1.0

    def test_table3_ha8000_time_and_spread_shrink_with_cores(self, runner):
        result = _run_default("table3", runner)
        stats = result.metadata["statistics"]
        cores = result.metadata["cores"]
        for order in result.metadata["orders"]:
            avg_times = [stats[order][str(c)]["avg"] for c in cores]
            max_times = [stats[order][str(c)]["max"] for c in cores]
            assert avg_times[-1] < avg_times[0]
            assert max_times[-1] < max_times[0]

    def test_table4_jugene_more_cores_never_noticeably_worse(self, runner):
        result = _run_default("table4", runner)
        stats = result.metadata["statistics"]
        cores = result.metadata["cores"]
        for order in result.metadata["orders"]:
            avg_times = [stats[order][str(c)]["avg"] for c in cores]
            # 512-8192 cores on these small instances is deep in saturation:
            # the time is dominated by the distribution's shift.
            assert avg_times[-1] <= avg_times[0] * 1.10
            assert stats[order][str(cores[-1])]["max"] <= stats[order][str(cores[0])]["max"] * 1.25

    def test_table5_grid5000_time_shrinks_and_helios_is_slower(self, runner):
        result = _run_default("table5", runner)
        for cluster_key in ("suno", "helios"):
            meta = result.metadata[cluster_key]
            stats = meta["statistics"]
            for order in meta["orders"]:
                avg_times = [stats[order][str(c)]["avg"] for c in meta["cores"]]
                assert avg_times[-1] < avg_times[0]
        # Helios (2.2 GHz) is no faster than Suno (2.4 GHz) sequentially.
        suno = result.metadata["suno"]["statistics"]
        helios = result.metadata["helios"]["statistics"]
        for order in set(suno) & set(helios):
            assert helios[order]["1"]["avg"] >= suno[order]["1"]["avg"]

    def test_figure2_speedups_track_ideal(self, runner):
        result = _run_default("figure2", runner)
        by_machine = {}
        for row in result.rows:
            by_machine.setdefault(row["machine"], []).append(row)
        for machine, rows in by_machine.items():
            rows.sort(key=lambda r: r["cores"])
            speedups = [r["speedup"] for r in rows]
            assert speedups == sorted(speedups), machine
            assert rows[1]["efficiency"] > 0.5, machine

    def test_figure3_jugene_speedups_do_not_degrade(self, runner):
        result = _run_default("figure3", runner)
        by_order = {}
        for row in result.rows:
            by_order.setdefault(row["order"], []).append(row)
        for order, rows in by_order.items():
            rows.sort(key=lambda r: r["cores"])
            speedups = [r["speedup"] for r in rows]
            assert min(speedups) >= 0.9, order
            assert speedups[-1] >= speedups[0] * 0.95, order

    def test_figure4_time_to_target_is_exponential(self, runner):
        result = _run_default("figure4", runner)
        rows = sorted(result.rows, key=lambda r: r["cores"])
        for row in rows:
            # A cell's KS distance to its fitted shifted exponential must stay
            # within the one-sample critical value for its sample count
            # (alpha = 0.001: 1.95 / sqrt(n)) plus the largest share of tied
            # values in the sample.  Ties are the simulation's resolution, not
            # the distribution's shape: the bootstrap draws each core's walk
            # from a finite pool and the exponential sampler floors a run at
            # one iteration, and an atom of mass p sits up to p away from any
            # continuous CDF.
            n = row["samples"]
            ties = max(Counter(row["cdf_times"]).values()) / n
            assert row["ks_distance"] < 1.95 / n**0.5 + ties, row["cores"]
        probs = [row["prob_within_reference_time"] for row in rows]
        assert probs == sorted(probs)
        assert probs[0] >= 0.3 and probs[-1] >= 0.9

    def test_cp_nodes_grow_faster_than_the_order(self, runner):
        result = _run_default("cp", runner)
        assert result.rows
        rows = sorted(
            (r for r in result.rows if r["cp_avg_nodes"] is not None),
            key=lambda r: r["order"],
        )
        assert rows, "expected at least one CP measurement"
        if len(rows) >= 2:
            first, last = rows[0], rows[-1]
            order_growth = last["order"] / first["order"]
            node_growth = last["cp_avg_nodes"] / max(first["cp_avg_nodes"], 1.0)
            assert node_growth > order_growth

    @pytest.mark.parametrize("name", ["err_weight", "chang", "plateau"])
    def test_ablation_every_variant_solves(self, runner, name):
        result = _run_default(f"ablation-{name}", runner)
        for row in result.rows:
            assert row["solved"] == row["runs"], row

    def test_ablation_dedicated_reset_no_worse_than_generic(self, runner):
        result = _run_default("ablation-reset", runner)
        for row in result.rows:
            assert row["solved"] == row["runs"], row
        by_variant = _avg_iterations_at_largest_order(result)
        assert by_variant["dedicated-reset"] <= by_variant["generic-reset"] * 1.5

    def test_ablation_uphill_escapes_beat_freeze_and_reset(self, runner):
        result = _run_default("ablation-local_min", runner)
        by_variant = _avg_iterations_at_largest_order(result)
        best_nonzero = min(v for k, v in by_variant.items() if not k.endswith("0.00"))
        assert best_nonzero <= by_variant["uphill=0.00"]
