"""Experiment drivers: one module per table / figure of the paper.

Every driver is a plain function taking an :class:`~repro.experiments.config.ExperimentScale`
(which decides instance sizes, run counts and core counts) plus an optional
shared :class:`~repro.parallel.runner.ExperimentRunner`, and returning a
structured result object that knows how to render itself as a paper-style
table.  The command-line interface (``repro experiment``) and
``tests/test_experiments.py`` both call into this package: the tests check
the paper's claims at the smoke scale, and at the default scale as ``slow``
cases (``pytest -m slow``).

Mapping to the paper (see DESIGN.md for the full index):

========================  ===========================================
:mod:`.table1`            Table I   — sequential evaluation of AS on CAP
:mod:`.table2`            Table II  — AS versus Dialectic Search
:mod:`.cp_comparison`     Section IV-C — AS versus a CP solver
:mod:`.table3`            Table III — HA8000, 1–256 cores
:mod:`.table4`            Table IV  — JUGENE, 512–8,192 cores
:mod:`.table5`            Table V   — Grid'5000 Suno/Helios
:mod:`.figure2`           Figure 2  — speed-ups w.r.t. 32 cores
:mod:`.figure3`           Figure 3  — speed-ups on JUGENE
:mod:`.figure4`           Figure 4  — time-to-target plots
:mod:`.ablations`         Section IV-B — model-refinement ablations
========================  ===========================================
"""

from repro.experiments.config import ExperimentScale
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments

__all__ = ["ExperimentScale", "EXPERIMENTS", "get_experiment", "list_experiments"]
