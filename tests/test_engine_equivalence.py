"""Statistical equivalence of the two Adaptive Search engines.

The compiled walk (``"compiled"``, the default engine) and the NumPy engine
(``"adaptive"``) take the same decisions, but they draw from different random
streams (xoshiro256** in the kernel, PCG64 in NumPy), so one seed gives two
different walks.  What must agree is the distribution the paper measures:
iterations to solution.  Each case runs both engines on the same spawned
seeds and compares the two samples with a two-sample Kolmogorov–Smirnov test
at a significance level fixed per order before any run.  A failing order is a
divergence between ``engine.py`` and the kernel (the mirror in
``cwalk_mirror.py`` replays the kernel decision by decision).

The tier-1 case is small; the ``slow`` case covers orders 12 to 16.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import _ckernels
from repro.models import CostasProblem
from repro.parallel.seeds import spawned_seeds
from repro.solvers import run_spec

#: Significance level of each order's test.
ALPHA = 0.01


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Largest gap between the empirical CDFs of *a* and *b*."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical_value(n: int, m: int, alpha: float = ALPHA) -> float:
    """Asymptotic two-sample KS critical value for sample sizes *n* and *m*."""
    return float(np.sqrt(-np.log(alpha / 2) / 2) * np.sqrt((n + m) / (n * m)))


def _iterations(solver: str, order: int, seeds) -> np.ndarray:
    counts = []
    for seed in seeds:
        result = run_spec(solver, CostasProblem(order), seed)
        assert result.solved, (solver, order, seed)
        counts.append(result.iterations)
    return np.array(counts)


def test_ks_two_sample_statistic():
    assert ks_two_sample(np.array([1, 2, 3]), np.array([1, 2, 3])) == 0.0
    assert ks_two_sample(np.array([1, 2]), np.array([3, 4])) == 1.0
    assert ks_two_sample(np.array([1, 3]), np.array([2, 4])) == 0.5
    # c(0.05) = 1.358 for equal samples of 100: 1.358 * sqrt(2 / 100).
    assert ks_critical_value(100, 100, 0.05) == pytest.approx(0.192, abs=1e-3)


@pytest.mark.parametrize(
    "orders,walks",
    [
        ((10, 11), 600),
        pytest.param((12, 13, 14, 15, 16), 200, marks=pytest.mark.slow),
    ],
)
def test_engines_agree_on_iterations_to_solution(orders, walks):
    if _ckernels.load() is None:
        pytest.skip("C kernels unavailable: both names run the NumPy engine")
    readings = {}
    for order in orders:
        seeds = spawned_seeds(walks, order)
        adaptive = _iterations("adaptive", order, seeds)
        compiled = _iterations("compiled", order, seeds)
        readings[order] = (
            round(ks_two_sample(adaptive, compiled), 3),
            round(ks_critical_value(walks, walks), 3),
            int(np.median(adaptive)),
            int(np.median(compiled)),
        )
    print(f"order: (D, critical value, adaptive median, compiled median) {readings}")
    failing = {n: r for n, r in readings.items() if r[0] > r[1]}
    assert not failing, failing
