"""Tests for the experiment runner and run-pool persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stats import RunSummary
from repro.core import _ckernels
from repro.exceptions import AnalysisError, ParallelExecutionError
from repro.experiments.base import costas_factory, costas_params
from repro.models import CostasProblem
from repro.parallel.cluster import HA8000, JUGENE, WalkSample
from repro.parallel.runner import ExperimentRunner, RunPool


@pytest.fixture(scope="module")
def small_pool() -> RunPool:
    runner = ExperimentRunner()
    return runner.collect_pool(costas_factory(9), costas_params(9), 20, seed_root=1)


class TestRunPool:
    def test_collect_pool_contents(self, small_pool):
        assert len(small_pool) == 20
        assert small_pool.host_iteration_rate > 0
        assert all(s.solved for s in small_pool.solved_samples)
        assert len(small_pool.solved_samples) == 20  # order 9 always solves
        assert "costas" in small_pool.problem

    def test_iteration_and_time_arrays(self, small_pool):
        iters = small_pool.iterations()
        times = small_pool.wall_times()
        assert iters.shape == times.shape == (20,)
        assert np.all(iters >= 0)
        assert np.all(times >= 0)

    def test_summary(self, small_pool):
        summary = small_pool.summary("iterations")
        assert isinstance(summary, RunSummary)
        assert summary.count == 20
        with pytest.raises(AnalysisError):
            small_pool.summary("bogus")

    def test_json_roundtrip(self, tmp_path, small_pool):
        path = tmp_path / "pool.json"
        small_pool.save(path)
        loaded = RunPool.load(path)
        assert loaded.problem == small_pool.problem
        assert len(loaded) == len(small_pool)
        assert loaded.host_iteration_rate == pytest.approx(
            small_pool.host_iteration_rate
        )
        assert [s.iterations for s in loaded.samples] == [
            s.iterations for s in small_pool.samples
        ]


class TestExperimentRunner:
    def test_pool_is_deterministic_given_seed_root(self):
        runner = ExperimentRunner()
        a = runner.collect_pool(
            costas_factory(8), costas_params(8), 10, seed_root=5, use_cache=False
        )
        b = runner.collect_pool(
            costas_factory(8), costas_params(8), 10, seed_root=5, use_cache=False
        )
        assert [s.iterations for s in a.samples] == [s.iterations for s in b.samples]

    def test_memory_cache_returns_same_object(self):
        runner = ExperimentRunner()
        a = runner.collect_pool(costas_factory(8), costas_params(8), 5)
        b = runner.collect_pool(costas_factory(8), costas_params(8), 5)
        assert a is b

    def test_disk_cache_roundtrip(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        a = runner.collect_pool(costas_factory(8), costas_params(8), 5)
        assert list(tmp_path.glob("pool-*.json"))
        # A fresh runner with the same cache dir loads from disk.
        other = ExperimentRunner(cache_dir=tmp_path)
        b = other.collect_pool(costas_factory(8), costas_params(8), 5)
        assert [s.iterations for s in a.samples] == [s.iterations for s in b.samples]

    def test_cache_key_separates_seed_roots_and_engines(self, monkeypatch):
        # The key once hashed only problem, params and run count: a second
        # seed root was served the first root's pool, and a pool collected
        # by another engine would have been served as this engine's.
        runner = ExperimentRunner()
        root1 = runner.collect_pool(costas_factory(8), costas_params(8), 5, seed_root=1)
        root2 = runner.collect_pool(costas_factory(8), costas_params(8), 5, seed_root=2)
        assert root2 is not root1
        assert [s.seed for s in root2.samples] != [s.seed for s in root1.samples]
        problem, params = costas_factory(8)(), costas_params(8)
        key = runner._cache_key(problem, params, 5, 1)
        # A build without the C kernels walks the NumPy engine's trajectories.
        other_mode = "numpy" if _ckernels.mode() == "c" else "c"
        monkeypatch.setattr(_ckernels, "mode", lambda: other_mode)
        assert runner._cache_key(problem, params, 5, 1) != key

    def test_cache_key_is_stable_across_processes(self):
        # abs(hash(payload)) was salted by PYTHONHASHSEED, so on-disk pools
        # could never be rehit by a later run; the key must now be a pure
        # function of the payload.
        import hashlib
        import subprocess
        import sys

        runner = ExperimentRunner()
        problem = costas_factory(8)()
        params = costas_params(8)
        key = runner._cache_key(problem, params, 5, 7)
        payload = (
            f"{problem.describe()}|{params}|runs=5|seed_root=7"
            f"|engine=compiled/{_ckernels.mode()}"
        )
        assert key == hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
        # Recompute in a subprocess with a different hash seed: same key.
        code = (
            "from repro.parallel.runner import ExperimentRunner\n"
            "from repro.experiments.base import costas_factory, costas_params\n"
            "print(ExperimentRunner()._cache_key("
            "costas_factory(8)(), costas_params(8), 5, 7))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**__import__("os").environ, "PYTHONHASHSEED": "424242"},
        )
        assert out.stdout.strip() == key

    def test_costas_factory_builds_the_model_its_options_name(self):
        # Pool cache keys hash the built problem's describe(), so the factory
        # must build exactly the model its options name, also once pickled
        # to a worker process.
        import pickle

        for options in ({}, {"err_weight": "constant", "use_chang": False}):
            factory = pickle.loads(pickle.dumps(costas_factory(8, **options)))
            assert factory().describe() == CostasProblem(8, **options).describe()

    def test_collect_pool_validation(self):
        runner = ExperimentRunner()
        with pytest.raises(ParallelExecutionError):
            runner.collect_pool(costas_factory(8), costas_params(8), 0)

    def test_parallel_time_summary_improves_with_cores(self, small_pool):
        runner = ExperimentRunner()
        few = runner.parallel_time_summary(small_pool, HA8000, 2, 50, rng=1)
        many = runner.parallel_time_summary(small_pool, HA8000, 16, 50, rng=1)
        assert many.mean < few.mean

    def test_sequential_summary_scales_with_machine_speed(self, small_pool):
        runner = ExperimentRunner()
        host = runner.sequential_time_summary(small_pool, HA8000)
        slow = runner.sequential_time_summary(small_pool, JUGENE)
        assert slow.mean > host.mean

    def test_exponential_sampling_mode(self, small_pool):
        runner = ExperimentRunner()
        summary = runner.parallel_time_summary(
            small_pool, HA8000, 32, 20, rng=0, sampling="exponential"
        )
        assert summary.mean > 0

    def test_empty_pool_rejected(self):
        runner = ExperimentRunner()
        empty = RunPool(problem="costas(n=9)", samples=[], host_iteration_rate=100.0)
        with pytest.raises(AnalysisError):
            runner.parallel_time_summary(empty, HA8000, 8, 10)
        with pytest.raises(AnalysisError):
            runner.sequential_time_summary(empty, HA8000)
