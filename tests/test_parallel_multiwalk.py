"""Tests for the multiprocessing-based independent multi-walk solver."""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.params import ASParameters
from repro.costas.array import is_costas
from repro.exceptions import ParallelExecutionError
from repro.experiments.base import costas_factory
from repro.parallel import multiwalk as mw
from repro.parallel.multiwalk import MultiWalkSolver, close_idle_walkers
from repro.problems import make_problem, problem_factory
from repro.solvers import build_solver, run_spec

requires_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="requires the fork start method"
)


@pytest.fixture
def fresh_walkers():
    """No idle walker set before or after the test: walkers forked during it
    inherit its monkeypatches, and none of them outlives it."""
    close_idle_walkers()
    yield
    close_idle_walkers()


def _walker_pids():
    return sorted(proc.pid for proc in mp.active_children())


class TestSingleWorker:
    def test_inline_path_solves(self):
        solver = MultiWalkSolver(
            costas_factory(9), ASParameters.for_costas(9), n_workers=1, seed_root=1
        )
        outcome = solver.solve()
        assert outcome.solved
        assert outcome.n_workers == 1
        assert len(outcome.results) == 1
        assert is_costas(outcome.best.configuration)
        assert outcome.total_iterations == outcome.best.iterations
        assert len(outcome.seeds) == 1

    def test_explicit_seeds_are_used(self):
        solver = MultiWalkSolver(
            costas_factory(9),
            ASParameters.for_costas(9),
            n_workers=1,
            seeds=[1234],
        )
        outcome = solver.solve()
        assert outcome.seeds == [1234]
        assert outcome.best.seed == 1234


class TestParameterChoice:
    """A multi-walk given no parameters runs the registry's tuned table for
    its problem's family, the same walk a sequential solve of that family and
    seed runs."""

    @pytest.mark.parametrize(
        "kind, order", [("costas", 10), ("queens", 32), ("all-interval", 12)]
    )
    def test_untuned_multiwalk_runs_the_tuned_walk(self, kind, order):
        for seed in range(10):
            problem = make_problem(kind, order)
            tuned, _ = build_solver(None, problem_kind=kind, order=problem.size)
            expected = tuned.solve(problem, seed=seed).iterations
            outcome = MultiWalkSolver(
                problem_factory(kind, order), n_workers=1, seeds=[seed]
            ).solve(max_time=2.0)
            assert outcome.best.iterations == expected, (kind, seed)
            sequential = run_spec(None, make_problem(kind, order), seed=seed)
            assert sequential.iterations == expected, (kind, seed)


class TestValidation:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ParallelExecutionError):
            MultiWalkSolver(costas_factory(9), n_workers=0)

    def test_rejects_too_few_seeds(self):
        with pytest.raises(ParallelExecutionError):
            MultiWalkSolver(costas_factory(9), n_workers=4, seeds=[1, 2])


class TestMultiProcess:
    def test_two_workers_solve_and_terminate_early(self):
        solver = MultiWalkSolver(
            costas_factory(10),
            ASParameters.for_costas(10, check_period=8),
            n_workers=2,
            seed_root=7,
        )
        outcome = solver.solve(max_time=120.0)
        assert outcome.solved
        assert outcome.n_workers == 2
        assert len(outcome.results) == 2
        assert is_costas(outcome.best.configuration)
        # Every worker reports, and at least one of them actually solved.
        assert any(r.solved for r in outcome.results)
        assert all("walk_index" in r.extra for r in outcome.results)

    def test_parallel_helper_function(self):
        from repro import parallel_solve_costas

        outcome = parallel_solve_costas(9, n_workers=2, seed_root=3, max_time=120.0)
        assert outcome.solved


def _exit_without_reporting(*args, **kwargs):  # pragma: no cover - walker body
    os._exit(3)


def _only_walk_0_reports(real_job):
    """A walker job body under which every walk but walk 0 dies at once."""

    def job(stop_event, factory, params, spec, seed, walk_index, *rest):
        if walk_index != 0:  # pragma: no cover - walker body
            os._exit(3)
        return real_job(stop_event, factory, params, spec, seed, walk_index, *rest)

    return job


def _no_problem():
    raise ValueError("no problem today")


class TestDeadWorkerDetection:
    @requires_fork
    def test_partial_results_survive_a_dead_loser(self, monkeypatch, fresh_walkers):
        # One walk reports (and solves), the other is killed before reporting:
        # the solved outcome must be returned, with the gap recorded, instead
        # of being discarded by an exception.
        monkeypatch.setattr(mw, "_run_job", _only_walk_0_reports(mw._run_job))
        solver = MultiWalkSolver(
            costas_factory(9),
            ASParameters.for_costas(9),
            n_workers=2,
            seed_root=1,
            mp_context="fork",
        )
        outcome = solver.solve(join_timeout=1.0)
        assert outcome.solved
        assert outcome.missing_walks == [1]
        assert len(outcome.results) == 1

    @requires_fork
    def test_worker_death_raises_listing_missing_walks(self, monkeypatch, fresh_walkers):
        # A walker that hard-crashes (os._exit, OOM kill) never reports; with
        # the fork start method fresh walkers inherit the monkeypatched
        # module, so every walk dies silently and there is nothing to salvage.
        monkeypatch.setattr(mw, "_run_job", _exit_without_reporting)
        solver = MultiWalkSolver(
            costas_factory(9),
            ASParameters.for_costas(9),
            n_workers=2,
            seed_root=1,
            mp_context="fork",
        )
        with pytest.raises(ParallelExecutionError) as excinfo:
            solver.solve(join_timeout=1.0)
        message = str(excinfo.value)
        assert "died without reporting" in message
        assert "[0, 1]" in message

    @requires_fork
    def test_deadline_backstop_when_worker_hangs(self, monkeypatch, fresh_walkers):
        # A walk that never reports but stays alive must trip the
        # max_time-derived deadline instead of blocking forever.
        def _hang(*args, **kwargs):  # pragma: no cover - walker body
            time.sleep(60)

        monkeypatch.setattr(mw, "_run_job", _hang)
        # The mechanism is under test, not the production grace constant.
        monkeypatch.setattr(mw, "_STARTUP_ALLOWANCE", 0.5)
        solver = MultiWalkSolver(
            costas_factory(9),
            ASParameters.for_costas(9),
            n_workers=2,
            seed_root=1,
            mp_context="fork",
        )
        start = time.perf_counter()
        with pytest.raises(ParallelExecutionError) as excinfo:
            solver.solve(max_time=0.5, join_timeout=0.5)
        assert time.perf_counter() - start < 30
        assert "deadline" in str(excinfo.value)

    @requires_fork
    def test_dead_walk_does_not_abort_its_live_sibling(self, monkeypatch, fresh_walkers):
        # Walk 1 dies at once; walk 0 runs on to its own max_time and
        # reports, instead of being cut off join_timeout after its sibling
        # died (or the whole solve failing because nothing had reported yet).
        monkeypatch.setattr(mw, "_run_job", _only_walk_0_reports(mw._run_job))
        solver = MultiWalkSolver(
            costas_factory(22),  # far out of reach in 2.5 s
            ASParameters.for_costas(22),
            n_workers=2,
            seed_root=1,
            mp_context="fork",
        )
        start = time.perf_counter()
        outcome = solver.solve(max_time=2.5, join_timeout=1.0)
        assert time.perf_counter() - start >= 2.5
        assert outcome.missing_walks == [1]
        assert [r.extra["walk_index"] for r in outcome.results] == [0]
        assert outcome.best.stop_reason == "max_time"

    @requires_fork
    def test_missing_walks_lists_every_walk_that_never_reported(
        self, monkeypatch, fresh_walkers
    ):
        # Walk 0 reports after 0.3 s, walk 1 dies at once and walk 2 dies
        # after 1.5 s of search: walk 2 is not cut off by walk 1's death, and
        # both silent walks are listed.
        real_job = mw._run_job

        def staggered(stop_event, factory, params, spec, seed, walk_index, max_time, population):
            if walk_index == 1:  # pragma: no cover - walker body
                os._exit(3)
            budget = {0: 0.3, 2: 1.5}[walk_index]
            report = real_job(
                stop_event, factory, params, spec, seed, walk_index, budget, population
            )
            if walk_index == 2:  # pragma: no cover - walker body
                os._exit(3)
            return report

        monkeypatch.setattr(mw, "_run_job", staggered)
        solver = MultiWalkSolver(
            costas_factory(22),
            ASParameters.for_costas(22),
            n_workers=3,
            seed_root=1,
            mp_context="fork",
        )
        outcome = solver.solve(max_time=5.0, join_timeout=0.5)
        assert outcome.missing_walks == [1, 2]
        assert [r.extra["walk_index"] for r in outcome.results] == [0]


class TestGracefulSignalDrain:
    """SIGINT/SIGTERM during solve() must drain workers and return partial
    results instead of leaking child processes."""

    @pytest.mark.parametrize("signum_name", ["SIGINT", "SIGTERM"])
    def test_signal_drains_and_returns_partial_results(self, signum_name):
        signum = getattr(signal, signum_name)
        handler_before = signal.getsignal(signum)
        # Idle walker sets of earlier tests would count as children below.
        close_idle_walkers()
        solver = MultiWalkSolver(
            costas_factory(24),  # hard enough not to solve in ~1 s
            ASParameters.for_costas(24, check_period=16),
            n_workers=2,
            seed_root=3,
        )
        timer = threading.Timer(1.0, lambda: os.kill(os.getpid(), signum))
        timer.start()
        start = time.perf_counter()
        try:
            outcome = solver.solve(max_time=300.0, join_timeout=15.0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        if outcome.solved and not outcome.interrupted:
            pytest.skip("solved before the signal fired")
        assert outcome.interrupted
        assert elapsed < 60.0  # did not run anywhere near max_time
        assert outcome.results  # partial statistics from the drained walks
        assert all(
            r.stop_reason in ("external_stop", "solved") for r in outcome.results
        )
        # No leaked children, and the previous handler was restored.
        assert mp.active_children() == []
        assert signal.getsignal(signum) == handler_before


def _solve_in_forked_child(conn):  # pragma: no cover - child body
    outcome = MultiWalkSolver(
        costas_factory(9),
        ASParameters.for_costas(9),
        n_workers=2,
        seed_root=2,
        mp_context="fork",
    ).solve(max_time=60.0)
    conn.send((outcome.solved, _walker_pids()))
    conn.close()


class TestWarmWalkers:
    """k >= 2 walks run on warm walker processes, reused by later solves."""

    @staticmethod
    def _solver(seed_root=7, mp_context=None):
        return MultiWalkSolver(
            costas_factory(10),
            ASParameters.for_costas(10),
            n_workers=2,
            seed_root=seed_root,
            mp_context=mp_context,
        )

    @pytest.mark.parametrize(
        "mp_context", [pytest.param("fork", marks=requires_fork), "spawn"]
    )
    def test_consecutive_solves_run_on_the_same_walkers(self, mp_context, fresh_walkers):
        solver = self._solver(mp_context=mp_context)
        assert solver.solve(max_time=60.0).solved
        walkers = _walker_pids()
        assert len(walkers) == 2
        assert solver.solve(max_time=60.0).solved
        assert _walker_pids() == walkers

    def test_abnormal_outcome_gives_the_next_solve_fresh_walkers(self, fresh_walkers):
        solver = self._solver()
        assert solver.solve(max_time=60.0).solved
        first = _walker_pids()
        broken = MultiWalkSolver(
            _no_problem, ASParameters.for_costas(10), n_workers=2, seed_root=7
        )
        with pytest.raises(ParallelExecutionError, match="no problem today"):
            broken.solve(max_time=60.0)
        assert _walker_pids() == []  # the failed solve's walkers were reaped
        assert solver.solve(max_time=60.0).solved
        assert len(_walker_pids()) == 2
        assert set(_walker_pids()).isdisjoint(first)

    @requires_fork
    def test_walker_killed_while_idle_is_replaced_before_the_next_solve(
        self, fresh_walkers
    ):
        solver = self._solver()
        assert solver.solve(max_time=60.0).solved
        first = _walker_pids()
        os.kill(first[0], signal.SIGKILL)
        while first[0] in _walker_pids():  # reaped
            time.sleep(0.01)
        outcome = solver.solve(max_time=60.0)
        assert outcome.solved
        assert outcome.missing_walks == []
        assert len(_walker_pids()) == 2
        assert set(_walker_pids()).isdisjoint(first)

    def test_concurrent_solves_both_solve_and_one_set_stays_idle(self, fresh_walkers):
        barrier = threading.Barrier(2)
        outcomes = []

        def solve(seed_root):
            solver = MultiWalkSolver(
                costas_factory(12),
                ASParameters.for_costas(12),
                n_workers=2,
                seed_root=seed_root,
            )
            barrier.wait()
            outcomes.append(solver.solve(max_time=60.0))

        threads = [threading.Thread(target=solve, args=(seed,)) for seed in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(outcomes) == 2
        assert all(outcome.solved for outcome in outcomes)
        assert len(_walker_pids()) == 2  # at most one idle set per key

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="Linux /proc only")
    def test_fds_and_children_stay_flat_over_repeated_solves(self, fresh_walkers):
        solver = self._solver()
        assert solver.solve(max_time=60.0).solved  # warm-up
        fds = len(os.listdir("/proc/self/fd"))
        walkers = _walker_pids()
        for seed_root in range(20):
            assert self._solver(seed_root=seed_root).solve(max_time=60.0).solved
        assert len(os.listdir("/proc/self/fd")) == fds
        assert _walker_pids() == walkers

    @requires_fork
    def test_forked_child_does_not_reuse_its_parents_walkers(self, fresh_walkers):
        solver = self._solver(mp_context="fork")
        assert solver.solve(max_time=60.0).solved
        parent_walkers = _walker_pids()
        ctx = mp.get_context("fork")
        here, there = ctx.Pipe()
        child = ctx.Process(target=_solve_in_forked_child, args=(there,))
        child.start()
        there.close()
        solved, child_walkers = here.recv()
        child.join(timeout=60)
        assert child.exitcode == 0
        assert solved
        assert len(child_walkers) == 2
        assert set(child_walkers).isdisjoint(parent_walkers)
        # The parent's walkers still serve the parent.
        assert solver.solve(max_time=60.0).solved
        assert _walker_pids() == parent_walkers


#: Solves Costas 24 in a fresh interpreter and prints "solving" once the
#: coordinator's signal handler is in, then the outcome as JSON.
_CTRL_C_CHILD = """
import json, signal, threading, time
from repro.core.params import ASParameters
from repro.experiments.base import costas_factory
from repro.parallel.multiwalk import MultiWalkSolver


def announce():
    while signal.getsignal(signal.SIGINT) is signal.default_int_handler:
        time.sleep(0.01)
    print("solving", flush=True)


threading.Thread(target=announce, daemon=True).start()
outcome = MultiWalkSolver(
    costas_factory(24),
    ASParameters.for_costas(24, check_period=16),
    n_workers=2,
    seed_root=3,
).solve(max_time=300.0)
print(json.dumps({"interrupted": outcome.interrupted, "walks": len(outcome.results)}))
"""


class TestTerminalInterrupt:
    @requires_fork
    def test_ctrl_c_to_the_process_group_drains_the_walks(self):
        # A terminal's Ctrl-C sends SIGINT to the whole process group: the
        # walkers must not die of it, and the solve must return its partial
        # results at once instead of waiting out join_timeout.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-c", _CTRL_C_CHILD],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            assert proc.stdout.readline().strip() == "solving"
            time.sleep(1.0)  # the walks are well under way
            start = time.monotonic()
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
            elapsed = time.monotonic() - start
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert elapsed < 10.0
        assert proc.returncode == 0, err
        assert json.loads(out) == {"interrupted": True, "walks": 2}
        assert "KeyboardInterrupt" not in err
