"""Tests for the worker pool and the SolverService facade.

The coalescing test here is the acceptance criterion of the service PR: N
concurrent identical requests must trigger exactly **one** solve on the pool.
"""

from __future__ import annotations

import inspect
import multiprocessing as mp
import os
import queue as queue_module
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import CancelledError
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.params import ASParameters
from repro.costas.array import is_costas
from repro.exceptions import SolverError
from repro.experiments.base import costas_factory
from repro.parallel.multiwalk import MultiWalkSolver
from repro.service.api import ServiceConfig, SolverService, submit_kwargs
from repro.service.faults import FAULTS_ENV_VAR, FaultPlan
from repro.service.scheduler import SchedulerSaturatedError
from repro.service.workers import WorkerPool, _ProgressReporter


@pytest.fixture()
def service(tmp_path):
    config = ServiceConfig(
        store_path=str(tmp_path / "solutions.db"),
        n_workers=2,
        default_max_time=120.0,
    )
    with SolverService(config) as svc:
        yield svc


#: A 2-worker service in a fresh interpreter (start method in argv[1]): one
#: search, then one worker killed and respawned; prints the workers' pids and
#: waits to be killed.
_KILLED_SERVICE = """
import os, signal, sys, time
from repro.service.api import ServiceConfig, SolverService

service = SolverService(
    ServiceConfig(store_path=":memory:", n_workers=2, mp_context=sys.argv[1])
)
service.submit(9, use_store=False, use_constructions=False).result(timeout=120)
pool = service.pool
os.kill(pool._procs[0].pid, signal.SIGKILL)
deadline = time.monotonic() + 120
while time.monotonic() < deadline:
    stats = pool.stats()
    if stats["workers_respawned"] == 1 and stats["alive_workers"] == 2:
        break
    time.sleep(0.02)
print(*(proc.pid for proc in pool._procs), flush=True)
time.sleep(600)
"""


def _wait_until(predicate, timeout: float = 30.0) -> None:
    """Poll *predicate* until it holds; fail after *timeout* seconds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def _running(pid: int) -> bool:
    """Whether *pid* is a live process; a zombie awaiting its reaper is not."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestWorkerPool:
    def test_jobs_run_on_warm_workers(self):
        done = threading.Event()
        outcome = {}

        def on_done(handle):
            outcome["handle"] = handle
            done.set()

        with WorkerPool(2, seed_root=1) as pool:
            pool.submit(
                {"kind": "costas", "order": 9, "max_time": 60.0},
                on_done=on_done,
            )
            assert done.wait(timeout=60)
            handle = outcome["handle"]
            assert handle.solved
            assert is_costas(handle.best.configuration)
            # Same two processes stay up across jobs.
            stats = pool.stats()
            assert stats["alive_workers"] == 2
            assert stats["jobs_done"] == 1

    def test_sequential_jobs_reuse_processes(self):
        events = [threading.Event() for _ in range(3)]
        with WorkerPool(1, seed_root=2) as pool:
            first_pids = {p.pid for p in pool._procs}
            for event in events:
                pool.submit(
                    {"kind": "costas", "order": 8, "max_time": 60.0},
                    on_done=lambda h, e=event: e.set(),
                )
            for event in events:
                assert event.wait(timeout=60)
            assert {p.pid for p in pool._procs} == first_pids
            assert pool.stats()["jobs_done"] == 3
            assert pool.stats()["workers_respawned"] == 0

    def test_multi_walk_job_first_past_the_post(self):
        done = threading.Event()
        outcome = {}

        def on_done(handle):
            outcome["handle"] = handle
            done.set()

        with WorkerPool(2, seed_root=3) as pool:
            pool.submit(
                {"kind": "costas", "order": 10, "max_time": 60.0},
                walks=2,
                on_done=on_done,
            )
            assert done.wait(timeout=120)
            assert outcome["handle"].solved

    def test_shutdown_drain_false_aborts_quickly(self):
        done = threading.Event()
        pool = WorkerPool(1, seed_root=4)
        pool.start()
        # Order 20 will not solve instantly; abort must not wait for it.
        pool.submit(
            {"kind": "costas", "order": 20, "max_time": 300.0},
            on_done=lambda h: done.set(),
        )
        time.sleep(0.5)
        start = time.perf_counter()
        pool.shutdown(drain=False, timeout=20.0)
        assert time.perf_counter() - start < 20.0
        assert done.wait(timeout=5)
        assert all(not p.is_alive() for p in pool._procs)

    def test_dead_worker_detected_despite_sibling_traffic(self):
        """A worker killed mid-job is respawned even while its sibling keeps
        a steady result stream flowing (regression: detection that waits
        for a quiet collector would starve forever)."""
        import multiprocessing as mp
        import os
        import signal as signal_module

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("requires the fork start method")
        hard_done = threading.Event()
        pool = WorkerPool(2, mp_context="fork", seed_root=5)
        pool.start()
        try:
            # Park one worker on a hard instance...
            hard = pool.submit(
                {"kind": "costas", "order": 22, "max_time": 300.0},
                on_done=lambda h: hard_done.set(),
            )
            deadline = time.perf_counter() + 30
            while not hard.running and time.perf_counter() < deadline:
                time.sleep(0.05)
            assert hard.running, "hard job never claimed"
            victim_slot = next(iter(hard.running.values()))
            victim_pid = pool._procs[victim_slot].pid
            os.kill(victim_pid, signal_module.SIGKILL)
            # ...and keep the sibling busy with a stream of easy jobs while
            # the collector must notice the corpse.
            deadline = time.perf_counter() + 60
            while (
                pool.stats()["workers_respawned"] == 0
                and time.perf_counter() < deadline
            ):
                done = threading.Event()
                pool.submit(
                    {"kind": "costas", "order": 7, "max_time": 30.0},
                    on_done=lambda h, e=done: e.set(),
                )
                done.wait(timeout=30)
            assert pool.stats()["workers_respawned"] >= 1
            pool.cancel(hard)  # clean up the (requeued) hard walk
            hard_done.wait(timeout=30)
        finally:
            pool.shutdown(drain=False, timeout=20.0)

    def test_blocked_cancel_event_neither_holds_lock_nor_outlives_worker(self):
        """A worker killed inside an ``mp.Event`` call can leave that Event's
        lock held, so ``set()`` on it blocks.  A respawned worker must get a
        fresh Event, and the pool must not block in ``set()`` holding
        ``_lock``, which would freeze the collector and ``stats()``."""
        import multiprocessing as mp
        import os
        import signal as signal_module

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("requires the fork start method")
        pool = WorkerPool(1, mp_context="fork", seed_root=5)
        pool.start()
        try:
            first_event = pool._cancel_events[0]
            os.kill(pool._procs[0].pid, signal_module.SIGKILL)
            deadline = time.monotonic() + 30
            while pool.stats()["workers_respawned"] == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.stats()["workers_respawned"] == 1
            assert pool._cancel_events[0] is not first_event
        except BaseException:
            pool.shutdown(drain=False, timeout=5.0)
            raise

        entered, release = threading.Event(), threading.Event()

        class BlockingEvent:
            """An Event whose lock a killed worker still holds."""

            def set(self):
                entered.set()
                release.wait(timeout=30)

        pool._cancel_events[0] = BlockingEvent()
        stopper = threading.Thread(
            target=pool.shutdown, kwargs={"drain": False, "timeout": 5.0}
        )
        stopper.start()
        try:
            assert entered.wait(timeout=10)
            stats_done = threading.Event()
            threading.Thread(
                target=lambda: (pool.stats(), stats_done.set()), daemon=True
            ).start()
            assert stats_done.wait(timeout=1.0), "stats() blocked behind set()"
        finally:
            release.set()
            stopper.join(timeout=30)
        assert not stopper.is_alive()

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_workers_exit_when_the_service_is_killed(self, method):
        """A SIGKILLed service leaves no worker behind, a respawned one
        included: each worker sees EOF on its pipe and exits."""
        if method not in mp.get_all_start_methods() or not os.path.isdir("/proc"):
            pytest.skip(f"requires the {method} start method and /proc")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        env.pop(FAULTS_ENV_VAR, None)
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILLED_SERVICE, method],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        pids = []
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(pids) == 2
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_every_job_settles_once_under_concurrent_submit_and_cancel(self):
        """Four client threads submit and cancel against more workers than
        cores, with a short switch interval: every job settles exactly once,
        whether a cancel dropped its waiting walks or aborted a sent one, and
        the pool ends with every worker free."""
        settled = []
        handles = []
        lock = threading.Lock()

        def on_done(handle):
            with lock:
                settled.append(handle.job_id)

        def client(seed):
            rng = np.random.default_rng(seed)
            for _ in range(20):
                handle = pool.submit(
                    {"kind": "costas", "order": int(rng.integers(8, 14)), "max_time": 5.0},
                    walks=int(rng.integers(1, 3)),
                    on_done=on_done,
                )
                with lock:
                    handles.append(handle)
                if rng.random() < 0.4:
                    pool.cancel(handle)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        pool = WorkerPool(3, seed_root=7)
        try:
            pool.start()
            clients = [threading.Thread(target=client, args=(k,)) for k in range(4)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
                assert not thread.is_alive()
            deadline = time.monotonic() + 60
            while len(settled) < len(handles) and time.monotonic() < deadline:
                time.sleep(0.01)
            stats = pool.stats()
            # Every worker frees up once the aborted walks have reported, and
            # no walk of a settled job is left waiting for one.
            held = pool.wait_for_capacity(3, timeout=30)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(drain=False, timeout=10.0)
        assert sorted(settled) == sorted(h.job_id for h in handles)
        assert len(handles) == 80
        assert stats["jobs_done"] == 80 and stats["inflight_jobs"] == 0
        assert held == {}

    def test_wait_for_capacity_counts_walks_waiting_for_a_worker(self):
        spec = {
            "kind": "costas",
            "order": 16,
            "max_time": 300.0,
            "lane": "batch",
            "solver": {"name": "compiled", "params": {"target_cost": -1}},
        }
        settled = queue_module.Queue()
        pool = WorkerPool(2, seed_root=9)
        pool.start()
        try:
            assert pool.wait_for_capacity(2, timeout=30) == {}
            first = pool.submit(spec, on_done=settled.put)
            assert pool.wait_for_capacity(1, timeout=30) == {"batch": 1}
            # Two more walks: one runs, one waits, so no worker is free.
            second = pool.submit(spec, walks=2, on_done=settled.put)
            assert pool.wait_for_capacity(1, timeout=0.1) is None
            pool.cancel(first)
            pool.cancel(second)
            assert {settled.get(timeout=30).job_id for _ in range(2)} == {
                first.job_id,
                second.job_id,
            }
            assert pool.wait_for_capacity(2, timeout=30) == {}
        finally:
            pool.shutdown(drain=False, timeout=10.0)
        start = time.monotonic()
        assert pool.wait_for_capacity(1, timeout=30) is None
        assert time.monotonic() - start < 1.0

    def test_unpicklable_spec_fails_its_job_not_the_pool(self):
        outcomes = queue_module.Queue()
        with WorkerPool(1, seed_root=8) as pool:
            pool.submit(
                {"kind": "costas", "order": 8, "model_options": {"bad": lambda: 0}},
                on_done=outcomes.put,
            )
            failed = outcomes.get(timeout=30)
            assert failed.failure and not failed.results
            pool.submit({"kind": "costas", "order": 8, "max_time": 60.0}, on_done=outcomes.put)
            assert outcomes.get(timeout=60).solved

    def test_rejects_bad_configuration(self):
        from repro.exceptions import ParallelExecutionError

        with pytest.raises(ParallelExecutionError):
            WorkerPool(0)
        pool = WorkerPool(1)
        with pytest.raises(ParallelExecutionError):
            pool.submit({"kind": "costas", "order": 9}, walks=0, on_done=lambda h: None)
        pool.shutdown(drain=False, timeout=5.0)


class TestServiceTiers:
    def test_construction_tier_answers_constructible_orders(self, service):
        response = service.submit(12).result(timeout=30)
        assert response.solved and response.source == "construction"
        assert is_costas(response.solution)
        # Inserted into the store: the next request is a store hit.
        assert service.submit(12).result(timeout=30).source == "store"

    def test_search_tier_used_when_tiers_disabled(self, service):
        response = service.submit(
            9, use_constructions=False, use_store=False
        ).result(timeout=120)
        assert response.solved and response.source == "search"
        assert is_costas(response.solution)

    def test_search_result_populates_store_for_next_request(self, service):
        first = service.submit(9, use_constructions=False).result(timeout=120)
        assert first.source == "search"
        second = service.submit(9, use_constructions=False).result(timeout=30)
        assert second.source == "store"
        assert is_costas(second.solution)

    def test_rejects_unknown_kind_and_tiny_orders(self, service):
        with pytest.raises(SolverError):
            service.submit(9, kind="sudoku")
        with pytest.raises(SolverError):
            service.submit(2)
        # Per-family minimum orders: queens has none below 4.
        with pytest.raises(SolverError):
            service.submit(3, kind="queens")

    def test_rejects_solver_kind_mismatch(self, service):
        # The CP baseline only accepts Costas instances; the mismatch must
        # fail at submit time (HTTP 400), not inside a worker.
        with pytest.raises(SolverError, match="does not accept"):
            service.submit(8, kind="queens", solver="cp")

    def test_result_by_request_id(self, service):
        request = service.submit(10)
        response = service.result(request.request_id, timeout=30)
        assert response is not None and response.request_id == request.request_id
        assert service.result("nope") is None

    def test_stats_shape(self, service):
        service.submit(10).result(timeout=30)
        stats = service.stats()
        assert {"store", "scheduler", "pool", "immediate", "config"} <= set(stats)
        assert stats["immediate"]["construction"] >= 1

    @pytest.mark.slow
    def test_store_tier_answers_repeats_10x_faster_than_per_request_solving(self):
        """The same mixed request stream solved once per request by a
        two-walk MultiWalkSolver (the pre-service path: no store, no
        coalescing, every request searched) and through one warm service: on
        the repeated and symmetry-equivalent requests the service must be
        >= 10x faster."""
        # (hot?, order) per request: the repeated order 9 and the symmetry-
        # equivalent 10 are hot; constructible 11-13 and fresh 8, 14 and 15
        # are interleaved with them.
        workload = []
        for i in range(6):
            workload += [(True, 9), (True, 10), (False, (11, 12, 13)[i % 3])]
            if i < 3:
                workload.append((False, (8, 14, 15)[i]))

        naive = 0.0
        for index, (hot, order) in enumerate(workload):
            start = time.perf_counter()
            outcome = MultiWalkSolver(
                costas_factory(order),
                ASParameters.for_costas(order),
                n_workers=2,
                seed_root=100_000 + index,
            ).solve(max_time=120.0)
            assert outcome.solved, order
            if hot:
                naive += time.perf_counter() - start

        served = 0.0
        config = ServiceConfig(store_path=":memory:", n_workers=2, default_max_time=120.0)
        with SolverService(config) as service:
            # One stored array then answers the whole symmetry class of 10.
            assert service.submit(10).result(timeout=600).solved
            for hot, order in workload:
                start = time.perf_counter()
                assert service.submit(order).result(timeout=600).solved, order
                if hot:
                    served += time.perf_counter() - start
        print(f"service over per-request solving on repeats: {naive / served:.0f}x")
        assert naive / served >= 10.0


class TestCoalescingAcceptance:
    def test_concurrent_identical_requests_trigger_exactly_one_solve(self, tmp_path):
        """Acceptance criterion: N concurrent identical requests -> 1 solve.

        Every walk starts 0.2 s after its claim (a ``worker.slow`` fault), so
        all N requests arrive while the first one's solve is in flight, even
        when its walk solves in a handful of iterations."""
        config = ServiceConfig(
            store_path=str(tmp_path / "solutions.db"),
            n_workers=2,
            default_max_time=120.0,
            fault_plan=FaultPlan(rates={"worker.slow": 1.0}, slow_seconds=0.2),
        )
        try:
            with SolverService(config) as service:
                self._one_solve_for_identical_requests(service)
        finally:
            os.environ.pop(FAULTS_ENV_VAR, None)  # published for the workers

    def _one_solve_for_identical_requests(self, service):
        n_requests = 10
        requests = [
            service.submit(16, use_constructions=False, use_store=False)
            for _ in range(n_requests)
        ]
        responses = [r.result(timeout=300) for r in requests]
        assert all(r.solved for r in responses)
        assert all(is_costas(r.solution) for r in responses)
        solutions = {tuple(int(v) for v in r.solution) for r in responses}
        assert len(solutions) == 1  # one shared in-flight solve, one answer
        sched = service.scheduler.stats()
        assert sched["submitted"] == n_requests
        assert sched["coalesced"] == n_requests - 1
        assert sched["completed"] == 1
        pool = service.pool.stats()
        assert pool["jobs_done"] == 1  # exactly one solve hit the pool
        assert all(
            r.detail.get("coalesced_width") == n_requests for r in responses
        )

    def test_concurrent_submitters_from_threads(self, service):
        results = []
        lock = threading.Lock()

        def client():
            resp = service.submit(
                14, use_constructions=False, use_store=False
            ).result(timeout=300)
            with lock:
                results.append(resp)

        threads = [threading.Thread(target=client) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert len(results) == 6 and all(r.solved for r in results)
        # Coalescing still bounds pool work: fewer jobs than clients.
        assert service.pool.stats()["jobs_done"] < 6


class TestCancellationAndBackpressure:
    def test_cancel_queued_request(self, tmp_path):
        config = ServiceConfig(
            store_path=str(tmp_path / "c.db"), n_workers=1, default_max_time=300.0
        )
        with SolverService(config) as svc:
            # Occupy the single worker with a hard order, then queue another.
            svc.submit(21, use_constructions=False, use_store=False)
            victim = svc.submit(22, use_constructions=False, use_store=False)
            assert svc.cancel(victim.request_id)
            with pytest.raises(CancelledError):
                victim.result(timeout=5)
            assert not svc.cancel(victim.request_id)  # already settled
            svc.close(drain=False, timeout=10.0)

    def test_backpressure_raises_when_queue_full(self, tmp_path):
        config = ServiceConfig(
            store_path=str(tmp_path / "bp.db"),
            n_workers=1,
            max_queue_depth=1,
            default_max_time=300.0,
        )
        with SolverService(config) as svc:
            svc.submit(23, use_constructions=False, use_store=False)
            # The dispatcher hands the first to the pool (it leaves the queue).
            _wait_until(lambda: svc.stats()["searches_dispatched"] == 1)
            svc.submit(24, use_constructions=False, use_store=False)
            with pytest.raises(SchedulerSaturatedError):
                svc.submit(25, use_constructions=False, use_store=False)
            svc.close(drain=False, timeout=10.0)

    def test_close_fails_pending_requests(self, tmp_path):
        config = ServiceConfig(
            store_path=str(tmp_path / "cl.db"), n_workers=1, default_max_time=300.0
        )
        svc = SolverService(config)
        svc.start()
        request = svc.submit(26, use_constructions=False, use_store=False)
        svc.close(drain=False, timeout=10.0)
        with pytest.raises((SolverError, CancelledError)):
            request.result(timeout=5)


def _submit_returns_after_settling(pool: WorkerPool) -> None:
    """Make ``pool.submit`` return only once the job's ``on_done`` has run,
    like a dispatcher descheduled right after handing a job over while one
    of its walks solves at once."""
    original = pool.submit

    def submit(spec, *, on_done, **kwargs):
        settled = threading.Event()

        def done(handle):
            try:
                on_done(handle)
            finally:
                settled.set()

        handle = original(spec, on_done=done, **kwargs)
        settled.wait(timeout=60)
        return handle

    pool.submit = submit


class TestDispatch:
    """The dispatcher hands a job to the pool only when the pool has a free
    worker for it, and it keeps no count of its own that could drift."""

    def _portfolio(self, service, **kwargs):
        return service.submit(
            6, kind="queens", solver="adaptive+tabu", use_store=False, **kwargs
        ).result(timeout=10)

    def test_portfolio_settling_inside_submit_leaves_capacity(self):
        # Regression: a portfolio job that settled before the dispatcher's
        # bookkeeping after submit() lost a worker for good, so the next
        # portfolio never started.
        config = ServiceConfig(n_workers=2, use_constructions=False)
        with SolverService(config) as service:
            _submit_returns_after_settling(service.pool)
            for _ in range(2):
                response = self._portfolio(service)
                assert response.solved and response.detail["walks"] == 2

    def test_batch_lane_runs_after_portfolios_settled_inside_submit(self):
        # Regression: the same race counted the settled portfolios' workers
        # as held by the batch lane, so a batch search stayed queued behind
        # the interactive-lane reservation.
        config = ServiceConfig(n_workers=3, use_constructions=False, lanes=True)
        with SolverService(config) as service:
            _submit_returns_after_settling(service.pool)
            for _ in range(2):
                assert self._portfolio(service, lane="batch").solved
            request = service.submit(9, use_store=False, lane="batch")
            assert request.result(timeout=5).solved

    def test_interactive_lane_keeps_a_worker_from_background_work(self):
        config = ServiceConfig(
            n_workers=2, use_constructions=False, lanes=True, default_max_time=120.0
        )
        # Background walks that never reach their target: each holds its
        # worker until cancelled.
        unreachable = {"name": "compiled", "params": {"target_cost": -1}}
        with SolverService(config) as service:
            background = [
                service.submit(
                    order, use_store=False, lane="background", solver=unreachable
                )
                for order in (16, 17)
            ]
            _wait_until(lambda: service.stats()["searches_dispatched"] == 1)
            interactive = service.submit(9, use_store=False, lane="interactive")
            assert interactive.result(timeout=60).solved
            assert service.scheduler.pending_jobs("background") == 1
            for request in background:
                assert service.cancel(request.request_id)

    @pytest.mark.parametrize("walks_per_job", [2, 3])
    def test_walks_per_job_fans_each_job_out(self, walks_per_job):
        # Three walks on two workers: the dispatcher waits for both workers,
        # not for a third it will never get.
        config = ServiceConfig(
            n_workers=2, use_constructions=False, walks_per_job=walks_per_job
        )
        with SolverService(config) as service:
            response = service.submit(9, use_store=False).result(timeout=60)
            assert response.solved
            assert response.detail["walks"] == walks_per_job


class TestBatchSubmit:
    def test_batch_mixes_tiers_and_errors_per_item(self, service):
        outcomes = service.submit_batch(
            [
                {"order": 12},                      # construction tier
                {"order": 12},                      # store hit (previous item)
                {"order": 5, "kind": "sudoku"},    # unknown kind
                {"order": 9, "use_constructions": False, "use_store": False},
            ]
        )
        assert len(outcomes) == 4
        assert outcomes[0].result(timeout=10).source == "construction"
        # The identical second item shares the first one's construction via
        # the batch's immediate-tier cache (no second store/construct call).
        assert outcomes[1].result(timeout=10).source == "construction"
        assert isinstance(outcomes[2], SolverError)
        assert outcomes[3].result(timeout=120).source == "search"

    def test_identical_batch_items_share_one_store_read(self, service):
        service.submit(12).result(timeout=10)  # warm the store
        reads_before = service.store.stats.hits
        outcomes = service.submit_batch([{"order": 12}] * 8)
        assert all(o.result(timeout=10).source == "store" for o in outcomes)
        assert service.store.stats.hits == reads_before + 1
        assert service.stats()["immediate"]["store"] == 8

    def test_batch_missing_order_is_a_per_item_error(self, service):
        outcomes = service.submit_batch([{"kind": "queens"}, {"order": 16, "kind": "queens"}])
        assert isinstance(outcomes[0], SolverError)
        assert outcomes[1].result(timeout=10).solved

    def test_batch_counts_in_stats(self, service):
        service.submit_batch([{"order": 12}])
        assert service.stats()["batches"] == 1


@pytest.fixture()
def idle_service():
    """A service whose pool is never started: refusals need no workers."""
    service = SolverService(ServiceConfig(store_path=":memory:", n_workers=1))
    yield service
    service.close(drain=False, timeout=0.0)


#: Solve objects refused by ``submit_kwargs`` (one malformed field each) or
#: by the per-item admission core (well-formed but invalid).
_BAD_OBJECTS = {
    "list": [12],
    "null": None,
    "missing-order": {"kind": "queens"},
    "order-text": {"order": "twelve"},
    "order-null": {"order": None},
    "priority-text": {"order": 12, "priority": "high"},
    "max-time-text": {"order": 12, "max_time": "fast"},
    "deadline-text": {"order": 12, "deadline": "soon"},
    "deadline-list": {"order": 12, "deadline": [60]},
    "model-options-list": {"order": 12, "model_options": ["constant"]},
    "model-options-text": {"order": 12, "model_options": "constant"},
    "model-options-number": {"order": 12, "model_options": 1},
    "unknown-kind": {"order": 9, "kind": "sudoku"},
    "costas-below-min-order": {"order": 2},
    "queens-below-min-order": {"order": 3, "kind": "queens"},
    "unknown-solver": {"order": 9, "solver": "no-such-solver"},
    "solver-kind-mismatch": {"order": 8, "kind": "queens", "solver": "cp"},
    "zero-deadline": {"order": 12, "deadline": 0},
}


class TestOneAdmissionCore:
    """``submit_kwargs`` is the one conversion of a JSON solve object into
    ``submit`` keywords; ``submit`` and ``submit_batch`` share one per-item
    core but keep their own scheduler entry points."""

    @pytest.mark.parametrize("obj", list(_BAD_OBJECTS.values()), ids=list(_BAD_OBJECTS))
    def test_bad_object_gets_one_verdict(self, idle_service, obj):
        with pytest.raises(SolverError) as raised:
            idle_service.submit(**submit_kwargs(obj))
        (slot,) = idle_service.submit_batch([obj])
        assert type(slot) is type(raised.value) and str(slot) == str(raised.value)
        # Refused before registration and before the pool was started.
        assert idle_service.stats()["open_requests"] == 0
        assert not idle_service.pool.stats()["started"]

    def test_keywords_bind_to_submit(self):
        kwargs = submit_kwargs({"order": 12, "wait": True}, priority=3, tenant="acme")
        inspect.signature(SolverService.submit).bind(None, **kwargs)
        assert kwargs["kind"] == "costas" and "wait" not in kwargs
        assert (kwargs["priority"], kwargs["tenant"]) == (3, "acme")
        assert kwargs["deadline"] is None and kwargs["lane"] is None

    def test_object_fields_win_and_numbers_are_coerced(self):
        kwargs = submit_kwargs(
            {"order": "12", "priority": "-1", "deadline": 30, "lane": 7, "tenant": "t1"},
            priority=3,
            tenant="acme",
        )
        assert (kwargs["order"], kwargs["priority"], kwargs["tenant"]) == (12, -1, "t1")
        assert kwargs["deadline"] == 30.0 and kwargs["lane"] == "7"
        # An empty tenant names none, so the header's tenant applies.
        assert submit_kwargs({"order": 12, "tenant": ""}, tenant="acme")["tenant"] == "acme"

    @pytest.mark.parametrize("batch", [False, True], ids=["submit", "submit_batch"])
    def test_each_path_keeps_its_scheduler_entry(self, idle_service, monkeypatch, batch):
        """Neither public method calls the other: per-layer tracing wraps
        each one separately.  The pool stays down, so admitted jobs queue."""
        calls = []
        monkeypatch.setattr(idle_service, "start", lambda: None)
        for owner in (idle_service, idle_service.scheduler):
            for name in ("submit", "submit_batch"):

                def spy(*args, _real=getattr(owner, name), _name=name, **kwargs):
                    calls.append(f"{type(_real.__self__).__name__}.{_name}")
                    return _real(*args, **kwargs)

                monkeypatch.setattr(owner, name, spy)
        item = {"order": 9, "use_store": False, "use_constructions": False}
        if batch:
            requests = idle_service.submit_batch([item, {**item, "order": 10}])
        else:
            requests = [idle_service.submit(**submit_kwargs(item))]
        name = "submit_batch" if batch else "submit"
        assert calls == [f"SolverService.{name}", f"RequestScheduler.{name}"]
        assert all(r.ticket is not None and not r.done() for r in requests)
        assert idle_service.scheduler.stats()["queued"] == len(requests)


class TestProgressReporter:
    def test_first_compiled_walk_sample_posts_at_iteration_64(self):
        """The compiled walk reports once per check period (64 iterations),
        so the throttle must count iterations, not calls: with no interval,
        the first call at iteration 64 posts a sample."""
        posted = queue_module.Queue()
        reporter = _ProgressReporter(SimpleNamespace(send=posted.put), "compiled", 0.0)
        reporter.on_iteration(64, 7)
        assert posted.get_nowait()[1] == {
            "iteration": 64, "cost": 7, "solver": "compiled"
        }
        reporter.on_iteration(100, 5)  # fewer than 64 iterations later
        assert posted.empty()


class TestProgressSubscriptions:
    def test_subscribe_to_settled_request_gets_snapshot_and_done(self, service):
        request = service.submit(12)
        request.result(timeout=10)
        events = queue_module.Queue()
        sub = service.subscribe(request.request_id, events.put)
        assert sub is not None
        first = events.get(timeout=1)
        assert first["event"] == "status" and first["status"] == "done"
        terminal = events.get(timeout=1)
        assert terminal["event"] == "done" and terminal["solved"]
        assert events.empty()

    def test_unknown_request_id_returns_none(self, service):
        assert service.subscribe("ghost", queue_module.Queue().put) is None

    def test_search_request_streams_progress_and_cleans_up(self, tmp_path):
        # The walk's target cost of -1 is unreachable, so it never finishes
        # early: it runs its whole 1 s budget, posting a sample every 20 ms,
        # and ends unsolved with ``done``.
        config = ServiceConfig(
            store_path=str(tmp_path / "progress.db"),
            n_workers=2,
            default_max_time=120.0,
            progress_interval=0.02,
        )
        with SolverService(config) as service:
            self._stream_and_check(service)

    def _stream_and_check(self, service):
        request = service.submit(
            16,
            use_constructions=False,
            use_store=False,
            solver={"name": "compiled", "params": {"target_cost": -1}},
            max_time=1.0,
        )
        stream = queue_module.Queue()
        sub = service.subscribe(request.request_id, stream.put)
        assert sub is not None
        assert service.stats()["progress_subscribers"] == 1
        events = []
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            try:
                event = stream.get(timeout=1.0)
            except queue_module.Empty:
                continue
            events.append(event)
            if event["event"] == "done":
                break
        names = [e["event"] for e in events]
        assert names[0] == "status" and names[-1] == "done"
        assert "progress" in names
        # Terminal event tears the registration down service-side.
        assert service.stats()["progress_subscribers"] == 0

    def test_unsubscribe_releases_registration(self, service):
        request = service.submit(15, use_constructions=False, use_store=False)
        sub = service.subscribe(request.request_id, queue_module.Queue().put)
        assert service.stats()["progress_subscribers"] == 1
        service.unsubscribe(sub)
        assert service.stats()["progress_subscribers"] == 0
        assert sub.closed
        service.cancel(request.request_id)

    def test_cancelled_request_publishes_terminal_cancelled(self, service):
        # Two submissions keep the pool busy so the third stays queued and
        # cancellable; it must stream a "cancelled" terminal event.
        busy = [
            service.submit(order, use_constructions=False, use_store=False)
            for order in (20, 21)
        ]
        request = service.submit(22, use_constructions=False, use_store=False)
        events = queue_module.Queue()
        service.subscribe(request.request_id, events.put)
        assert events.get(timeout=1)["event"] == "status"
        assert service.cancel(request.request_id)
        deadline = time.monotonic() + 10
        terminal = None
        while time.monotonic() < deadline:
            try:
                event = events.get(timeout=0.5)
            except queue_module.Empty:
                continue
            if event["event"] in ("cancelled", "done", "failed"):
                terminal = event
                break
        assert terminal is not None and terminal["event"] == "cancelled"
        # Otherwise the fixture's draining close waits out their budgets.
        for other in busy:
            service.cancel(other.request_id)


class TestStartConcurrency:
    """Regression tests for the lock-blocking fix in ``start()``: worker
    spawning takes whole seconds, so it must run outside the service lock
    (rule ``lock-blocking``, see DESIGN.md enforced invariants)."""

    def test_stats_not_blocked_while_pool_starts(self, tmp_path):
        config = ServiceConfig(store_path=":memory:", n_workers=1)
        service = SolverService(config)
        pool_starting = threading.Event()
        release_pool = threading.Event()
        original_start = service.pool.start

        def slow_start():
            pool_starting.set()
            assert release_pool.wait(timeout=10.0)
            original_start()

        service.pool.start = slow_start
        starter = threading.Thread(target=service.start)
        starter.start()
        try:
            assert pool_starting.wait(timeout=5.0)
            # The pool is mid-start; the service lock must be free for
            # monitoring calls.
            stats_done = threading.Event()

            def poll():
                service.stats()
                stats_done.set()

            threading.Thread(target=poll, daemon=True).start()
            assert stats_done.wait(timeout=2.0), (
                "stats() blocked behind pool start"
            )
        finally:
            release_pool.set()
            starter.join(timeout=10.0)
            service.close(drain=False, timeout=5.0)

    def test_concurrent_start_spawns_pool_once(self, tmp_path):
        config = ServiceConfig(store_path=":memory:", n_workers=1)
        service = SolverService(config)
        calls = []
        calls_lock = threading.Lock()
        original_start = service.pool.start

        def counting_start():
            with calls_lock:
                calls.append(1)
            time.sleep(0.1)  # widen the race window
            original_start()

        service.pool.start = counting_start
        threads = [threading.Thread(target=service.start) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15.0)
            assert not t.is_alive()
        try:
            assert len(calls) == 1
            assert service.stats()["pool"]["n_workers"] == 1
        finally:
            service.close(drain=False, timeout=5.0)

    def test_pool_start_spawns_outside_pool_lock(self):
        """Regression for the lock-blocking fix in ``WorkerPool.start()``:
        process spawning must not run under ``_lock`` (submit/stats need it)."""
        pool = WorkerPool(1, seed_root=11)
        lock_was_free = []
        original_spawn = pool._spawn

        def observing_spawn(worker_id):
            free = pool._lock.acquire(timeout=1.0)
            if free:
                pool._lock.release()
            lock_was_free.append(free)
            return original_spawn(worker_id)

        pool._spawn = observing_spawn
        try:
            pool.start()
            assert lock_was_free == [True], "spawn ran while _lock was held"
        finally:
            pool.shutdown(drain=False, timeout=5.0)
