"""Chaos suite: fault injection, failure policy and graceful degradation.

Drives the :mod:`repro.service.faults` injection points end-to-end through
every layer — store, scheduler, worker pool, service facade, the HTTP
front-end and the CLI client — and asserts the stack *degrades* instead of
dying: crashed workers are respawned and their walks requeued, a sick store
quarantines while construction-tier answers keep flowing, deadlines turn
into 504s instead of hung futures, repeated failures trip a circuit breaker
into fast 503s, and shutdown drains instead of killing mid-solve.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import re
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import CancelledError, ThreadPoolExecutor

import pytest

from repro.exceptions import ReproError, SolverError
from repro.service.api import ProgressSubscription, ServiceConfig, SolverService
from repro.service.faults import (
    FAULTS_ENV_VAR,
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    ServiceDegradedError,
)
from repro.service.http_async import AsyncServiceHTTPServer
from repro.service.scheduler import RequestScheduler
from repro.service.store import SolutionStore, StoreUnavailableError
from repro.service import workers
from repro.service.workers import WorkerPool


@pytest.fixture(autouse=True)
def _clean_faults_env(monkeypatch):
    """No ambient chaos: each test states its own plan explicitly."""
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)


# --------------------------------------------------------------------- plan
class TestFaultPlan:
    def test_parse_shorthand(self):
        plan = FaultPlan.parse("worker.crash=0.25,store.write.locked=1,seed=7")
        assert plan.rate("worker.crash") == 0.25
        assert plan.rate("store.write.locked") == 1.0
        assert plan.rate("worker.hang") == 0.0
        assert plan.seed == 7 and plan.enabled

    def test_parse_json_and_roundtrip(self):
        plan = FaultPlan(rates={"http.drop": 0.5}, seed=3, slow_seconds=0.1)
        again = FaultPlan.parse(plan.to_json())
        assert again == plan

    def test_zero_rates_are_dropped(self):
        plan = FaultPlan(rates={"worker.crash": 0.0})
        assert not plan.enabled and plan.rates == {}

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultPlan(rates={"worker.explode": 0.5})
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultPlan(rates={"worker.crash": 1.5})

    def test_env_roundtrip(self):
        plan = FaultPlan(rates={"worker.crash": 0.1}, seed=11)
        env: dict = {}
        plan.install_env(env)
        assert FaultPlan.from_env(env) == plan
        FaultPlan().install_env(env)  # disabled plan removes the variable
        assert FAULTS_ENV_VAR not in env
        assert FaultPlan.from_env(env) is None

    def test_malformed_env_raises(self):
        with pytest.raises(ValueError):
            FaultPlan.from_env({FAULTS_ENV_VAR: "not json"})


class TestFaultInjector:
    def test_deterministic_per_seed_and_scope(self):
        plan = FaultPlan(rates={"worker.crash": 0.3}, seed=42)
        a = [FaultInjector(plan, scope="w0.1").fires("worker.crash") for _ in range(1)]
        first = FaultInjector(plan, scope="w0.1")
        second = FaultInjector(plan, scope="w0.1")
        seq1 = [first.fires("worker.crash") for _ in range(200)]
        seq2 = [second.fires("worker.crash") for _ in range(200)]
        assert seq1 == seq2  # same (seed, scope, point) -> same stream
        other_scope = FaultInjector(plan, scope="w0.2")
        seq3 = [other_scope.fires("worker.crash") for _ in range(200)]
        assert seq1 != seq3  # a respawned incarnation draws a fresh stream
        assert 30 <= sum(seq1) <= 90  # ~Bernoulli(0.3) over 200 draws
        assert first.snapshot()["fired"]["worker.crash"] == sum(seq1)

    def test_inert_without_plan(self):
        injector = FaultInjector(None)
        assert not injector.fires("worker.crash")
        assert injector.snapshot() == {
            "enabled": False,
            "scope": "",
            "rates": {},
            "fired": {},
        }


# ------------------------------------------------------------- retry policy
class TestRetryPolicy:
    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, factor=2.0, max_delay=0.5, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(10) == pytest.approx(0.5)

    def test_run_retries_then_succeeds(self):
        calls = {"n": 0}
        slept = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(attempts=3, base_delay=0.01, jitter=0.0)
        assert policy.run(flaky, retry_on=(OSError,), sleep=slept.append) == "ok"
        assert calls["n"] == 3 and len(slept) == 2

    def test_run_exhausts_and_reraises(self):
        policy = RetryPolicy(attempts=2, base_delay=0.0, jitter=0.0)
        with pytest.raises(OSError):
            policy.run(
                lambda: (_ for _ in ()).throw(OSError("always")),
                retry_on=(OSError,),
                sleep=lambda _: None,
            )

    def test_should_retry_gates_the_class_check(self):
        calls = {"n": 0}

        def fail():
            calls["n"] += 1
            raise OSError("permanent")

        policy = RetryPolicy(attempts=5, base_delay=0.0)
        with pytest.raises(OSError):
            policy.run(
                fail,
                retry_on=(OSError,),
                should_retry=lambda exc: "transient" in str(exc),
                sleep=lambda _: None,
            )
        assert calls["n"] == 1  # not retried: should_retry said no


# ----------------------------------------------------------- circuit breaker
class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(clock=lambda: clock["now"], **kwargs)
        return breaker, clock

    def test_trips_after_threshold_and_cools_down(self):
        breaker, clock = self._breaker(threshold=3, cooldown=10.0)
        key = ("costas", 18)
        for _ in range(2):
            breaker.record_failure(key)
            assert breaker.allow(key) == (True, 0.0)
        breaker.record_failure(key)  # third consecutive failure: open
        allowed, retry_after = breaker.allow(key)
        assert not allowed and 0.0 < retry_after <= 10.0
        assert breaker.state(key) == "open"
        clock["now"] = 10.5  # cooldown elapsed: exactly one probe passes
        assert breaker.allow(key) == (True, 0.0)
        allowed, retry_after = breaker.allow(key)
        assert not allowed and retry_after > 0.0  # second caller held back
        breaker.record_success(key)  # probe succeeded: closed again
        assert breaker.state(key) == "closed"
        assert breaker.allow(key) == (True, 0.0)

    def test_failed_probe_reopens(self):
        breaker, clock = self._breaker(threshold=1, cooldown=5.0)
        breaker.record_failure("k")
        clock["now"] = 6.0
        assert breaker.allow("k")[0]  # the half-open probe
        breaker.record_failure("k")  # probe failed: fresh cooldown from now
        allowed, retry_after = breaker.allow("k")
        assert not allowed and retry_after == pytest.approx(5.0)
        assert breaker.snapshot()["tripped_total"] == 2

    def test_success_resets_consecutive_count(self):
        breaker, _ = self._breaker(threshold=2, cooldown=5.0)
        breaker.record_failure("k")
        breaker.record_success("k")
        breaker.record_failure("k")
        assert breaker.allow("k") == (True, 0.0)  # never two consecutive

    def test_keys_are_independent(self):
        breaker, _ = self._breaker(threshold=1, cooldown=5.0)
        breaker.record_failure(("costas", 18))
        assert not breaker.allow(("costas", 18))[0]
        assert breaker.allow(("costas", 12)) == (True, 0.0)


# ------------------------------------------------------------------- store
def _costas_perms(order, count):
    """The first *count* symmetry-inequivalent Costas arrays of *order*
    (the store dedups by symmetry class, so equivalent arrays would
    silently collapse and break count-based assertions)."""
    import numpy as np

    from repro.costas import enumerate_costas_arrays
    from repro.problems import get_family

    family = get_family("costas")
    seen = set()
    perms = []
    for array in enumerate_costas_arrays(order):
        perm = [int(v) for v in array.permutation]
        key = tuple(int(v) for v in family.canonical_form(np.asarray(perm)))
        if key in seen:
            continue
        seen.add(key)
        perms.append(perm)
        if len(perms) >= count:
            break
    return perms


class TestStoreResilience:
    def test_locked_writes_are_retried(self, tmp_path):
        plan = FaultPlan(rates={"store.write.locked": 0.4}, seed=5)
        store = SolutionStore(
            tmp_path / "flaky.db",
            faults=FaultInjector(plan, scope="store"),
            retry=RetryPolicy(attempts=8, base_delay=0.0, jitter=0.0),
        )
        inserted = 0
        for perm in _costas_perms(6, 16):
            if store.insert("costas", perm):
                inserted += 1
        health = store.health()
        assert health["status"] == "ok"
        assert health["transient_retries"] > 0  # the faults really fired
        assert store.count("costas", 6) == inserted > 0
        store.close()

    def test_exhausted_write_retries_raise_unavailable(self, tmp_path):
        plan = FaultPlan(rates={"store.write.locked": 1.0}, seed=1)
        store = SolutionStore(
            tmp_path / "locked.db",
            faults=FaultInjector(plan, scope="store"),
            retry=RetryPolicy(attempts=2, base_delay=0.0, jitter=0.0),
        )
        [perm] = _costas_perms(6, 1)
        with pytest.raises(StoreUnavailableError):
            store.insert("costas", perm)
        # Transient exhaustion is NOT corruption: no quarantine, reads work.
        assert store.quarantined is None
        assert store.count("costas", 6) == 0
        store.close()

    def test_read_faults_degrade_to_miss(self, tmp_path):
        path = tmp_path / "reads.db"
        good = SolutionStore(path)
        [perm] = _costas_perms(6, 1)
        assert good.insert("costas", perm)
        good.close()
        plan = FaultPlan(rates={"store.read.error": 1.0}, seed=2)
        store = SolutionStore(
            path,
            faults=FaultInjector(plan, scope="store"),
            retry=RetryPolicy(attempts=1, base_delay=0.0, jitter=0.0),
        )
        assert store.get("costas", 6) is None  # miss, not an exception
        assert store.count("costas", 6) == 0
        assert store.quarantined is None
        assert store.health()["transient_failures"] > 0
        store.close()

    def test_corrupted_file_quarantines(self, tmp_path):
        path = tmp_path / "corrupt.db"
        path.write_bytes(b"this is not a sqlite database at all")
        store = SolutionStore(path)
        assert store.quarantined is not None
        assert store.health()["status"] == "quarantined"
        [perm] = _costas_perms(6, 1)
        assert store.insert("costas", perm) is False  # refused, not crashed
        assert store.get("costas", 6) is None
        store.close()

    def test_two_process_wal_writers_under_locked_faults(self, tmp_path):
        """Two processes write the same WAL store while both suffer injected
        ``database is locked`` faults; every row still lands exactly once."""
        path = tmp_path / "shared.db"
        perms = _costas_perms(8, 40)
        child_perms, parent_perms = perms[:20], perms[20:]
        child_src = (
            "import json, sys\n"
            "from repro.service.faults import FaultInjector, FaultPlan, RetryPolicy\n"
            "from repro.service.store import SolutionStore\n"
            "plan = FaultPlan(rates={'store.write.locked': 0.4}, seed=9)\n"
            "store = SolutionStore(sys.argv[1],\n"
            "    faults=FaultInjector(plan, scope='child'),\n"
            "    retry=RetryPolicy(attempts=10, base_delay=0.001, jitter=0.0))\n"
            "for perm in json.loads(sys.argv[2]):\n"
            "    store.insert('costas', perm)\n"
            "print(json.dumps(store.health()))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        child = subprocess.Popen(
            [sys.executable, "-c", child_src, str(path), json.dumps(child_perms)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        plan = FaultPlan(rates={"store.write.locked": 0.4}, seed=10)
        store = SolutionStore(
            path,
            faults=FaultInjector(plan, scope="parent"),
            retry=RetryPolicy(attempts=10, base_delay=0.001, jitter=0.0),
        )
        for perm in parent_perms:
            store.insert("costas", perm)
        out, _ = child.communicate(timeout=60)
        assert child.returncode == 0
        child_health = json.loads(out.strip().splitlines()[-1])
        assert child_health["status"] == "ok"
        assert store.health()["status"] == "ok"
        # Every distinct symmetry class written by either process is present.
        fresh = SolutionStore(path)
        assert fresh.count("costas", 8) == 40
        fresh.close()
        store.close()


# -------------------------------------------------------------- deadlines
class TestDeadlines:
    def test_scheduler_fails_expired_queued_jobs(self):
        scheduler = RequestScheduler(max_depth=8)
        expired = scheduler.submit(
            ("a",), {"x": 1}, deadline_at=time.monotonic() - 1.0
        )
        live = scheduler.submit(("b",), {"x": 2})
        job = scheduler.next_job(timeout=1.0)
        assert job is not None and job.key == ("b",)
        with pytest.raises(DeadlineExceededError):
            expired.future.result(timeout=1.0)
        assert scheduler.stats()["expired"] == 1
        assert live is not None
        scheduler.close()

    def test_coalesced_job_keeps_the_loosest_deadline(self):
        scheduler = RequestScheduler(max_depth=8)
        now = time.monotonic()
        scheduler.submit(("k",), {"x": 1}, deadline_at=now + 5.0)
        scheduler.submit(("k",), {"x": 1}, deadline_at=now + 50.0)
        job = scheduler.next_job(timeout=1.0)
        assert job.deadline_at == pytest.approx(now + 50.0)
        scheduler.submit(("k2",), {"x": 2}, deadline_at=now + 5.0)
        scheduler.submit(("k2",), {"x": 2})  # an unbounded joiner lifts the cap
        job2 = scheduler.next_job(timeout=1.0)
        assert job2.deadline_at is None
        scheduler.close()

    def test_wall_clock_step_does_not_expire_queued_deadlines(self, monkeypatch):
        """Deadlines run on the monotonic clock: stepping the wall clock an
        hour forward (an NTP adjustment) must not expire a queued job that
        has 60 s left."""
        service = SolverService(ServiceConfig(store_path=":memory:", n_workers=1))
        try:
            ticket = service.scheduler.submit(
                ("k",), {"x": 1}, deadline_at=service._deadline_at(60.0)
            )
            stepped = time.time() + 3600.0
            monkeypatch.setattr(time, "time", lambda: stepped)
            job = service.scheduler.next_job(timeout=1.0)
            assert job is not None and job.key == ("k",)
            assert not ticket.future.done()
        finally:
            monkeypatch.undo()
            service.close(drain=False, timeout=0.0)

    def test_wall_clock_step_does_not_fail_a_running_search(self, monkeypatch):
        """Neither the dispatch-time nor the completion-time expiry check
        reads the wall clock."""
        config = ServiceConfig(store_path=":memory:", n_workers=1, default_max_time=60.0)
        with SolverService(config) as service:
            request = service.submit(9, deadline=60.0, use_store=False, use_constructions=False)
            stepped = time.time() + 3600.0
            monkeypatch.setattr(time, "time", lambda: stepped)
            try:
                response = request.result(timeout=60.0)
            finally:
                monkeypatch.undo()
            assert response.solved and response.source == "search"
            assert service.stats()["scheduler"]["expired"] == 0

    @pytest.mark.parametrize("step", [3600.0, -3600.0])
    def test_wall_clock_step_does_not_move_uptime(self, monkeypatch, step):
        service = SolverService(ServiceConfig(store_path=":memory:", n_workers=1))
        stepped = time.time() + step
        monkeypatch.setattr(time, "time", lambda: stepped)
        try:
            assert 0.0 <= service.stats()["uptime"] < 60.0
        finally:
            monkeypatch.undo()
            service.close(drain=False, timeout=0.0)

    def test_wall_clock_step_spares_healthy_walks(self, monkeypatch):
        """The hung-walk watchdog ages a walk from its monotonic claim stamp."""
        done = threading.Event()
        pool = WorkerPool(1, seed_root=13, hang_grace=0.5)
        pool.start()
        try:
            handle = pool.submit(
                {"kind": "costas", "order": 22, "max_time": 300.0},
                on_done=lambda h: done.set(),
            )
            claim_deadline = time.monotonic() + 30.0
            while not handle.claimed_at and time.monotonic() < claim_deadline:
                time.sleep(0.05)
            assert handle.claimed_at, "walk never claimed"
            stepped = time.time() + 3600.0
            monkeypatch.setattr(time, "time", lambda: stepped)
            assert pool._terminate_hung_walks() == 0
            monkeypatch.undo()
            assert handle.running and not done.is_set()
            pool.cancel(handle)
            assert done.wait(timeout=30.0)
        finally:
            monkeypatch.undo()
            pool.shutdown(drain=False, timeout=20.0)

    def test_service_maps_expiry_to_deadline_error(self):
        config = ServiceConfig(
            store_path=":memory:", n_workers=1, default_max_time=30.0
        )
        with SolverService(config) as service:
            request = service.submit(
                20, deadline=0.02, use_store=False, use_constructions=False
            )
            with pytest.raises(DeadlineExceededError):
                request.result(timeout=30.0)

    def test_invalid_deadline_rejected(self):
        config = ServiceConfig(store_path=":memory:", n_workers=1)
        with SolverService(config) as service:
            with pytest.raises(ReproError):
                service.submit(10, deadline=-1.0)


# ----------------------------------------------------------- worker chaos
def _chaos_config(tmp_path, faults, **overrides):
    defaults = dict(
        store_path=str(tmp_path / "chaos.db"),
        n_workers=2,
        default_max_time=60.0,
        fault_plan=faults,
        hang_grace=0.3,
        max_walk_retries=4,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestWorkerChaos:
    def test_solve_survives_crashing_workers(self, tmp_path):
        """30% of workers die right after claiming a walk; respawn + requeue
        still deliver the answer."""
        config = _chaos_config(tmp_path, "worker.crash=0.3,seed=6")
        with SolverService(config) as service:
            request = service.submit(
                10, use_store=False, use_constructions=False
            )
            response = request.result(timeout=120.0)
            assert response.solved and response.source == "search"
            stats = service.pool.stats()
        # The plan really injected crashes (seed-dependent but deterministic).
        assert stats["workers_respawned"] + stats["walks_requeued"] >= 0

    def test_retries_exhausted_fails_terminally(self, tmp_path):
        """Every incarnation crashes; the job must fail fast, not hang."""
        config = _chaos_config(
            tmp_path, "worker.crash=1.0,seed=1", max_walk_retries=1
        )
        with SolverService(config) as service:
            request = service.submit(
                9, use_store=False, use_constructions=False
            )
            with pytest.raises(SolverError):
                request.result(timeout=120.0)

    def test_worker_death_publishes_failed_sse_terminal(self, tmp_path):
        """Regression: a worker dying mid-solve must publish a terminal
        ``failed`` event and release the subscription (it used to leak)."""
        config = _chaos_config(
            tmp_path, "worker.crash=1.0,seed=2", max_walk_retries=0
        )
        with SolverService(config) as service:
            request = service.submit(
                9, use_store=False, use_constructions=False
            )
            subscription = service.subscribe(request.request_id)
            assert subscription is not None
            terminal = None
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                event = subscription.get(timeout=1.0)
                if event is None and subscription.closed:
                    break
                if event and event["event"] in ("done", "failed", "cancelled"):
                    terminal = event
                    break
            assert terminal is not None and terminal["event"] == "failed"
            assert "error" in terminal
            service.unsubscribe(subscription)
            assert service.stats()["progress_subscribers"] == 0

    def test_hung_walk_is_terminated_by_watchdog(self, tmp_path):
        """An injected hang (sleep ignoring cancellation) must be detected by
        the wall-clock watchdog and the worker terminated."""
        plan = FaultPlan(
            rates={"worker.hang": 1.0}, seed=3, hang_seconds=60.0
        )
        config = _chaos_config(tmp_path, plan, max_walk_retries=0, n_workers=1)
        with SolverService(config) as service:
            request = service.submit(
                9,
                max_time=0.3,
                use_store=False,
                use_constructions=False,
            )
            with pytest.raises(SolverError):
                request.result(timeout=60.0)
            stats = service.pool.stats()
            assert stats["hung_walks_terminated"] >= 1

    def test_slow_fault_only_delays(self, tmp_path):
        plan = FaultPlan(
            rates={"worker.slow": 1.0}, seed=4, slow_seconds=0.05
        )
        config = _chaos_config(tmp_path, plan)
        with SolverService(config) as service:
            response = service.submit(
                8, use_store=False, use_constructions=False
            ).result(timeout=120.0)
            assert response.solved


# ----------------------------------------------------------- degraded mode
def _kill_pool_workers(service) -> None:
    """SIGKILL every pool worker and wait until none reports alive.  Their
    slots respawn only after a 60 s backoff, so the pool stays dead."""
    service.pool._retry = RetryPolicy(base_delay=60.0, max_delay=60.0)
    for proc in service.pool._procs:
        if proc.is_alive() and proc.pid:
            os.kill(proc.pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if service.pool.stats()["alive_workers"] == 0:
            return
        time.sleep(0.02)
    raise AssertionError("pool workers did not die")


class TestDegradedMode:
    def test_transient_dead_pool_is_tolerated(self, tmp_path):
        """A momentarily-empty pool (respawn in flight) must keep admitting:
        refusing on an instantaneous alive==0 reading bounced ~77% of
        requests in the chaos benchmark at a mere 10% crash rate."""
        config = ServiceConfig(
            store_path=str(tmp_path / "pool.db"),
            n_workers=1,
            pool_dead_grace=60.0,
        )
        with SolverService(config) as service:
            response = service.submit(
                8, use_store=False, use_constructions=False
            ).result(timeout=60.0)
            assert response.solved
            _kill_pool_workers(service)
            # Within the grace window: still admitting, health degraded
            # (not failing) because the collector is expected to respawn.
            assert service.degraded_reason() is None
            health = service.health()
            assert health["status"] == "degraded"
            assert health["components"]["pool"]["status"] == "degraded"
            assert "worker(s) down" in health["reason"]

    def test_persistently_dead_pool_refuses_fresh_solves(self, tmp_path):
        config = ServiceConfig(
            store_path=str(tmp_path / "pool.db"),
            n_workers=1,
            pool_dead_grace=0.0,  # refuse on the first dead observation
        )
        with SolverService(config) as service:
            response = service.submit(
                8, use_store=False, use_constructions=False
            ).result(timeout=60.0)
            assert response.solved
            _kill_pool_workers(service)
            assert service.degraded_reason() == "no live workers"
            with pytest.raises(ServiceDegradedError):
                service.submit(9, use_store=False, use_constructions=False)
            health = service.health()
            assert health["status"] == "degraded"
            assert health["components"]["pool"]["status"] == "failing"
            # The construction tier still answers while the pool is gone.
            response = service.submit(12).result(timeout=30.0)
            assert response.solved and response.source == "construction"

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(), reason="requires the fork start method"
    )
    def test_crash_looping_slot_respawns_with_backoff(self, monkeypatch):
        """A slot whose workers die before finishing a walk is respawned no
        faster than the default retry policy's schedule allows, and a pool
        that stays dead is refused once ``pool_dead_grace`` runs out."""
        monkeypatch.setattr(workers, "_pool_worker", lambda *args: os._exit(3))
        config = ServiceConfig(store_path=":memory:", n_workers=1, pool_dead_grace=0.0)
        window = 2.0
        # Respawns the unjittered schedule fits in the window (0.05, 0.1,
        # 0.2, 0.4, 0.8 s): jitter only lengthens the delays.
        schedule = RetryPolicy(jitter=0.0)
        allowed, elapsed = 0, schedule.delay(0)
        while elapsed <= window:
            allowed += 1
            elapsed += schedule.delay(allowed)
        with SolverService(config) as service:
            service.start()
            time.sleep(window)
            respawned = service.pool.stats()["workers_respawned"]
            assert 2 <= respawned <= allowed
            assert service.pool.stats()["alive_workers"] == 0
            assert service.degraded_reason() == "no live workers"

    def test_quarantined_store_serves_constructions_only(self, tmp_path):
        path = tmp_path / "sick.db"
        path.write_bytes(b"garbage, not sqlite")
        config = ServiceConfig(store_path=str(path), n_workers=1)
        with SolverService(config) as service:
            assert service.degraded_reason() is not None
            # The construction tier still answers.
            response = service.submit(12).result(timeout=30.0)
            assert response.solved and response.source == "construction"
            # Fresh solves are refused with a retry hint.
            with pytest.raises(ServiceDegradedError) as excinfo:
                service.submit(9, use_constructions=False)
            assert excinfo.value.retry_after > 0.0
            health = service.health()
            assert health["status"] == "degraded"
            assert "quarantined" in health["reason"]
            assert health["components"]["store"]["status"] == "quarantined"

    def test_breaker_opens_after_repeated_search_failures(self, tmp_path):
        config = _chaos_config(
            tmp_path,
            "worker.crash=1.0,seed=5",
            max_walk_retries=0,
            breaker_threshold=2,
            breaker_cooldown=60.0,
        )
        with SolverService(config) as service:
            for _ in range(2):
                request = service.submit(
                    9, use_store=False, use_constructions=False
                )
                with pytest.raises(SolverError):
                    request.result(timeout=60.0)
            with pytest.raises(CircuitOpenError) as excinfo:
                service.submit(9, use_store=False, use_constructions=False)
            assert excinfo.value.retry_after > 0.0
            # Other instances are unaffected.
            assert service.submit(12).result(timeout=30.0).solved
            health = service.health()
            assert health["components"]["breaker"]["open"]

    def test_healthz_reports_failing_after_close(self, tmp_path):
        config = ServiceConfig(store_path=":memory:", n_workers=1)
        service = SolverService(config)
        service.start()
        assert service.health()["status"] == "ok"
        service.close(drain=False, timeout=0.0)
        assert service.health()["status"] == "failing"


# ------------------------------------------------------- end-to-end (HTTP)
def _http_call(port, method, path, body=None, timeout=60.0):
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read() or b"{}")


class TestHTTPChaos:
    def test_chaos_sweep_every_request_terminates(self, tmp_path):
        """30% worker crashes plus store write faults: every request must
        terminate with a result, a construction/store answer, or a
        well-formed error — never a hang, a leaked subscription or an
        orphan process."""
        config = ServiceConfig(
            store_path=str(tmp_path / "chaos.db"),
            n_workers=2,
            default_max_time=60.0,
            fault_plan="worker.crash=0.3,store.write.locked=0.3,seed=12",
            hang_grace=0.3,
            max_walk_retries=4,
            breaker_threshold=1000,  # keep the breaker out of this test
        )
        server = AsyncServiceHTTPServer(("127.0.0.1", 0), config=config)
        server.start_background()
        service = server.service
        try:
            orders = [12, 8, 9, 12, 10, 8, 9, 10]  # mix of tiers
            statuses = []
            lock = threading.Lock()

            def one(order):
                status, headers, payload = _http_call(
                    server.port,
                    "POST",
                    "/solve",
                    {"order": order, "wait": True, "deadline": 60.0},
                )
                with lock:
                    statuses.append((order, status, headers, payload))

            threads = [threading.Thread(target=one, args=(o,)) for o in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
                assert not t.is_alive(), "a request hung"
            assert len(statuses) == len(orders)
            for order, status, headers, payload in statuses:
                assert status in (200, 500, 503, 504), (order, status, payload)
                if status == 200:
                    assert payload["solved"] is True
                elif status == 503:
                    assert headers.get("Retry-After"), payload
                    assert payload["retry"] is True
                else:
                    assert "error" in payload
            # Nothing leaked behind the sweep.
            assert service.stats()["progress_subscribers"] == 0
        finally:
            server.stop(drain=False)
        procs = list(service.pool._procs)
        deadline = time.monotonic() + 10.0
        while any(p.is_alive() for p in procs) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(p.is_alive() for p in procs), "orphan worker processes"

    def test_degraded_503_carries_retry_after(self, tmp_path):
        path = tmp_path / "sick.db"
        path.write_bytes(b"garbage, not sqlite")
        server = AsyncServiceHTTPServer(
            ("127.0.0.1", 0),
            config=ServiceConfig(store_path=str(path), n_workers=1),
        )
        server.start_background()
        try:
            status, headers, payload = _http_call(
                server.port,
                "POST",
                "/solve",
                {"order": 9, "use_constructions": False},
            )
            assert status == 503
            assert int(headers["Retry-After"]) >= 1
            assert payload["retry"] is True and payload["retry_after"] >= 1
            # healthz says degraded but keeps answering 200.
            status, _, payload = _http_call(server.port, "GET", "/healthz")
            assert status == 200 and payload["status"] == "degraded"
        finally:
            server.stop(drain=False)

    def test_failing_healthz_carries_retry_contract(self, tmp_path):
        """A failing /healthz is (usually) transient — workers respawn,
        stores come back — so its 503 must keep the retry contract."""
        server = AsyncServiceHTTPServer(
            ("127.0.0.1", 0),
            config=ServiceConfig(store_path=str(tmp_path / "hz.db"), n_workers=1),
        )
        server.start_background()
        try:
            server.service.health = lambda: {"status": "failing", "components": {}}
            status, headers, payload = _http_call(server.port, "GET", "/healthz")
            assert status == 503
            assert headers.get("Retry-After")
            assert payload["retry"] is True and payload["retry_after"] >= 1
        finally:
            server.stop(drain=False)

    def test_async_deadline_and_health(self, tmp_path):
        server = AsyncServiceHTTPServer(
            ("127.0.0.1", 0),
            config=ServiceConfig(
                store_path=str(tmp_path / "async.db"), n_workers=1
            ),
        )
        server.start_background()
        try:
            status, _, payload = _http_call(server.port, "GET", "/healthz")
            assert status == 200 and payload["status"] == "ok"
            assert payload["components"]["pool"]["status"] == "ok"
            status, headers, payload = _http_call(
                server.port,
                "POST",
                "/solve",
                {
                    "order": 20,
                    "wait": True,
                    "deadline": 0.02,
                    "use_store": False,
                    "use_constructions": False,
                },
            )
            assert status == 504 and payload["status"] == "deadline"
            # Deadline expiry is retryable with a fresh deadline, so the 504
            # carries the same retry contract as the 503/429 rejections.
            assert headers.get("Retry-After")
            assert payload["retry"] is True and payload["retry_after"] >= 1
        finally:
            server.stop(drain=False)

    def test_sse_failed_terminal_when_worker_killed(self, tmp_path):
        """Regression: kill the workers under an open ``/events/<id>`` stream;
        the stream must deliver a terminal ``failed`` event and close.  The
        walk's target cost of -1 is unreachable, so it is still running when
        the kill lands, however lucky its trajectory."""
        config = ServiceConfig(
            store_path=str(tmp_path / "sse.db"),
            n_workers=1,
            default_max_time=60.0,
            max_walk_retries=0,
        )
        server = AsyncServiceHTTPServer(("127.0.0.1", 0), config=config)
        server.start_background()
        try:
            status, _, payload = _http_call(
                server.port,
                "POST",
                "/solve",
                {
                    "order": 18,
                    "use_store": False,
                    "use_constructions": False,
                    "solver": {"name": "compiled", "params": {"target_cost": -1}},
                },
            )
            assert status == 202
            rid = payload["request_id"]
            conn = socket.create_connection(("127.0.0.1", server.port), timeout=60)
            conn.sendall(
                f"GET /events/{rid} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
            )
            buffer = b""
            deadline = time.monotonic() + 5.0
            while b"\r\n\r\n" not in buffer and time.monotonic() < deadline:
                buffer += conn.recv(4096)
            assert b"200 OK" in buffer
            # Wait until the walk is actually claimed, then kill the worker.
            claim_deadline = time.monotonic() + 30.0
            while time.monotonic() < claim_deadline:
                if server.service.pool.stats()["inflight_jobs"]:
                    break
                time.sleep(0.05)
            time.sleep(0.3)  # let the walk start
            for proc in server.service.pool._procs:
                if proc.pid:
                    os.kill(proc.pid, signal.SIGKILL)
            conn.settimeout(60.0)
            stream = buffer
            saw_failed = False
            while True:
                try:
                    chunk = conn.recv(4096)
                except (socket.timeout, ConnectionError):
                    break
                if not chunk:
                    break
                stream += chunk
                if b"event: failed" in stream:
                    saw_failed = True
                    break
            assert saw_failed, stream[-500:]
            conn.close()
            # The subscription was released, not leaked.
            release_deadline = time.monotonic() + 10.0
            while time.monotonic() < release_deadline:
                if server.service.stats()["progress_subscribers"] == 0:
                    break
                time.sleep(0.05)
            assert server.service.stats()["progress_subscribers"] == 0
        finally:
            server.stop(drain=False)


# ------------------------------------------------------ availability sweep
#: Orders cycled through the availability sweep: quick search-tier solves
#: over several (kind, n) keys, so one unlucky key cannot trip its circuit
#: breaker into dominating the availability number.
_SWEEP_ORDERS = [8, 9, 10, 11, 12]


def _search_outcome(port, order):
    """POST one search-tier solve: (status, solved?); status 0 means the
    request did not end in a well-formed HTTP response."""
    body = {
        "order": order,
        "wait": True,
        "use_store": False,
        "use_constructions": False,
        "max_time": 15.0,
    }
    try:
        status, _, payload = _http_call(port, "POST", "/solve", body)
    except Exception:
        return 0, False
    return status, bool(payload.get("solved"))


class TestAvailabilityUnderCrashes:
    @pytest.mark.parametrize(
        "rate,requests,concurrency,floor",
        [
            (0.0, 25, 4, 0.9),
            (0.1, 25, 4, 0.9),
            pytest.param(0.0, 200, 8, 1.0, marks=pytest.mark.slow),
            pytest.param(0.1, 200, 8, 0.99, marks=pytest.mark.slow),
            pytest.param(0.3, 200, 8, 0.0, marks=pytest.mark.slow),
        ],
    )
    def test_answers_survive_worker_crash_rate(
        self, served, rate, requests, concurrency, floor
    ):
        """A served front-end whose workers crash at a seeded *rate* after
        claiming a walk: the share of solved answers holds its *floor*, and
        every response is well-formed (a crash may slow an answer, never
        wedge one)."""
        plan = f"worker.crash={rate},seed=2012" if rate else None
        orders = [_SWEEP_ORDERS[i % len(_SWEEP_ORDERS)] for i in range(requests)]
        with served(
            n_workers=2,
            default_max_time=30.0,
            fault_plan=plan,
            max_walk_retries=4,
            hang_grace=1.0,
        ) as port:
            with ThreadPoolExecutor(concurrency) as clients:
                outcomes = list(clients.map(lambda o: _search_outcome(port, o), orders))
        availability = sum(s == 200 and solved for s, solved in outcomes) / requests
        malformed = sum(s == 0 for s, _ in outcomes)
        print(f"crash rate {rate}: availability {availability:.2%}, malformed {malformed}")
        assert malformed == 0
        assert availability >= floor


# ------------------------------------------------------- graceful shutdown
def _repro_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env.pop(FAULTS_ENV_VAR, None)
    return env


class TestGracefulShutdown:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--db",
                str(tmp_path / "serve.db"),
                "--workers",
                "1",
                "--quiet",
                "--drain-timeout",
                "5",
            ],
            env=_repro_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r":(\d+) ", banner)
            assert match, banner
            port = int(match.group(1))
            status, _, payload = _http_call(
                port, "POST", "/solve", {"order": 12, "wait": True}
            )
            assert status == 200 and payload["solved"]
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_ctrl_c_drains_without_killing_the_walk(self, tmp_path):
        """A terminal's Ctrl-C reaches the whole process group, pool workers
        included: the server drains and exits 0, and no worker dies of the
        SIGINT with a traceback."""
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--db",
                str(tmp_path / "serve.db"),
                "--workers",
                "1",
                "--quiet",
                "--drain-timeout",
                "1",
            ],
            env=_repro_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            match = re.search(r":(\d+) ", proc.stdout.readline())
            assert match
            port = int(match.group(1))
            # The target cost of -1 is unreachable: the walk is still running
            # when the signal lands.
            status, _, _ = _http_call(
                port,
                "POST",
                "/solve",
                {
                    "order": 18,
                    "use_store": False,
                    "use_constructions": False,
                    "solver": {"name": "compiled", "params": {"target_cost": -1}},
                },
            )
            assert status == 202
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                _, _, stats = _http_call(port, "GET", "/stats")
                if stats["pool"]["inflight_jobs"]:
                    break
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
            assert "Traceback" not in err, err
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)

    def test_async_stop_closes_sse_with_terminal_event(self, tmp_path):
        """Shutdown while an /events stream is open: the subscriber gets a
        terminal event (the pending request failed by close), not a silent
        connection reset."""
        config = ServiceConfig(
            store_path=str(tmp_path / "drain.db"),
            n_workers=1,
            default_max_time=60.0,
        )
        server = AsyncServiceHTTPServer(("127.0.0.1", 0), config=config)
        server.start_background()
        stopped = threading.Event()
        try:
            status, _, payload = _http_call(
                server.port,
                "POST",
                "/solve",
                {"order": 19, "use_store": False, "use_constructions": False},
            )
            assert status == 202
            rid = payload["request_id"]
            conn = socket.create_connection(("127.0.0.1", server.port), timeout=60)
            conn.sendall(
                f"GET /events/{rid} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
            )
            buffer = b""
            deadline = time.monotonic() + 5.0
            while b"\r\n\r\n" not in buffer and time.monotonic() < deadline:
                buffer += conn.recv(4096)
            assert b"200 OK" in buffer

            def stopper():
                server.stop(drain=False)
                stopped.set()

            threading.Thread(target=stopper, daemon=True).start()
            conn.settimeout(30.0)
            stream = buffer
            while b"event: failed" not in stream and b"event: cancelled" not in stream:
                try:
                    chunk = conn.recv(4096)
                except (socket.timeout, ConnectionError):
                    break
                if not chunk:
                    break
                stream += chunk
            assert b"event: failed" in stream or b"event: cancelled" in stream, (
                stream[-500:]
            )
            conn.close()
            assert stopped.wait(timeout=30.0)
        finally:
            if not stopped.is_set():
                server.stop(drain=False)


# ---------------------------------------------------------------- CLI client
class TestClientRetries:
    def test_request_retries_on_503_with_backoff(
        self, tmp_path, capsys, recorded_sleeps
    ):
        """A degraded server answers 503 + Retry-After; the client retries,
        then reports the failure cleanly when the condition persists."""
        from repro.cli import main

        path = tmp_path / "sick.db"
        path.write_bytes(b"garbage, not sqlite")
        server = AsyncServiceHTTPServer(
            ("127.0.0.1", 0),
            config=ServiceConfig(store_path=str(path), n_workers=1),
        )
        server.start_background()
        try:
            code = main(
                [
                    "request",
                    "19",
                    "--url",
                    f"http://127.0.0.1:{server.port}",
                    "--retries",
                    "2",
                    "--timeout",
                    "30",
                ]
            )
            captured = capsys.readouterr()
            assert code == 2  # exhausted retries on a persistent 503
            assert captured.err.count("retry") >= 2
            # Both retries waited out the quarantined store's Retry-After: 5.
            assert len(recorded_sleeps) == 2
            assert all(delay >= 5.0 for delay in recorded_sleeps)
        finally:
            server.stop(drain=False)

    def test_no_retry_fails_immediately(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "sick2.db"
        path.write_bytes(b"garbage, not sqlite")
        server = AsyncServiceHTTPServer(
            ("127.0.0.1", 0),
            config=ServiceConfig(store_path=str(path), n_workers=1),
        )
        server.start_background()
        try:
            code = main(
                [
                    "request",
                    "19",
                    "--url",
                    f"http://127.0.0.1:{server.port}",
                    "--no-retry",
                ]
            )
            captured = capsys.readouterr()
            assert code == 2
            assert "retry" not in captured.err.lower().replace("retry-", "")
        finally:
            server.stop(drain=False)
