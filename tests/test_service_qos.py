"""Tests for the QoS admission pipeline: lanes, quotas, shedding, histograms.

The scheduler-level tests exercise the multi-lane ``RequestScheduler``
directly (no processes); the HTTP tests spin a tiny lane-enabled server to
pin the 429/503 wire contracts and the ``X-Repro-Tenant`` header.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.service.qos import (
    BACKGROUND,
    BATCH,
    INTERACTIVE,
    LaneSpec,
    LatencyHistogram,
    TenantQuotas,
    TokenBucket,
    classify_lane,
    default_lanes,
    parse_lanes,
)
from repro.service.scheduler import (
    RequestScheduler,
    RequestSheddedError,
    SchedulerQuotaError,
    SchedulerSaturatedError,
)


def _submit(sched, order, *, lane=None, tenant="default", priority=0):
    return sched.submit(
        ("costas", order),
        {"order": order},
        priority=priority,
        lane=lane,
        tenant=tenant,
    )


def _lanes(depth=None):
    return default_lanes(depth)


# --------------------------------------------------------------------- parsing
class TestLaneSpecs:
    def test_default_lanes_order_and_weights(self):
        lanes = default_lanes(64)
        assert [s.name for s in lanes] == [INTERACTIVE, BATCH, BACKGROUND]
        assert [s.weight for s in lanes] == [6, 3, 1]
        assert all(s.depth == 64 for s in lanes)

    def test_parse_lanes_custom_spec(self):
        lanes = parse_lanes("fast=8:4,slow=32", default_depth=16)
        assert lanes[0] == LaneSpec("fast", depth=8, weight=4)
        assert lanes[1] == LaneSpec("slow", depth=32, weight=1)

    def test_parse_lanes_default_keyword(self):
        assert parse_lanes("default", 10) == default_lanes(10)

    def test_parse_lanes_rejects_duplicates(self):
        with pytest.raises(ValueError):
            parse_lanes("a=1,a=2")

    def test_lane_spec_validation(self):
        with pytest.raises(ValueError):
            LaneSpec("bad,name")
        with pytest.raises(ValueError):
            LaneSpec("x", depth=0)
        with pytest.raises(ValueError):
            LaneSpec("x", weight=0)


class TestClassify:
    def test_explicit_lane_wins(self):
        names = [s.name for s in _lanes()]
        assert classify_lane(lane=BACKGROUND, priority=9, lanes=names) == BACKGROUND

    def test_unknown_explicit_lane_raises(self):
        with pytest.raises(ValueError):
            classify_lane(lane="vip", lanes=[s.name for s in _lanes()])

    def test_tight_deadline_is_interactive(self):
        names = [s.name for s in _lanes()]
        assert classify_lane(deadline=5.0, lanes=names) == INTERACTIVE
        assert classify_lane(deadline=60.0, lanes=names) == BATCH

    def test_priority_sign_classifies(self):
        names = [s.name for s in _lanes()]
        assert classify_lane(priority=2, lanes=names) == INTERACTIVE
        assert classify_lane(priority=-1, lanes=names) == BACKGROUND
        assert classify_lane(lanes=names) == BATCH


# -------------------------------------------------------------------- quotas
class TestTokenBucket:
    def test_burst_then_refusal_then_refill(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        now = 1000.0
        assert bucket.take(now) is None
        assert bucket.take(now) is None
        retry = bucket.take(now)
        assert retry is not None and retry > 0
        # One second later a token has dripped back in.
        assert bucket.take(now + 1.0) is None

    def test_zero_rate_never_refills(self):
        bucket = TokenBucket(rate=0.0, burst=1.0)
        assert bucket.take(100.0) is None
        assert bucket.take(100.0) == 60.0


class TestTenantQuotas:
    def test_from_spec_and_catch_all(self):
        quotas = TenantQuotas.from_spec("alice=5:10,*=1")
        assert quotas.limit_for("alice") == (5.0, 10.0)
        assert quotas.limit_for("mallory") == (1.0, 1.0)

    def test_unlisted_tenant_without_catch_all_is_unlimited(self):
        quotas = TenantQuotas.from_spec("alice=1")
        for _ in range(50):
            assert quotas.take("bob", now=0.0) is None

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            TenantQuotas.from_spec("alice")


# ----------------------------------------------------------------- histograms
class TestLatencyHistogram:
    def test_percentiles_bracket_the_samples(self):
        hist = LatencyHistogram()
        for ms in range(1, 101):  # 1..100 ms
            hist.record(ms / 1000.0)
        snap = hist.snapshot()
        assert snap["count"] == 100
        # Log buckets overestimate by at most one bucket width (30%).
        assert 0.045 * 1e3 <= snap["p50_ms"] <= 0.075 * 1e3
        assert snap["p99_ms"] <= snap["max_ms"] * 1.3
        assert snap["p50_ms"] <= snap["p95_ms"] <= snap["p99_ms"]

    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.percentile(99) is None
        assert hist.snapshot() == {"count": 0}


# ---------------------------------------------------------- multi-lane queue
class TestLaneScheduling:
    def test_single_lane_mode_unchanged(self):
        sched = RequestScheduler(max_depth=2)
        assert sched.lane_order == ("default",)
        _submit(sched, 18)
        _submit(sched, 19)
        with pytest.raises(SchedulerSaturatedError) as excinfo:
            _submit(sched, 20)
        # The pre-lane message shape: no lane= suffix in single-lane mode.
        assert "lane=" not in str(excinfo.value)

    def test_weighted_fair_pop_never_starves_batch(self):
        sched = RequestScheduler(lanes=default_lanes())
        for i in range(12):
            _submit(sched, 100 + i, lane=INTERACTIVE)
        for i in range(12):
            _submit(sched, 200 + i, lane=BATCH)
        popped = [sched.next_job(timeout=0).lane for _ in range(9)]
        # 6:3 weights -> batch gets popped within any 3-pop window on
        # average; certainly within the first nine pops.
        assert BATCH in popped
        assert popped.count(INTERACTIVE) > popped.count(BATCH)

    def test_only_lanes_restricts_pop(self):
        sched = RequestScheduler(lanes=default_lanes())
        _submit(sched, 1, lane=BACKGROUND)
        assert sched.next_job(timeout=0, only_lanes=(INTERACTIVE,)) is None
        _submit(sched, 2, lane=INTERACTIVE)
        job = sched.next_job(timeout=0, only_lanes=(INTERACTIVE,))
        assert job is not None and job.lane == INTERACTIVE

    def test_per_lane_depth_rejects_newcomer(self):
        lanes = (
            LaneSpec(INTERACTIVE, depth=8, weight=6),
            LaneSpec(BACKGROUND, depth=1, weight=1),
        )
        sched = RequestScheduler(lanes=lanes)
        _submit(sched, 1, lane=BACKGROUND)
        with pytest.raises(SchedulerSaturatedError) as excinfo:
            _submit(sched, 2, lane=BACKGROUND)
        assert "lane=background" in str(excinfo.value)
        # The interactive lane still has room.
        _submit(sched, 3, lane=INTERACTIVE)

    def test_lane_promotion_on_coalesced_join(self):
        sched = RequestScheduler(lanes=default_lanes())
        t1 = _submit(sched, 18, lane=BACKGROUND)
        t2 = _submit(sched, 18, lane=INTERACTIVE)
        assert t1.job is t2.job
        assert t1.job.lane == INTERACTIVE
        job = sched.next_job(timeout=0, only_lanes=(INTERACTIVE,))
        assert job is t1.job
        # The stale background heap entry is skipped, not double-popped.
        assert sched.next_job(timeout=0) is None

    def test_join_from_cheaper_lane_does_not_demote(self):
        sched = RequestScheduler(lanes=default_lanes())
        t1 = _submit(sched, 18, lane=INTERACTIVE)
        _submit(sched, 18, lane=BACKGROUND)
        assert t1.job.lane == INTERACTIVE

    def test_unknown_lane_raises(self):
        sched = RequestScheduler(lanes=default_lanes())
        with pytest.raises(ValueError):
            _submit(sched, 1, lane="vip")


class TestShedding:
    def _sched(self, max_depth):
        return RequestScheduler(max_depth=max_depth, lanes=default_lanes())

    def test_global_saturation_sheds_cheapest_lane(self):
        sched = self._sched(max_depth=2)
        _submit(sched, 1, lane=BACKGROUND)
        victim = _submit(sched, 2, lane=BACKGROUND)
        admitted = _submit(sched, 3, lane=INTERACTIVE)
        # The newest background job was shed, the interactive job admitted.
        with pytest.raises(RequestSheddedError):
            victim.result(timeout=1)
        assert admitted.job.state == "queued"
        stats = sched.stats()
        assert stats["shed"] == 1
        assert stats["lanes"][BACKGROUND]["shed"] == 1
        assert stats["lanes"][INTERACTIVE]["shed"] == 0

    def test_shed_prefers_newest_victim(self):
        sched = self._sched(max_depth=2)
        older = _submit(sched, 1, lane=BACKGROUND)
        newer = _submit(sched, 2, lane=BACKGROUND)
        _submit(sched, 3, lane=INTERACTIVE)
        assert not older.done()
        with pytest.raises(RequestSheddedError):
            newer.result(timeout=1)

    def test_cheapest_arrival_is_rejected_not_shed(self):
        sched = self._sched(max_depth=2)
        _submit(sched, 1, lane=BACKGROUND)
        _submit(sched, 2, lane=BACKGROUND)
        # A background arrival cannot shed its own lane: plain 503.
        with pytest.raises(SchedulerSaturatedError):
            _submit(sched, 3, lane=BACKGROUND)
        assert sched.stats()["shed"] == 0

    def test_interactive_flood_cannot_shed_interactive(self):
        sched = self._sched(max_depth=1)
        _submit(sched, 1, lane=INTERACTIVE)
        with pytest.raises(SchedulerSaturatedError):
            _submit(sched, 2, lane=INTERACTIVE)

    def test_shed_error_carries_retry_after(self):
        err = RequestSheddedError("x", retry_after=2.5)
        assert err.retry_after == 2.5


class TestSchedulerQuotas:
    def test_new_jobs_charge_quota_joins_are_free(self):
        quotas = TenantQuotas({"alice": (0.0, 2.0)})
        sched = RequestScheduler(lanes=default_lanes(), quotas=quotas)
        _submit(sched, 1, tenant="alice")
        _submit(sched, 2, tenant="alice")
        # A coalesced join does not cost a token ...
        _submit(sched, 1, tenant="alice")
        # ... but a third distinct job does, and the bucket is empty.
        with pytest.raises(SchedulerQuotaError) as excinfo:
            _submit(sched, 3, tenant="alice")
        assert excinfo.value.retry_after > 0
        stats = sched.stats()
        assert stats["quota_rejected"] == 1
        assert stats["tenants"]["alice"]["quota_rejected"] == 1
        assert stats["tenants"]["alice"]["admitted"] == 2
        assert stats["tenants"]["alice"]["coalesced"] == 1

    def test_other_tenants_unaffected(self):
        quotas = TenantQuotas({"alice": (0.0, 1.0)})
        sched = RequestScheduler(lanes=default_lanes(), quotas=quotas)
        _submit(sched, 1, tenant="alice")
        with pytest.raises(SchedulerQuotaError):
            _submit(sched, 2, tenant="alice")
        for order in range(10, 20):
            _submit(sched, order, tenant="bob")


class TestLaneStats:
    def test_stats_expose_per_lane_depth_and_counters(self):
        sched = RequestScheduler(lanes=default_lanes(4))
        _submit(sched, 1, lane=INTERACTIVE)
        _submit(sched, 2, lane=BACKGROUND)
        _submit(sched, 1, lane=INTERACTIVE)  # coalesced
        stats = sched.stats()
        assert set(stats["lanes"]) == {INTERACTIVE, BATCH, BACKGROUND}
        inter = stats["lanes"][INTERACTIVE]
        assert inter["queued"] == 1 and inter["depth"] == 4 and inter["weight"] == 6
        assert inter["admitted"] == 1 and inter["coalesced"] == 1
        assert stats["lanes"][BACKGROUND]["admitted"] == 1


# ------------------------------------------------------------------ HTTP layer
@pytest.fixture(scope="module")
def qos_server(tmp_path_factory):
    from repro.service.api import ServiceConfig
    from repro.service.http_async import AsyncServiceHTTPServer

    tmp_path = tmp_path_factory.mktemp("qos-http")
    srv = AsyncServiceHTTPServer(
        ("127.0.0.1", 0),
        config=ServiceConfig(
            store_path=str(tmp_path / "qos.db"),
            n_workers=2,
            default_max_time=120.0,
            lanes="default",
            quotas="limited=0:1",
        ),
    )
    srv.start_background()
    yield srv
    srv.stop(drain=False)


def _call(server, method, path, body=None, headers=None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    all_headers = {"Content-Type": "application/json"}
    all_headers.update(headers or {})
    req = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=data,
        method=method,
        headers=all_headers,
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8")), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8") or "{}"), exc.headers


class TestQoSOverHTTP:
    def test_solve_carries_lane_and_tenant(self, qos_server):
        status, payload, _ = _call(
            qos_server,
            "POST",
            "/solve",
            {"order": 12, "wait": True, "lane": "interactive"},
            headers={"X-Repro-Tenant": "acme"},
        )
        assert status == 200 and payload["solved"]
        stats = qos_server.service.stats()
        assert stats["scheduler"]["tenants"].get("acme", {}).get("admitted", 0) >= 0
        assert stats["qos"]["enabled"] is True
        assert stats["qos"]["lanes"] == ["interactive", "batch", "background"]

    def test_unknown_lane_is_400(self, qos_server):
        status, payload, _ = _call(
            qos_server, "POST", "/solve", {"order": 12, "lane": "vip"}
        )
        assert status == 400
        assert "unknown lane" in payload["error"]

    def test_quota_exhaustion_is_429_with_retry_after(self, qos_server):
        # Tenant "limited" has a zero-rate, burst-1 bucket: the first *new*
        # job is admitted, the next distinct one answers 429.  Store and
        # construction tiers would answer before the queue, so force both
        # requests through the scheduler; max_time keeps the search trivial.
        body = {"max_time": 0.2, "tenant": "limited",
                "use_store": False, "use_constructions": False}
        first, _, _ = _call(qos_server, "POST", "/solve", {"order": 29, **body})
        assert first in (200, 202)
        status, payload, headers = _call(
            qos_server, "POST", "/solve", {"order": 31, **body}
        )
        assert status == 429
        assert payload["retry"] is True
        assert int(headers["Retry-After"]) >= 1
        # Other tenants are unaffected.
        ok, _, _ = _call(
            qos_server,
            "POST",
            "/solve",
            {"order": 12, "wait": True},
            headers={"X-Repro-Tenant": "other"},
        )
        assert ok == 200

    def test_stats_exposes_latency_histograms(self, qos_server):
        status, payload, _ = _call(qos_server, "GET", "/stats")
        assert status == 200
        assert "latency" in payload
        assert "overall" in payload["latency"]
        for lane in ("interactive", "batch", "background"):
            assert lane in payload["latency"]
        overall = payload["latency"]["overall"]
        if overall["count"]:
            assert "p99_ms" in overall and "p50_ms" in overall


class TestQoSOverAsyncHTTP:
    """The async front-end speaks the same lane/tenant/429 dialect."""

    @pytest.fixture()
    def async_server(self, tmp_path):
        from repro.service.api import ServiceConfig
        from repro.service.http_async import AsyncServiceHTTPServer

        srv = AsyncServiceHTTPServer(
            ("127.0.0.1", 0),
            config=ServiceConfig(
                store_path=str(tmp_path / "aqos.db"),
                n_workers=2,
                default_max_time=120.0,
                lanes="default",
                quotas="capped=0:1",
            ),
        )
        srv.start_background()
        yield srv
        srv.stop(drain=False)

    def test_quota_429_and_tenant_header(self, async_server):
        body = {"max_time": 0.2, "use_store": False, "use_constructions": False}
        first, _, _ = _call(
            async_server,
            "POST",
            "/solve",
            {"order": 33, **body},
            headers={"X-Repro-Tenant": "capped"},
        )
        assert first in (200, 202)
        status, payload, resp_headers = _call(
            async_server,
            "POST",
            "/solve",
            {"order": 34, **body},
            headers={"X-Repro-Tenant": "capped"},
        )
        assert status == 429
        assert payload["retry"] is True
        assert int(resp_headers["Retry-After"]) >= 1

    def test_batch_item_quota_maps_to_429(self, async_server):
        body = {"max_time": 0.2, "use_store": False, "use_constructions": False}
        status, payload, _ = _call(
            async_server,
            "POST",
            "/solve-batch",
            {
                "items": [{"order": 35, **body}, {"order": 36, **body}],
                "tenant": "capped",
            },
        )
        assert status == 200
        codes = [r.get("code") for r in payload["results"]]
        # The burst-1 bucket admits one distinct item; the other is a
        # per-item 429 slot, not a whole-batch failure.
        assert codes.count(429) == 1
        statuses = [r.get("status") for r in payload["results"]]
        assert "pending" in statuses or "done" in statuses

    def test_unknown_lane_is_400(self, async_server):
        status, payload, _ = _call(
            async_server, "POST", "/solve", {"order": 12, "lane": "vip"}
        )
        assert status == 400
        assert "unknown lane" in payload["error"]


class TestStoreCache:
    def test_read_through_cache_hits_and_evictions(self, tmp_path):
        import numpy as np

        from repro.service.store import SolutionStore

        store = SolutionStore(tmp_path / "cache.db", cache_size=2)
        sols = {
            n: np.array(sol, dtype=np.int64)
            for n, sol in ((3, [0, 2, 1]), (4, [0, 1, 3, 2]), (5, [0, 2, 3, 1, 4]))
        }
        for sol in sols.values():
            store.insert("costas", sol)
        # insert() write-through put 3 entries into a capacity-2 cache.
        snap = store.snapshot()
        assert snap["cache"] == {"entries": 2, "capacity": 2}
        assert snap["cache_evictions"] >= 1
        before = store.snapshot()["cache_hits"]
        got = store.get("costas", 5)
        assert got is not None
        assert store.snapshot()["cache_hits"] == before + 1
        # Cache hits must not bump the persistent per-row counter.
        assert store.snapshot()["persistent_hits"] == 0
        # An evicted order falls back to disk and repopulates the cache.
        got3 = store.get("costas", 3)
        assert got3 is not None and list(got3) == [0, 2, 1]

    def test_cache_disabled_by_default(self, tmp_path):
        import numpy as np

        from repro.service.store import SolutionStore

        store = SolutionStore(tmp_path / "plain.db")
        store.insert("costas", np.array([0, 2, 1], dtype=np.int64))
        assert store.get("costas", 3) is not None
        snap = store.snapshot()
        assert snap["cache"] == {"entries": 0, "capacity": 0}
        assert snap["cache_hits"] == 0
        # Disk hits still bump the persistent per-row counter.
        assert snap["persistent_hits"] == 1

    def test_cached_arrays_are_read_only(self, tmp_path):
        import numpy as np

        from repro.service.store import SolutionStore

        store = SolutionStore(tmp_path / "ro.db", cache_size=4)
        store.insert("costas", np.array([0, 2, 1], dtype=np.int64))
        got = store.get("costas", 3)
        got2 = store.get("costas", 3)
        assert got is not None and got2 is not None
        # Mutating one caller's view must not corrupt the shared cache.
        if not got.flags.writeable:
            with pytest.raises((ValueError, RuntimeError)):
                got[0] = 99
        else:  # a defensive copy is equally acceptable
            got[0] = 99
            assert list(got2) != list(got) or got2 is not got
