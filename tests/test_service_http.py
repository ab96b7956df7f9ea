"""Tests for the HTTP front-end's /solve, /result, /cancel, /stats and
/healthz routes."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.costas.array import is_costas
from repro.service.api import ServiceConfig, SolverService
from repro.service.http_async import AsyncServiceHTTPServer


@pytest.fixture()
def server(tmp_path):
    srv = AsyncServiceHTTPServer(
        ("127.0.0.1", 0),
        config=ServiceConfig(
            store_path=str(tmp_path / "http.db"), n_workers=2, default_max_time=120.0
        ),
    )
    srv.start_background()
    yield srv
    srv.stop(drain=False)


def _call(server, method, path, body=None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8") or "{}")


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = _call(server, "GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"
        assert payload["pool"]["alive_workers"] == 2

    def test_solve_wait_constructible(self, server):
        status, payload = _call(
            server, "POST", "/solve", {"order": 12, "wait": True}
        )
        assert status == 200
        assert payload["solved"] and payload["source"] == "construction"
        assert is_costas(payload["solution"])

    def test_store_hit_on_second_request(self, server):
        _call(server, "POST", "/solve", {"order": 10, "wait": True})
        status, payload = _call(server, "POST", "/solve", {"order": 10, "wait": True})
        assert status == 200 and payload["source"] == "store"

    def test_async_submit_and_poll(self, server):
        status, payload = _call(
            server, "POST", "/solve", {"order": 9, "use_constructions": False}
        )
        # Either resolved inline (store warm) or pending.
        assert status in (200, 202)
        if status == 202:
            rid = payload["request_id"]
            deadline = time.monotonic() + 120
            while status == 202 and time.monotonic() < deadline:
                time.sleep(0.05)
                status, payload = _call(server, "GET", f"/result/{rid}")
        assert status == 200 and payload["solved"]
        assert payload["source"] in ("search", "store")

    def test_unknown_request_id_404(self, server):
        status, _ = _call(server, "GET", "/result/does-not-exist")
        assert status == 404

    def test_bad_body_400(self, server):
        """One verdict per solve object: each malformed one is a 400 from
        /solve and a per-item 400 slot from /solve-batch."""
        bad_bodies = [
            {"not_order": 1},
            {"order": "abc"},
            {"order": 2},
            # Malformed optional fields must be a clean 400, not a dropped
            # connection from an uncaught ValueError.
            {"order": 12, "priority": "high"},
            {"order": 12, "max_time": "fast"},
            {"order": 12, "model_options": ["constant"]},
            {"order": 12, "deadline": "soon"},
        ]
        for body in bad_bodies:
            assert _call(server, "POST", "/solve", body)[0] == 400, body
        status, payload = _call(server, "POST", "/solve-batch", {"items": bad_bodies})
        assert status == 200
        slots = [(r["status"], r["code"]) for r in payload["results"]]
        assert slots == [("error", 400)] * len(bad_bodies), payload

    def test_unknown_path_404(self, server):
        assert _call(server, "GET", "/nope")[0] == 404
        assert _call(server, "POST", "/nope")[0] == 404

    def test_stats_endpoint(self, server):
        _call(server, "POST", "/solve", {"order": 11, "wait": True})
        status, payload = _call(server, "GET", "/stats")
        assert status == 200
        assert {"store", "scheduler", "pool"} <= set(payload)

    def test_cancel_endpoint(self, tmp_path):
        srv = AsyncServiceHTTPServer(
            ("127.0.0.1", 0),
            config=ServiceConfig(
                store_path=str(tmp_path / "cx.db"), n_workers=1, default_max_time=300.0
            ),
        )
        srv.start_background()
        try:
            # Park the single worker on a hard order, then cancel a queued one.
            _call(srv, "POST", "/solve", {"order": 21, "use_constructions": False})
            status, payload = _call(
                srv, "POST", "/solve", {"order": 22, "use_constructions": False}
            )
            assert status == 202
            rid = payload["request_id"]
            status, payload = _call(srv, "POST", f"/cancel/{rid}")
            assert status == 200 and payload["cancelled"]
            status, payload = _call(srv, "GET", f"/result/{rid}")
            assert status == 409 and payload["status"] == "cancelled"
            # Cancelling an already-settled request is a 409; an id the
            # service never saw is a 404 — the two conditions are distinct.
            assert _call(srv, "POST", f"/cancel/{rid}")[0] == 409
            assert _call(srv, "POST", "/cancel/ghost")[0] == 404
        finally:
            srv.stop(drain=False)

    def test_backpressure_returns_503(self, tmp_path):
        srv = AsyncServiceHTTPServer(
            ("127.0.0.1", 0),
            config=ServiceConfig(
                store_path=str(tmp_path / "bp.db"),
                n_workers=1,
                max_queue_depth=1,
                default_max_time=300.0,
            ),
        )
        srv.start_background()
        try:
            _call(srv, "POST", "/solve", {"order": 23, "use_constructions": False})
            time.sleep(0.3)  # first job moves to RUNNING, freeing the queue slot
            _call(srv, "POST", "/solve", {"order": 24, "use_constructions": False})
            status, payload = _call(
                srv, "POST", "/solve", {"order": 25, "use_constructions": False}
            )
            assert status == 503 and payload.get("retry") is True
        finally:
            srv.stop(drain=False)


class TestCoalescedBurstOverHTTP:
    def test_burst_of_identical_requests_shares_one_solve(self, server):
        """A concurrent burst coalesces to one solve and the second burst is
        answered from the store."""
        results = []
        lock = threading.Lock()

        def client():
            status, payload = _call(
                server,
                "POST",
                "/solve",
                {"order": 14, "use_constructions": False, "wait": True},
            )
            with lock:
                results.append((status, payload))

        threads = [threading.Thread(target=client) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert len(results) == 6
        assert all(status == 200 and payload["solved"] for status, payload in results)
        assert server.service.pool.stats()["jobs_done"] <= 2  # burst coalesced
        # Second burst: all store hits, zero new solves.
        before = server.service.pool.stats()["jobs_done"]
        for _ in range(4):
            status, payload = _call(
                server, "POST", "/solve", {"order": 14, "use_constructions": False, "wait": True}
            )
            assert status == 200 and payload["source"] == "store"
        assert server.service.pool.stats()["jobs_done"] == before


class TestRequestRetention:
    def test_oldest_settled_requests_are_evicted_and_pending_survive(
        self, tmp_path, monkeypatch
    ):
        """Beyond the retention limit the oldest settled requests are
        forgotten; pending ones stay, however old they are."""
        limit = 4
        monkeypatch.setattr(SolverService, "_MAX_RETAINED_REQUESTS", limit)
        srv = AsyncServiceHTTPServer(
            ("127.0.0.1", 0),
            config=ServiceConfig(
                store_path=str(tmp_path / "retain.db"),
                n_workers=1,
                default_max_time=300.0,
            ),
        )
        srv.start_background()
        service = srv.service
        try:
            # Park the single worker on a hard order, so the search queued
            # behind it stays pending while the store hits go by.
            blocker = service.submit(21, use_store=False, use_constructions=False)
            pending = service.submit(9, use_store=False, use_constructions=False)
            hits = []
            for _ in range(8):
                hit = service.submit(12)
                assert hit.done()
                hits.append(hit.request_id)
                assert len(service._requests) <= limit
            assert not pending.done()
            evicted, kept = hits[:-2], hits[-2:]
            for rid in evicted:
                assert service.request(rid) is None
                assert _call(srv, "GET", f"/result/{rid}")[0] == 404
                assert service.cancel(rid) is False
            for rid in kept:
                status, payload = _call(srv, "GET", f"/result/{rid}")
                assert status == 200 and payload["source"] == "store"
            assert _call(srv, "GET", f"/result/{pending.request_id}")[0] == 202
            assert service.cancel(blocker.request_id)
            assert pending.result(timeout=120).source == "search"
            status, payload = _call(srv, "GET", f"/result/{pending.request_id}")
            assert status == 200 and payload["solved"]
        finally:
            srv.stop(drain=False)


class TestExecutorHops:
    @pytest.mark.parametrize(
        "body, source",
        [
            ({"order": 10, "wait": True}, "store"),
            (
                {"order": 9, "use_store": False, "use_constructions": False, "wait": True},
                "search",
            ),
        ],
        ids=["store-hit", "wait-search"],
    )
    def test_solve_takes_one_executor_hop(self, server, monkeypatch, body, source):
        """/solve answers from the request submit returned: one blocking
        call on the executor, not a second one to look it up by id."""
        _call(server, "POST", "/solve", {"order": 10, "wait": True})  # warm
        hops = []
        submit = server._executor.submit

        def counting_submit(fn, *args, **kwargs):
            hops.append(fn)
            return submit(fn, *args, **kwargs)

        monkeypatch.setattr(server._executor, "submit", counting_submit)
        status, payload = _call(server, "POST", "/solve", body)
        assert status == 200 and payload["source"] == source
        assert len(hops) == 1
