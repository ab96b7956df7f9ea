"""Tests for the HTTP front-end's event-loop capabilities: keep-alive,
``POST /solve-batch`` and ``GET /events/<id>``, including the error paths:
malformed batch bodies, per-item failures that must not poison the batch,
SSE disconnects mid-solve, and 503 semantics under batch.  The load gates at
the end drive a server in its own process: simultaneous waiting clients must
all be answered, and one batch must beat the same solves sent one by one.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import statistics
import time
import urllib.error
import urllib.request

import pytest

from repro.service.api import ServiceConfig
from repro.service.http_async import AsyncServiceHTTPServer

from test_service_http import _call


@pytest.fixture()
def server(tmp_path):
    srv = AsyncServiceHTTPServer(
        ("127.0.0.1", 0),
        config=ServiceConfig(
            store_path=str(tmp_path / "async-http.db"),
            n_workers=2,
            default_max_time=120.0,
        ),
    )
    srv.start_background()
    yield srv
    srv.stop(drain=False)


class TestKeepAlive:
    def test_many_requests_on_one_connection(self, server):
        """HTTP/1.1 keep-alive: several requests ride one TCP connection."""
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            for _ in range(5):
                conn.request(
                    "POST",
                    "/solve",
                    json.dumps({"order": 12, "wait": True}),
                    {"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                payload = json.loads(resp.read())
                assert resp.status == 200 and payload["solved"]
        finally:
            conn.close()


class TestBatchEndpoint:
    def test_batch_of_constructibles_resolves_inline(self, server):
        items = [
            {"order": 12, "kind": "costas"},
            {"order": 16, "kind": "queens"},
            {"order": 10, "kind": "all-interval"},
        ]
        status, payload = _call(
            server, "POST", "/solve-batch", {"items": items, "wait": True}
        )
        assert status == 200 and payload["count"] == 3
        for item, result in zip(items, payload["results"]):
            assert result["status"] == "done", result
            assert result["solved"] and result["kind"] == item["kind"]
            assert result["source"] in ("construction", "store")
        # No search job ran: the construction tier answered everything.
        assert server.service.pool.stats()["jobs_done"] == 0
        status, stats = _call(server, "GET", "/stats")
        assert stats["batches"] == 1

    def test_mixed_unknown_kinds_fail_per_item_not_whole_batch(self, server):
        items = [
            {"order": 12, "kind": "costas"},
            {"order": 9, "kind": "sudoku"},  # unknown family
            {"order": 2, "kind": "queens"},  # below min_order
            {"order": 12, "kind": "queens", "solver": "cp"},  # kind mismatch
            {"order": 16, "kind": "queens"},
        ]
        status, payload = _call(
            server, "POST", "/solve-batch", {"items": items, "wait": True}
        )
        assert status == 200 and payload["count"] == 5
        results = payload["results"]
        assert results[0]["status"] == "done" and results[0]["solved"]
        assert results[4]["status"] == "done" and results[4]["solved"]
        for bad in (results[1], results[2], results[3]):
            assert bad["status"] == "error" and bad["code"] == 400, bad
        assert "unknown problem kind" in results[1]["error"]
        assert "order must be >=" in results[2]["error"]
        assert "does not accept" in results[3]["error"]

    def test_empty_batch_is_400(self, server):
        status, payload = _call(server, "POST", "/solve-batch", {"items": []})
        assert status == 400 and "at least one" in payload["error"]

    def test_non_list_items_is_400(self, server):
        status, _ = _call(server, "POST", "/solve-batch", {"items": {"order": 12}})
        assert status == 400
        status, _ = _call(server, "POST", "/solve-batch", {"order": 12})
        assert status == 400
        # A non-object item fails that slot, not the request.
        status, payload = _call(
            server, "POST", "/solve-batch", {"items": [5, {"order": 12}], "wait": True}
        )
        assert status == 200
        assert payload["results"][0]["status"] == "error"
        assert payload["results"][0]["code"] == 400
        assert payload["results"][1]["status"] == "done"

    def test_oversized_batch_is_400(self, tmp_path):
        srv = AsyncServiceHTTPServer(
            ("127.0.0.1", 0),
            config=ServiceConfig(
                store_path=str(tmp_path / "cap.db"),
                n_workers=1,
                max_batch_items=4,
            ),
        )
        srv.start_background()
        try:
            items = [{"order": 12}] * 5
            status, payload = _call(srv, "POST", "/solve-batch", {"items": items})
            assert status == 400 and "exceeds" in payload["error"]
        finally:
            srv.stop(drain=False)

    def test_identical_items_coalesce_onto_one_job(self, server):
        items = [{"order": 14, "use_constructions": False}] * 6
        status, payload = _call(
            server, "POST", "/solve-batch", {"items": items, "wait": True}
        )
        assert status == 200
        assert all(r["status"] == "done" and r["solved"] for r in payload["results"])
        # Six identical items share one search (coalesced in the same pass).
        assert server.service.pool.stats()["jobs_done"] <= 2
        assert server.service.scheduler.stats()["coalesced"] >= 5

    def test_saturation_is_per_item_503_semantics(self, tmp_path):
        srv = AsyncServiceHTTPServer(
            ("127.0.0.1", 0),
            config=ServiceConfig(
                store_path=str(tmp_path / "sat.db"),
                n_workers=1,
                max_queue_depth=1,
                default_max_time=300.0,
            ),
        )
        srv.start_background()
        try:
            # Park the worker, then batch three distinct search instances:
            # the queue (depth 1) admits at most the first; the rest must be
            # per-item 503 slots, not a whole-batch failure.
            _call(srv, "POST", "/solve", {"order": 23, "use_constructions": False})
            time.sleep(0.3)
            items = [
                {"order": 24, "use_constructions": False},
                {"order": 25, "use_constructions": False},
                {"order": 26, "use_constructions": False},
            ]
            status, payload = _call(srv, "POST", "/solve-batch", {"items": items})
            assert status == 200
            results = payload["results"]
            saturated = [r for r in results if r.get("code") == 503]
            admitted = [r for r in results if r.get("status") == "pending"]
            assert saturated, results
            assert all(r.get("retry") is True for r in saturated)
            assert len(admitted) + len(saturated) == 3
            # Admitted ids are pollable like any /solve submission.
            for r in admitted:
                code, _ = _call(srv, "GET", f"/result/{r['request_id']}")
                assert code == 202
        finally:
            srv.stop(drain=False)

    def test_batch_without_wait_returns_pollable_ids(self, server):
        items = [{"order": 9, "use_constructions": False, "use_store": False}]
        status, payload = _call(server, "POST", "/solve-batch", {"items": items})
        assert status == 200
        (result,) = payload["results"]
        assert result["status"] == "pending"
        rid = result["request_id"]
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            code, body = _call(server, "GET", f"/result/{rid}")
            if code == 200:
                assert body["solved"]
                return
            time.sleep(0.05)
        pytest.fail("batch-submitted request never resolved")


def _open_sse(server, request_id, timeout=60.0):
    """Raw-socket SSE client; returns (sock, buffered file) after headers."""
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=timeout)
    sock.sendall(
        f"GET /events/{request_id} HTTP/1.1\r\n"
        f"Host: 127.0.0.1\r\nAccept: text/event-stream\r\n\r\n".encode()
    )
    reader = sock.makefile("rb")
    status_line = reader.readline()
    headers = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    return sock, reader, status_line, headers


def _read_events(reader, *, until_terminal=True, deadline=120.0):
    """Parse SSE blocks into (event, data) tuples."""
    events = []
    block: list = []
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline:
        line = reader.readline()
        if not line:
            break
        line = line.rstrip(b"\r\n")
        if line:
            block.append(line.decode())
            continue
        if not block:
            continue
        name = next((l[7:] for l in block if l.startswith("event: ")), None)
        data = next((l[6:] for l in block if l.startswith("data: ")), None)
        block = []
        if name is None:  # keep-alive comment
            continue
        events.append((name, json.loads(data)))
        if until_terminal and name in ("done", "failed", "cancelled"):
            break
    return events


class TestEventsEndpoint:
    def test_unknown_request_id_is_404(self, server):
        sock, reader, status_line, _ = _open_sse(server, "ghost")
        assert b"404" in status_line
        sock.close()

    def test_settled_request_streams_snapshot_and_done(self, server):
        status, payload = _call(server, "POST", "/solve", {"order": 12, "wait": True})
        assert status == 200
        rid = payload["request_id"]
        sock, reader, status_line, headers = _open_sse(server, rid)
        assert b"200" in status_line
        assert headers["content-type"] == "text/event-stream"
        events = _read_events(reader)
        sock.close()
        names = [name for name, _ in events]
        assert names[0] == "status" and names[-1] == "done"
        done = events[-1][1]
        assert done["solved"] and done["request_id"] == rid

    def test_search_request_streams_progress_then_done(self, tmp_path):
        # The walk's target cost of -1 is unreachable, so it never finishes
        # early: it runs its whole 1 s budget, posting a sample every 20 ms,
        # and ends unsolved with ``done``.
        server = AsyncServiceHTTPServer(
            ("127.0.0.1", 0),
            config=ServiceConfig(
                store_path=str(tmp_path / "sse-progress.db"),
                n_workers=2,
                default_max_time=120.0,
                progress_interval=0.02,
            ),
        )
        server.start_background()
        try:
            self._stream_progress(server)
        finally:
            server.stop(drain=False)

    def _stream_progress(self, server):
        status, payload = _call(
            server,
            "POST",
            "/solve",
            {
                "order": 16,
                "use_constructions": False,
                "use_store": False,
                "solver": {"name": "compiled", "params": {"target_cost": -1}},
                "max_time": 1.0,
            },
        )
        assert status == 202
        rid = payload["request_id"]
        sock, reader, status_line, _ = _open_sse(server, rid)
        events = _read_events(reader)
        sock.close()
        names = [name for name, _ in events]
        assert names[0] == "status"
        assert names[-1] == "done"
        progress = [data for name, data in events if name == "progress"]
        assert progress, f"no progress events in {names}"
        sample = progress[0]
        assert sample["iteration"] >= 0 and "cost" in sample
        assert sample["request_id"] == rid
        # The stream ended: its subscription must be gone.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if server.service.stats()["progress_subscribers"] == 0:
                break
            time.sleep(0.05)
        assert server.service.stats()["progress_subscribers"] == 0

    def test_client_disconnect_mid_solve_releases_subscription(self, tmp_path):
        """An SSE client that vanishes mid-solve must not leak its callback:
        the server notices the dead peer and unsubscribes."""
        srv = AsyncServiceHTTPServer(
            ("127.0.0.1", 0),
            config=ServiceConfig(
                store_path=str(tmp_path / "sse.db"),
                n_workers=1,
                default_max_time=300.0,
            ),
        )
        srv.start_background()
        try:
            status, payload = _call(
                srv, "POST", "/solve", {"order": 22, "use_constructions": False}
            )
            assert status == 202
            rid = payload["request_id"]
            sock, reader, status_line, _ = _open_sse(srv, rid)
            assert b"200" in status_line
            # Read the initial snapshot, then vanish without saying goodbye.
            events = _read_events(reader, until_terminal=False, deadline=1.5)
            assert events and events[0][0] == "status"
            assert srv.service.stats()["progress_subscribers"] == 1
            # Close the file object too: makefile() holds a dup of the fd,
            # and the FIN only goes out once both are gone.
            reader.close()
            sock.close()
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if srv.service.stats()["progress_subscribers"] == 0:
                    break
                time.sleep(0.1)
            assert srv.service.stats()["progress_subscribers"] == 0
            # The abandoned request is still live and cancellable.
            code, body = _call(srv, "POST", f"/cancel/{rid}")
            assert code == 200 and body["cancelled"]
        finally:
            srv.stop(drain=False)

    def test_coalesced_requests_each_get_their_own_stream(self, server):
        """Two requests sharing one solve both see progress and both finish."""
        body = {"order": 15, "use_constructions": False, "use_store": False}
        status1, p1 = _call(server, "POST", "/solve", body)
        status2, p2 = _call(server, "POST", "/solve", body)
        rids = []
        for status, payload in ((status1, p1), (status2, p2)):
            if status == 202:
                rids.append(payload["request_id"])
        if len(rids) < 2:
            pytest.skip("solve resolved before the second request arrived")
        streams = [_open_sse(server, rid) for rid in rids]
        try:
            for (sock, reader, status_line, _), rid in zip(streams, rids):
                events = _read_events(reader)
                names = [name for name, _ in events]
                assert names[-1] == "done", (rid, names)
                assert events[-1][1]["request_id"] == rid
        finally:
            for sock, reader, _, _ in streams:
                sock.close()


# ------------------------------------------------------------------ load gates
#: The store-warm instance every ladder client asks for.
_LADDER_ORDER = 14

#: Orders cycled through the batch items: constructible, or stored by the
#: warm-up pass, so both sides of the comparison measure serving overhead.
_BATCH_ORDERS = [12, 13, 14, 16, 17, 18, 27, 29]


async def post_solve(port: int, body: dict, timeout: float):
    """POST /solve on a connection of its own and read the whole response:
    ``(status, raw response)``, status 0 when no well-formed response
    arrived within *timeout* per step."""
    payload = json.dumps(body).encode()
    request = (
        f"POST /solve HTTP/1.1\r\nHost: test\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode() + payload
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection("127.0.0.1", port), timeout
        )
        writer.write(request)
        await asyncio.wait_for(writer.drain(), timeout)
        data = await asyncio.wait_for(reader.read(), timeout)
        writer.close()
        return int(data.split(b"\r\n", 1)[0].split(b" ")[1]), data
    except Exception:
        return 0, b""


async def _ladder_level(port: int, clients: int, deadline: float = 10.0) -> int:
    """Fire *clients* simultaneous waiting solves; how many were answered."""
    body = {"order": _LADDER_ORDER, "wait": True}
    answers = await asyncio.gather(
        *[post_solve(port, body, deadline) for _ in range(clients)]
    )
    return sum(status == 200 and b'"solved": true' in data for status, data in answers)


def _keepalive_post(conn: http.client.HTTPConnection, path: str, body: dict):
    conn.request("POST", path, json.dumps(body), {"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


class TestLoadGates:
    @pytest.mark.parametrize(
        "levels,required",
        [
            ([10, 20, 40, 80, 160], 160),
            pytest.param(
                [25, 50, 100, 200, 400, 800, 1000, 1600], 1000, marks=pytest.mark.slow
            ),
        ],
    )
    def test_simultaneous_waiting_clients_are_sustained(self, served, levels, required):
        """Climb a ladder of simultaneous ``wait=true`` clients on one
        store-warm instance; a level is sustained when every client gets a
        correct answer within 10 s."""
        with served(n_workers=1, default_max_time=120.0) as port:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            status, payload = _keepalive_post(
                conn, "/solve", {"order": _LADDER_ORDER, "wait": True}
            )
            conn.close()
            assert status == 200 and payload["solved"]
            sustained = 0
            for clients in levels:
                if asyncio.run(_ladder_level(port, clients)) < clients:
                    break
                sustained = clients
        print(f"sustained {sustained} simultaneous clients")
        assert sustained >= required

    @pytest.mark.parametrize(
        "n_items,rounds,floor",
        [(16, 3, 2.0), pytest.param(32, 5, 5.0, marks=pytest.mark.slow)],
    )
    def test_batch_amortises_sequential_solves(self, served, n_items, rounds, floor):
        """One ``/solve-batch`` of store-warm items against the same items as
        sequential ``/solve`` calls on one keep-alive connection (the
        strongest sequential rival), median of *rounds*."""
        items = [{"order": _BATCH_ORDERS[i % len(_BATCH_ORDERS)]} for i in range(n_items)]
        sequential, batched = [], []
        with served(n_workers=1, default_max_time=120.0) as port:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            for item in items:
                status, payload = _keepalive_post(conn, "/solve", {**item, "wait": True})
                assert status == 200 and payload["solved"], payload
            for _ in range(rounds):
                start = time.perf_counter()
                for item in items:
                    status, payload = _keepalive_post(
                        conn, "/solve", {**item, "wait": True}
                    )
                    assert status == 200 and payload["solved"], payload
                sequential.append(time.perf_counter() - start)
                start = time.perf_counter()
                status, payload = _keepalive_post(
                    conn, "/solve-batch", {"items": items, "wait": True}
                )
                batched.append(time.perf_counter() - start)
                assert status == 200, payload
                assert all(r["status"] == "done" and r["solved"] for r in payload["results"])
            conn.close()
        amortisation = statistics.median(sequential) / statistics.median(batched)
        print(f"batch of {n_items} amortises sequential solves {amortisation:.1f}x")
        assert amortisation >= floor
