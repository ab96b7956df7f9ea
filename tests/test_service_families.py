"""Multi-family serving tests: every registered problem family through the
service facade and the HTTP front-end, plus the HTTP body-handling fixes.

The acceptance criterion of the problem-registry PR: ``submit(kind=k)`` and
``POST /solve {"kind": k}`` succeed for all four registered families, with
store-tier answers deduplicated under each family's own symmetry group, and
the Costas path unchanged.
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.problems import get_family, list_families
from repro.service.api import ServiceConfig, SolverService
from repro.service.http_async import AsyncServiceHTTPServer

#: Orders small enough that even the search tier answers within seconds.
_SERVE_ORDERS = {"costas": 12, "queens": 16, "all-interval": 12, "magic-square": 4}
_SEARCH_ORDERS = {"costas": 9, "queens": 8, "all-interval": 8, "magic-square": 3}
#: The full-size orders of the same two checks (``slow`` cases).
_FULL_SERVE_ORDERS = {"costas": 16, "queens": 40, "all-interval": 24, "magic-square": 4}
_FULL_SEARCH_ORDERS = {"costas": 10, "queens": 9, "all-interval": 9, "magic-square": 3}
#: Repeat requests for a served instance, every one of which must hit the store.
_STORE_HIT_REPEATS = 20
_KINDS = [f.name for f in list_families()]


def _orders(small, full):
    """(kind, order) cases: the small orders, plus the full ones that differ
    as ``slow`` cases."""
    return [(kind, small[kind]) for kind in _KINDS] + [
        pytest.param(kind, full[kind], marks=pytest.mark.slow)
        for kind in _KINDS
        if full[kind] != small[kind]
    ]


@pytest.fixture()
def service(tmp_path):
    config = ServiceConfig(
        store_path=str(tmp_path / "families.db"),
        n_workers=2,
        default_max_time=120.0,
    )
    with SolverService(config) as svc:
        yield svc


@pytest.fixture()
def server(tmp_path):
    srv = AsyncServiceHTTPServer(
        ("127.0.0.1", 0),
        config=ServiceConfig(
            store_path=str(tmp_path / "families-http.db"),
            n_workers=2,
            default_max_time=120.0,
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


class TestServiceAllFamilies:
    @pytest.mark.parametrize("kind,order", _orders(_SERVE_ORDERS, _FULL_SERVE_ORDERS))
    def test_submit_solves_and_second_request_hits_store(self, service, kind, order):
        family = get_family(kind)
        first = service.submit(order, kind=kind).result(timeout=120)
        assert first.solved and first.kind == kind
        assert family.validator(np.asarray(first.solution))
        # Constructible families answer at the construction tier, exactly
        # like Welch/Lempel/Golomb answer Costas orders.
        if family.try_construct(order) is not None:
            assert first.source == "construction"
        for _ in range(_STORE_HIT_REPEATS):
            again = service.submit(order, kind=kind).result(timeout=30)
            assert again.source == "store"
            assert family.validator(np.asarray(again.solution))

    @pytest.mark.parametrize("kind,order", _orders(_SEARCH_ORDERS, _FULL_SEARCH_ORDERS))
    def test_search_tier_runs_for_every_family(self, service, kind, order):
        family = get_family(kind)
        response = service.submit(
            order, kind=kind, use_store=False, use_constructions=False
        ).result(timeout=120)
        assert response.solved and response.source == "search"
        assert family.validator(np.asarray(response.solution))
        # The search result warmed the store under the family's group.
        assert service.store.contains_class(kind, np.asarray(response.solution))

    def test_aliases_accepted_and_normalised(self, service):
        response = service.submit(12, kind="n-queens").result(timeout=30)
        assert response.solved and response.kind == "queens"

    def test_store_rows_are_deduplicated_per_family_group(self, service):
        """After a solve, inserting any group image of the answer is a
        duplicate — the store deduped under the family's own group."""
        for kind in ("queens", "all-interval"):
            family = get_family(kind)
            order = _SERVE_ORDERS[kind]
            response = service.submit(order, kind=kind).result(timeout=120)
            solution = np.asarray(response.solution)
            for image in family.symmetry.images(solution):
                assert not service.store.insert(kind, image)
            assert service.store.count(kind, family.instance_size(order)) == 1

    def test_per_kind_stats(self, service):
        service.submit(12, kind="queens").result(timeout=30)
        service.submit(12, kind="queens").result(timeout=30)
        service.submit(12, kind="costas").result(timeout=30)
        stats = service.stats()
        assert stats["kinds"]["queens"]["requests"] == 2
        assert stats["kinds"]["queens"]["construction"] == 1
        assert stats["kinds"]["queens"]["store"] == 1
        assert stats["kinds"]["costas"]["requests"] == 1
        assert stats["store"]["by_kind"]["queens"]["stored_classes"] >= 1

    def test_model_options_are_part_of_the_coalescing_identity(self):
        key_a = SolverService._instance_key(
            "costas", 15, {"model_options": {"err_weight": "constant"}}
        )
        key_b = SolverService._instance_key("costas", 15, {"model_options": {}})
        key_c = SolverService._instance_key(
            "costas", 15, {"model_options": {"err_weight": "constant"}}
        )
        assert key_a != key_b
        assert key_a == key_c
        # Different kinds never coalesce, even at equal orders.
        assert SolverService._instance_key(
            "queens", 15, {"model_options": {}}
        ) != SolverService._instance_key("costas", 15, {"model_options": {}})

    def test_model_options_reach_the_workers(self, service):
        response = service.submit(
            9,
            kind="costas",
            model_options={"err_weight": "constant", "dedicated_reset": False},
            use_store=False,
            use_constructions=False,
        ).result(timeout=120)
        assert response.solved and response.source == "search"


class TestHTTPAllFamilies:
    @pytest.mark.parametrize("kind", _KINDS)
    def test_post_solve_round_trip(self, server, kind):
        family = get_family(kind)
        body = {"order": _SERVE_ORDERS[kind], "kind": kind, "wait": True}
        status, payload = _call(server, "POST", "/solve", body)
        assert status == 200, payload
        assert payload["solved"] and payload["kind"] == kind
        assert family.validator(np.asarray(payload["solution"]))
        status, payload = _call(server, "POST", "/solve", body)
        assert status == 200 and payload["source"] == "store", payload

    def test_unknown_kind_is_400(self, server):
        status, payload = _call(
            server, "POST", "/solve", {"order": 9, "kind": "sudoku"}
        )
        assert status == 400
        assert "unknown problem kind" in payload["error"]

    def test_solver_kind_mismatch_is_400(self, server):
        status, payload = _call(
            server,
            "POST",
            "/solve",
            {"order": 8, "kind": "queens", "solver": "cp"},
        )
        assert status == 400
        assert "does not accept" in payload["error"]

    def test_bad_model_options_is_400(self, server):
        status, _ = _call(
            server,
            "POST",
            "/solve",
            {"order": 9, "kind": "costas", "model_options": ["constant"]},
        )
        assert status == 400

    def test_problems_endpoint_lists_families(self, server):
        status, payload = _call(server, "GET", "/problems")
        assert status == 200
        listing = {entry["kind"]: entry for entry in payload["problems"]}
        assert set(listing) == {"costas", "queens", "all-interval", "magic-square"}
        assert listing["costas"]["symmetry_group"] == "dihedral-8"
        assert listing["magic-square"]["symmetry_group"] == "grid-dihedral-8"
        assert listing["magic-square"]["symmetry_order"] == 8
        assert listing["queens"]["has_construction"] is True

    def test_stats_reports_per_kind_counters(self, server):
        _call(server, "POST", "/solve", {"order": 12, "kind": "queens", "wait": True})
        status, payload = _call(server, "GET", "/stats")
        assert status == 200
        assert payload["kinds"]["queens"]["requests"] >= 1


class TestChunkedBodiesRejected:
    def test_chunked_post_solve_is_400_not_defaults(self, server):
        """A chunked body has no Content-Length; treating it as empty would
        silently solve with default parameters.  It must be a clean 400."""
        body = json.dumps({"order": 9, "kind": "queens"}).encode()
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        # Deliberately no "Connection: close": the server must close anyway,
        # because the unread chunked body would desync a reused connection
        # (its bytes would be parsed as the next request line).
        request = (
            b"POST /solve HTTP/1.1\r\n"
            b"Host: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n" + chunked
        )
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(request)
            sock.settimeout(10)
            response = b""
            while True:
                piece = sock.recv(4096)
                if not piece:
                    break
                response += piece
        status_line, _, rest = response.partition(b"\r\n")
        assert b"400" in status_line, response[:200]
        assert b"Transfer-Encoding" in rest
        assert b"Connection: close" in rest
        # recv() returning b"" above proves the server closed the socket
        # instead of waiting to misparse the leftover body.
