"""End-to-end tests for heterogeneous portfolios across the stack:
multi-walk driver, worker pool, service facade and HTTP API.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.params import ASParameters
from repro.costas.array import is_costas
from repro.exceptions import SolverError
from repro.experiments.base import costas_factory
from repro.parallel.multiwalk import MultiWalkSolver
from repro.service.api import ServiceConfig, SolverService


class TestMultiWalkPortfolio:
    def test_solver_spec_selects_strategy(self):
        solver = MultiWalkSolver(
            costas_factory(8), solver="tabu", n_workers=1, seed_root=0
        )
        outcome = solver.solve(max_time=60.0)
        assert outcome.solved
        assert outcome.best.solver == "tabu-search"

    def test_round_robin_assignment(self):
        solver = MultiWalkSolver(
            costas_factory(9),
            ASParameters.for_costas(9),
            solver="adaptive+tabu",
            n_workers=4,
            seed_root=1,
        )
        assert solver.portfolio == "adaptive+tabu"
        assert solver._walk_spec(0)["name"] == "adaptive"
        assert solver._walk_spec(1)["name"] == "tabu"
        assert solver._walk_spec(2)["name"] == "adaptive"
        assert solver._walk_spec(3)["name"] == "tabu"

    def test_heterogeneous_walks_race_and_all_report(self):
        solver = MultiWalkSolver(
            costas_factory(9),
            ASParameters.for_costas(9),
            solver="adaptive+tabu",
            n_workers=2,
            seed_root=7,
        )
        outcome = solver.solve(max_time=120.0)
        assert outcome.solved
        assert is_costas(outcome.best.configuration)
        # Both strategies participated (losers report partial statistics too).
        assert outcome.solvers == ["adaptive-search", "tabu-search"]

    @pytest.mark.parametrize("spec", ["adaptive", "adaptive+tabu"])
    def test_pure_and_mixed_portfolios_solve_order_10(self, spec):
        """Pure Adaptive Search and the mixed portfolio each win at least one
        of two 2-walk races at order 10."""
        solved = [
            MultiWalkSolver(
                costas_factory(10),
                ASParameters.for_costas(10),
                solver=spec,
                n_workers=2,
                seed_root=1010 + repeat,
            ).solve(max_time=60.0).solved
            for repeat in range(2)
        ]
        assert any(solved)

    def test_unknown_solver_fails_at_construction(self):
        with pytest.raises(SolverError, match="unknown solver"):
            MultiWalkSolver(costas_factory(9), solver="noop", n_workers=2)

    def test_n_workers_raised_to_portfolio_size(self):
        # Every portfolio member is guaranteed a walk: asking for fewer
        # workers than members widens the pool instead of silently dropping
        # the round-robin tail.
        solver = MultiWalkSolver(
            costas_factory(9), solver="local-search", n_workers=2, seed_root=0
        )
        assert solver.n_workers == 4
        assert [solver._walk_spec(i)["name"] for i in range(4)] == [
            "adaptive", "tabu", "dialectic", "random-restart",
        ]


class TestServiceSolverSelection:
    def test_submit_with_named_solver_runs_it(self):
        config = ServiceConfig(
            n_workers=2, use_constructions=False, default_max_time=60.0
        )
        with SolverService(config) as service:
            response = service.submit(9, solver="tabu", use_store=False).result(
                timeout=90
            )
            assert response.solved
            assert response.source == "search"
            assert response.detail["solver"] == "tabu-search"
            stats = service.stats()
            assert stats["solvers"]["requests"] == {"tabu": 1}
            assert stats["solvers"]["solved"] == {"tabu-search": 1}

    def test_submit_portfolio_gets_one_walk_per_member(self):
        config = ServiceConfig(
            n_workers=2, use_constructions=False, default_max_time=60.0
        )
        with SolverService(config) as service:
            response = service.submit(
                9, solver="adaptive+tabu", use_store=False
            ).result(timeout=90)
            assert response.solved
            # walks_per_job is 1, but the portfolio has 2 members: both raced.
            assert response.detail["walks"] == 2
            assert response.detail["solver"] in ("adaptive-search", "tabu-search")

    def test_unknown_solver_rejected_before_queueing(self):
        config = ServiceConfig(n_workers=1, use_constructions=False)
        with SolverService(config) as service:
            with pytest.raises(SolverError, match="unknown solver"):
                service.submit(9, solver="noop")
            assert service.stats()["searches_dispatched"] == 0

    def test_unknown_default_solver_fails_at_construction(self):
        with pytest.raises(SolverError, match="unknown solver"):
            SolverService(ServiceConfig(default_solver="typo"))

    def test_wide_portfolio_on_small_pool_completes(self):
        # A 4-member portfolio on a 2-worker pool runs its walks as workers
        # free up, without deadlocking or oversubscribing the pool.
        config = ServiceConfig(
            n_workers=2, use_constructions=False, default_max_time=60.0
        )
        with SolverService(config) as service:
            response = service.submit(
                8, solver="local-search", use_store=False
            ).result(timeout=120)
            assert response.solved
            assert response.detail["walks"] == 4

    def test_different_solvers_do_not_coalesce(self):
        key_a = SolverService._instance_key(
            "costas", 12, {"solver": {"name": "adaptive", "params": None}, "max_time": 60}
        )
        key_b = SolverService._instance_key(
            "costas", 12, {"solver": {"name": "tabu", "params": None}, "max_time": 60}
        )
        assert key_a != key_b

    def test_same_solver_same_params_coalesce(self):
        payload = {"solver": {"name": "tabu", "params": {"tenure": 4}}, "max_time": 60}
        assert SolverService._instance_key(
            "costas", 12, dict(payload)
        ) == SolverService._instance_key("costas", 12, dict(payload))


class TestHTTPSolverRoundTrip:
    @pytest.fixture()
    def server(self):
        from repro.service.http_async import AsyncServiceHTTPServer

        server = AsyncServiceHTTPServer(
            ("127.0.0.1", 0),
            config=ServiceConfig(
                n_workers=2, use_constructions=False, default_max_time=60.0
            ),
        )
        server.start_background()
        yield server
        server.stop(drain=False)

    @staticmethod
    def _call(server, method, path, body=None):
        data = None if body is None else json.dumps(body).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}{path}", data=data, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=90) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read() or b"{}")

    def test_post_solve_with_solver_round_trips(self, server):
        status, payload = self._call(
            server,
            "POST",
            "/solve",
            {"order": 9, "solver": "tabu", "wait": True, "use_store": False},
        )
        assert status == 200
        assert payload["solved"]
        assert payload["source"] == "search"
        assert payload["detail"]["solver"] == "tabu-search"
        assert is_costas(payload["solution"])

    def test_post_solve_with_portfolio_round_trips(self, server):
        status, payload = self._call(
            server,
            "POST",
            "/solve",
            {"order": 10, "solver": "adaptive+tabu", "wait": True, "use_store": False},
        )
        assert status == 200
        assert payload["solved"]
        assert payload["detail"]["walks"] == 2
        assert payload["detail"]["solver"] in ("adaptive-search", "tabu-search")
        assert is_costas(payload["solution"])

    def test_post_solve_with_spec_object_round_trips(self, server):
        status, payload = self._call(
            server,
            "POST",
            "/solve",
            {
                "order": 9,
                "solver": {"name": "tabu", "params": {"tenure": 6}},
                "wait": True,
                "use_store": False,
            },
        )
        assert status == 200
        assert payload["solved"]
        assert payload["detail"]["solver"] == "tabu-search"

    def test_unknown_solver_answers_400(self, server):
        status, payload = self._call(
            server, "POST", "/solve", {"order": 9, "solver": "noop"}
        )
        assert status == 400
        assert "unknown solver" in payload["error"]

    def test_invalid_params_answer_400(self, server):
        status, payload = self._call(
            server,
            "POST",
            "/solve",
            {"order": 9, "solver": {"name": "tabu", "params": {"tenure": [8]}}},
        )
        assert status == 400
        assert "invalid parameters" in payload["error"]

    def test_stats_report_per_solver_counters(self, server):
        self._call(
            server,
            "POST",
            "/solve",
            {"order": 9, "solver": "tabu", "wait": True, "use_store": False},
        )
        self._call(
            server,
            "POST",
            "/solve",
            {"order": 9, "wait": True, "use_store": False},
        )
        status, stats = self._call(server, "GET", "/stats")
        assert status == 200
        assert stats["solvers"]["requests"]["tabu"] == 1
        assert stats["solvers"]["requests"]["compiled"] == 1
        assert sum(stats["solvers"]["solved"].values()) >= 1
        assert stats["config"]["default_solver"] == "compiled"
