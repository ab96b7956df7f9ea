"""Tests for the command-line interface and the top-level convenience API."""

from __future__ import annotations

import json

import pytest

import repro
from repro.cli import build_parser, main
from repro.costas.array import is_costas
from repro.costas.database import KNOWN_COSTAS_COUNTS


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_each_command(self):
        parser = build_parser()
        assert parser.parse_args(["solve", "10"]).order == 10
        assert parser.parse_args(["parallel", "10", "--workers", "2"]).workers == 2
        assert parser.parse_args(["construct", "12", "--method", "welch"]).method == "welch"
        assert parser.parse_args(["enumerate", "6", "--classes"]).classes
        args = parser.parse_args(["experiment", "table1", "--scale", "smoke"])
        assert args.identifier == "table1" and args.scale == "smoke"
        assert parser.parse_args(["list-experiments"]).command == "list-experiments"


class TestCommands:
    def test_solve_command(self, capsys):
        code = main(["solve", "9", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "permutation (1-based)" in out
        assert "solved" in out

    def test_solve_quiet_outputs_only_permutation(self, capsys):
        code = main(["solve", "8", "--seed", "1", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        values = json.loads(out.replace("'", '"'))
        assert sorted(values) == list(range(1, 9))

    def test_solve_basic_model(self, capsys):
        assert main(["solve", "8", "--seed", "2", "--basic"]) == 0

    def test_construct_command(self, capsys):
        assert main(["construct", "10"]) == 0
        out = capsys.readouterr().out
        assert "permutation (1-based)" in out

    def test_construct_failure_exit_code(self, capsys):
        assert main(["construct", "32"]) == 1
        assert "error" in capsys.readouterr().err

    def test_enumerate_command(self, capsys):
        assert main(["enumerate", "6", "--classes"]) == 0
        out = capsys.readouterr().out
        assert f"{KNOWN_COSTAS_COUNTS[6]} Costas arrays" in out
        assert "matches enumeration" in out
        assert "equivalence classes" in out

    def test_enumerate_print(self, capsys):
        assert main(["enumerate", "4", "--print"]) == 0
        out = capsys.readouterr().out
        assert out.count("[") >= KNOWN_COSTAS_COUNTS[4]

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "figure4" in out

    def test_experiment_command_json(self, capsys):
        assert main(["experiment", "table1", "--scale", "smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "table1"
        assert payload["rows"]

    def test_parallel_command(self, capsys):
        assert main(["parallel", "9", "--workers", "1", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "walks" in out

    def test_parallel_prints_the_costas_grid(self, capsys):
        assert main(["parallel", "9", "--workers", "1", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "permutation (1-based)" in out
        grid = [
            line for line in out.splitlines() if line and set(line) <= {".", "X", " "}
        ]
        assert len(grid) == 9 and all(line.count("X") == 1 for line in grid)


class TestProblemsCommand:
    def test_lists_all_families(self, capsys):
        assert main(["problems"]) == 0
        out = capsys.readouterr().out
        for kind in ("costas", "queens", "all-interval", "magic-square"):
            assert kind in out
        assert "dihedral-8" in out

    def test_json_output(self, capsys):
        assert main(["problems", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        listing = {entry["kind"]: entry for entry in payload["problems"]}
        assert set(listing) == {"costas", "queens", "all-interval", "magic-square"}
        assert listing["queens"]["has_construction"] is True
        assert listing["magic-square"]["symmetry_order"] == 8
        assert listing["magic-square"]["symmetry_group"] == "grid-dihedral-8"
        assert listing["costas"]["symmetry_elements"][0] == "identity"


class TestSolveKind:
    def test_solve_queens(self, capsys):
        assert main(["solve", "8", "--kind", "queens", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "solution (1-based)" in out

    def test_solve_queens_quiet_is_a_valid_solution(self, capsys):
        import numpy as np

        from repro.problems import get_family

        assert main(["solve", "8", "--kind", "queens", "--seed", "1", "--quiet"]) == 0
        values = json.loads(capsys.readouterr().out.strip().replace("'", '"'))
        solution = np.array(values) - 1
        assert get_family("queens").validator(solution)

    def test_solve_kind_construct_first(self, capsys):
        assert main(["solve", "12", "--kind", "all-interval", "--construct-first"]) == 0
        out = capsys.readouterr().out
        assert "constructed algebraically" in out

    def test_solve_unknown_kind_errors(self, capsys):
        assert main(["solve", "8", "--kind", "sudoku"]) == 1
        assert "unknown problem kind" in capsys.readouterr().err

    def test_solve_kind_with_named_solver(self, capsys):
        assert main(
            ["solve", "8", "--kind", "all-interval", "--solver", "tabu", "--seed", "0"]
        ) == 0

    def test_parallel_kind(self, capsys):
        assert main(
            ["parallel", "8", "--kind", "queens", "--workers", "1", "--seed", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "walks" in out and "solution (1-based)" in out

    def test_basic_is_refused_for_other_families(self, capsys):
        assert main(["solve", "8", "--kind", "queens", "--basic"]) == 1
        assert "--basic only applies to the costas family" in capsys.readouterr().err

    def test_solve_refuses_a_portfolio(self, capsys):
        assert main(["solve", "8", "--solver", "mixed"]) == 1
        assert "is a portfolio" in capsys.readouterr().err

    def test_solve_rejects_an_order_below_the_family_minimum(self, capsys):
        assert main(["solve", "2", "--kind", "queens"]) == 1
        assert "order >= 4" in capsys.readouterr().err

    def test_parallel_rejects_an_order_below_the_family_minimum(self, capsys):
        assert main(["parallel", "2", "--kind", "queens", "--workers", "1"]) == 1
        assert "order must be >= 4" in capsys.readouterr().err


class TestConvenienceApi:
    def test_solve_costas(self):
        result = repro.solve_costas(10, seed=0)
        assert result.solved
        array = result.as_costas_array()
        assert array.order == 10
        assert is_costas(array.to_array())

    def test_solve_costas_model_options(self):
        result = repro.solve_costas(8, seed=0, err_weight="constant", use_chang=False)
        assert result.solved

    def test_as_costas_array_requires_solution(self):
        from repro.core import ASParameters

        result = repro.solve_costas(
            12, seed=0, params=ASParameters.for_costas(12, max_iterations=1)
        )
        if not result.solved:
            with pytest.raises(ValueError):
                result.as_costas_array()

    def test_version_string(self):
        assert repro.__version__


class TestConstructFirst:
    def test_constructible_order_skips_search(self, capsys):
        assert main(["solve", "10", "--construct-first"]) == 0
        out = capsys.readouterr().out
        assert "constructed algebraically" in out
        assert "permutation (1-based)" in out

    def test_construct_first_quiet(self, capsys):
        assert main(["solve", "10", "--construct-first", "--quiet"]) == 0
        out = capsys.readouterr().out.strip()
        values = json.loads(out.replace("'", '"'))
        assert sorted(values) == list(range(1, 11))
        from repro.costas.array import is_costas as _is_costas

        assert _is_costas([v - 1 for v in values])

    def test_falls_back_to_search_when_no_construction(self, capsys):
        # Order 8: 9 is not prime and 10 is not a prime power, and corner
        # deletion from order 9 does not apply either way construct() tries it;
        # if construct succeeds this test still passes through the search-free
        # path, so pick the assertion accordingly.
        from repro.costas.constructions import available_constructions

        assert available_constructions(8) == []
        code = main(["solve", "8", "--seed", "3", "--construct-first"])
        out = capsys.readouterr().out
        assert code == 0
        assert "permutation (1-based)" in out


class TestEnumerateCrossCheck:
    def test_matching_count_exits_zero(self, capsys):
        assert main(["enumerate", "5"]) == 0
        assert "matches enumeration" in capsys.readouterr().out

    def test_mismatch_exits_nonzero(self, capsys, monkeypatch):
        import repro.costas.database as db

        # Poison the published table: enumeration now "differs" and the
        # command must fail loudly (the table is a live validation).
        monkeypatch.setitem(db.KNOWN_COSTAS_COUNTS, 5, 41)
        assert main(["enumerate", "5"]) == 1
        captured = capsys.readouterr()
        assert "DIFFERS FROM" in captured.out
        assert "error" in captured.err


class TestServiceCommands:
    def test_parses_serve_and_request(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "9000", "--db", ":memory:"])
        assert args.command == "serve" and args.port == 9000 and args.db == ":memory:"
        args = parser.parse_args(["request", "18", "--url", "http://h:1", "--priority", "2"])
        assert args.orders == [18] and args.url == "http://h:1" and args.priority == 2
        args = parser.parse_args(["request", "12", "13", "14", "--batch"])
        assert args.orders == [12, 13, 14] and args.batch

    def test_request_against_live_server(self, capsys, tmp_path):
        from repro.service.api import ServiceConfig
        from repro.service.http_async import AsyncServiceHTTPServer

        server = AsyncServiceHTTPServer(
            ("127.0.0.1", 0),
            config=ServiceConfig(store_path=str(tmp_path / "cli.db"), n_workers=1),
        )
        server.start_background()
        try:
            code = main(
                ["request", "12", "--url", f"http://127.0.0.1:{server.port}"]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert "via construction" in out
            assert "permutation (1-based)" in out
            # Second request for a symmetry-equivalent instance: store hit.
            code = main(
                ["request", "12", "--url", f"http://127.0.0.1:{server.port}"]
            )
            out = capsys.readouterr().out
            assert code == 0 and "via store" in out
        finally:
            server.stop(drain=False)

    def test_request_kind_round_trip_for_every_family(self, capsys, tmp_path):
        """Acceptance criterion: `repro request --kind <k>` succeeds for all
        four registered families against a live server."""
        from repro.service.api import ServiceConfig
        from repro.service.http_async import AsyncServiceHTTPServer

        server = AsyncServiceHTTPServer(
            ("127.0.0.1", 0),
            config=ServiceConfig(
                store_path=str(tmp_path / "kinds.db"),
                n_workers=1,
                default_max_time=60.0,
            ),
        )
        server.start_background()
        try:
            url = f"http://127.0.0.1:{server.port}"
            orders = {
                "costas": 12,
                "queens": 12,
                "all-interval": 10,
                "magic-square": 4,
            }
            for kind, order in orders.items():
                code = main(
                    ["request", str(order), "--kind", kind, "--url", url]
                )
                out = capsys.readouterr().out
                assert code == 0, (kind, out)
                assert kind in out
        finally:
            server.stop(drain=False)

    def test_request_unreachable_server(self, capsys, recorded_sleeps):
        assert main(["request", "12", "--url", "http://127.0.0.1:9", "--timeout", "1"]) == 1
        assert "cannot reach" in capsys.readouterr().err
        # The default three retries back off exponentially from 0.4 s.
        assert len(recorded_sleeps) == 3
        for retry, delay in enumerate(recorded_sleeps, start=1):
            assert delay >= 0.2 * 2**retry
