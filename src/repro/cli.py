"""Command-line interface: ``repro <command>``.

Commands
--------
``repro solve N``
    Solve one Costas Array Problem instance with sequential Adaptive Search.
``repro parallel N``
    Solve one instance with the multi-process independent multi-walk solver.
``repro construct N``
    Build a Costas array algebraically (Welch / Lempel / Golomb) when possible.
``repro enumerate N``
    Exhaustively count (and optionally print) all Costas arrays of order N.
``repro experiment ID``
    Run one of the paper's experiments (``table1`` … ``figure4``,
    ``ablation-*``) at a chosen scale preset and print its table.
``repro list-experiments``
    Show the identifiers accepted by ``repro experiment``.
``repro solvers``
    List the registered search strategies, their parameter dataclasses and
    defaults (``--json`` for machine-readable output).
``repro problems``
    List the registered problem families: symmetry groups, construction
    shortcuts, minimum orders (``--json`` for machine-readable output).
``repro serve``
    Run the solver-as-a-service HTTP server (persistent solution store,
    request coalescing, long-lived worker pool) on the asyncio front-end
    (``POST /solve-batch``, ``GET /events/<id>`` progress streaming,
    thousands of concurrent waiting clients).
``repro lint``
    Project-invariant static analysis: lock ordering / blocking-while-locked
    in the service layer, seeded determinism in the solver core, async
    safety in the event-loop front-end, C-kernel vs ctypes vs Python-mirror
    drift, and the 429/503/504 retry contract.  Checks the whole tree
    against the committed ``lint-baseline.txt`` (only *new* findings fail);
    ``--json`` and ``--rule`` narrow the output.
``repro request N [N ...]``
    Submit solve requests to a running ``repro serve`` instance; with
    ``--batch`` all orders travel in one ``POST /solve-batch`` body (one
    scheduler pass server-side).

``parallel``, ``serve`` and ``request`` accept ``--solver`` with a registry
name (``tabu``), an inline portfolio (``adaptive+tabu``, raced
first-past-the-post across walks) or a named portfolio (``mixed``);
``solve`` runs a single walk, so it accepts a single solver name only.

``solve``, ``parallel`` and ``request`` accept ``--kind`` with any family of
the :mod:`repro.problems` registry (``costas``, ``queens``, ``all-interval``,
``magic-square``); the default is the paper's Costas Array Problem.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed separately for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Parallel Local Search for the Costas Array Problem' "
            "(Diaz et al., IPPS 2012)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem instance sequentially")
    p_solve.add_argument("order", type=int, help="instance order (e.g. Costas n >= 3)")
    p_solve.add_argument(
        "--kind",
        default="costas",
        help="problem family to solve (see 'repro problems'); default: costas",
    )
    p_solve.add_argument("--seed", type=int, default=None, help="random seed")
    p_solve.add_argument("--basic", action="store_true", help="use the basic (untuned) model")
    p_solve.add_argument("--quiet", action="store_true", help="only print the permutation")
    p_solve.add_argument(
        "--construct-first",
        action="store_true",
        help="try the Welch/Lempel/Golomb constructions before searching",
    )
    p_solve.add_argument(
        "--solver",
        default=None,
        help="registered solver to run (see 'repro solvers'); default: "
        "compiled (the compiled walk; 'adaptive' runs the NumPy engine)",
    )
    p_solve.add_argument(
        "--max-time", type=float, default=None, help="wall-clock limit (s)"
    )
    p_solve.add_argument(
        "--population",
        type=int,
        default=1,
        help=(
            "vectorised walks in one compiled-kernel batch (compiled walk "
            "engine; first solution wins); default: 1"
        ),
    )

    p_par = sub.add_parser(
        "parallel", help="solve one instance with multi-walk processes"
    )
    p_par.add_argument("order", type=int)
    p_par.add_argument(
        "--kind",
        default="costas",
        help="problem family to solve (see 'repro problems'); default: costas",
    )
    p_par.add_argument("--workers", type=int, default=None, help="number of worker processes")
    p_par.add_argument("--seed", type=int, default=None, help="root seed")
    p_par.add_argument("--max-time", type=float, default=None, help="wall-clock limit (s)")
    p_par.add_argument(
        "--solver",
        default=None,
        help="solver or portfolio for the walks (e.g. tabu, adaptive+tabu, "
        "mixed); default: compiled",
    )
    p_par.add_argument(
        "--population",
        type=int,
        default=1,
        help=(
            "vectorised walks per worker process (compiled walk engine), "
            "racing workers x population walks on workers cores; default: 1"
        ),
    )

    p_cons = sub.add_parser("construct", help="build a Costas array algebraically")
    p_cons.add_argument("order", type=int)
    p_cons.add_argument(
        "--method",
        choices=["welch", "lempel", "golomb"],
        default=None,
        help="force a specific construction",
    )

    p_enum = sub.add_parser("enumerate", help="count all Costas arrays of an order")
    p_enum.add_argument("order", type=int)
    p_enum.add_argument("--print", dest="print_arrays", action="store_true",
                        help="print every array (1-based)")
    p_enum.add_argument("--classes", action="store_true",
                        help="also count symmetry equivalence classes")

    p_exp = sub.add_parser("experiment", help="run one of the paper's experiments")
    p_exp.add_argument("identifier", help="experiment id (see list-experiments)")
    p_exp.add_argument("--scale", default="default", choices=["smoke", "default", "paper"],
                       help="scale preset")
    p_exp.add_argument("--json", action="store_true", help="print the raw rows as JSON")

    sub.add_parser("list-experiments", help="list experiment identifiers")

    p_solvers = sub.add_parser(
        "solvers", help="list registered search strategies and their parameters"
    )
    p_solvers.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    p_problems = sub.add_parser(
        "problems", help="list registered problem families and their properties"
    )
    p_problems.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    p_serve = sub.add_parser("serve", help="run the solver-as-a-service HTTP server")
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=8000, help="TCP port")
    p_serve.add_argument(
        "--db", default="solutions.db", help="solution store path (':memory:' for ephemeral)"
    )
    p_serve.add_argument("--workers", type=int, default=None, help="worker process count")
    p_serve.add_argument("--walks", type=int, default=1, help="independent walks per search job")
    p_serve.add_argument(
        "--population",
        type=int,
        default=1,
        help=(
            "vectorised walks per worker slot (compiled walk engine); each "
            "search walk batches this many kernel walks and reports the best"
        ),
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=256, help="max queued jobs before 503 backpressure"
    )
    p_serve.add_argument(
        "--lanes",
        nargs="?",
        const="default",
        default=None,
        metavar="SPEC",
        help="enable QoS lanes: bare --lanes uses the stock "
        "interactive/batch/background split; or pass "
        "'name[=depth[:weight]],...' for custom lanes",
    )
    p_serve.add_argument(
        "--quota",
        default=None,
        metavar="SPEC",
        help="per-tenant admission quotas as 'tenant=rate[:burst],...' "
        "(rate in new jobs/s; '*' sets the default for unlisted tenants)",
    )
    p_serve.add_argument(
        "--max-time", type=float, default=300.0, help="default per-walk time budget (s)"
    )
    p_serve.add_argument(
        "--solver",
        default=None,
        help="default solver/portfolio for requests that do not name one; "
        "default: compiled (the compiled walk; 'adaptive' runs the NumPy engine)",
    )
    p_serve.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection for chaos testing: "
        "'point=rate[,point=rate...][,seed=N]' or a JSON plan "
        "(points: worker.crash, worker.hang, worker.slow, "
        "store.read.error, store.write.locked, http.drop)",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds to drain in-flight solves on SIGTERM/SIGINT before "
        "aborting what remains",
    )
    p_serve.add_argument("--quiet", action="store_true", help="suppress per-request logging")

    p_lint = sub.add_parser(
        "lint",
        help="static-analysis suite for the project's concurrency, "
        "determinism, async, kernel-drift and HTTP-contract invariants",
        description=(
            "Run the project-invariant static-analysis suite.  Rules: "
            "lock-order (lock-acquisition cycles), lock-blocking (blocking "
            "work while a lock is held), unseeded-random (entropy outside "
            "core.rng seeded generators), async-blocking (blocking calls on "
            "the event loop), kernel-drift (C prototypes vs ctypes "
            "signatures), rng-drift (C vs Python-mirror RNG constants), "
            "http-retry-contract (429/503/504 without Retry-After + retry "
            "body), bad-suppression (ignore comment missing its "
            "justification).  Findings print as 'file:line rule-id "
            "message'.  Suppress a finding only with an inline "
            "'# repro-lint: ignore[rule-id] -- <justification>' comment; "
            "the justification is mandatory.  Without paths the whole tree "
            "is checked against the committed lint-baseline.txt, so only "
            "NEW findings fail the run."
        ),
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        metavar="path",
        help="specific .py files to check (default: the whole repo tree "
        "against the committed baseline)",
    )
    p_lint.add_argument(
        "--rule",
        action="append",
        metavar="RULE",
        help="only run/report the given rule id (repeatable, or "
        "comma-separated)",
    )
    p_lint.add_argument(
        "--json", action="store_true", help="machine-readable findings output"
    )
    p_lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="baseline file to compare against (default: lint-baseline.txt "
        "at the repo root)",
    )
    p_lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the committed baseline",
    )
    p_lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current findings into the baseline file",
    )
    p_lint.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="repository root to lint (default: auto-detected)",
    )

    p_req = sub.add_parser("request", help="submit one request to a running server")
    p_req.add_argument(
        "orders",
        type=int,
        nargs="+",
        metavar="order",
        help="instance order(s); several orders go as one batch with --batch",
    )
    p_req.add_argument(
        "--batch",
        action="store_true",
        help="submit all orders in one POST /solve-batch call "
        "(one scheduler pass)",
    )
    p_req.add_argument(
        "--kind",
        default="costas",
        help="problem family to request (see 'repro problems'); default: costas",
    )
    p_req.add_argument("--url", default="http://127.0.0.1:8000", help="server base URL")
    p_req.add_argument("--priority", type=int, default=0, help="scheduling priority")
    p_req.add_argument("--max-time", type=float, default=None, help="per-walk budget (s)")
    p_req.add_argument(
        "--solver",
        default=None,
        help="solver or portfolio to request (e.g. tabu, adaptive+tabu, mixed)",
    )
    p_req.add_argument(
        "--timeout", type=float, default=600.0, help="client-side wait limit (s)"
    )
    p_req.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="server-side deadline (s): the request fails with 504 instead "
        "of queueing past this budget",
    )
    p_req.add_argument(
        "--retries",
        type=int,
        default=3,
        help="client-side retries for 503 responses (honouring Retry-After) "
        "and dropped connections, with jittered exponential backoff",
    )
    p_req.add_argument(
        "--no-retry",
        action="store_true",
        help="fail immediately on 503 or a dropped connection",
    )
    p_req.add_argument(
        "--tenant",
        default=None,
        help="tenant identity, sent as the X-Repro-Tenant header "
        "(counted against per-tenant quotas when the server runs --quota)",
    )
    p_req.add_argument(
        "--lane",
        default=None,
        help="QoS lane to request (interactive/batch/background when the "
        "server runs --lanes); omit to let the server classify by deadline",
    )
    return parser


def _print_solution(kind: str, configuration) -> None:
    """Print a solution 1-based: a Costas permutation with its rendered grid,
    any other family's array as it is."""
    values = [int(v) + 1 for v in configuration]
    if kind != "costas":
        print("solution (1-based):", values)
        return
    from repro.costas import CostasArray

    print("permutation (1-based):", values)
    print(CostasArray.from_permutation(configuration).render())


def _print_engine_line(result) -> None:
    """One observability line: kernel path, engine that ran, population width."""
    from repro.core import _ckernels

    parts = [f"kernel mode: {_ckernels.mode()}"]
    engine = result.extra.get("engine")
    if engine is not None:
        parts.append(f"engine: {engine}")
    population = int(result.extra.get("population", 1))
    if population > 1:
        parts.append(f"population: {population}")
    print(", ".join(parts))


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.exceptions import SolverError
    from repro.problems import get_family
    from repro.solvers import resolve_portfolio, run_spec

    try:
        family = get_family(args.kind)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.construct_first:
        solution = family.try_construct(args.order)
        if solution is not None:
            if args.quiet:
                print([int(v) + 1 for v in solution])
            else:
                print(f"constructed algebraically ({family.name}, order {args.order})")
                _print_solution(family.name, solution)
            return 0
        if not args.quiet:
            print(
                f"no algebraic construction for {family.name} order {args.order}; "
                "falling back to search"
            )

    options = {}
    if args.basic:
        # The basic/optimised model split is a Costas-specific ablation.
        if family.name != "costas":
            print(
                f"error: --basic only applies to the costas family, not {family.name}",
                file=sys.stderr,
            )
            return 1
        options = dict(err_weight="constant", use_chang=False, dedicated_reset=False)
    try:
        specs = resolve_portfolio(args.solver)
        if len(specs) > 1:
            print(
                f"error: {args.solver!r} is a portfolio; sequential solve "
                "runs one walk — use 'repro parallel --solver' to race it",
                file=sys.stderr,
            )
            return 1
        result = run_spec(
            specs[0],
            family.make(args.order, **options),
            seed=args.seed,
            max_time=args.max_time,
            population=args.population,
        )
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.quiet:
        if not result.solved:
            print(f"unsolved: {result.summary()}", file=sys.stderr)
            return 1
        print([int(v) + 1 for v in result.configuration])
        return 0
    print(result.summary())
    _print_engine_line(result)
    if result.solved:
        _print_solution(family.name, result.configuration)
    return 0 if result.solved else 1


def _cmd_parallel(args: argparse.Namespace) -> int:
    from repro.exceptions import SolverError
    from repro.parallel.multiwalk import MultiWalkSolver
    from repro.problems import get_family, problem_factory

    try:
        family = get_family(args.kind)
        if args.order < family.min_order:
            # Validate in the parent: otherwise every worker child dies on
            # the same SolverError and the CLI shows a worker-crash traceback.
            raise SolverError(
                f"{family.name} order must be >= {family.min_order}, got {args.order}"
            )
        multiwalk = MultiWalkSolver(
            problem_factory(family.name, args.order),
            solver=args.solver,
            n_workers=args.workers,
            seed_root=args.seed,
            population=args.population,
        )
        outcome = multiwalk.solve(max_time=args.max_time)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    population_note = (
        f" x {args.population} population walks each" if args.population > 1 else ""
    )
    print(
        f"{outcome.n_workers} walks{population_note} "
        f"({'+'.join(outcome.solvers)}), "
        f"wall time {outcome.wall_time:.3f}s, "
        f"total iterations {outcome.total_iterations}"
    )
    print(outcome.best.summary())
    if outcome.solved:
        _print_solution(family.name, outcome.best.configuration)
    return 0 if outcome.solved else 1


def _cmd_construct(args: argparse.Namespace) -> int:
    from repro.costas import construct
    from repro.exceptions import ConstructionError

    try:
        array = construct(args.order, method=args.method)
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("permutation (1-based):", list(array.to_one_based()))
    print(array.render())
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from repro.costas import enumerate_costas_arrays, equivalence_classes, known_count

    arrays = list(enumerate_costas_arrays(args.order))
    print(f"order {args.order}: {len(arrays)} Costas arrays")
    mismatch = False
    published = known_count(args.order)
    if published is not None:
        # Cross-check against the published table (OEIS A008404): a mismatch
        # means the enumeration (or the table) is wrong, so make it loud and
        # fail the command — this turns the table into a live validation.
        mismatch = published != len(arrays)
        status = "matches" if not mismatch else "DIFFERS FROM"
        print(f"published count: {published} ({status} enumeration)")
    if args.classes:
        classes = equivalence_classes(arrays)
        print(f"equivalence classes (up to rotation/reflection): {len(classes)}")
    if args.print_arrays:
        for array in arrays:
            print(list(array.to_one_based()))
    if mismatch:
        print(
            f"error: enumeration found {len(arrays)} arrays but the published "
            f"count for order {args.order} is {published}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentScale
    from repro.experiments.registry import run_experiment

    scale = ExperimentScale.by_name(args.scale)
    result = run_experiment(args.identifier, scale)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, default=float))
    else:
        print(result.format())
    return 0


def _cmd_list_experiments(_: argparse.Namespace) -> int:
    from repro.experiments.registry import list_experiments

    for identifier in list_experiments():
        print(identifier)
    return 0


def _cmd_solvers(args: argparse.Namespace) -> int:
    from repro.solvers import list_portfolios, list_solvers

    if args.json:
        payload = {
            "solvers": [
                {
                    "name": info.name,
                    "aliases": list(info.aliases),
                    "result_name": info.result_name or info.name,
                    "problem_kinds": list(info.problem_kinds),
                    "summary": info.summary,
                    "params_class": info.params_cls.__name__,
                    "param_defaults": info.param_defaults(),
                }
                for info in list_solvers()
            ],
            "portfolios": {
                name: list(members) for name, members in list_portfolios().items()
            },
        }
        print(json.dumps(payload, indent=2, default=str))
        return 0

    for info in list_solvers():
        aliases = f" (aliases: {', '.join(info.aliases)})" if info.aliases else ""
        print(f"{info.name}{aliases}")
        print(f"    {info.summary}")
        print(f"    problems: {', '.join(info.problem_kinds)}")
        defaults = ", ".join(
            f"{k}={v!r}" for k, v in info.param_defaults().items()
        )
        print(f"    {info.params_cls.__name__}({defaults})")
    portfolios = list_portfolios()
    if portfolios:
        print("portfolios:")
        for name, members in sorted(portfolios.items()):
            print(f"    {name} = {'+'.join(members)}")
    return 0


def _cmd_problems(args: argparse.Namespace) -> int:
    from repro.problems import list_families

    if args.json:
        payload = {"problems": [family.describe() for family in list_families()]}
        print(json.dumps(payload, indent=2))
        return 0

    for family in list_families():
        aliases = f" (aliases: {', '.join(family.aliases)})" if family.aliases else ""
        print(f"{family.name}{aliases}")
        print(f"    {family.summary}")
        print(
            f"    symmetry: {family.symmetry.name} "
            f"(order {family.symmetry.order}); min order: {family.min_order}"
        )
        shortcut = "yes" if family.construct is not None else "no"
        print(f"    algebraic construction: {shortcut}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service.api import ServiceConfig
    from repro.service.faults import FaultPlan

    fault_plan = None
    if args.faults is not None:
        # Parse in the CLI so a typo'd spec is a one-line error, not a
        # traceback out of the service constructor.
        try:
            fault_plan = FaultPlan.parse(args.faults)
        except ValueError as exc:
            print(f"error: --faults: {exc}", file=sys.stderr)
            return 1
    if args.lanes is not None or args.quota is not None:
        # Validate in the CLI so a typo'd spec is a one-line error, not a
        # traceback out of the service constructor.
        from repro.service.qos import TenantQuotas, parse_lanes

        try:
            if args.lanes is not None:
                parse_lanes(args.lanes, args.queue_depth)
            if args.quota is not None:
                TenantQuotas.from_spec(args.quota)
        except ValueError as exc:
            print(f"error: --lanes/--quota: {exc}", file=sys.stderr)
            return 1
    config = ServiceConfig(
        store_path=args.db,
        n_workers=args.workers,
        walks_per_job=args.walks,
        population=args.population,
        max_queue_depth=args.queue_depth,
        default_max_time=args.max_time,
        default_solver=args.solver,
        fault_plan=fault_plan,
        drain_timeout=args.drain_timeout,
        lanes=args.lanes,
        quotas=args.quota,
    )
    from repro.service.http_async import AsyncServiceHTTPServer

    server = AsyncServiceHTTPServer(
        (args.host, args.port), config=config, verbose=not args.quiet
    )
    # Resolving the kernel mode here also warms the compile cache in the
    # parent, so forked workers inherit the loaded library for free.
    from repro.core import _ckernels

    population_note = f", population={args.population}" if args.population > 1 else ""
    print(
        f"repro service on http://{args.host}:{server.port} "
        f"(store={args.db}, workers={server.service.pool.n_workers}, "
        f"queue_depth={args.queue_depth}, "
        f"kernel_mode={_ckernels.mode()}{population_note})"
    )
    if args.lanes is not None:
        print(
            "QoS lanes ACTIVE: "
            + ", ".join(server.service.scheduler.lane_order)
            + (f" (quota: {args.quota})" if args.quota else "")
        )
    if fault_plan is not None and fault_plan.enabled:
        print(f"fault injection ACTIVE: {fault_plan.to_json()}")
    # SIGTERM (the default `kill`, and what container runtimes send) drains
    # exactly like Ctrl-C instead of killing mid-solve.  While serving, the
    # event loop takes both signals and resolves its shutdown future; this
    # handler covers the moments before the loop runs.  Either way
    # serve_forever returns and the bounded drain below runs.
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous_term = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        print("\ndraining workers ...")
        signal.signal(signal.SIGTERM, previous_term)
        server.stop(drain=True)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.runner import run_cli

    return run_cli(args)


def _cmd_request(args: argparse.Namespace) -> int:
    import http.client
    import random
    import time as time_module
    import urllib.error
    import urllib.request

    from repro.service.faults import RetryPolicy

    base = args.url.rstrip("/")
    # HTTPError never reaches these handlers (it carries a parsed status and
    # is absorbed by _call_once); ValueError covers truncated/garbled JSON
    # from a connection dropped mid-response.
    _NETWORK_ERRORS = (
        http.client.HTTPException,
        urllib.error.URLError,
        OSError,
        ValueError,
    )
    retries = 0 if args.no_retry else max(0, args.retries)
    backoff = RetryPolicy(
        attempts=retries + 1, base_delay=0.2, factor=2.0, max_delay=5.0
    )
    rng = random.Random()

    def _call_once(method: str, path: str, body=None, timeout: float = 30.0):
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if args.tenant is not None:
            headers["X-Repro-Tenant"] = args.tenant
        req = urllib.request.Request(
            base + path,
            data=data,
            method=method,
            headers=headers,
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return (
                    resp.status,
                    json.loads(resp.read().decode("utf-8")),
                    resp.headers,
                )
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read().decode("utf-8") or "{}"), exc.headers

    def _call(method: str, path: str, body=None, timeout: float = 30.0):
        """One logical request: 503s (honouring ``Retry-After``) and dropped
        connections are retried with jittered exponential backoff."""
        attempt = 0
        while True:
            try:
                status, payload, headers = _call_once(method, path, body, timeout)
            except _NETWORK_ERRORS as exc:
                if attempt >= retries:
                    raise
                delay = backoff.delay(attempt + 1, rng)
                print(
                    f"connection dropped ({exc}); retry "
                    f"{attempt + 1}/{retries} in {delay:.1f}s",
                    file=sys.stderr,
                )
            else:
                # 503 = server saturated, 429 = over tenant quota; both carry
                # Retry-After and both deserve the same backoff treatment.
                if status not in (503, 429) or attempt >= retries:
                    return status, payload
                delay = backoff.delay(attempt + 1, rng)
                retry_after = headers.get("Retry-After")
                if retry_after is not None:
                    try:
                        delay = max(delay, float(retry_after))
                    except ValueError:
                        pass
                print(
                    f"server busy ({payload.get('error', 'unavailable')}); "
                    f"retry {attempt + 1}/{retries} in {delay:.1f}s",
                    file=sys.stderr,
                )
            attempt += 1
            time_module.sleep(delay)

    def _item_body(order: int) -> dict:
        body = {"order": order, "kind": args.kind, "priority": args.priority}
        if args.max_time is not None:
            body["max_time"] = args.max_time
        if args.deadline is not None:
            body["deadline"] = args.deadline
        if args.solver is not None:
            body["solver"] = args.solver
        if args.lane is not None:
            body["lane"] = args.lane
        return body

    def _print_solved(payload: dict, order: int) -> None:
        via = payload["source"]
        solver = (payload.get("detail") or {}).get("solver")
        if solver:
            via = f"{via} ({solver})"
        kind = payload.get("kind", args.kind)
        print(f"{kind} order {order} via {via} in {payload['elapsed']:.4f}s")
        _print_solution(kind, payload["solution"])

    if args.batch:
        # One POST /solve-batch call: one HTTP round-trip, one scheduler pass
        # on the server — this is the amortised path for many instances.
        body = {
            "items": [_item_body(order) for order in args.orders],
            "wait": True,
        }
        try:
            # The server holds the response while it solves; the client-side
            # budget is the user's --timeout, not the per-poll default.
            status, payload = _call(
                "POST", "/solve-batch", body, timeout=args.timeout
            )
        except _NETWORK_ERRORS as exc:
            print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
            return 1
        if status != 200:
            print(f"error: {payload.get('error', payload)}", file=sys.stderr)
            return 1
        failures = 0
        for order, item in zip(args.orders, payload["results"]):
            if item.get("status") == "done" and item.get("solved"):
                _print_solved(item, order)
            else:
                failures += 1
                print(f"order {order}: {item}", file=sys.stderr)
        return 0 if failures == 0 else 1

    exit_code = 0
    for order in args.orders:
        try:
            status, payload = _call("POST", "/solve", _item_body(order))
        except _NETWORK_ERRORS as exc:
            print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
            return 1
        if status == 503:
            print(f"server busy: {payload.get('error')}", file=sys.stderr)
            return 2
        if status not in (200, 202):
            print(f"error: {payload.get('error', payload)}", file=sys.stderr)
            return 1
        deadline = time_module.monotonic() + args.timeout
        while status == 202:
            if time_module.monotonic() > deadline:
                print(
                    f"timed out after {args.timeout}s "
                    f"(request {payload.get('request_id')} still pending)",
                    file=sys.stderr,
                )
                return 1
            time_module.sleep(0.2)
            try:
                status, payload = _call("GET", f"/result/{payload['request_id']}")
            except _NETWORK_ERRORS as exc:
                print(f"error: lost contact with {base}: {exc}", file=sys.stderr)
                return 1
        if status != 200 or not payload.get("solved"):
            print(f"unsolved: {payload}", file=sys.stderr)
            exit_code = 1
            continue
        _print_solved(payload, order)
    return exit_code


_DISPATCH = {
    "solve": _cmd_solve,
    "parallel": _cmd_parallel,
    "construct": _cmd_construct,
    "enumerate": _cmd_enumerate,
    "experiment": _cmd_experiment,
    "list-experiments": _cmd_list_experiments,
    "solvers": _cmd_solvers,
    "problems": _cmd_problems,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
    "request": _cmd_request,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _DISPATCH[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
