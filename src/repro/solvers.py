"""String-keyed solver registry and portfolio specs (`repro.solvers`).

Every solver in the repository — the Adaptive Search engine and the four
baselines — satisfies the :class:`~repro.core.strategy.SearchStrategy`
protocol, so any layer that can name a solver can run it.  This module is the
naming layer:

* :func:`get_solver` / :func:`list_solvers` — the registry proper.  Each
  entry carries the solver class, its parameter dataclass and a tuned-default
  hook, so callers resolve parameters from plain dicts (the form they arrive
  in over HTTP or a job queue) without knowing the solver.
* :class:`SolverSpec` — the serialisable "which solver, with which
  parameters" value that crosses every process/HTTP boundary.  Specs are
  plain data: ``{"name": "tabu", "params": {"tenure": 8}}``.
* :func:`resolve_portfolio` — turns a user-facing solver selection into a
  list of specs.  A selection may be a single name (``"tabu"``), an inline
  portfolio (``"adaptive+tabu"`` — members assigned round-robin across
  walks), a registered portfolio name (``"mixed"``), a spec dict, or a list
  of any of those.
* :func:`build_solver` / :func:`run_spec` — instantiate and execute a spec
  against a problem with the uniform run-control hooks.

The registry makes heterogeneous *portfolio parallelism* possible: the
multi-walk driver and the service assign one spec per walk, first solution
wins, which is the paper's first-past-the-post termination applied across
different strategies instead of only across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.baselines.cp_solver import CPBacktrackingSolver, CPParameters
from repro.baselines.dialectic import DialecticSearch, DialecticSearchParameters
from repro.baselines.random_restart import (
    RandomRestartHillClimbing,
    RandomRestartParameters,
)
from repro.baselines.tabu import TabuSearch, TabuSearchParameters
from repro.core.cwalk import CompiledAdaptiveSearch
from repro.core.engine import AdaptiveSearch
from repro.core.params import ASParameters
from repro.core.problem import PermutationProblem
from repro.core.result import SolveResult
from repro.exceptions import SolverError
from repro.problems import get_family

__all__ = [
    "SolverInfo",
    "SolverSpec",
    "build_solver",
    "canonical_portfolio",
    "get_solver",
    "list_portfolios",
    "list_solvers",
    "portfolio_label",
    "register_portfolio",
    "register_solver",
    "resolve_portfolio",
    "resolve_spec",
    "run_spec",
    "solver_names",
]

#: Spec-ish values accepted anywhere a solver can be chosen.
SpecLike = Union[None, str, Mapping[str, Any], "SolverSpec"]


@dataclass(frozen=True)
class SolverInfo:
    """One registry entry: everything needed to build and describe a solver."""

    #: Canonical registry key (what clients send).
    name: str
    #: Solver class; ``factory(params)`` must build a ready strategy object.
    factory: Callable[[Optional[Any]], Any]
    #: Parameter dataclass resolved from plain dicts.
    params_cls: type
    #: One-line human description for ``repro solvers``.
    summary: str
    #: Alternative names accepted by :func:`get_solver`.
    aliases: Tuple[str, ...] = ()
    #: The ``SolveResult.solver`` string this strategy reports.
    result_name: str = ""
    #: Problem kinds the solver accepts ("permutation" = any
    #: :class:`PermutationProblem`; "costas" = Costas instances only).
    problem_kinds: Tuple[str, ...] = ("permutation",)
    #: Optional tuned defaults: ``default_params(kind, order)`` returns a
    #: params instance (or ``None`` to fall back to ``params_cls()``).
    default_params: Optional[Callable[[str, int], Any]] = None

    def make(self, params: Optional[Any] = None) -> Any:
        """Instantiate the solver with *params* (``None`` = class defaults)."""
        return self.factory(params)

    def param_defaults(self) -> Dict[str, Any]:
        """The parameter dataclass defaults as a plain dict (for ``--json``)."""
        instance = self.params_cls()
        return {f.name: getattr(instance, f.name) for f in fields(self.params_cls)}


def _freeze(value: Any) -> Any:
    """Recursively convert *value* into a hashable equivalent."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass(frozen=True)
class SolverSpec:
    """A serialisable solver selection: registry name plus parameter overrides."""

    name: str
    params: Optional[Mapping[str, Any]] = field(default=None)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form (what crosses pickling/JSON boundaries)."""
        return {"name": self.name, "params": dict(self.params) if self.params else None}

    def canonical(self) -> Tuple[Any, ...]:
        """Hashable identity used in coalescing keys and caches.

        Parameter values are frozen recursively, so a spec whose params hold
        lists (e.g. straight from JSON) still yields a usable dict key.
        """
        if not self.params:
            return (self.name,)
        return (self.name, tuple(sorted((k, _freeze(v)) for k, v in self.params.items())))


_REGISTRY: Dict[str, SolverInfo] = {}
_ALIASES: Dict[str, str] = {}
_PORTFOLIOS: Dict[str, Tuple[str, ...]] = {}


def register_solver(info: SolverInfo) -> SolverInfo:
    """Add *info* to the registry (canonical name and aliases must be free)."""
    for key in (info.name, *info.aliases):
        if key in _REGISTRY or key in _ALIASES:
            raise SolverError(f"solver name {key!r} is already registered")
    _REGISTRY[info.name] = info
    for alias in info.aliases:
        _ALIASES[alias] = info.name
    return info


def register_portfolio(name: str, members: Sequence[str]) -> None:
    """Register a named portfolio (a reusable list of solver names)."""
    if name in _REGISTRY or name in _ALIASES:
        raise SolverError(f"portfolio name {name!r} collides with a solver name")
    resolved = tuple(get_solver(member).name for member in members)
    if not resolved:
        raise SolverError("a portfolio needs at least one member")
    _PORTFOLIOS[name] = resolved


def get_solver(name: str) -> SolverInfo:
    """Look a solver up by canonical name or alias; raise :class:`SolverError`."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise SolverError(
            f"unknown solver {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from None


def list_solvers() -> List[SolverInfo]:
    """Every registered solver, sorted by canonical name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def solver_names() -> List[str]:
    """Sorted canonical registry keys."""
    return sorted(_REGISTRY)


def list_portfolios() -> Dict[str, Tuple[str, ...]]:
    """Registered named portfolios (name -> member solver names)."""
    return dict(_PORTFOLIOS)


# ------------------------------------------------------------------- resolution
def _resolve_params(info: "SolverInfo", params: Optional[Mapping[str, Any]]) -> Any:
    """Build ``info``'s parameter dataclass from a plain dict, or fail loudly."""
    try:
        return info.params_cls(**dict(params or {}))
    except (TypeError, ValueError) as exc:
        raise SolverError(
            f"invalid parameters for solver {info.name!r}: {exc}"
        ) from exc


def resolve_spec(spec: SpecLike) -> SolverSpec:
    """Normalise a single solver selection into a :class:`SolverSpec`.

    Accepts ``None`` (the default solver), a name/alias string, a
    ``{"name": ..., "params": {...}}`` mapping or an existing spec.  The name
    **and parameters** are validated against the registry here, so a bad
    request fails with :class:`SolverError` at the resolution boundary (an
    HTTP 400) instead of deep inside a worker or a queue key.

    ``None`` resolves to ``"compiled"``, the compiled walk engine, and this is
    the one place that default is decided: every layer that runs a walk
    without naming a solver (``solve_costas``, the multi-walk driver, the
    worker pool, the service, the experiment pools) comes through here.  The
    engine delegates to the NumPy ``"adaptive"`` engine on its own for
    families it does not compile and in builds without the C kernels.
    """
    if spec is None:
        return SolverSpec("compiled")
    if isinstance(spec, SolverSpec):
        info = get_solver(spec.name)
        if spec.params:
            _resolve_params(info, spec.params)
        return SolverSpec(info.name, spec.params or None)
    if isinstance(spec, str):
        return SolverSpec(get_solver(spec).name)
    if isinstance(spec, Mapping):
        if "name" not in spec:
            raise SolverError(f"solver spec {spec!r} lacks a 'name' field")
        params = spec.get("params")
        if params is not None and not isinstance(params, Mapping):
            raise SolverError(f"solver params must be a mapping, got {params!r}")
        info = get_solver(str(spec["name"]))
        if params:
            _resolve_params(info, params)
        return SolverSpec(info.name, dict(params) if params else None)
    raise SolverError(f"cannot interpret {spec!r} as a solver spec")


def resolve_portfolio(spec: SpecLike | Sequence[SpecLike]) -> List[SolverSpec]:
    """Normalise a solver selection into the list of specs of a portfolio.

    ``None`` or a single spec yield a one-element list; ``"a+b"`` strings and
    registered portfolio names expand to their members; lists resolve
    element-wise.  Walks are assigned specs round-robin by the callers.
    """
    if spec is None:
        return [resolve_spec(None)]
    if isinstance(spec, str):
        key = spec.strip().lower()
        if key in _PORTFOLIOS:
            return [SolverSpec(name) for name in _PORTFOLIOS[key]]
        if "+" in key:
            members = [part.strip() for part in key.split("+") if part.strip()]
            if not members:
                raise SolverError(f"empty portfolio spec {spec!r}")
            return [resolve_spec(member) for member in members]
        return [resolve_spec(key)]
    if isinstance(spec, (SolverSpec, Mapping)):
        return [resolve_spec(spec)]
    if isinstance(spec, Sequence):
        if not spec:
            raise SolverError("a portfolio needs at least one member")
        return [resolve_spec(member) for member in spec]
    raise SolverError(f"cannot interpret {spec!r} as a solver portfolio")


def canonical_portfolio(spec: SpecLike | Sequence[SpecLike]) -> Tuple[Tuple[Any, ...], ...]:
    """Hashable identity of a portfolio selection (for coalescing keys)."""
    return tuple(member.canonical() for member in resolve_portfolio(spec))


def portfolio_label(specs: Sequence[SolverSpec]) -> str:
    """Human/metric label of a portfolio: ``"adaptive+tabu"``."""
    return "+".join(member.name for member in specs)


# ------------------------------------------------------------------ execution
def build_solver(
    spec: SpecLike,
    *,
    problem_kind: str = "",
    order: Optional[int] = None,
    as_params: Optional[ASParameters] = None,
) -> Tuple[Any, SolverInfo]:
    """Instantiate the solver selected by *spec* with resolved parameters.

    Parameter resolution order:

    1. explicit ``spec.params`` — validated against the solver's parameter
       dataclass (unknown or invalid fields raise :class:`SolverError`);
    2. ``as_params`` — a caller-supplied :class:`ASParameters` honoured by the
       two Adaptive Search engines only;
    3. the registry's tuned defaults for ``(problem_kind, order)`` when known
       (:func:`run_spec` works ``problem_kind`` out from its problem);
    4. the parameter dataclass defaults.
    """
    resolved = resolve_spec(spec)
    info = get_solver(resolved.name)
    params: Optional[Any] = None
    if resolved.params:
        params = _resolve_params(info, resolved.params)
    elif info.name in ("adaptive", "compiled") and as_params is not None:
        params = as_params
    elif info.default_params is not None and order is not None:
        params = info.default_params(problem_kind, order)
    return info.make(params), info


def _family_kind(problem: PermutationProblem) -> str:
    """The problem family that claims *problem*'s name (through the family
    registry's aliases, so ``"nqueens"`` is ``"queens"``), or ``""`` when no
    family does."""
    try:
        return get_family(problem.name).name
    except SolverError:
        return ""


def run_spec(
    spec: SpecLike,
    problem: PermutationProblem,
    seed: Any = None,
    *,
    stop_check: Optional[Callable[[], bool]] = None,
    callbacks: Optional[Any] = None,
    max_time: Optional[float] = None,
    as_params: Optional[ASParameters] = None,
    population: int = 1,
) -> SolveResult:
    """Build the solver for *spec* and run it on *problem* in one call.

    This is where a walk's Adaptive Search table is chosen when its caller
    names none: the spec's own ``params`` win, then ``as_params``, then the
    registry's tuned table for the family that claims ``problem.name`` at
    ``problem.size``; a name no family claims gets the generic table
    (:meth:`ASParameters.for_problem_size`).

    ``population > 1`` asks for a vectorised in-process population: when the
    resolved solver implements ``solve_population`` (the compiled walk
    engine), one call advances *population* independent walks in a single
    kernel batch and the best walk's result is returned, with the siblings'
    aggregate iteration count in ``extra["population_iterations"]``.  Solvers
    without population support run a single walk — population is a
    parallelism knob, not a solver parameter, so it degrades rather than
    erroring.
    """
    solver, _ = build_solver(
        spec,
        problem_kind=_family_kind(problem),
        order=problem.size,
        as_params=as_params,
    )
    if population > 1 and hasattr(solver, "solve_population"):
        results = solver.solve_population(
            problem,
            seed=seed,
            population=population,
            stop_check=stop_check,
            callbacks=callbacks,
            max_time=max_time,
        )
        best = SolveResult.best_of(results)
        best.extra = dict(best.extra)
        best.extra["population_iterations"] = sum(r.iterations for r in results)
        return best
    return solver.solve(
        problem,
        seed=seed,
        stop_check=stop_check,
        callbacks=callbacks,
        max_time=max_time,
    )


# ------------------------------------------------------------- built-in solvers
def _queens_defaults(order: int) -> ASParameters:
    """Tuned Adaptive Search table for N-Queens.

    Queens is a min-conflict showcase: plenty of variables are wrong at once,
    so a higher reset threshold with a larger reset fraction beats the
    one-culprit Costas policy, and short tabu tenures keep the walk moving.
    """
    return ASParameters.for_problem_size(
        max(2, order),
        tabu_tenure=max(2, order // 16),
        reset_limit=max(2, round(order * 0.1)),
        reset_percentage=0.15,
        plateau_probability=0.5,
        local_min_accept_probability=0.0,
    )


def _all_interval_defaults(order: int) -> ASParameters:
    """Tuned Adaptive Search table for the All-Interval Series.

    All-Interval is plateau-heavy with deceptive local minima: longer tabu
    tenures, a single-culprit reset trigger and a 50% chance of escaping a
    local minimum uphill (instead of freezing the culprit) measured ~2.5x
    fewer iterations than the generic table at n=12 on a 12-seed sweep.
    """
    return ASParameters.for_problem_size(
        max(2, order),
        tabu_tenure=max(2, order // 4),
        reset_limit=1,
        reset_percentage=0.1,
        plateau_probability=0.9,
        local_min_accept_probability=0.5,
    )


def _magic_square_defaults(order: int) -> ASParameters:
    """Tuned Adaptive Search table for Magic Square.

    ``order`` is the number of variables, i.e. ``n**2`` for an ``n x n``
    square.  Plateau-following is the documented refinement for Magic
    Square-like problems (see :class:`ASParameters`); a short tenure with an
    occasional uphill escape halved the 5x5 iteration count versus the
    generic table on an 8-seed sweep.
    """
    return ASParameters.for_problem_size(
        max(2, order),
        tabu_tenure=2,
        reset_limit=max(2, order // 12),
        reset_percentage=0.1,
        plateau_probability=0.9,
        local_min_accept_probability=0.1,
    )


#: Per-family tuned Adaptive Search tables, resolved by the registry's
#: tuned-default hook when a request does not override parameters.
_ADAPTIVE_FAMILY_DEFAULTS: Dict[str, Callable[[int], ASParameters]] = {
    "queens": _queens_defaults,
    "all-interval": _all_interval_defaults,
    "magic-square": _magic_square_defaults,
}


def _adaptive_defaults(kind: str, order: int) -> ASParameters:
    if kind == "costas" and order >= 3:
        return ASParameters.for_costas(order)
    family_table = _ADAPTIVE_FAMILY_DEFAULTS.get(kind)
    if family_table is not None:
        return family_table(order)
    return ASParameters.for_problem_size(max(2, order))


register_solver(
    SolverInfo(
        name="adaptive",
        factory=lambda params: AdaptiveSearch(params=params),
        params_cls=ASParameters,
        summary="Adaptive Search (the paper's engine): error-guided min-conflict "
        "with tabu marking, resets and restarts",
        aliases=("adaptive-search", "as"),
        result_name="adaptive-search",
        problem_kinds=("permutation",),
        default_params=_adaptive_defaults,
    )
)

register_solver(
    SolverInfo(
        name="compiled",
        factory=lambda params: CompiledAdaptiveSearch(params=params),
        params_cls=ASParameters,
        summary="Adaptive Search with the whole inner loop compiled to C "
        "(batched multi-walk populations; NumPy-engine fallback when no "
        "C toolchain or for non-compiled families)",
        aliases=("compiled-adaptive-search", "cwalk"),
        result_name="compiled-adaptive-search",
        problem_kinds=("permutation",),
        default_params=_adaptive_defaults,
    )
)

register_solver(
    SolverInfo(
        name="tabu",
        factory=lambda params: TabuSearch(params=params),
        params_cls=TabuSearchParameters,
        summary="Best-improvement tabu search over the full swap neighbourhood "
        "with aspiration and stagnation restarts",
        aliases=("tabu-search",),
        result_name="tabu-search",
        problem_kinds=("permutation",),
    )
)

register_solver(
    SolverInfo(
        name="random-restart",
        factory=lambda params: RandomRestartHillClimbing(params=params),
        params_cls=RandomRestartParameters,
        summary="Best-improvement hill climbing restarted from scratch at every "
        "local minimum (Rickard & Healy's 'too simple' policy)",
        aliases=("random-restart-hill-climbing", "rr", "hill-climbing"),
        result_name="random-restart-hill-climbing",
        problem_kinds=("permutation",),
    )
)

register_solver(
    SolverInfo(
        name="dialectic",
        factory=lambda params: DialecticSearch(params=params),
        params_cls=DialecticSearchParameters,
        summary="Dialectic Search (Kadioglu & Sellmann): thesis/antithesis/"
        "synthesis walks with greedy exploitation",
        aliases=("dialectic-search", "ds"),
        result_name="dialectic-search",
        problem_kinds=("permutation",),
    )
)

register_solver(
    SolverInfo(
        name="cp",
        factory=lambda params: CPBacktrackingSolver(params=params),
        params_cls=CPParameters,
        summary="Complete backtracking + forward checking on the Costas "
        "difference constraints (the paper's CP comparison)",
        aliases=("cp-backtracking", "cp-solver"),
        result_name="cp-backtracking",
        problem_kinds=("costas",),
    )
)

#: Built-in named portfolios.  "mixed" is the heterogeneous default used by
#: the benchmarks: AS walks carry the solving load while tabu/dialectic walks
#: diversify the race (first past the post wins).
register_portfolio("mixed", ("adaptive", "tabu", "dialectic"))
register_portfolio("local-search", ("adaptive", "tabu", "dialectic", "random-restart"))
