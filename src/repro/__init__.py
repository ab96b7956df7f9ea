"""repro — reproduction of *Parallel Local Search for the Costas Array Problem*.

Diaz, Richoux, Caniou, Codognet & Abreu (IPPS 2012) model the Costas Array
Problem for the Adaptive Search constraint-based local search method, tune the
model (weighted error function, Chang half-triangle, dedicated reset), and
parallelise the solver as independent multi-walks with nearly linear speed-ups
up to 8,192 cores.  This package rebuilds that whole stack in Python:

* :mod:`repro.costas` — the Costas array domain (validation, difference
  triangle, algebraic constructions, enumeration, symmetries, radar ambiguity);
* :mod:`repro.core` — the Adaptive Search engine and its problem interface;
* :mod:`repro.models` — AS models of the CAP and of the related classic CSPs;
* :mod:`repro.baselines` — Dialectic Search, tabu search, restart hill
  climbing and a complete CP solver for the paper's comparisons;
* :mod:`repro.solvers` — the string-keyed solver registry: every solver
  above behind one strategy protocol, addressable by name from the CLI, the
  multi-walk driver and the service, with heterogeneous portfolio specs
  (``"adaptive+tabu"``) raced first-past-the-post;
* :mod:`repro.parallel` — independent multi-walk parallelism: real
  ``multiprocessing`` execution, a simulated message-passing layer, and a
  virtual-cluster performance model of the paper's machines;
* :mod:`repro.analysis` — run statistics, speed-ups and time-to-target fits;
* :mod:`repro.experiments` — one driver per table and figure of the paper;
* :mod:`repro.service` — solver-as-a-service on top of all of it: a
  persistent symmetry-keyed solution store, a coalescing request scheduler,
  a long-lived worker pool and a stdlib HTTP API (``repro serve``).

Quickstart
----------
>>> from repro import solve_costas
>>> result = solve_costas(12, seed=1)
>>> result.solved
True
>>> result.as_costas_array().order
12
"""

from __future__ import annotations

from typing import Optional

from repro.core import ASParameters, AdaptiveSearch, SolveResult, solve
from repro.core.rng import SeedLike
from repro.models import CostasProblem

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ASParameters",
    "AdaptiveSearch",
    "SolveResult",
    "solve",
    "CostasProblem",
    "solve_costas",
    "parallel_solve_costas",
]


def solve_costas(
    order: int,
    seed: SeedLike = None,
    *,
    params: Optional[ASParameters] = None,
    **model_options,
) -> "CostasSolveResult":
    """Solve the Costas Array Problem of the given *order* with Adaptive Search.

    This is the one-call entry point used by the quickstart example: it builds
    the optimised Costas model (the paper's Section IV-B configuration), picks
    the tuned engine parameters for the order, runs one walk of the default
    engine (the compiled walk; see :func:`repro.solvers.resolve_spec`) and
    returns the result wrapped with a convenience accessor for the validated
    :class:`~repro.costas.array.CostasArray`.

    Parameters
    ----------
    order:
        Costas array order ``n >= 3``.
    seed:
        Seed or generator for reproducibility.
    params:
        Optional engine-parameter override.
    model_options:
        Forwarded to :class:`repro.models.CostasProblem` (e.g.
        ``err_weight="constant"``, ``use_chang=False``).
    """
    from repro.solvers import run_spec

    problem = CostasProblem(order, **model_options)
    result = run_spec(None, problem, seed, problem_kind="costas", as_params=params)
    return CostasSolveResult(result)


def parallel_solve_costas(
    order: int,
    *,
    n_workers: Optional[int] = None,
    params: Optional[ASParameters] = None,
    solver=None,
    seed_root: Optional[int] = None,
    max_time: Optional[float] = None,
    population: int = 1,
):
    """Solve the CAP with the paper's independent multi-walk scheme on this machine.

    One walker process per walk, kept warm for later calls; the first
    solution stops everyone.  Returns a
    :class:`repro.parallel.multiwalk.MultiWalkResult`.  ``solver`` selects the
    strategy (or a heterogeneous portfolio such as ``"adaptive+tabu"``) from
    the :mod:`repro.solvers` registry; the default is the compiled walk
    engine (``"compiled"``), and ``solver="adaptive"`` runs the NumPy engine.
    ``population`` additionally batches that many vectorised compiled-engine
    walks inside each walker process (for strategies that support it).
    """
    from repro.experiments.base import costas_factory
    from repro.parallel.multiwalk import MultiWalkSolver

    parameters = params if params is not None else ASParameters.for_costas(order)
    multiwalk = MultiWalkSolver(
        costas_factory(order),
        parameters,
        solver=solver,
        n_workers=n_workers,
        seed_root=seed_root,
        population=population,
    )
    return multiwalk.solve(max_time=max_time)


class CostasSolveResult:
    """A :class:`~repro.core.result.SolveResult` with Costas-specific accessors."""

    def __init__(self, result: SolveResult) -> None:
        self.result = result

    def __getattr__(self, name):
        return getattr(self.result, name)

    def as_costas_array(self):
        """The solution as a validated :class:`repro.costas.array.CostasArray`.

        Raises ``ValueError`` if the run did not actually find a solution.
        """
        from repro.costas.array import CostasArray

        if not self.result.solved:
            raise ValueError("the run did not find a Costas array")
        return CostasArray.from_permutation(self.result.configuration)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostasSolveResult({self.result.summary()})"
