"""String-keyed problem-family registry (`repro.problems`).

The paper's engine is problem-agnostic: every model in :mod:`repro.models`
satisfies :class:`~repro.core.problem.PermutationProblem`, so any solver can
run any of them.  This module is the naming layer that makes each model a
first-class *servable* citizen — the analogue of :mod:`repro.solvers` for
problems.  A :class:`ProblemFamily` bundles everything the upper layers
(store, service, HTTP, CLI, benchmarks) need to treat a problem kind
uniformly:

* ``factory(order, **model_options)`` — build a fresh problem instance;
* ``validator(solution)`` — is this array a genuine solution?  (The store
  re-checks every insert so a corrupted worker cannot poison it.)
* ``symmetry`` — the family's own :class:`SymmetryGroup`.  The persistent
  store keys solutions on the canonical (lexicographically smallest) element
  of the symmetry orbit, so equivalent solutions found by different workers
  dedupe to one row, and a read can expand any group image on demand.
  Costas keeps its dihedral-8 (:mod:`repro.costas.symmetry`); N-Queens gets
  the board rotations/reflections (the same three generators act on the
  permutation encoding); All-Interval gets reverse/complement; Magic Square
  gets the grid dihedral-8 acting on the flattened row-major encoding.
* ``construct(order)`` — optional algebraic shortcut answering the instance
  without search, exactly like Welch/Lempel/Golomb do for Costas: N-Queens
  has an explicit modular solution for every ``n >= 4`` and the All-Interval
  Series has the zigzag construction for every ``n``.
* ``known_count(order)`` — published solution counts where enumerations
  exist, for validation and density quoting.

The registry is deliberately small and import-light: it pulls in
:mod:`repro.models` and :mod:`repro.costas` but nothing from the service
stack, so every layer (including worker child processes) can import it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.costas import symmetry as costas_symmetry
from repro.costas.array import as_permutation, is_costas
from repro.costas.constructions import available_constructions
from repro.costas.constructions import construct as costas_construct
from repro.costas.database import known_count as costas_known_count
from repro.core.problem import PermutationProblem
from repro.exceptions import ConstructionError, SolverError
from repro.models import (
    AllIntervalProblem,
    CostasProblem,
    MagicSquareProblem,
    NQueensProblem,
)

__all__ = [
    "SymmetryGroup",
    "ProblemFamily",
    "register_family",
    "get_family",
    "list_families",
    "family_names",
    "make_problem",
    "problem_factory",
    "IDENTITY_GROUP",
    "DIHEDRAL_GROUP",
    "GRID_DIHEDRAL_GROUP",
    "REVERSE_COMPLEMENT_GROUP",
]


# ---------------------------------------------------------------------- groups
@dataclass(frozen=True)
class SymmetryGroup:
    """A finite group of solution-preserving permutation transforms.

    ``elements`` maps a human-readable name to a transform
    ``perm -> perm``; the first element must be the identity.  The group is
    how the solution store dedupes: :meth:`canonical_form` keys the orbit and
    :meth:`images` expands it back on reads.
    """

    name: str
    elements: Tuple[Tuple[str, Callable[[np.ndarray], np.ndarray]], ...]
    #: Called once per :meth:`images` / :meth:`variant` /
    #: :meth:`canonical_form` call on the ``int64`` input, before any element
    #: acts on it; raises for input the group cannot act on.  The elements
    #: themselves do not validate.
    check: Optional[Callable[[np.ndarray], Any]] = None

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("a symmetry group needs at least the identity element")

    def _as_array(self, perm: Sequence[int] | np.ndarray) -> np.ndarray:
        arr = np.asarray(perm, dtype=np.int64)
        if self.check is not None:
            self.check(arr)
        return arr

    @property
    def order(self) -> int:
        """Number of group elements (images per orbit, duplicates included)."""
        return len(self.elements)

    @property
    def element_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.elements)

    def images(self, perm: Sequence[int] | np.ndarray) -> List[np.ndarray]:
        """All images of *perm*, aligned with :attr:`element_names`
        (duplicates kept, so the list always has :attr:`order` entries)."""
        arr = self._as_array(perm)
        return [op(arr) for _, op in self.elements]

    def variant(self, perm: Sequence[int] | np.ndarray, index: int) -> np.ndarray:
        """The ``index``-th image (taken modulo the group order)."""
        return self.elements[index % self.order][1](self._as_array(perm))

    def orbit(self, perm: Sequence[int] | np.ndarray) -> List[Tuple[int, ...]]:
        """Distinct images of *perm*, as sorted tuples."""
        return sorted({tuple(q.tolist()) for q in self.images(perm)})

    def canonical_form(self, perm: Sequence[int] | np.ndarray) -> np.ndarray:
        """Lexicographically smallest element of the orbit of *perm*."""
        return np.array(min(self.orbit(perm)), dtype=np.int64)


def _identity_op(perm: np.ndarray) -> np.ndarray:
    return perm.copy()


def _reverse_op(perm: np.ndarray) -> np.ndarray:
    return perm[::-1].copy()


def _complement_op(perm: np.ndarray) -> np.ndarray:
    return (perm.size - 1) - perm


def _transpose_op(perm: np.ndarray) -> np.ndarray:
    """The inverse permutation (only meaningful on a permutation)."""
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size, dtype=perm.dtype)
    return inverse


def _check_permutation(arr: np.ndarray) -> None:
    as_permutation(arr, copy=False)


IDENTITY_GROUP = SymmetryGroup("identity", (("identity", _identity_op),))

#: The dihedral group of the square acting on the permutation encoding, in
#: the exact element order of :func:`repro.costas.symmetry.all_symmetries`
#: (and :data:`~repro.costas.symmetry.SYMMETRY_NAMES`), so store reads keyed
#: by variant index stay bit-identical with the pre-registry behaviour.  It is
#: composed from the unvalidated ops above and checks its input once per
#: call, where each public :mod:`repro.costas.symmetry` function would
#: re-validate it.
DIHEDRAL_GROUP = SymmetryGroup(
    "dihedral-8",
    tuple(
        zip(
            costas_symmetry.SYMMETRY_NAMES,
            (
                _identity_op,
                _reverse_op,
                _complement_op,
                lambda p: _complement_op(_reverse_op(p)),
                _transpose_op,
                lambda p: _reverse_op(_transpose_op(p)),
                lambda p: _complement_op(_transpose_op(p)),
                lambda p: _complement_op(_reverse_op(_transpose_op(p))),
            ),
        )
    ),
    check=_check_permutation,
)

def _grid_op(transform: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Lift a 2-D grid transform to the flattened row-major encoding.

    The stored Magic Square array has ``n**2`` entries (``instance_size``),
    so the side is recovered from the array itself and the transform acts on
    the reshaped grid.
    """

    def op(perm: np.ndarray) -> np.ndarray:
        side = math.isqrt(perm.size)
        if side * side != perm.size:
            raise ValueError(
                f"grid symmetry needs a square array, got size {perm.size}"
            )
        return np.ascontiguousarray(transform(perm.reshape(side, side))).reshape(-1)

    return op


#: The dihedral group of the square acting on the *grid* (rotations and
#: reflections of the board itself), lifted to the flattened row-major
#: encoding Magic Square solutions are stored in.  All eight transforms
#: permute rows/columns/diagonals among themselves, so line sums — and hence
#: the magic property — are preserved.
GRID_DIHEDRAL_GROUP = SymmetryGroup(
    "grid-dihedral-8",
    (
        ("identity", _identity_op),
        ("rot90", _grid_op(lambda g: np.rot90(g, 1))),
        ("rot180", _grid_op(lambda g: np.rot90(g, 2))),
        ("rot270", _grid_op(lambda g: np.rot90(g, 3))),
        ("flip-horizontal", _grid_op(np.fliplr)),
        ("flip-vertical", _grid_op(np.flipud)),
        ("transpose", _grid_op(np.transpose)),
        ("anti-transpose", _grid_op(lambda g: np.rot90(g, 2).T)),
    ),
)

#: Reverse / complement group of order 4 (the All-Interval symmetries: both
#: preserve the multiset of successive absolute differences).
REVERSE_COMPLEMENT_GROUP = SymmetryGroup(
    "reverse-complement",
    (
        ("identity", _identity_op),
        ("reverse", _reverse_op),
        ("complement", _complement_op),
        ("reverse+complement", lambda p: _complement_op(_reverse_op(p))),
    ),
)


# -------------------------------------------------------------------- families
@dataclass(frozen=True)
class ProblemFamily:
    """One registry entry: everything needed to build, check and serve a kind."""

    #: Canonical registry key (what clients send as ``kind``).
    name: str
    #: Model class/callable; ``factory(order, **model_options)`` builds a
    #: fresh :class:`~repro.core.problem.PermutationProblem`.
    factory: Callable[..., PermutationProblem]
    #: ``validator(solution) -> bool`` on the stored array encoding.
    validator: Callable[[np.ndarray], bool]
    #: Solution-preserving transforms the store dedupes under.
    symmetry: SymmetryGroup
    #: Smallest order the factory accepts.
    min_order: int
    #: One-line human description for ``repro problems``.
    summary: str
    #: Alternative names accepted by :func:`get_family`.
    aliases: Tuple[str, ...] = ()
    #: Optional algebraic shortcut: ``construct(order) -> solution array``;
    #: raises :class:`~repro.exceptions.ConstructionError` when no
    #: construction applies to *order*.
    construct: Optional[Callable[[int], np.ndarray]] = None
    #: Optional published-count hook: ``known_count(order) -> int | None``.
    known_count: Optional[Callable[[int], Optional[int]]] = None
    #: Length of the stored solution array for a given order (Magic Square
    #: stores the flattened grid, so its arrays have ``order**2`` entries).
    instance_size: Callable[[int], int] = field(default=lambda order: order)

    def make(self, order: int, **model_options: Any) -> PermutationProblem:
        """Build a fresh problem instance of *order*."""
        if order < self.min_order:
            raise SolverError(
                f"{self.name} needs order >= {self.min_order}, got {order}"
            )
        return self.factory(order, **model_options)

    def try_construct(self, order: int) -> Optional[np.ndarray]:
        """Algebraic answer for *order*, or ``None`` when no shortcut applies.

        A returned array is always validated, so a buggy construction can
        never leak an invalid "solution" into the store or a response.
        """
        if self.construct is None or order < self.min_order:
            return None
        try:
            solution = self.construct(order)
        except ConstructionError:
            return None
        arr = np.asarray(solution, dtype=np.int64)
        if not self.validator(arr):  # pragma: no cover - construction bug guard
            raise SolverError(
                f"{self.name} construction produced an invalid solution "
                f"for order {order}"
            )
        return arr

    def canonical_form(self, perm: Sequence[int] | np.ndarray) -> np.ndarray:
        """Canonical representative of *perm* under this family's group."""
        return self.symmetry.canonical_form(perm)

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly description (shared by ``repro problems --json`` and
        the HTTP ``GET /problems`` endpoint, so the two never drift)."""
        return {
            "kind": self.name,
            "aliases": list(self.aliases),
            "min_order": self.min_order,
            "summary": self.summary,
            "symmetry_group": self.symmetry.name,
            "symmetry_order": self.symmetry.order,
            "symmetry_elements": list(self.symmetry.element_names),
            "has_construction": self.construct is not None,
            "has_known_counts": self.known_count is not None,
        }


_REGISTRY: Dict[str, ProblemFamily] = {}
_ALIASES: Dict[str, str] = {}


def register_family(family: ProblemFamily) -> ProblemFamily:
    """Add *family* to the registry (canonical name and aliases must be free)."""
    for key in (family.name, *family.aliases):
        if key in _REGISTRY or key in _ALIASES:
            raise SolverError(f"problem family name {key!r} is already registered")
    _REGISTRY[family.name] = family
    for alias in family.aliases:
        _ALIASES[alias] = family.name
    return family


def get_family(kind: str) -> ProblemFamily:
    """Look a family up by canonical name or alias; raise :class:`SolverError`."""
    key = str(kind).strip().lower()
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise SolverError(
            f"unknown problem kind {kind!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from None


def list_families() -> List[ProblemFamily]:
    """Every registered family, sorted by canonical name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def family_names() -> List[str]:
    """Sorted canonical registry keys."""
    return sorted(_REGISTRY)


def make_problem(kind: str, order: int, **model_options: Any) -> PermutationProblem:
    """Build a fresh problem of *kind* and *order* (registry lookup included)."""
    return get_family(kind).make(order, **model_options)


def problem_factory(
    kind: str, order: int, **model_options: Any
) -> Callable[[], PermutationProblem]:
    """Picklable zero-argument factory for the multiprocessing drivers.

    Resolves the kind eagerly (a typo fails in the parent process) and
    returns a partial of the module-level :func:`make_problem`, which
    pickles under both ``fork`` and ``spawn``.
    """
    get_family(kind)  # fail fast on unknown kinds
    return functools.partial(make_problem, kind, order, **model_options)


# ----------------------------------------------------------------- validators
def _is_permutation(arr: np.ndarray) -> bool:
    return arr.ndim == 1 and np.array_equal(np.sort(arr), np.arange(arr.size))


def _is_queens_solution(arr: np.ndarray) -> bool:
    """No two queens share a row (permutation) or a diagonal."""
    if not _is_permutation(arr):
        return False
    idx = np.arange(arr.size)
    return (
        np.unique(idx + arr).size == arr.size
        and np.unique(idx - arr).size == arr.size
    )


def _is_all_interval_solution(arr: np.ndarray) -> bool:
    """The successive absolute differences are pairwise distinct."""
    if not _is_permutation(arr):
        return False
    diffs = np.abs(np.diff(arr))
    return np.unique(diffs).size == diffs.size


def _is_magic_square_solution(arr: np.ndarray) -> bool:
    """A flattened permutation of ``0..n^2-1`` whose lines all sum to M."""
    if arr.ndim != 1:
        return False
    side = math.isqrt(arr.size)
    if side * side != arr.size or not _is_permutation(arr):
        return False
    grid = arr.reshape(side, side)
    magic = side * (side * side - 1) // 2
    return (
        bool(np.all(grid.sum(axis=1) == magic))
        and bool(np.all(grid.sum(axis=0) == magic))
        and int(np.trace(grid)) == magic
        and int(np.trace(np.fliplr(grid))) == magic
    )


# -------------------------------------------------------------- constructions
def _construct_costas(order: int) -> np.ndarray:
    if not available_constructions(order):
        raise ConstructionError(f"no algebraic Costas construction for order {order}")
    return costas_construct(order).to_array()


def _construct_queens(order: int) -> np.ndarray:
    """Explicit modular N-Queens solution, valid for every ``n >= 4``.

    The classical closed form: take the even rows ``2, 4, .., n`` followed by
    the odd rows ``1, 3, .., n-1`` as the column-indexed row list.  When
    ``n mod 6`` is 2 or 3 that list has diagonal collisions and the two known
    repairs apply: for remainder 2 swap rows 1 and 3 and move 5 to the end of
    the odd block; for remainder 3 move row 2 to the end of the even block
    and rows 1, 3 to the end of the odd block.  (Values 1-based here,
    converted to the library's 0-based encoding on return.)
    """
    if order < 4:
        raise ConstructionError(f"N-Queens has no solution below order 4, got {order}")
    evens = list(range(2, order + 1, 2))
    odds = list(range(1, order + 1, 2))
    remainder = order % 6
    if remainder == 2:
        i1, i3 = odds.index(1), odds.index(3)
        odds[i1], odds[i3] = 3, 1
        odds.remove(5)
        odds.append(5)
    elif remainder == 3:
        evens.remove(2)
        evens.append(2)
        odds.remove(1)
        odds.remove(3)
        odds.extend([1, 3])
    rows = evens + odds
    return np.asarray(rows, dtype=np.int64) - 1


def _construct_all_interval(order: int) -> np.ndarray:
    """The zigzag construction ``0, n-1, 1, n-2, ...`` — valid for every n.

    Its successive absolute differences are exactly ``n-1, n-2, .., 1``.
    """
    if order < 3:
        raise ConstructionError(f"All-Interval needs order >= 3, got {order}")
    zigzag = np.empty(order, dtype=np.int64)
    zigzag[0::2] = np.arange((order + 1) // 2)
    zigzag[1::2] = order - 1 - np.arange(order // 2)
    return zigzag


# --------------------------------------------------------------- known counts
#: Published N-Queens solution counts (OEIS A000170, all solutions).
KNOWN_QUEENS_COUNTS: Dict[int, int] = {
    4: 2,
    5: 10,
    6: 4,
    7: 40,
    8: 92,
    9: 352,
    10: 724,
    11: 2680,
    12: 14200,
}

#: Published Magic Square counts including rotations/reflections (8x the
#: classical "essentially different" counts: 1 for n=3, 880 for n=4).
KNOWN_MAGIC_COUNTS: Dict[int, int] = {3: 8, 4: 7040}


# ------------------------------------------------------------------- registry
register_family(
    ProblemFamily(
        name="costas",
        factory=CostasProblem,
        validator=is_costas,
        symmetry=DIHEDRAL_GROUP,
        min_order=3,
        summary="Costas Array Problem: all displacement vectors between marks "
        "distinct (the paper's target problem)",
        aliases=("costas-array", "cap"),
        construct=_construct_costas,
        known_count=costas_known_count,
    )
)

register_family(
    ProblemFamily(
        name="queens",
        factory=NQueensProblem,
        validator=_is_queens_solution,
        symmetry=DIHEDRAL_GROUP,
        min_order=4,
        summary="N-Queens: place n non-attacking queens on an n x n board",
        aliases=("n-queens", "nqueens"),
        construct=_construct_queens,
        known_count=lambda order: KNOWN_QUEENS_COUNTS.get(order),
    )
)

register_family(
    ProblemFamily(
        name="all-interval",
        factory=AllIntervalProblem,
        validator=_is_all_interval_solution,
        symmetry=REVERSE_COMPLEMENT_GROUP,
        min_order=3,
        summary="All-Interval Series (CSPLib prob007): successive absolute "
        "differences pairwise distinct",
        aliases=("all_interval", "allinterval", "series"),
        construct=_construct_all_interval,
    )
)

register_family(
    ProblemFamily(
        name="magic-square",
        factory=MagicSquareProblem,
        validator=_is_magic_square_solution,
        symmetry=GRID_DIHEDRAL_GROUP,
        min_order=3,
        summary="Magic Square (CSPLib prob019): fill n x n with 0..n^2-1 so "
        "every line sums to the magic constant",
        aliases=("magic_square", "magicsquare", "magic"),
        known_count=lambda order: KNOWN_MAGIC_COUNTS.get(order),
        instance_size=lambda order: order * order,
    )
)
