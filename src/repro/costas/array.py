"""Costas array value object and raw-permutation predicates.

Conventions
-----------
Throughout :mod:`repro` a configuration of the Costas Array Problem of order
``n`` is a **0-based permutation**: a sequence of the integers ``0..n-1`` in
some order, where ``p[i]`` is the row index of the mark in column ``i``.  The
paper (and most of the Costas literature) uses 1-based values; since the Costas
property only involves *differences* of values the two conventions are
equivalent, and :meth:`CostasArray.to_one_based` converts for display.

The functions in this module are deliberately dependency-light (NumPy only) and
are used both by the local-search models and by the exhaustive enumeration
code, so they are written to be cheap for small ``n`` and vectorised for large
``n``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidPermutationError

__all__ = [
    "as_permutation",
    "is_permutation",
    "random_permutation",
    "difference_triangle",
    "is_costas",
    "violation_count",
    "violating_pairs",
    "CostasArray",
]


def as_permutation(values: Sequence[int] | np.ndarray, *, copy: bool = True) -> np.ndarray:
    """Validate *values* as a 0-based permutation and return it as an int array.

    Parameters
    ----------
    values:
        Any sequence of integers.  Must contain each of ``0..len(values)-1``
        exactly once.
    copy:
        When ``False`` and *values* is already a suitable ``np.ndarray``, the
        array is returned as-is (callers must then not mutate it if they rely
        on validation staying true).

    Raises
    ------
    InvalidPermutationError
        If the sequence is empty, contains non-integers, or is not a
        permutation of ``0..n-1``.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise InvalidPermutationError(
            f"expected a 1-D sequence, got array of shape {arr.shape}"
        )
    if arr.size == 0:
        raise InvalidPermutationError("a permutation must have at least one element")
    if not np.issubdtype(arr.dtype, np.integer):
        # Reject floats that are not exactly integral.
        as_int = arr.astype(np.int64, copy=True)
        if not np.array_equal(as_int, arr):
            raise InvalidPermutationError(
                f"permutation entries must be integers, got dtype {arr.dtype}"
            )
        arr = as_int
    else:
        arr = arr.astype(np.int64, copy=copy)
    n = arr.size
    if sorted(arr.tolist()) != list(range(n)):
        raise InvalidPermutationError(
            f"sequence {arr.tolist()} is not a permutation of 0..{n - 1}"
        )
    return arr


def is_permutation(values: Sequence[int] | np.ndarray) -> bool:
    """Return ``True`` iff *values* is a 0-based permutation of ``0..n-1``."""
    try:
        as_permutation(values, copy=False)
    except InvalidPermutationError:
        return False
    return True


def random_permutation(n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Return a uniformly random 0-based permutation of order *n*.

    ``rng`` may be an existing :class:`numpy.random.Generator`, an integer seed
    or ``None`` (fresh entropy).
    """
    if n <= 0:
        raise InvalidPermutationError(f"order must be positive, got {n}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return rng.permutation(n).astype(np.int64)


def difference_triangle(perm: Sequence[int] | np.ndarray) -> List[np.ndarray]:
    """Return the difference triangle of *perm* as a list of rows.

    Row ``d`` (for ``d = 1 .. n-1``, stored at index ``d - 1``) holds the
    ``n - d`` values ``perm[i + d] - perm[i]``.  The permutation is validated.
    """
    p = as_permutation(perm, copy=False)
    n = p.size
    return [p[d:] - p[:-d] for d in range(1, n)]


def _row_duplicate_count(row: np.ndarray) -> int:
    """Number of entries in *row* that repeat an earlier value (0 if all distinct)."""
    if row.size <= 1:
        return 0
    _, counts = np.unique(row, return_counts=True)
    return int(np.sum(counts - 1))


def is_costas(perm: Sequence[int] | np.ndarray) -> bool:
    """Return ``True`` iff *perm* is a permutation whose difference triangle rows
    all contain distinct values (i.e. *perm* is a Costas array).

    Raises :class:`InvalidPermutationError` if *perm* is not a permutation at
    all — silently returning ``False`` for malformed input would make property
    testing and enumeration bugs very hard to notice.
    """
    values = as_permutation(perm, copy=False).tolist()
    n = len(values)
    # By Chang's remark it is sufficient to check d <= (n-1)//2; we still check
    # every row here because this is the reference predicate used to validate
    # the optimised models, and it must not share their assumptions.  Rows are
    # short, so a set of Python ints beats a NumPy sort per row.
    for d in range(1, n):
        if len(set(map(operator.sub, values[d:], values))) != n - d:
            return False
    return True


def violation_count(perm: Sequence[int] | np.ndarray, *, half: bool = False) -> int:
    """Count repeated-difference occurrences across the difference triangle.

    Each entry of a row that duplicates an earlier entry of the same row counts
    as one violation (the counting scheme of the paper's basic model with
    ``ERR(d) = 1``).  ``half=True`` restricts to rows ``d <= (n-1)//2``
    (Chang's observation), which is how the optimised model counts.
    """
    p = as_permutation(perm, copy=False)
    n = p.size
    last = (n - 1) // 2 if half else n - 1
    total = 0
    for d in range(1, last + 1):
        total += _row_duplicate_count(p[d:] - p[:-d])
    return total


def violating_pairs(
    perm: Sequence[int] | np.ndarray,
) -> List[Tuple[int, int, int, int]]:
    """Return the list of violating index pairs.

    Each element is ``(d, i, j, diff)`` meaning columns ``i`` and ``j`` (with
    ``j = i + d`` implied pairs ``(i, i+d)`` and ``(j, j+d)``) share the same
    difference ``diff`` at distance ``d``.  Concretely the tuple records two
    *starting* indices ``i < j`` such that ``perm[i+d]-perm[i] ==
    perm[j+d]-perm[j] == diff``.
    """
    p = as_permutation(perm, copy=False)
    n = p.size
    out: List[Tuple[int, int, int, int]] = []
    for d in range(1, n):
        row = p[d:] - p[:-d]
        index_of: dict[int, List[int]] = {}
        for i, v in enumerate(row):
            index_of.setdefault(int(v), []).append(i)
        for v, idxs in index_of.items():
            if len(idxs) > 1:
                first = idxs[0]
                for j in idxs[1:]:
                    out.append((d, first, j, v))
    return out


@dataclass(frozen=True)
class CostasArray:
    """An immutable, validated Costas array.

    Instances are created from a 0-based permutation (:meth:`from_permutation`),
    from a 1-based permutation as printed in the paper
    (:meth:`from_one_based`), or by the algebraic constructions in
    :mod:`repro.costas.constructions`.  Construction fails with
    :class:`InvalidPermutationError` if the sequence is not a permutation and
    with :class:`ValueError` if it is a permutation but not Costas.
    """

    permutation: Tuple[int, ...]

    # ------------------------------------------------------------------ create
    def __post_init__(self) -> None:
        p = as_permutation(self.permutation, copy=False)
        if not is_costas(p):
            raise ValueError(
                f"permutation {list(self.permutation)} is not a Costas array "
                f"({violation_count(p)} violations)"
            )
        object.__setattr__(self, "permutation", tuple(int(v) for v in p))

    @classmethod
    def from_permutation(cls, perm: Sequence[int] | np.ndarray) -> "CostasArray":
        """Build from a 0-based permutation."""
        return cls(tuple(int(v) for v in np.asarray(perm)))

    @classmethod
    def from_one_based(cls, perm: Sequence[int]) -> "CostasArray":
        """Build from a 1-based permutation (paper convention, e.g. ``[3,4,2,1,5]``)."""
        return cls(tuple(int(v) - 1 for v in perm))

    # ------------------------------------------------------------------ basics
    @property
    def order(self) -> int:
        """Order ``n`` of the array."""
        return len(self.permutation)

    def __len__(self) -> int:
        return self.order

    def __iter__(self) -> Iterator[int]:
        return iter(self.permutation)

    def __getitem__(self, i: int) -> int:
        return self.permutation[i]

    def to_array(self) -> np.ndarray:
        """Return the permutation as a fresh NumPy int64 array (0-based)."""
        return np.array(self.permutation, dtype=np.int64)

    def to_one_based(self) -> Tuple[int, ...]:
        """Return the permutation with 1-based values as used in the paper."""
        return tuple(v + 1 for v in self.permutation)

    def to_grid(self) -> np.ndarray:
        """Return the ``n x n`` 0/1 mark matrix, row 0 at the bottom.

        ``grid[r, c] == 1`` iff the mark of column ``c`` is in row ``r``.
        """
        n = self.order
        grid = np.zeros((n, n), dtype=np.int8)
        for c, r in enumerate(self.permutation):
            grid[r, c] = 1
        return grid

    def difference_triangle(self) -> List[np.ndarray]:
        """The difference triangle (list of rows ``d = 1 .. n-1``)."""
        return difference_triangle(self.to_array())

    def displacement_vectors(self) -> List[Tuple[int, int]]:
        """All ``n(n-1)/2`` displacement vectors ``(dx, dy)`` with ``dx > 0``.

        For a Costas array these are pairwise distinct; this method is mostly
        useful for teaching/visualisation and cross-checking :func:`is_costas`.
        """
        p = self.permutation
        n = self.order
        return [(j - i, p[j] - p[i]) for i in range(n) for j in range(i + 1, n)]

    # ---------------------------------------------------------------- symmetry
    def symmetries(self) -> List["CostasArray"]:
        """The orbit of this array under the dihedral symmetry group (size ≤ 8)."""
        from repro.costas.symmetry import all_symmetries

        seen = set()
        out: List[CostasArray] = []
        for q in all_symmetries(self.to_array()):
            key = tuple(int(v) for v in q)
            if key not in seen:
                seen.add(key)
                out.append(CostasArray(key))
        return out

    def canonical(self) -> "CostasArray":
        """The lexicographically smallest element of the symmetry orbit."""
        from repro.costas.symmetry import canonical_form

        return CostasArray(tuple(int(v) for v in canonical_form(self.to_array())))

    def is_symmetric(self) -> bool:
        """``True`` iff the array equals its transpose (mirror along the diagonal)."""
        from repro.costas.symmetry import transpose

        return tuple(int(v) for v in transpose(self.to_array())) == self.permutation

    # ------------------------------------------------------------------ output
    def render(self, mark: str = "X", empty: str = ".") -> str:
        """ASCII grid rendering (top row printed first, as in the paper's figure)."""
        n = self.order
        lines = []
        for r in range(n - 1, -1, -1):
            lines.append(" ".join(mark if self.permutation[c] == r else empty for c in range(n)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostasArray(order={self.order}, {list(self.to_one_based())})"
