"""Adaptive Search model of the Costas Array Problem (Section IV of the paper).

The configuration is a permutation ``p`` of ``0..n-1`` (``p[i]`` = row of the
mark in column ``i``).  The error functions are defined on the *difference
triangle*: every repeated value in row ``d`` adds ``ERR(d)`` to the global
cost and to the error of both columns of the repeated cell.

The model supports the paper's three refinements independently, so each can be
ablated:

``err_weight``
    ``"constant"`` — the basic model, ``ERR(d) = 1``;
    ``"quadratic"`` — the optimised model, ``ERR(d) = n² − d²`` (errors at
    short distances, whose rows contain more cells, are penalised more; the
    paper reports ≈ 17% faster solving).

``use_chang``
    Restrict the triangle to rows ``d ≤ ⌊(n−1)/2⌋``.  By Chang's remark a
    repeated difference at a larger distance always induces one at a smaller
    distance, so this is lossless and saves ≈ 30% of the evaluation work.

``dedicated_reset``
    Replace the generic "re-randomise RP% of the variables" reset by the
    paper's three-family perturbation procedure (sub-array circular shifts
    around the most erroneous variable, adding a constant modulo ``n``, and a
    prefix shift up to a random erroneous variable), reported to be worth a
    further ≈ 3.7×.

Two implementations of the same model are provided:

* :class:`CostasProblem` — the **incremental** path the engine uses.  It
  maintains per-distance difference-value count tables (an
  ``(max_d, 2n−1)`` occurrence matrix) plus the current difference rows, so
  an applied swap touches O(d) cells and :meth:`CostasProblem.swap_deltas`
  scores all ``n`` candidate swaps of the culprit variable from the O(n·d)
  affected cells instead of rebuilding and sorting ``n`` candidate
  permutations.  ``cost``/``variable_errors`` are cached reads invalidated
  incrementally.  The data structure and its per-swap update rules are
  documented in ``DESIGN.md``.
* :class:`ReferenceCostasProblem` — the original full-recompute path
  (``swap_deltas`` builds an ``(n, n)`` candidate matrix and sorts every
  difference-triangle row; ``apply_swap`` re-scores from scratch), kept as
  the obviously-correct reference: the property tests assert bit-exact
  cost/error/delta equivalence between both paths, and the
  ``bench_incremental_vs_reference`` harness measures the speed-up.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core import _ckernels
from repro.core.incremental import dup_count, dup_delta_from_net, net_occurrence_change
from repro.core.problem import PermutationProblem
from repro.costas.array import is_costas
from repro.exceptions import ModelError

__all__ = [
    "CostasProblem",
    "ReferenceCostasProblem",
    "basic_costas_problem",
    "optimized_costas_problem",
]

_INT64_MAX = np.iinfo(np.int64).max


class _CostasBase(PermutationProblem):
    """Shared configuration, scoring semantics and reset machinery.

    Everything that defines *what* the Costas model computes lives here —
    weights, Chang's half-triangle restriction, the reference full-evaluation
    :meth:`_full_cost`, and the dedicated reset procedure.  Subclasses only
    differ in *how* the per-iteration queries (cost, errors, swap deltas) are
    evaluated, which is exactly the contract the equivalence tests pin down.

    Parameters
    ----------
    order:
        Array order ``n >= 3``.
    err_weight:
        ``"quadratic"`` (default, optimised model) or ``"constant"`` (basic model).
    use_chang:
        Evaluate only rows ``d <= (n-1)//2`` of the difference triangle
        (default ``True``).
    dedicated_reset:
        Use the paper's custom reset procedure (default ``True``).
    reset_constants:
        Constants tried by the "add a constant modulo n" perturbation of the
        dedicated reset; defaults to the paper's ``(1, 2, n-2, n-3)``.
    """

    def __init__(
        self,
        order: int,
        *,
        err_weight: str = "quadratic",
        use_chang: bool = True,
        dedicated_reset: bool = True,
        reset_constants: Optional[Sequence[int]] = None,
        name: str = "costas",
    ) -> None:
        if order < 3:
            raise ModelError(f"CostasProblem requires order >= 3, got {order}")
        super().__init__(order, name=name)
        n = order
        self._use_chang = bool(use_chang)
        self._dedicated_reset = bool(dedicated_reset)
        self._max_d = (n - 1) // 2 if use_chang else n - 1

        if err_weight == "quadratic":
            weights = np.array([n * n - d * d for d in range(n)], dtype=np.int64)
        elif err_weight == "constant":
            weights = np.ones(n, dtype=np.int64)
        else:
            raise ModelError(
                f"err_weight must be 'quadratic' or 'constant', got {err_weight!r}"
            )
        self._err_weight_name = err_weight
        self._weights = weights

        if reset_constants is None:
            candidates = [1, 2, n - 2, n - 3]
        else:
            candidates = list(reset_constants)
        self._reset_constants = sorted(
            {c % n for c in candidates if c % n != 0}
        )

    # ---------------------------------------------------------------- queries
    @property
    def order(self) -> int:
        """Order ``n`` of the Costas array being searched."""
        return self.size

    @property
    def max_distance(self) -> int:
        """Largest difference-triangle row the model evaluates."""
        return self._max_d

    @property
    def err_weight_name(self) -> str:
        """Name of the error weighting in use (``"constant"`` or ``"quadratic"``)."""
        return self._err_weight_name

    @property
    def uses_dedicated_reset(self) -> bool:
        """Whether the paper's custom reset procedure is enabled."""
        return self._dedicated_reset

    def describe(self) -> str:
        return (
            f"{self.name}(n={self.size}, err={self._err_weight_name}, "
            f"chang={self._use_chang}, dedicated_reset={self._dedicated_reset})"
        )

    # ------------------------------------------------------------------- state
    def _validated(self, perm: Sequence[int] | np.ndarray) -> np.ndarray:
        arr = np.asarray(perm, dtype=np.int64)
        if arr.shape != (self.size,):
            raise ModelError(
                f"expected a configuration of length {self.size}, got shape {arr.shape}"
            )
        if not np.array_equal(np.sort(arr), np.arange(self.size)):
            raise ModelError("configuration is not a permutation of 0..n-1")
        return arr.copy()

    def configuration(self) -> np.ndarray:
        return self._perm.copy()

    # -------------------------------------------------------------------- cost
    def _full_cost(self, perm: np.ndarray) -> int:
        """Reference evaluation: sort each triangle row, count duplicates."""
        total = 0
        for d in range(1, self._max_d + 1):
            row = np.sort(perm[d:] - perm[:-d])
            dups = int(np.count_nonzero(row[1:] == row[:-1]))
            if dups:
                total += int(self._weights[d]) * dups
        return total

    def is_solution(self) -> bool:
        return self.cost() == 0

    # ------------------------------------------------------------------- reset
    def reset_candidates(self, rng: np.random.Generator) -> List[np.ndarray]:
        """Generate the perturbations of the paper's dedicated reset (Section IV-B).

        Three families, all anchored on the most erroneous column ``Vm``:

        1. every sub-array ending at ``Vm`` (``[i..m]``) or starting at ``Vm``
           (``[m..j]``), shifted circularly by one cell to the left and to the
           right;
        2. the whole permutation with a constant added modulo ``n``
           (constants 1, 2, n-2, n-3 by default);
        3. the prefix ending at a randomly chosen erroneous column different
           from ``Vm``, shifted left by one cell (at most three such columns
           are tried).
        """
        p = self._perm
        n = self.size
        errors = self.variable_errors()
        worst = int(errors.max())
        worst_positions = np.flatnonzero(errors == worst)
        vm = int(worst_positions[rng.integers(worst_positions.size)])

        candidates: List[np.ndarray] = []

        # 1. Circular shifts of every sub-array ending or starting at vm.
        segments = [(i, vm) for i in range(vm)] + [
            (vm, j) for j in range(vm + 1, n)
        ]
        for lo, hi in segments:
            for direction in (-1, 1):
                cand = p.copy()
                cand[lo : hi + 1] = np.roll(cand[lo : hi + 1], direction)
                candidates.append(cand)

        # 2. Add a constant modulo n to every value.
        for c in self._reset_constants:
            candidates.append((p + c) % n)

        # 3. Left-shift the prefix ending at a random erroneous column != vm.
        erroneous = np.flatnonzero(errors > 0)
        erroneous = erroneous[erroneous != vm]
        if erroneous.size > 0:
            picks = rng.permutation(erroneous)[:3]
            for e in picks:
                e = int(e)
                if e < 1:
                    continue
                cand = p.copy()
                cand[: e + 1] = np.roll(cand[: e + 1], -1)
                candidates.append(cand)
        return candidates

    def custom_reset(self, rng: np.random.Generator) -> Optional[np.ndarray]:
        """The paper's dedicated reset procedure (Section IV-B).

        Candidate perturbations (see :meth:`reset_candidates`) are examined in
        random order; the first one whose cost is strictly lower than the
        current cost is returned immediately ("the local minimum is considered
        as escaped").  When none improves, one of the minimum-cost candidates
        is returned (ties broken uniformly at random, so repeated resets from
        the same configuration do not cycle deterministically).

        Returns ``None`` when the model was built with
        ``dedicated_reset=False`` so the engine falls back to its generic
        partial reset.
        """
        if not self._dedicated_reset:
            return None

        entry_cost = self.cost()
        candidates = self.reset_candidates(rng)
        if not candidates:
            return None

        best_cost = _INT64_MAX
        best: List[np.ndarray] = []
        for index in rng.permutation(len(candidates)):
            cand = candidates[int(index)]
            c = self._full_cost(cand)
            if c < entry_cost:
                return cand
            if c < best_cost:
                best_cost = c
                best = [cand]
            elif c == best_cost:
                best.append(cand)
        return best[int(rng.integers(len(best)))]

    # ----------------------------------------------------------------- exports
    def as_costas_array(self):
        """Return the current configuration as a validated
        :class:`repro.costas.array.CostasArray` (raises if it is not a solution)."""
        from repro.costas.array import CostasArray

        return CostasArray.from_permutation(self._perm)


class CostasProblem(_CostasBase):
    """Incremental evaluation of the Costas model (the engine's default path).

    State beyond the permutation (all derived, rebuilt by
    :meth:`set_configuration`, updated in O(d) cells per applied swap):

    ``_rows``
        ``(max_d + 1, n)`` matrix; ``_rows[d, k] = p[k+d] - p[k] + (n-1)``
        for ``k < n - d`` — the difference triangle, value-shifted to
        ``[0, 2n-2]`` so differences index count tables directly.  Cells that
        fall off the triangle (``k >= n - d``) permanently hold the sentinel
        ``3n``, which is how off-triangle reads dump themselves without any
        masking (see :meth:`swap_deltas`).
    ``_cnt``
        ``(max_d + 1, 2n)`` occurrence matrix; ``_cnt[d, v]`` counts how many
        cells of triangle row ``d`` currently hold shifted value ``v`` (the
        last column is the zero-weight dump bucket).  Row ``d`` contributes
        ``ERR(d) · Σ_v max(_cnt[d, v] - 1, 0)`` to the cost.
    ``_cost`` / ``_errors``
        Cached global cost (kept exact through per-swap deltas) and cached
        per-variable error vector (invalidated by every mutation, recomputed
        lazily from ``_rows``).

    A swap of columns ``i`` and ``j`` only changes triangle cells whose span
    touches ``i`` or ``j`` — at most 4 cells per distance ``d`` (``i-d``,
    ``i``, ``j-d``, ``j``) — so the cost delta of *every* candidate swap is
    read from ``_cnt`` through the keyed-bincount algebra of
    :mod:`repro.core.incremental` without constructing any candidate
    configuration.  See ``DESIGN.md`` for the full update rules and the
    measured speed-ups.
    """

    def __init__(
        self,
        order: int,
        *,
        err_weight: str = "quadratic",
        use_chang: bool = True,
        dedicated_reset: bool = True,
        reset_constants: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(
            order,
            err_weight=err_weight,
            use_chang=use_chang,
            dedicated_reset=dedicated_reset,
            reset_constants=reset_constants,
        )
        n = order
        D = self._max_d
        self._off = n - 1  # value shift: differences -(n-1)..n-1 -> 0..2n-2
        self._W = 2 * n - 1  # real values per table row; column W is the dump
        self._Wx = 2 * n  # table row width including the dump bucket
        self._L = 3 * n  # rows[] sentinel: clips past the dump for any delta
        self._d = np.arange(1, D + 1, dtype=np.int64)
        self._w_d = self._weights[1 : D + 1]
        self._d4 = np.tile(self._d, (4, 1))  # distance of each affected cell
        self._cellbuf = np.empty((4, D), dtype=np.int64)
        all_j = np.arange(n, dtype=np.int64)
        jm_all = all_j[:, None] - self._d  # cell j-d per (j, distance)
        drow = np.broadcast_to(self._d, (n, D))
        # Flat gather indices for the j-d cells: negative columns are steered
        # to rows[0, 0], which row 0 (distance 0 is never evaluated) keeps at
        # the sentinel, so off-triangle reads dump themselves.
        self._jm_flat = np.where(jm_all >= 0, drow * n + jm_all, 0)
        # Flat event keys: (candidate j, distance, value) -> one bincount bucket.
        self._rowkey = (all_j[:, None] * D + np.arange(D, dtype=np.int64)) * self._Wx
        self._rowkey1 = (np.arange(D, dtype=np.int64) * self._Wx)[:, None]
        self._nb = n * D * self._Wx
        self._nb1 = D * self._Wx
        # Per-bucket weights for the delta matmuls (dump columns weigh 0).
        wrepx = np.repeat(self._w_d, self._Wx)
        wrepx.reshape(D, self._Wx)[:, self._W] = 0
        self._wrepx = wrepx
        # Event buffers, slot-major so every fill writes one contiguous block:
        # slots 0-3 = removed values of cells i-d, i, j-d, j; slots 4-7 = added.
        self._B = np.empty((8, n, D), dtype=np.int64)
        self._K = np.empty((8, n, D), dtype=np.int64)
        self._Brem1 = np.empty((D, 4), dtype=np.int64)
        self._Badd1 = np.empty((D, 4), dtype=np.int64)
        didx = np.arange(D, dtype=np.int64)
        # Per-culprit overlap fixups: the candidates j = i +/- d whose swap
        # shares a triangle cell with column i (at most one j per distance).
        self._overlap_p = []  # j == i + d: (j columns, their distance index)
        self._overlap_m = []  # j == i - d
        for i in range(n):
            sel = i + self._d < n
            self._overlap_p.append(((i + self._d)[sel], didx[sel]))
            sel = i - self._d >= 0
            self._overlap_m.append(((i - self._d)[sel], didx[sel]))
        # Flat (distance, column) indices of every valid triangle cell.
        lengths = n - self._d
        self._dflat = np.repeat(self._d, lengths)
        self._kflat = np.concatenate([np.arange(n - d) for d in range(1, D + 1)])
        self._c2flat = self._kflat + self._dflat  # right column of each cell
        self._wflat = self._weights[self._dflat]

        self._cnt = np.zeros((D + 1, self._Wx), dtype=np.int64)
        self._cnt1 = self._cnt[1:]  # distances 1..max_d (a view)
        self._cntflat = self._cnt1.reshape(-1)
        self._rows = np.full((D + 1, n), self._L, dtype=np.int64)
        self._errors: Optional[np.ndarray] = None
        # The permutation lives in a fixed buffer so the C kernels can hold
        # its address for the lifetime of the problem.
        self._perm = np.zeros(n, dtype=np.int64)

        # C kernels (see repro/core/_ckernels.py) when the process can load
        # them (a compiler, REPRO_NO_CKERNELS unset); every call site keeps a
        # bit-exact NumPy fallback.
        self._lib = _ckernels.load()
        if self._lib is not None:
            self._cp = self._perm.ctypes.data
            self._crows = self._rows.ctypes.data
            self._ccnt = self._cnt.ctypes.data
            self._cwd = self._w_d.ctypes.data  # contiguous view of weights[1:D+1]
            self._stamp = np.zeros(self._W, dtype=np.int64)
            self._cstamp = self._stamp.ctypes.data
            self._errbuf = np.zeros(n, dtype=np.int64)
            self._cerr = self._errbuf.ctypes.data
            self._epoch = 0
        # Scalar sum(w * max(cnt, 1)) -- the subtrahend of every delta matmul;
        # recomputed lazily after each count-table mutation.
        self._dupbase: Optional[int] = None
        # (culprit, per-candidate net tables) of the last swap_deltas call, so
        # the engine's subsequent apply_swap reuses the already-computed nets.
        self._net_cache: Optional[tuple] = None
        # Family-1 reset perturbations are pure index remaps that depend only
        # on the anchor column; built on first use, cached per anchor.
        self._reset_idx_cache: dict = {}
        # Batched candidate scoring: flat (distance, column) cell pairs and
        # per-cell bincount key bases (candidate-row offset added at use).
        self._score_base = (self._dflat - 1) * self._W
        self._score_block = D * self._W
        self._score_wrep = np.repeat(self._w_d, self._W)
        self._score_k0 = int((self._w_d * (n - self._d)).sum())
        self.set_configuration(np.arange(n, dtype=np.int64))

    # ------------------------------------------------------------------- state
    @property
    def incremental(self) -> bool:
        return True

    def set_configuration(self, perm: Sequence[int] | np.ndarray) -> None:
        self._perm[...] = self._validated(perm)
        self.invalidate_caches()

    def load_trusted_configuration(self, perm: np.ndarray) -> None:
        self._perm[...] = perm
        self.invalidate_caches()

    def invalidate_caches(self) -> None:
        """Rebuild every derived structure from the current permutation."""
        if self._lib is not None:
            self._cost = int(
                self._lib.costas_rebuild(
                    self._cp, self._crows, self._ccnt, self.size, self._max_d,
                    self._Wx, self._off, self._L, self._cwd,
                )
            )
            self._errors = None
            self._dupbase = None
            self._net_cache = None
            return
        p = self._perm
        n = self.size
        self._cnt[:] = 0
        self._rows[:] = self._L
        for d in range(1, self._max_d + 1):
            self._rows[d, : n - d] = p[d:] - p[:-d] + self._off
        np.add.at(self._cnt, (self._dflat, self._rows[self._dflat, self._kflat]), 1)
        self._cost = int(dup_count(self._cnt1[:, : self._W], axis=1) @ self._w_d)
        self._errors = None
        self._dupbase = None
        self._net_cache = None

    # -------------------------------------------------------------------- cost
    def cost(self) -> int:
        return int(self._cost)

    def check_consistency(self) -> None:
        """Assert cached cost, count tables and difference rows against a
        recomputation and, when the cached cost is zero, that the configuration
        truly is a Costas array (this is where Chang's half-triangle shortcut
        would show up if it were wrong)."""
        p = self._perm
        n = self.size
        recomputed = self._full_cost(p)
        if recomputed != self._cost:
            raise AssertionError(
                f"cached cost {self._cost} != recomputed cost {recomputed}"
            )
        fresh_cnt = np.zeros_like(self._cnt)
        for d in range(1, self._max_d + 1):
            row = p[d:] - p[: n - d] + self._off
            if not np.array_equal(row, self._rows[d, : n - d]):
                raise AssertionError(f"difference row {d} is stale")
            if not np.all(self._rows[d, n - d :] == self._L):
                raise AssertionError(f"padding of difference row {d} was clobbered")
            np.add.at(fresh_cnt[d], row, 1)
        if not np.array_equal(fresh_cnt, self._cnt):
            raise AssertionError("difference count tables are stale")
        if self._cost == 0 and not is_costas(p):
            raise AssertionError(
                "model reports cost 0 but the configuration is not a Costas array"
            )

    # ------------------------------------------------------------------ errors
    def variable_errors(self) -> np.ndarray:
        """Project triangle errors onto columns (paper Section IV-A).

        Scanning each row left to right, every cell whose difference value was
        already seen adds ``ERR(d)`` to the errors of both its columns.  The
        result is cached until the next mutation; the recomputation reads the
        maintained ``_rows`` (no differences are recomputed) and detects
        repeats by comparing each cell's column with the first column holding
        its value.
        """
        if self._errors is None:
            if self._lib is not None:
                self._lib.costas_errors(
                    self._crows, self.size, self._max_d, self._cwd,
                    self._cstamp, self._epoch, self._cerr,
                )
                self._epoch += self._max_d
                self._errors = self._errbuf
                return self._errors.copy()
            n = self.size
            vals = self._rows[self._dflat, self._kflat]
            first = np.full((self._max_d + 1, self._W), n, dtype=np.int64)
            np.minimum.at(first, (self._dflat, vals), self._kflat)
            rep = self._kflat > first[self._dflat, vals]
            errs = np.zeros(n, dtype=np.int64)
            w = self._wflat[rep]
            np.add.at(errs, self._kflat[rep], w)
            np.add.at(errs, self._c2flat[rep], w)
            self._errors = errs
        return self._errors.copy()

    # ------------------------------------------------------------------- moves
    #
    # A swap of columns i and j (values a, b) rewrites the triangle cells
    # i-d, i, j-d, j of every distance d: each loses its current difference
    # and gains the one with a and b exchanged (old value +/- (b - a)).  Every
    # such event is encoded as a flat (candidate, distance, value) bincount
    # key; reads that fall off the triangle arrive as the rows[] sentinel and
    # clip into the per-(candidate, distance) dump bucket, whose weight is 0.
    # When |i - j| = d one cell spans both columns: its duplicate j-side slots
    # are steered to the dump and the surviving add becomes the negated
    # difference.  ``net_occurrence_change`` then nets all events per bucket
    # and the cost delta is two weighted matmuls against the count tables.

    def swap_deltas(self, i: int) -> np.ndarray:
        """Score every swap involving column *i* from the count tables.

        Only the O(n·d) triangle cells a swap can affect are consulted; no
        candidate permutation is built and nothing is sorted.
        """
        if self._lib is not None:
            deltas = np.empty(self.size, dtype=np.int64)
            self._lib.costas_swap_deltas(
                self._cp, self._crows, self._ccnt, self.size, self._max_d,
                self._Wx, self._off, self._cwd, i, deltas.ctypes.data,
            )
            deltas[i] = _INT64_MAX
            return deltas
        p = self._perm
        rows = self._rows
        d = self._d
        off = self._off
        W = self._W
        a = int(p[i])
        dc = (p - a)[:, None]  # b - a per candidate j
        r0 = rows[d, i - d]  # cell i-d current value (sentinel off-triangle)
        r1 = rows[1:, i]  # cell i current value
        r2 = rows.take(self._jm_flat)  # cell j-d per candidate
        r3 = rows[1:].T  # cell j per candidate (view)
        B = self._B
        B[0] = r0
        B[1] = r1
        B[2] = r2
        B[3] = r3
        np.add(r0, dc, out=B[4])
        np.subtract(r1, dc, out=B[5])
        np.subtract(r2, dc, out=B[6])
        np.add(r3, dc, out=B[7])
        # Candidates j = i +/- d share one cell with column i: drop the
        # duplicated j-side slots into the dump and fix the shared cell's add
        # to the negated difference (its two occupants swap places).
        jp, dp = self._overlap_p[i]  # j == i + d: shared cell is cell i
        B[2][jp, dp] = W
        B[6][jp, dp] = W
        B[5][jp, dp] = off - (p[jp] - a)  # cell i gains a - b
        jm, dm = self._overlap_m[i]  # j == i - d: shared cell is cell j
        B[0][jm, dm] = W
        B[4][jm, dm] = W
        B[7][jm, dm] = off + (p[jm] - a)  # cell j gains b - a
        np.minimum(B, W, out=B)  # sentinel reads -> per-(j, d) dump bucket
        K = np.add(B, self._rowkey, out=self._K)
        kr = K[:4].reshape(-1)
        ka = K[4:].reshape(-1)
        net = net_occurrence_change(ka, kr, self._nb).reshape(self.size, -1)
        self._net_cache = (i, net)
        # dup_delta_from_net(cnt, net) @ w, split so the net-independent
        # subtrahend max(cnt, 1) @ w is a scalar cached between mutations.
        scored = np.add(net, self._cntflat)
        np.maximum(scored, 1, out=scored)
        deltas = scored @ self._wrepx
        deltas -= self._dup_base()
        deltas[i] = _INT64_MAX
        return deltas

    def _dup_base(self) -> int:
        if self._dupbase is None:
            self._dupbase = int(np.maximum(self._cntflat, 1) @ self._wrepx)
        return self._dupbase

    def _single_net(self, i: int, j: int) -> np.ndarray:
        """Net count-table change of swapping *i* and *j* (shape ``(max_d, 2n)``)."""
        p = self._perm
        rows = self._rows
        d = self._d
        off = self._off
        L = self._L
        db = int(p[j]) - int(p[i])
        mask_p = (j - d) == i
        mask_m = (j + d) == i
        r0 = rows[d, i - d]
        r1 = rows[1:, i]
        r2 = rows[d, j - d]
        r3 = rows[1:, j]
        r0m = np.where(mask_m, L, r0)
        r2m = np.where(mask_p, L, r2)
        Br = self._Brem1
        Br[:, 0] = r0m
        Br[:, 1] = r1
        Br[:, 2] = r2m
        Br[:, 3] = r3
        Ba = self._Badd1
        Ba[:, 0] = r0m + db
        Ba[:, 1] = np.where(mask_p, off, r1) - db
        Ba[:, 2] = r2m - db
        Ba[:, 3] = np.where(mask_m, off, r3) + db
        np.minimum(Br, self._W, out=Br)
        np.minimum(Ba, self._W, out=Ba)
        return net_occurrence_change(
            Ba + self._rowkey1, Br + self._rowkey1, self._nb1
        ).reshape(self._max_d, self._Wx)

    def _net_delta(self, net_flat: np.ndarray) -> int:
        return int(dup_delta_from_net(self._cntflat, net_flat) @ self._wrepx)

    def swap_delta(self, i: int, j: int) -> int:
        if i == j:
            return 0
        if self._lib is not None:
            return int(
                self._lib.costas_swap_delta(
                    self._cp, self._crows, self._ccnt, self.size, self._max_d,
                    self._Wx, self._off, self._cwd, i, j,
                )
            )
        return self._net_delta(self._single_net(i, j).reshape(-1))

    def apply_swap(self, i: int, j: int, delta: Optional[int] = None) -> int:
        if i == j:
            return int(self._cost)
        if self._lib is not None:
            # The kernel re-derives the exact delta while updating the tables,
            # so the precomputed hint is redundant here.
            applied = int(
                self._lib.costas_apply(
                    self._cp, self._crows, self._ccnt, self.size, self._max_d,
                    self._Wx, self._off, self._cwd, i, j,
                )
            )
            self._cost += applied
            self._errors = None
            self._dupbase = None
            self._net_cache = None
            return int(self._cost)
        cached = self._net_cache
        if cached is not None and cached[0] == i:
            # The engine applies the swap it just scored: reuse that net table.
            net = cached[1][j].reshape(self._max_d, self._Wx)
        else:
            net = self._single_net(i, j)
        if delta is None:
            delta = self._net_delta(net.reshape(-1))
        self._cnt1 += net
        self._cnt1[:, self._W] = 0  # dump bucket stays empty
        self._dupbase = None
        self._net_cache = None
        p = self._perm
        p[i], p[j] = p[j], p[i]
        cells = self._cellbuf
        cells[0] = i - self._d
        cells[1] = i
        cells[2] = j - self._d
        cells[3] = j
        valid = (cells >= 0) & (cells + self._d4 < self.size)
        kv = cells[valid]
        dv = self._d4[valid]
        self._rows[dv, kv] = p[kv + dv] - p[kv] + self._off
        self._cost += int(delta)
        self._errors = None
        return int(self._cost)

    # ------------------------------------------------------------------- reset
    def reset_candidates(self, rng: np.random.Generator) -> List[np.ndarray]:
        return list(self._reset_candidate_matrix(rng))

    def _reset_candidate_matrix(self, rng: np.random.Generator) -> np.ndarray:
        """Vectorised construction of the dedicated-reset perturbations.

        Produces exactly the candidates of
        :meth:`_CostasBase.reset_candidates`, in the same order and with the
        same RNG consumption (one ``integers`` for the anchor, one
        ``permutation`` for the family-3 picks), but builds all family-1
        sub-array shifts as one gather: a circular shift of segment
        ``[lo, hi]`` is just an index remap, so the ``2(n-1)`` candidates are
        ``p[index_matrix]`` instead of ``2(n-1)`` ``np.roll`` calls.
        """
        p = self._perm
        n = self.size
        errors = self.variable_errors()
        worst = int(errors.max())
        worst_positions = np.flatnonzero(errors == worst)
        vm = int(worst_positions[rng.integers(worst_positions.size)])

        # 1. Circular shifts of every sub-array ending or starting at vm.  The
        # shifts are index remaps that depend only on the anchor, so the
        # (2(n-1), n) gather matrix is built once per anchor and cached.
        idx = self._reset_idx_cache.get(vm)
        if idx is None:
            cols = np.arange(n)
            lo = np.concatenate(
                [np.arange(vm), np.full(n - 1 - vm, vm, dtype=np.int64)]
            )
            hi = np.concatenate(
                [np.full(vm, vm, dtype=np.int64), np.arange(vm + 1, n)]
            )
            lo_c = lo[:, None]
            hi_c = hi[:, None]
            in_seg = (cols >= lo_c) & (cols <= hi_c)
            shift_left = np.where(
                in_seg, np.where(cols == hi_c, lo_c, cols + 1), cols
            )
            shift_right = np.where(
                in_seg, np.where(cols == lo_c, hi_c, cols - 1), cols
            )
            idx = np.stack([shift_left, shift_right], axis=1).reshape(-1, n)
            self._reset_idx_cache[vm] = idx
        parts = [p[idx]]

        # 2. Add a constant modulo n to every value.
        if self._reset_constants:
            consts = np.asarray(self._reset_constants, dtype=np.int64)
            parts.append((p[None, :] + consts[:, None]) % n)

        # 3. Left-shift the prefix ending at a random erroneous column != vm.
        erroneous = np.flatnonzero(errors > 0)
        erroneous = erroneous[erroneous != vm]
        if erroneous.size > 0:
            picks = rng.permutation(erroneous)[:3]
            picks = picks[picks >= 1][:, None]
            if picks.size:
                # Row t left-shifts the prefix [0..e_t]: index map
                # k -> k+1 for k < e, e -> 0, identity beyond.
                cols = np.arange(n)
                idx3 = np.where(cols < picks, cols + 1, cols)
                idx3[cols[None, :] == picks] = 0
                parts.append(p[idx3])
        return np.concatenate(parts, axis=0)

    def _batch_full_costs(self, candidates: np.ndarray) -> np.ndarray:
        """Exact cost of each candidate row, all rows in one bincount pass.

        Per distance ``d``, a row's cost contribution is
        ``ERR(d) · (cells − distinct values)``; every (candidate, distance,
        value) triple is folded into one flat bincount key, so the whole
        batch needs one subtraction, one ``bincount`` and one matmul instead
        of a sort per distance per candidate (the batched twin of
        :meth:`_CostasBase._full_cost`, bit-identical results)."""
        m = candidates.shape[0]
        if self._lib is not None:
            costs = np.empty(m, dtype=np.int64)
            candidates = np.ascontiguousarray(candidates, dtype=np.int64)
            self._lib.costas_batch_costs(
                candidates.ctypes.data, m, self.size, self._max_d, self._off,
                self._cwd, self._cstamp, self._epoch, costs.ctypes.data,
            )
            self._epoch += m * self._max_d
            return costs
        keys = candidates[:, self._c2flat] - candidates[:, self._kflat] + self._off
        keys += self._score_base
        keys += (np.arange(m, dtype=np.int64) * self._score_block)[:, None]
        occupied = np.minimum(
            np.bincount(keys.ravel(), minlength=m * self._score_block), 1
        )
        return self._score_k0 - occupied.reshape(m, -1) @ self._score_wrep

    def custom_reset(self, rng: np.random.Generator) -> Optional[np.ndarray]:
        """Batch-scored version of the dedicated reset (Section IV-B).

        Semantically identical to :meth:`_CostasBase.custom_reset` — same
        candidates, same RNG stream, same selection (first strict improvement
        in random examination order, else a uniformly random minimum-cost
        candidate) — but every candidate is scored in one vectorised pass,
        which matters because the paper's Costas parameters reset on *every*
        tabu mark (``RL = 1``), putting this squarely on the hot path.
        """
        if not self._dedicated_reset:
            return None

        entry_cost = self.cost()
        candidates = self._reset_candidate_matrix(rng)
        if candidates.shape[0] == 0:
            return None
        costs = self._batch_full_costs(candidates)
        order = rng.permutation(candidates.shape[0])
        ordered_costs = costs[order]
        improving = np.flatnonzero(ordered_costs < entry_cost)
        if improving.size:
            return candidates[int(order[int(improving[0])])]
        ties = order[ordered_costs == ordered_costs.min()]
        return candidates[int(ties[int(rng.integers(ties.size))])]


class ReferenceCostasProblem(_CostasBase):
    """Full-recompute evaluation of the Costas model (the seed implementation).

    Every query re-scores configurations from scratch: ``swap_deltas`` builds
    the ``(n, n)`` matrix of candidate permutations and sorts every triangle
    row of every candidate, ``apply_swap`` re-evaluates the full cost, and
    ``variable_errors`` rescans the triangle.  Kept verbatim as the reference
    the incremental path is validated against (bit-exact equivalence) and
    benchmarked against (``bench_incremental_vs_reference``); use
    :class:`CostasProblem` for anything performance-sensitive.
    """

    def __init__(
        self,
        order: int,
        *,
        err_weight: str = "quadratic",
        use_chang: bool = True,
        dedicated_reset: bool = True,
        reset_constants: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(
            order,
            err_weight=err_weight,
            use_chang=use_chang,
            dedicated_reset=dedicated_reset,
            reset_constants=reset_constants,
            name="costas-reference",
        )
        self.set_configuration(np.arange(order, dtype=np.int64))

    # ------------------------------------------------------------------- state
    def set_configuration(self, perm: Sequence[int] | np.ndarray) -> None:
        self._perm = self._validated(perm)
        self._cost = self._full_cost(self._perm)

    # -------------------------------------------------------------------- cost
    def cost(self) -> int:
        return int(self._cost)

    def check_consistency(self) -> None:
        recomputed = self._full_cost(self._perm)
        if recomputed != self._cost:
            raise AssertionError(
                f"cached cost {self._cost} != recomputed cost {recomputed}"
            )
        if self._cost == 0 and not is_costas(self._perm):
            raise AssertionError(
                "model reports cost 0 but the configuration is not a Costas array"
            )

    # ------------------------------------------------------------------ errors
    def variable_errors(self) -> np.ndarray:
        """Project triangle errors onto columns by rescanning every row."""
        p = self._perm
        n = self.size
        errs = np.zeros(n, dtype=np.int64)
        for d in range(1, self._max_d + 1):
            row = p[d:] - p[:-d]
            if row.size <= 1:
                continue
            _, first_idx = np.unique(row, return_index=True)
            mask = np.ones(row.size, dtype=bool)
            mask[first_idx] = False
            if not mask.any():
                continue
            repeats = np.flatnonzero(mask)
            w = int(self._weights[d])
            np.add.at(errs, repeats, w)
            np.add.at(errs, repeats + d, w)
        return errs

    # ------------------------------------------------------------------- moves
    def swap_delta(self, i: int, j: int) -> int:
        if i == j:
            return 0
        p = self._perm.copy()
        p[i], p[j] = p[j], p[i]
        return self._full_cost(p) - self._cost

    def apply_swap(self, i: int, j: int, delta: Optional[int] = None) -> int:
        # Reference path: ``delta`` is deliberately ignored and re-derived.
        if i != j:
            delta = self.swap_delta(i, j)
            self._perm[i], self._perm[j] = self._perm[j], self._perm[i]
            self._cost += delta
        return int(self._cost)

    def swap_deltas(self, i: int) -> np.ndarray:
        """Full-recompute evaluation of every swap involving column *i*.

        Builds the ``(n, n)`` matrix whose row ``j`` is the permutation with
        columns ``i`` and ``j`` swapped, then scores all rows of every triangle
        distance at once (sort + adjacent-equality count).
        """
        p = self._perm
        n = self.size
        candidates = np.broadcast_to(p, (n, n)).copy()
        rows = np.arange(n)
        candidates[rows, i] = p[rows]
        candidates[rows, rows] = p[i]

        costs = np.zeros(n, dtype=np.int64)
        for d in range(1, self._max_d + 1):
            diffs = candidates[:, d:] - candidates[:, :-d]
            if diffs.shape[1] <= 1:
                continue
            diffs = np.sort(diffs, axis=1)
            dups = np.count_nonzero(diffs[:, 1:] == diffs[:, :-1], axis=1)
            costs += self._weights[d] * dups

        deltas = costs - self._cost
        deltas[i] = _INT64_MAX
        return deltas


def basic_costas_problem(order: int) -> CostasProblem:
    """The paper's *basic* model: ``ERR(d)=1``, full triangle, generic reset."""
    return CostasProblem(
        order, err_weight="constant", use_chang=False, dedicated_reset=False
    )


def optimized_costas_problem(order: int) -> CostasProblem:
    """The paper's fully optimised model (the defaults of :class:`CostasProblem`)."""
    return CostasProblem(
        order, err_weight="quadratic", use_chang=True, dedicated_reset=True
    )
