"""Tests for repro.costas.array: permutation validation, Costas predicate, CostasArray."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.costas.array import (
    CostasArray,
    as_permutation,
    difference_triangle,
    is_costas,
    is_permutation,
    random_permutation,
    violating_pairs,
    violation_count,
)
from repro.exceptions import InvalidPermutationError

permutations = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.permutations(list(range(n)))
)


class TestAsPermutation:
    def test_accepts_valid_permutation(self):
        out = as_permutation([2, 0, 1])
        assert out.dtype == np.int64
        assert list(out) == [2, 0, 1]

    def test_rejects_empty(self):
        with pytest.raises(InvalidPermutationError):
            as_permutation([])

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidPermutationError):
            as_permutation([0, 1, 1])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidPermutationError):
            as_permutation([0, 1, 3])

    def test_rejects_negative(self):
        with pytest.raises(InvalidPermutationError):
            as_permutation([-1, 0, 1])

    def test_rejects_2d_input(self):
        with pytest.raises(InvalidPermutationError):
            as_permutation(np.zeros((2, 2), dtype=int))

    def test_rejects_non_integral_floats(self):
        with pytest.raises(InvalidPermutationError):
            as_permutation([0.5, 1.0, 2.0])

    def test_accepts_integral_floats(self):
        assert list(as_permutation([2.0, 0.0, 1.0])) == [2, 0, 1]

    @given(permutations)
    def test_accepts_any_permutation(self, perm):
        assert is_permutation(perm)

    def test_is_permutation_false_on_bad_input(self):
        assert not is_permutation([1, 2, 3])  # missing 0


class TestRandomPermutation:
    def test_is_valid_permutation(self):
        perm = random_permutation(10, rng=3)
        assert is_permutation(perm)

    def test_deterministic_with_seed(self):
        assert list(random_permutation(8, rng=7)) == list(random_permutation(8, rng=7))

    def test_rejects_nonpositive_order(self):
        with pytest.raises(InvalidPermutationError):
            random_permutation(0)


class TestDifferenceTriangle:
    def test_paper_example(self, example_costas_5):
        # The paper's difference triangle for [3,4,2,1,5] (values are base-independent).
        rows = difference_triangle(example_costas_5)
        assert [list(r) for r in rows] == [
            [1, -2, -1, 4],
            [-1, -3, 3],
            [-2, 1],
            [2],
        ]

    @given(permutations)
    def test_row_lengths(self, perm):
        rows = difference_triangle(perm)
        n = len(perm)
        assert len(rows) == n - 1
        assert [len(r) for r in rows] == [n - d for d in range(1, n)]


class TestIsCostas:
    def test_paper_example_is_costas(self, example_costas_5):
        assert is_costas(example_costas_5)

    def test_known_non_costas(self):
        # Identity permutation has constant differences in every row.
        assert not is_costas(list(range(5)))

    def test_all_orders_up_to_three(self):
        assert is_costas([0])
        assert is_costas([0, 1])
        assert is_costas([1, 0])

    def test_raises_on_non_permutation(self):
        with pytest.raises(InvalidPermutationError):
            is_costas([0, 0, 1])

    def test_matches_pairwise_displacement_vectors(self, rng):
        """The reference predicate against the definition: all displacement
        vectors between marks distinct.  Constructed arrays and their
        single-swap neighbours give both verdicts at every order."""
        from repro.costas.constructions import available_constructions, construct

        def brute_force(p):
            vectors = [
                (j - i, p[j] - p[i])
                for i in range(len(p))
                for j in range(i + 1, len(p))
            ]
            return len(set(vectors)) == len(vectors)

        perms = [rng.permutation(n).tolist() for n in range(1, 31) for _ in range(4)]
        for n in range(3, 31):
            if available_constructions(n):
                base = construct(n).to_array().tolist()
                perms.append(base)
                for i, j in zip(rng.integers(0, n, 8), rng.integers(0, n, 8)):
                    swapped = list(base)
                    swapped[i], swapped[j] = swapped[j], swapped[i]
                    perms.append(swapped)
        verdicts = [is_costas(p) for p in perms]
        assert verdicts == [brute_force(p) for p in perms]
        assert any(verdicts) and not all(verdicts)

    @given(permutations)
    def test_equivalent_to_violation_count_zero(self, perm):
        assert is_costas(perm) == (violation_count(perm) == 0)

    @given(permutations)
    def test_chang_half_triangle_equivalence(self, perm):
        # Chang's remark: checking d <= (n-1)//2 is sufficient.
        assert (violation_count(perm, half=True) == 0) == is_costas(perm)


class TestViolations:
    def test_identity_has_many_violations(self):
        n = 6
        count = violation_count(list(range(n)))
        assert count == sum((n - d) - 1 for d in range(1, n))

    def test_violating_pairs_consistent_with_count(self):
        perm = [0, 1, 2, 3, 4]
        pairs = violating_pairs(perm)
        assert len(pairs) == violation_count(perm)

    @given(permutations)
    def test_pairs_reference_same_difference(self, perm):
        p = np.asarray(perm)
        for d, i, j, diff in violating_pairs(perm):
            assert p[i + d] - p[i] == diff
            assert p[j + d] - p[j] == diff
            assert i < j


class TestCostasArrayClass:
    def test_from_one_based_matches_paper(self, example_costas_5):
        array = CostasArray.from_one_based([3, 4, 2, 1, 5])
        assert list(array.permutation) == example_costas_5
        assert array.to_one_based() == (3, 4, 2, 1, 5)

    def test_rejects_non_costas(self):
        with pytest.raises(ValueError):
            CostasArray.from_permutation(list(range(5)))

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidPermutationError):
            CostasArray.from_permutation([0, 0, 1])

    def test_order_len_iter_getitem(self, example_costas_5):
        array = CostasArray.from_permutation(example_costas_5)
        assert array.order == len(array) == 5
        assert list(array) == example_costas_5
        assert array[0] == example_costas_5[0]

    def test_grid_has_one_mark_per_row_and_column(self, example_costas_5):
        grid = CostasArray.from_permutation(example_costas_5).to_grid()
        assert grid.shape == (5, 5)
        assert np.all(grid.sum(axis=0) == 1)
        assert np.all(grid.sum(axis=1) == 1)

    def test_displacement_vectors_all_distinct(self, example_costas_5):
        array = CostasArray.from_permutation(example_costas_5)
        vectors = array.displacement_vectors()
        assert len(vectors) == 5 * 4 // 2
        assert len(set(vectors)) == len(vectors)

    def test_symmetries_are_costas_and_at_most_eight(self, example_costas_5):
        array = CostasArray.from_permutation(example_costas_5)
        orbit = array.symmetries()
        assert 1 <= len(orbit) <= 8
        assert all(isinstance(a, CostasArray) for a in orbit)

    def test_canonical_is_in_orbit_and_minimal(self, example_costas_5):
        array = CostasArray.from_permutation(example_costas_5)
        canonical = array.canonical()
        orbit_keys = [a.permutation for a in array.symmetries()]
        assert canonical.permutation in orbit_keys
        assert canonical.permutation == min(orbit_keys)

    def test_render_contains_one_mark_per_line(self, example_costas_5):
        text = CostasArray.from_permutation(example_costas_5).render()
        lines = text.splitlines()
        assert len(lines) == 5
        assert all(line.count("X") == 1 for line in lines)

    def test_to_array_is_a_copy(self, example_costas_5):
        array = CostasArray.from_permutation(example_costas_5)
        copy = array.to_array()
        copy[0] = 99
        assert array[0] == example_costas_5[0]
