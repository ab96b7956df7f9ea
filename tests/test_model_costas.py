"""Tests for the Adaptive Search model of the Costas Array Problem."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.costas.array import is_costas, violation_count
from repro.exceptions import ModelError
from repro.models.costas import (
    CostasProblem,
    ReferenceCostasProblem,
    basic_costas_problem,
    optimized_costas_problem,
)

perm_strategy = st.integers(min_value=4, max_value=10).flatmap(
    lambda n: st.permutations(list(range(n)))
)


class TestConstruction:
    def test_requires_order_at_least_three(self):
        with pytest.raises(ModelError):
            CostasProblem(2)

    def test_rejects_unknown_weighting(self):
        with pytest.raises(ModelError):
            CostasProblem(8, err_weight="cubic")

    def test_factories(self):
        basic = basic_costas_problem(8)
        assert basic.err_weight_name == "constant"
        assert basic.max_distance == 7
        assert not basic.uses_dedicated_reset
        optimised = optimized_costas_problem(8)
        assert optimised.err_weight_name == "quadratic"
        assert optimised.max_distance == 3
        assert optimised.uses_dedicated_reset

    def test_describe_mentions_options(self):
        text = CostasProblem(8).describe()
        assert "costas" in text and "n=8" in text

    def test_set_configuration_validation(self):
        problem = CostasProblem(6)
        with pytest.raises(ModelError):
            problem.set_configuration([0, 1, 2])
        with pytest.raises(ModelError):
            problem.set_configuration([0, 0, 1, 2, 3, 4])

    def test_index_tables_are_shared_read_only_and_scratch_is_not(self):
        """Models of one shape share the NumPy path's index tables, frozen;
        the state and scratch buffers every walk writes stay per instance."""
        a, b = CostasProblem(12), CostasProblem(12)
        assert a._rowkey is b._rowkey and a._overlap_p is b._overlap_p
        assert not a._rowkey.flags.writeable and not a._w_d.flags.writeable
        for name in ("_B", "_K", "_Brem1", "_Badd1", "_cellbuf", "_cnt", "_rows"):
            assert getattr(a, name) is not getattr(b, name), name
        assert a._reset_idx_cache is not b._reset_idx_cache
        constant = CostasProblem(12, err_weight="constant")
        assert constant._wrepx is not a._wrepx
        # Walking one model leaves its twin's cost and tables untouched.
        a.set_configuration([11, 0, 10, 1, 9, 2, 8, 3, 7, 4, 6, 5])
        a.apply_swap(0, 5)
        assert b.cost() == CostasProblem(12).cost()
        b.check_consistency()


class TestCostSemantics:
    def test_zero_cost_on_costas_array(self, example_costas_5):
        problem = CostasProblem(5)
        problem.set_configuration(example_costas_5)
        assert problem.cost() == 0
        assert problem.is_solution()
        assert problem.as_costas_array().order == 5

    @pytest.mark.parametrize("model", [CostasProblem, ReferenceCostasProblem])
    @pytest.mark.parametrize("err_weight", ["quadratic", "constant"])
    @pytest.mark.parametrize("use_chang", [False, True])
    def test_identity_cost_is_the_weighted_repeat_count(self, model, err_weight, use_chang):
        """Row d of the identity's difference triangle holds n - d copies of
        d, so it repeats (n - d) - 1 times and costs ERR(d) each time, with
        ERR(d) = n² − d² (the paper's weighting) or 1 (the basic model)."""
        n = 9
        problem = model(n, err_weight=err_weight, use_chang=use_chang)
        problem.set_configuration(np.arange(n))
        last_row = (n - 1) // 2 if use_chang else n - 1
        expected = sum(
            (n * n - d * d if err_weight == "quadratic" else 1) * ((n - d) - 1)
            for d in range(1, last_row + 1)
        )
        assert problem.cost() == expected

    @pytest.mark.parametrize(
        "d, perm",
        [
            (1, [0, 1, 2, 7, 5, 4, 6, 3]),
            (2, [0, 1, 6, 2, 4, 3, 7, 5]),
            (3, [0, 4, 6, 1, 7, 5, 2, 3]),
        ],
    )
    def test_one_repeat_in_row_d_costs_err_d(self, d, perm):
        """Each permutation repeats one difference, in row d and nowhere
        else, so it costs exactly ERR(d): n² − d² under the paper's
        weighting, 1 under the basic one, on either triangle (Chang's
        theorem puts every lone repeat in the half)."""
        n = len(perm)
        for model in (CostasProblem, ReferenceCostasProblem):
            for use_chang in (True, False):
                weighted = model(n, use_chang=use_chang)
                weighted.set_configuration(perm)
                assert weighted.cost() == n * n - d * d, (model, use_chang)
                basic = model(n, err_weight="constant", use_chang=use_chang)
                basic.set_configuration(perm)
                assert basic.cost() == 1, (model, use_chang)

    @pytest.mark.parametrize("err_weight", ["quadratic", "constant"])
    @given(perm=perm_strategy)
    def test_chang_half_never_costs_more_than_the_full_triangle(self, err_weight, perm):
        n = len(perm)
        half = CostasProblem(n, err_weight=err_weight, use_chang=True)
        full = CostasProblem(n, err_weight=err_weight, use_chang=False)
        half.set_configuration(perm)
        full.set_configuration(perm)
        assert half.max_distance == (n - 1) // 2 and full.max_distance == n - 1
        assert half.cost() <= full.cost()
        assert (full.cost() == 0) == is_costas(perm)

    @pytest.mark.parametrize("model", [CostasProblem, ReferenceCostasProblem])
    def test_a_repeat_charges_both_of_its_columns(self, model):
        # Row 1 of [0, 1, 2] is [1, 1]: its second cell (columns 1 and 2)
        # repeats the first, so columns 1 and 2 each get ERR(1) = 9 - 1 and
        # column 0 gets nothing.
        problem = model(3)
        problem.set_configuration([0, 1, 2])
        assert problem.variable_errors().tolist() == [0, 8, 8]
        assert problem.cost() == 8

    @pytest.mark.parametrize("model", [CostasProblem, ReferenceCostasProblem])
    @given(
        perm=perm_strategy,
        err_weight=st.sampled_from(["quadratic", "constant"]),
        use_chang=st.booleans(),
    )
    def test_errors_sum_to_twice_the_cost(self, model, perm, err_weight, use_chang):
        """Every repeated cell adds ERR(d) to the cost once and to each of
        its two columns' errors, so the projection carries the cost twice."""
        problem = model(len(perm), err_weight=err_weight, use_chang=use_chang)
        problem.set_configuration(perm)
        assert int(problem.variable_errors().sum()) == 2 * problem.cost()

    def test_basic_model_cost_equals_violation_count(self):
        perm = list(range(7))
        problem = basic_costas_problem(7)
        problem.set_configuration(perm)
        assert problem.cost() == violation_count(perm)

    @given(perm_strategy)
    def test_zero_cost_iff_costas_with_chang(self, perm):
        problem = CostasProblem(len(perm), use_chang=True)
        problem.set_configuration(perm)
        assert (problem.cost() == 0) == is_costas(perm)

    @given(perm_strategy)
    def test_variable_errors_zero_iff_zero_cost(self, perm):
        problem = CostasProblem(len(perm))
        problem.set_configuration(perm)
        errors = problem.variable_errors()
        assert (errors.sum() == 0) == (problem.cost() == 0)
        assert errors.shape == (len(perm),)
        assert np.all(errors >= 0)

    def test_as_costas_array_raises_on_non_solution(self):
        problem = CostasProblem(6)
        problem.set_configuration(list(range(6)))
        with pytest.raises(ValueError):
            problem.as_costas_array()


class TestMoves:
    @given(perm_strategy, st.data())
    def test_swap_deltas_match_individual_deltas(self, perm, data):
        problem = CostasProblem(len(perm))
        problem.set_configuration(perm)
        i = data.draw(st.integers(min_value=0, max_value=len(perm) - 1))
        deltas = problem.swap_deltas(i)
        for j in range(len(perm)):
            if j == i:
                assert deltas[j] == np.iinfo(np.int64).max
            else:
                assert deltas[j] == problem.swap_delta(i, j)

    @given(perm_strategy, st.data())
    def test_apply_swap_consistent_with_delta_and_recompute(self, perm, data):
        problem = CostasProblem(len(perm))
        problem.set_configuration(perm)
        i = data.draw(st.integers(min_value=0, max_value=len(perm) - 1))
        j = data.draw(st.integers(min_value=0, max_value=len(perm) - 1))
        before = problem.cost()
        delta = problem.swap_delta(i, j)
        after = problem.apply_swap(i, j)
        assert after == before + delta
        problem.check_consistency()

    def test_swap_same_index_is_noop(self):
        problem = CostasProblem(6)
        problem.set_configuration([0, 2, 4, 1, 3, 5])
        cost = problem.cost()
        assert problem.apply_swap(3, 3) == cost
        assert problem.swap_delta(3, 3) == 0

    @pytest.mark.parametrize("model", [CostasProblem, ReferenceCostasProblem])
    def test_set_configuration_rebuilds_a_used_model(self, model, example_costas_5):
        problem = model(5)
        problem.set_configuration([0, 1, 2, 3, 4])
        for i, j in [(0, 4), (1, 3), (2, 4)]:
            problem.apply_swap(i, j)
        assert problem.cost() > 0
        problem.set_configuration(example_costas_5)
        assert problem.cost() == 0
        assert not problem.variable_errors().any()
        problem.check_consistency()

    def test_check_consistency_detects_corruption(self):
        problem = CostasProblem(6)
        problem.set_configuration(list(range(6)))
        problem._cost += 1  # simulate a bookkeeping bug
        with pytest.raises(AssertionError):
            problem.check_consistency()


class TestDedicatedReset:
    @given(perm_strategy)
    def test_reset_returns_valid_permutation(self, perm):
        problem = CostasProblem(len(perm))
        problem.set_configuration(perm)
        rng = np.random.default_rng(0)
        replacement = problem.custom_reset(rng)
        if replacement is not None:
            assert sorted(replacement) == list(range(len(perm)))

    def test_reset_none_when_disabled(self, rng):
        problem = CostasProblem(8, dedicated_reset=False)
        problem.set_configuration(list(range(8)))
        assert problem.custom_reset(rng) is None

    def test_reset_candidates_are_permutations_and_differ(self, rng):
        problem = CostasProblem(8)
        problem.set_configuration(list(range(8)))
        candidates = problem.reset_candidates(rng)
        assert candidates, "expected at least one perturbation"
        current = list(range(8))
        for cand in candidates:
            assert sorted(cand) == current
        assert any(list(c) != current for c in candidates)

    def test_reset_never_returns_worse_than_best_candidate(self, example_costas_5):
        # From a fixed configuration, the returned perturbation's cost must not
        # exceed the best cost over the candidate set generated with the same
        # random state (the reset either escapes or picks a minimum-cost one).
        near = list(example_costas_5)
        near[0], near[1] = near[1], near[0]

        problem = CostasProblem(5)
        problem.set_configuration(near)
        entry_cost = problem.cost()

        candidates = problem.reset_candidates(np.random.default_rng(3))
        scorer = CostasProblem(5)
        candidate_costs = []
        for cand in candidates:
            scorer.set_configuration(cand)
            candidate_costs.append(scorer.cost())
        best_candidate_cost = min(candidate_costs)

        replacement = problem.custom_reset(np.random.default_rng(3))
        scorer.set_configuration(replacement)
        replacement_cost = scorer.cost()
        assert replacement_cost <= max(best_candidate_cost, entry_cost)

    def test_reset_constants_exclude_multiples_of_n(self):
        problem = CostasProblem(4, reset_constants=[0, 4, 8, 1])
        assert problem._reset_constants == [1]


class TestEndToEnd:
    def test_engine_solves_with_all_variants(self):
        from repro.core import ASParameters, solve

        for kwargs in (
            dict(),
            dict(err_weight="constant"),
            dict(use_chang=False),
            dict(dedicated_reset=False),
        ):
            problem = CostasProblem(9, **kwargs)
            result = solve(problem, seed=0, params=ASParameters.for_costas(9))
            assert result.solved, kwargs
            assert is_costas(result.configuration)
