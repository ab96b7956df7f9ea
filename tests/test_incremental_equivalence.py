"""Bit-exact equivalence of the incremental and reference evaluation paths.

The incremental count-table subsystem (``repro.core.incremental``, the
rewritten :class:`~repro.models.costas.CostasProblem`, and its optional C
kernels) must be indistinguishable — bit for bit — from the full-recompute
:class:`~repro.models.costas.ReferenceCostasProblem` across every ablation
flag: same costs, same error vectors, same swap deltas, same dedicated-reset
candidates and choices, and therefore identical engine trajectories for any
seed.  These property tests are the contract that lets the engine run the
fast path everywhere else.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import _ckernels
from repro.core.engine import AdaptiveSearch
from repro.core.incremental import dup_count, dup_delta_from_net, grouped_dup_delta
from repro.core.params import ASParameters
from repro.models.costas import CostasProblem, ReferenceCostasProblem
from repro.models.queens import NQueensProblem

#: Every ablation-flag combination of the Costas model.
FLAG_COMBOS = [
    dict(err_weight=err, use_chang=chang, dedicated_reset=reset)
    for err, chang, reset in itertools.product(
        ("quadratic", "constant"), (True, False), (True, False)
    )
]

def force_numpy_path(monkeypatch):
    """Make ``_ckernels.load()`` report "unavailable", as a process with no
    compiler or with ``REPRO_NO_CKERNELS`` set sees it (monkeypatch restores
    the memoised verdict)."""
    monkeypatch.setattr(_ckernels, "_lib", None)
    monkeypatch.setattr(_ckernels, "_loaded", True)


@pytest.fixture(params=["numpy"] + (["c"] if _ckernels.available() else []))
def kernels(request, monkeypatch):
    """Evaluation path of the CostasProblems a test builds: the NumPy path
    always, the C kernels when this process can load them (they share
    everything but the kernel dispatch)."""
    if request.param == "numpy":
        force_numpy_path(monkeypatch)
    return request.param


def make_pair(n, flags):
    return CostasProblem(n, **flags), ReferenceCostasProblem(n, **flags)


perm_strategy = st.integers(min_value=4, max_value=12).flatmap(
    lambda n: st.permutations(list(range(n)))
)


# The property tests run every example on the one kernel path the `kernels`
# fixture pins, so its function scope is intended.
@pytest.mark.usefixtures("kernels")
class TestStaticEquivalence:
    @pytest.mark.parametrize("flags", FLAG_COMBOS, ids=str)
    @given(perm=perm_strategy)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_cost_errors_and_all_deltas_match(self, flags, perm):
        inc, ref = make_pair(len(perm), flags)
        inc.set_configuration(perm)
        ref.set_configuration(perm)
        assert inc.cost() == ref.cost()
        assert np.array_equal(inc.variable_errors(), ref.variable_errors())
        for i in range(len(perm)):
            assert np.array_equal(inc.swap_deltas(i), ref.swap_deltas(i)), (
                flags,
                perm,
                i,
            )
            for j in range(len(perm)):
                assert inc.swap_delta(i, j) == ref.swap_delta(i, j)

    @given(perm=perm_strategy, data=st.data())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_applied_swap_walks_stay_identical(self, perm, data):
        n = len(perm)
        flags = data.draw(st.sampled_from(FLAG_COMBOS))
        inc, ref = make_pair(n, flags)
        inc.set_configuration(perm)
        ref.set_configuration(perm)
        for _ in range(8):
            i = data.draw(st.integers(0, n - 1))
            j = data.draw(st.integers(0, n - 1))
            # Engine calling convention: score first, then apply with the
            # already-computed delta.
            deltas = inc.swap_deltas(i)
            delta = int(deltas[j]) if j != i else None
            assert inc.apply_swap(i, j, delta=delta) == ref.apply_swap(i, j)
        inc.check_consistency()
        ref.check_consistency()
        assert np.array_equal(inc.configuration(), ref.configuration())
        assert np.array_equal(inc.variable_errors(), ref.variable_errors())

    @given(perm=perm_strategy, seed=st.integers(0, 2**31 - 1))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_dedicated_reset_same_candidates_and_choice(self, perm, seed):
        inc, ref = make_pair(len(perm), dict(dedicated_reset=True))
        inc.set_configuration(perm)
        ref.set_configuration(perm)
        inc_cands = inc.reset_candidates(np.random.default_rng(seed))
        ref_cands = ref.reset_candidates(np.random.default_rng(seed))
        assert len(inc_cands) == len(ref_cands)
        for a, b in zip(inc_cands, ref_cands):
            assert np.array_equal(a, b)
        chosen_inc = inc.custom_reset(np.random.default_rng(seed))
        chosen_ref = ref.custom_reset(np.random.default_rng(seed))
        assert np.array_equal(chosen_inc, chosen_ref)


class TestTrajectoryEquivalence:
    """Same engine + same seed must walk both paths through identical states."""

    @pytest.mark.parametrize("flags", FLAG_COMBOS, ids=str)
    @pytest.mark.usefixtures("kernels")
    def test_full_solves_identical(self, flags):
        n = 9
        params = ASParameters.for_costas(n, max_iterations=3000)
        inc, ref = make_pair(n, flags)
        a = AdaptiveSearch().solve(inc, seed=12, params=params)
        b = AdaptiveSearch().solve(ref, seed=12, params=params)
        assert a.iterations == b.iterations
        assert a.cost == b.cost
        assert a.solved == b.solved
        assert np.array_equal(a.configuration, b.configuration)
        assert (a.local_minima, a.plateau_moves, a.resets, a.swaps) == (
            b.local_minima,
            b.plateau_moves,
            b.resets,
            b.swaps,
        )

    @pytest.mark.skipif(not _ckernels.available(), reason="C kernels unavailable")
    def test_numpy_and_c_paths_identical(self, monkeypatch):
        n = 11
        params = ASParameters.for_costas(n, max_iterations=2000)
        c_path = CostasProblem(n)
        force_numpy_path(monkeypatch)
        numpy_path = CostasProblem(n)
        a = AdaptiveSearch().solve(c_path, seed=3, params=params)
        b = AdaptiveSearch().solve(numpy_path, seed=3, params=params)
        assert a.iterations == b.iterations
        assert np.array_equal(a.configuration, b.configuration)


class TestIncrementalApiSurface:
    def test_incremental_flags(self):
        assert CostasProblem(8).incremental
        assert not ReferenceCostasProblem(8).incremental
        assert NQueensProblem(8).incremental

    def test_trusted_load_matches_validated_load(self):
        rng = np.random.default_rng(0)
        perm = rng.permutation(10)
        a = CostasProblem(10)
        b = CostasProblem(10)
        a.set_configuration(perm)
        b.load_trusted_configuration(np.asarray(perm, dtype=np.int64))
        assert a.cost() == b.cost()
        assert np.array_equal(a.variable_errors(), b.variable_errors())
        b.check_consistency()

    def test_apply_swap_accepts_and_uses_delta(self, monkeypatch):
        force_numpy_path(monkeypatch)
        prob = CostasProblem(9)
        prob.set_configuration(np.random.default_rng(1).permutation(9))
        before = prob.cost()
        delta = prob.swap_delta(2, 7)
        after = prob.apply_swap(2, 7, delta=delta)
        assert after == before + delta
        prob.check_consistency()

    def test_invalidate_caches_recovers_external_mutation(self):
        prob = CostasProblem(8)
        prob.set_configuration(np.random.default_rng(2).permutation(8))
        # Mutate behind the model's back, then invoke the dirty-state hook.
        prob._perm[[0, 5]] = prob._perm[[5, 0]]
        prob.invalidate_caches()
        prob.check_consistency()

    def test_unavailable_kernels_fall_back_to_numpy(self, monkeypatch):
        force_numpy_path(monkeypatch)
        assert CostasProblem(8)._lib is None


class TestQueensIncremental:
    @given(
        n=st.integers(min_value=4, max_value=14),
        seed=st.integers(0, 2**31 - 1),
        i=st.integers(0, 13),
    )
    @settings(max_examples=60, deadline=None)
    def test_swap_deltas_match_bruteforce(self, n, seed, i):
        i = i % n
        prob = NQueensProblem(n)
        prob.set_configuration(np.random.default_rng(seed).permutation(n))
        deltas = prob.swap_deltas(i)
        for j in range(n):
            if j == i:
                assert deltas[j] == np.iinfo(np.int64).max
            else:
                assert deltas[j] == prob.swap_delta(i, j), (n, seed, i, j)

    def test_errors_cache_invalidated_by_swap(self):
        prob = NQueensProblem(8)
        prob.set_configuration(np.random.default_rng(3).permutation(8))
        before = prob.variable_errors()
        prob.apply_swap(0, 4)
        after = prob.variable_errors()
        prob.check_consistency()
        # The cache must not leak the pre-swap vector.
        recomputed = NQueensProblem(8)
        recomputed.set_configuration(prob.configuration())
        assert np.array_equal(after, recomputed.variable_errors())
        assert before.shape == after.shape


class TestIncrementalPrimitives:
    def test_dup_count(self):
        counts = np.array([[0, 1, 3], [2, 2, 0]])
        assert dup_count(counts) == 2 + 1 + 1
        assert list(dup_count(counts, axis=1)) == [2, 2]

    def test_dup_delta_from_net_matches_definition(self):
        rng = np.random.default_rng(0)
        c = rng.integers(0, 5, size=200)
        m = rng.integers(-3, 4, size=200)
        m = np.maximum(m, -c)  # counts can never go negative
        expected = np.maximum(c + m - 1, 0) - np.maximum(c - 1, 0)
        assert np.array_equal(dup_delta_from_net(c, m), expected)

    def test_grouped_dup_delta_handles_collisions(self):
        # Two removes and one add of the same value, count 3:
        # 3 -> 1 occupants, dups 2 -> 0.
        values = np.array([[5, 5, 5, 9]])
        signs = np.array([[-1, -1, 1, -1]])
        counts = np.array([[3, 3, 3, 1]])
        assert grouped_dup_delta(values, signs, counts)[0] == (-1) + (-0)

    def test_grouped_dup_delta_padding_events_are_inert(self):
        values = np.array([[4, 4, 4, 4]])
        signs = np.array([[0, 0, 0, 0]])
        counts = np.array([[7, 7, 7, 7]])
        assert grouped_dup_delta(values, signs, counts)[0] == 0
