"""Generator tests: families, determinism, planted modes, fixture checks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planted_ref
from fixtures import FixtureSpec, InfeasibleFixture, gen_fixture_ledger
from grinblat.construct import hypothesis_bound, try_direct_pair
from grinblat.construct.pipeline import _initial_state
from grinblat.core import KernelInfo, kernel, min_kernel, verify_matching
from grinblat.formats import write_instance
from grinblat.gen import (
    _deep_eligible,
    gen_lower_bound_family,
    gen_planted_concentrated,
    gen_random_hypothesis,
    planted_capacity,
)
from grinblat.oracle import exact_solve


def check_instance(inst) -> None:
    """A generated instance is valid and no relation has an empty kernel."""
    inst.validate()
    assert inst.n == 0 or all(kernel(p) for p in inst.relations)


class TestLowerBoundFamily:
    def test_structure(self):
        inst = gen_lower_bound_family(4)
        assert inst.n == 4
        assert inst.ground_size == 9
        assert KernelInfo.of(inst).sizes == (9, 9, 9, 9)

    def test_unmatchable(self):
        for n in (2, 3, 4, 5):
            assert exact_solve(gen_lower_bound_family(n)).outcome == "proven-none"

    def test_one_fewer_relation_matches(self):
        inst = gen_lower_bound_family(5)
        reduced = type(inst)(inst.ground_size, inst.relations[:-1])
        assert exact_solve(reduced).outcome == "matched"

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            gen_lower_bound_family(1)


class TestRandomHypothesis:
    def test_kernel_bound_met(self):
        for n, c in ((30, 0), (40, 100), (35, 5000)):
            inst = gen_random_hypothesis(n, c, seed=7)
            check_instance(inst)
            assert min_kernel(inst) >= hypothesis_bound(n, c)

    def test_deterministic(self):
        a = gen_random_hypothesis(33, 50, seed=11)
        b = gen_random_hypothesis(33, 50, seed=11)
        assert a == b

    def test_seed_sensitivity(self):
        a = gen_random_hypothesis(33, 50, seed=11)
        b = gen_random_hypothesis(33, 50, seed=12)
        assert a != b

    def test_slack(self):
        inst = gen_random_hypothesis(30, 0, seed=3, slack=10)
        assert min_kernel(inst) >= hypothesis_bound(30, 0) + 10


class TestPlantedConcentrated:
    def test_capacity_formula(self):
        for n in (30, 60, 100, 200):
            t = n // 5
            assert planted_capacity(n) == 4 * n - 2 * t - 4 - math.ceil(16 * n / 5)

    def test_sub_matching_is_valid(self):
        inst, sub = gen_planted_concentrated(40, 8, seed=1)
        used = set()
        for i, (a, b) in sub.items():
            assert inst.relations[i].equivalent(a, b)
            assert a not in used and b not in used
            used.update((a, b))
        assert sorted(sub) == list(range(1, 40))

    def test_within_capacity_no_direct_pair(self):
        inst, sub = gen_planted_concentrated(60, 20, seed=2)
        assert min_kernel(inst) >= hypothesis_bound(60, 20)
        state = _initial_state(inst, sub, 0)
        assert try_direct_pair(state) is None

    def test_above_capacity_pads_with_filler(self):
        # c = 5000 far exceeds capacity; kernels still meet the bound and the
        # new relation necessarily regains a direct pair
        inst, sub = gen_planted_concentrated(60, 5000, seed=2)
        assert min_kernel(inst) >= hypothesis_bound(60, 5000)
        state = _initial_state(inst, sub, 0)
        assert try_direct_pair(state) is not None

    def test_deterministic_and_seeded(self):
        a = gen_planted_concentrated(40, 8, seed=5)
        b = gen_planted_concentrated(40, 8, seed=5)
        c = gen_planted_concentrated(40, 8, seed=6)
        assert a == b
        assert a[0] != c[0]

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            gen_planted_concentrated(9, 0, seed=0)

    def test_deep_mode_kernel_exact(self):
        # 16 | c and c >= 32: no planted shortcut pair, the pipeline must go
        # the whole way; check the instance is still hypothesis-tight
        inst, _ = gen_planted_concentrated(100, 32, seed=0)
        assert min_kernel(inst) >= hypothesis_bound(100, 32)


def _planted_grid():
    """(n, c) for each n of the grid and each branch the planted generator
    takes: the deep plant where n admits one, the t-pair plant at capacity,
    and the filler pool just above capacity and far above it."""
    for n in (10, 11, 30, 31, 100):
        cap = planted_capacity(n)
        deep = [32] if _deep_eligible(n, 32) else []
        assert not _deep_eligible(n, cap)
        for c in deep + [cap, cap + 1, 5000]:
            yield n, c


@pytest.mark.parametrize("n, c", list(_planted_grid()))
def test_planted_matches_the_tuple_born_generator(n, c):
    for seed in (1, 2, 3):
        inst, sub = gen_planted_concentrated(n, c, seed)
        ref, ref_sub = planted_ref.gen_planted_concentrated(n, c, seed)
        assert inst.ground_size == ref.ground_size
        assert sub == ref_sub
        assert write_instance(inst) == write_instance(ref)


@pytest.mark.parametrize("make", [
    lambda: gen_random_hypothesis(30, 5000, 1),
    lambda: gen_random_hypothesis(12, 0, 4, 3),
    lambda: gen_planted_concentrated(100, 32, 1)[0],  # deep plant
    lambda: gen_planted_concentrated(30, 8, 1)[0],  # t-pair plant
    lambda: gen_planted_concentrated(30, 5000, 1)[0],  # filler pool
], ids=["random-5000", "random-slack", "planted-deep", "planted-t-pair", "planted-filler"])
def test_generated_relations_are_array_born(make):
    assert all(p.arrays is not None for p in make().relations)


class TestFixtureLedger:
    def test_base_fixture_charges(self):
        state, ledger = gen_fixture_ledger(FixtureSpec(n=30))
        assert state.t == 6
        assert ledger.sigma[2] == 4  # the track classes of relation 1
        assert sum(ledger.sigma) == len(kernel(state.relation_at(1)))
        assert sum(ledger.tau) == len(kernel(state.relation_at(6)))

    def test_declared_targets_checked(self):
        spec = FixtureSpec(n=30, sigma_target={2: 4}, tau_target={2: 0})
        state, ledger = gen_fixture_ledger(spec)
        assert ledger.sigma[2] == 4

    def test_wrong_target_rejected(self):
        with pytest.raises(InfeasibleFixture):
            gen_fixture_ledger(FixtureSpec(n=30, sigma_target={3: 4}))

    def test_overcharge_target_rejected(self):
        with pytest.raises(InfeasibleFixture):
            gen_fixture_ledger(FixtureSpec(n=30, sigma_target={2: 5}))

    def test_win_admitting_fixture_rejected(self):
        spec = FixtureSpec(n=30, extra={6: [[("x", "u"), ("x", "v")]]})
        with pytest.raises(InfeasibleFixture):
            gen_fixture_ledger(spec)

    def test_tiny_n_rejected(self):
        with pytest.raises(InfeasibleFixture):
            gen_fixture_ledger(FixtureSpec(n=9))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=10, max_value=60),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=10**9),
)
def test_planted_always_meets_hypothesis(n, c, seed):
    inst, sub = gen_planted_concentrated(n, c, seed)
    check_instance(inst)
    assert min_kernel(inst) >= hypothesis_bound(n, c)
    # the planted sub-matching really is a rainbow matching of 1..n-1
    pairs = [sub[i] for i in sorted(sub)]
    flat = [e for p in pairs for e in p]
    assert len(set(flat)) == len(flat)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=10**9),
)
def test_random_always_meets_hypothesis(n, c, seed):
    inst = gen_random_hypothesis(n, c, seed)
    check_instance(inst)
    assert min_kernel(inst) >= hypothesis_bound(n, c)
