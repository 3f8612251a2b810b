"""Extremal witness search tests.

The small-n ground truths here were established with independent exhaustive
runs of the exact solver and are frozen as constants: for n=2 the smallest
kernel size admitting an unmatchable instance is 4 (two crossed perfect
matchings of a four-element block), and for n=3 a kernel-8 witness exists
(three pairwise crossed matchings over two four-element blocks) while the
family bound 3n-3 = 6 is far below it.
"""

import pytest

import search_ref
from grinblat.core import Instance, KernelInfo, Partition
from grinblat.oracle import (
    _count_partitions_23,
    _partitions_23,
    _shapes,
    exact_solve,
    min_unmatchable_kernel,
    search_unmatchable,
)
from milp_ref import milp_matching
from test_golden import SEARCH_GRID

# the crossed-matchings witness for n=2, kernel size 4
CROSSED_N2 = Instance(4, [Partition([(0, 1), (2, 3)]), Partition([(0, 2), (1, 3)])])


class TestEnumeration:
    def test_partition_count_matches_closed_form(self):
        for k in range(0, 9):
            got = sum(1 for _ in _partitions_23(list(range(k))))
            assert got == _count_partitions_23(k)

    def test_partitions_are_partitions(self):
        for blocks in _partitions_23(list(range(7))):
            flat = [e for b in blocks for e in b]
            assert sorted(flat) == list(range(7))
            assert all(len(b) in (2, 3) for b in blocks)

    def test_shapes(self):
        assert _shapes(6) == [(2, 2, 2), (3, 3)]
        assert _shapes(7) == [(2, 2, 3)]
        assert _shapes(5) == [(2, 3)]
        assert _shapes(2) == [(2,)]


class TestFrozenSmallValues:
    def test_n2_crossed_witness_is_unmatchable(self):
        assert KernelInfo.of(CROSSED_N2).sizes == (4, 4)
        assert exact_solve(CROSSED_N2).outcome == "proven-none"

    def test_n2_kernel5_has_no_witness(self):
        res = search_unmatchable(2, 5, max_ground=7, budget=10**6)
        assert res.witness is None
        assert res.exhausted

    def test_n2_kernel6_has_no_witness(self):
        res = search_unmatchable(2, 6, max_ground=7, budget=2 * 10**6)
        assert res.witness is None
        assert res.exhausted

    def test_n2_minimum_is_four(self):
        est = min_unmatchable_kernel(2, max_ground=6, budget=10**6)
        assert est.value == 4
        assert est.exhausted
        assert exact_solve(est.witness).outcome == "proven-none"

    def test_n3_kernel8_witness_found(self):
        res = search_unmatchable(3, 8, max_ground=8, budget=5 * 10**5)
        assert res.witness is not None
        assert res.ground_size == 8
        assert min(KernelInfo.of(res.witness).sizes) == 8
        assert exact_solve(res.witness).outcome == "proven-none"


class TestSearchMechanics:
    def test_degenerate_targets(self):
        res = search_unmatchable(0, 4, max_ground=6)
        assert res.witness is None and res.exhausted
        res = search_unmatchable(2, 1, max_ground=6)
        assert res.witness is None and res.exhausted

    def test_budget_prevents_exhaustion_claim(self):
        res = search_unmatchable(2, 6, max_ground=10, budget=50)
        assert res.witness is None
        assert not res.exhausted

    def test_witness_kernels_hit_target_exactly(self):
        res = search_unmatchable(2, 4, max_ground=6, budget=10**5)
        assert res.witness is not None
        assert KernelInfo.of(res.witness).sizes == (4, 4)

    def test_deterministic_first_pass(self):
        r1 = search_unmatchable(2, 4, max_ground=6, budget=10**5)
        r2 = search_unmatchable(2, 4, max_ground=6, budget=10**5)
        assert r1.witness == r2.witness and r1.nodes == r2.nodes

    def test_family_bound_witness_for_n3(self):
        # the classical family gives kernels 3n-3 = 6; the search must find
        # some witness at that target too
        res = search_unmatchable(3, 6, max_ground=6, budget=10**5)
        assert res.witness is not None
        assert exact_solve(res.witness).outcome == "proven-none"


def _record(res):
    classes = None if res.witness is None else [p.classes for p in res.witness.relations]
    return classes, res.ground_size, res.nodes, res.exhausted


# the witness of (3, 8, 12) costs 29,205 nodes, its own solver call the
# last 12 of them: budgets that stop that call mid-way and at its last node,
# one it spends exactly and one with a node to spare
WITNESS_BUDGETS = [(3, 8, 12, b) for b in (29_199, 29_204, 29_205, 29_206)]


@pytest.mark.parametrize("n, target, max_ground, budget", SEARCH_GRID + WITNESS_BUDGETS)
def test_search_matches_the_per_instance_loop(n, target, max_ground, budget):
    # the search tries the reference's candidate tuples in its order and
    # spends its nodes, without building an Instance per candidate
    got = search_unmatchable(n, target, max_ground, budget=budget)
    want = search_ref.search_unmatchable(n, target, max_ground, budget=budget)
    assert _record(got) == _record(want)


def test_min_kernel_matches_the_per_instance_loop():
    got = min_unmatchable_kernel(2, 6, 10**6)
    want = search_ref.min_unmatchable_kernel(2, 6, 10**6)
    assert (got.value, got.witness, got.exhausted) == (want.value, want.witness, want.exhausted)


def test_witnesses_are_infeasible_integer_programs():
    # each witness's "no matching" is checked by a solver that shares no
    # code with exact_solve; the two extra searches find the n = 2 crossed
    # matchings and an n = 3 witness at the family bound
    grid = SEARCH_GRID + [(2, 4, 6, 10**5), (3, 6, 6, 10**5)]
    witnesses = [search_unmatchable(*args[:3], budget=args[3]).witness for args in grid]
    witnesses = [w for w in witnesses if w is not None]
    assert len(witnesses) == 3
    for w in witnesses:
        assert milp_matching(w) is None
