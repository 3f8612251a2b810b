"""Extremal witness search tests.

The small-n ground truths here were established with independent exhaustive
runs of the exact solver and are frozen as constants: for n=2 the smallest
kernel size admitting an unmatchable instance is 4 (two crossed perfect
matchings of a four-element block), and for n=3 a kernel-8 witness exists
(three pairwise crossed matchings over two four-element blocks) while the
family bound 3n-3 = 6 is far below it.
"""

import itertools
import random

import pytest

import search_ref
from grinblat import oracle
from grinblat.core import Instance, KernelInfo, Partition, pair_masks
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

    def test_negative_budget_is_refused(self):
        # the pass stops once its nodes reach the budget, so a negative one
        # would read as a search stopped at once
        with pytest.raises(ValueError, match="negative budget -1"):
            search_unmatchable(3, 8, 12, budget=-1)

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


# the witness's call walks relation 1's pairs at nodes 29,194, 29,197,
# 29,200 and 29,203, and after each closes a frame of two in place in the
# next two nodes: with the budgets above, these stop it at each of them
WITNESS_SWEEP = [(3, 8, 12, b) for b in range(29_193, 29_204) if b != 29_199]
# n = 4 searches run the core on every tuple: two witnesses and two budget
# stops
N4_GRID = [(4, 6, 6, 10**5), (4, 8, 8, 10**5), (4, 9, 12, 3_000), (4, 10, 10, 20_000)]
# the first shape of (3, 9, 9) takes 3,559,710 nodes without a witness.  In
# the second, relation 1 has 9 pairs and a candidate of the first shape 6,
# so relation 1 is not fail-first; the budget stops 2,000 nodes in
MIXED_N3 = (3, 9, 9, 3_561_710)


@pytest.mark.parametrize(
    "n, target, max_ground, budget", SEARCH_GRID + WITNESS_BUDGETS + WITNESS_SWEEP + N4_GRID + [MIXED_N3]
)
def test_search_matches_the_per_instance_loop(n, target, max_ground, budget, monkeypatch):
    # the search tries the reference's candidate tuples in its order and
    # spends its nodes, without building an Instance per candidate
    ran = set()

    def spy(route, fn):
        def call(*args):
            ran.add(route)
            return fn(*args)
        return call

    with monkeypatch.context() as m:
        m.setattr(oracle, "_row", spy("pass", oracle._row))
        m.setattr(oracle, "_search", spy("core", oracle._search))
        got = search_unmatchable(n, target, max_ground, budget=budget)
    want = search_ref.search_unmatchable(n, target, max_ground, budget=budget)
    assert _record(got) == _record(want)
    # the pass walks the n = 3 tuples whose fail-first relation is relation
    # 1, and the core searches every other tuple
    if got.nodes:
        assert ("pass" in ran) == (n == 3)
        assert ("core" in ran) == (n != 3 or (n, target, max_ground, budget) == MIXED_N3)


def _per_tuple(rel1, cands, ground, budget):
    # the pass's contract: one exact_solve per tuple with the budget left,
    # until one is proven-none
    nodes = 0
    for i, k in itertools.combinations_with_replacement(range(len(cands)), 2):
        if nodes >= budget:
            break
        res = exact_solve(Instance(ground, [Partition(c) for c in (rel1, cands[i], cands[k])]), budget=budget - nodes)
        nodes += res.nodes
        if res.outcome == "proven-none":
            return nodes, (i, k)
    return nodes, None


def test_three_relation_pass_on_mixed_pair_counts():
    # candidates over 4 to 8 of 8 elements have 2 to 10 pairs, fewer and
    # more than relation 1's 4 in either slot, so both routes run; against
    # a relation 1 of one pair, some lose all their pairs to it, a dead
    # child.  Budgets stop anywhere.
    rng = random.Random(20261022)
    pool = [c for k in range(4, 9) for s in itertools.combinations(range(8), k) for c in _partitions_23(s)]
    for rel1 in [((0, 1), (2, 3, 4)), ((0, 1),)]:
        for _ in range(20):
            cands = rng.sample(pool, 14)
            full = _per_tuple(rel1, cands, 8, 10**6)
            for budget in {10**6, full[0] - 1, full[0], rng.randrange(full[0] + 1), rng.randrange(full[0] + 1)} - {-1}:
                got = oracle._pass_three(pair_masks(rel1), cands, [None] * len(cands), 0, budget)
                assert got == _per_tuple(rel1, cands, 8, budget)


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
