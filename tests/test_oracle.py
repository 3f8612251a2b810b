"""Exact solver tests, cross-checked against an independent brute-force
enumerator, the list-based search the solver replaced, an integer program
solved by scipy and, on the lower-bound family, a matching of the union
graph found by networkx."""

import itertools
import random
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from brute import brute_has_matching
from exact_ref import exact_solve as reference_solve
from graph_ref import union_matching_size
from milp_ref import milp_matching
from grinblat.core import Instance, Partition, verify_matching
from grinblat.gen import gen_lower_bound_family
from grinblat import oracle
from grinblat.oracle import SolveResult, exact_solve
from test_acceptance import _oracle_instance


class TestExactSolve:
    def test_empty_instance(self):
        res = exact_solve(Instance(0, []))
        assert res.outcome == "matched" and res.matching.pairs == ()

    def test_single_relation(self):
        res = exact_solve(Instance(3, [Partition([(0, 1, 2)])]))
        assert res.outcome == "matched"

    def test_relation_without_pairs(self):
        res = exact_solve(Instance(3, [Partition([])]))
        assert res.outcome == "proven-none" and res.nodes == 0

    def test_forced_backtracking(self):
        # relation 0 prefers (0,1) but only (2,3) leaves relation 1 alive
        inst = Instance(
            4, [Partition([(0, 1), (2, 3)]), Partition([(0, 1)])]
        )
        res = exact_solve(inst)
        assert res.outcome == "matched"
        assert verify_matching(inst, res.matching).valid

    def test_lower_bound_family_proven_none(self):
        for n in (2, 3, 4, 5):
            res = exact_solve(gen_lower_bound_family(n))
            assert res.outcome == "proven-none"

    def test_budget_reported_as_outcome(self):
        res = exact_solve(gen_lower_bound_family(6), budget=3)
        assert res.outcome == "budget"
        assert res.nodes >= 3

    def test_deterministic(self):
        inst = gen_lower_bound_family(4)
        r1, r2 = exact_solve(inst), exact_solve(inst)
        assert r1.nodes == r2.nodes and r1.outcome == r2.outcome


def _random_small_instance(rng: random.Random) -> Instance:
    ground = rng.randint(4, 14)
    n = rng.randint(1, 6)
    rels = []
    for _ in range(n):
        elems = list(range(ground))
        rng.shuffle(elems)
        k = rng.randint(1, 2)
        classes = []
        at = 0
        for _ in range(k):
            size = rng.choice((2, 3))
            if at + size > ground:
                break
            classes.append(tuple(elems[at : at + size]))
            at += size
        if not classes:
            classes = [tuple(elems[:2])]
        rels.append(Partition(classes))
    return Instance(ground, rels)


def test_exact_solve_agrees_with_brute_force():
    rng = random.Random(20260824)
    for _ in range(300):
        inst = _random_small_instance(rng)
        res = exact_solve(inst)
        expected = brute_has_matching(inst)
        assert (res.outcome == "matched") == expected
        if res.matching is not None:
            assert verify_matching(inst, res.matching).valid


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_exact_solve_agrees_with_brute_force_property(seed):
    inst = _random_small_instance(random.Random(seed))
    res = exact_solve(inst)
    assert (res.outcome == "matched") == brute_has_matching(inst)


def _random_instance(rng: random.Random) -> Instance:
    # one to four classes of 2 to 5 elements per relation, cut from a
    # shuffled ground set; a first class that does not fit leaves none
    ground, n = rng.randint(4, 16), rng.randint(1, 7)
    rels = []
    for _ in range(n):
        elems = rng.sample(range(ground), ground)
        classes, at = [], 0
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(2, 5)
            if at + size > ground:
                break
            classes.append(elems[at : at + size])
            at += size
        rels.append(Partition(classes))
    return Instance(ground, rels)


def _padded(inst: Instance) -> Instance:
    # one extra disjoint pair in every relation restores a matching
    g = inst.ground_size
    return Instance(g + 2 * inst.n, [
        Partition(list(p.classes) + [(g + 2 * i, g + 2 * i + 1)]) for i, p in enumerate(inst.relations)
    ])


def _differential_inputs():
    rng = random.Random(20261019)
    for _ in range(300):
        yield _random_instance(rng)
    for n in range(2, 8):
        yield gen_lower_bound_family(n)
        yield _padded(gen_lower_bound_family(n))
    yield Instance(400, [Partition([(2 * i, 2 * i + 1)]) for i in range(200)])


def test_exact_solve_matches_the_list_based_search():
    # the bitmask search visits the reference's nodes in the reference's
    # order: same outcome, node count and matching under every budget
    for inst in _differential_inputs():
        for budget in (None, 0, 1, 3, 50):
            got, want = exact_solve(inst, budget=budget), reference_solve(inst, budget=budget)
            assert (got.outcome, got.nodes, got.matching) == (want.outcome, want.nodes, want.matching)


@st.composite
def _instances(draw, relations=st.integers(1, 6)):
    ground = draw(st.integers(4, 12))
    rels = []
    for _ in range(draw(relations)):
        elems = draw(st.permutations(range(ground)))
        sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
        ends = list(itertools.accumulate(sizes))
        rels.append(Partition(elems[end - k : end] for k, end in zip(sizes, ends) if end <= ground))
    return Instance(ground, rels)


@st.composite
def _shared_class_instances(draw):
    # five to seven relations, each a nonempty set of classes from one
    # pool, so that different orders of choices reach the same subproblem
    # and the search counts dead ones from its table
    ground = draw(st.integers(8, 14))
    elems = draw(st.permutations(range(ground)))
    sizes = draw(st.lists(st.integers(2, 3), min_size=3, max_size=6))
    ends = list(itertools.accumulate(sizes))
    pool = [elems[end - k : end] for k, end in zip(sizes, ends) if end <= ground]
    picks = st.sets(st.integers(0, len(pool) - 1), min_size=1)
    n = draw(st.integers(5, 7))
    return Instance(ground, [Partition(pool[i] for i in sorted(draw(picks))) for _ in range(n)])


@st.composite
def _family_like_instances(draw):
    # five or six relations over a pool of n - 1 disjoint classes: each
    # relation keeps all of them but at most one and may add a pair of its
    # own, so most have no rainbow matching and, as in the lower-bound
    # family, frames with two open relations recur
    n = draw(st.integers(5, 6))
    sizes = draw(st.lists(st.integers(2, 3), min_size=n - 1, max_size=n - 1))
    ground = sum(sizes) + 2 * n
    elems = draw(st.permutations(range(ground)))
    ends = list(itertools.accumulate(sizes))
    pool = [elems[end - k : end] for k, end in zip(sizes, ends)]
    rels = []
    for i in range(n):
        drop = draw(st.integers(-1, n - 2))
        classes = [c for j, c in enumerate(pool) if j != drop]
        if draw(st.integers(0, 9)) == 5:
            classes.append(elems[ends[-1] + 2 * i : ends[-1] + 2 * i + 2])
        rels.append(Partition(classes))
    return Instance(ground, rels)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_instances(), _shared_class_instances()), st.integers(min_value=0, max_value=60))
def test_budget_stops_one_node_past_it(inst, budget):
    # a budget at least the unbudgeted node count changes nothing; a smaller
    # one stops the search at its first node past the budget
    full = exact_solve(inst)
    got = exact_solve(inst, budget=budget)
    if full.nodes <= budget:
        assert got == full
    else:
        assert got == SolveResult("budget", None, budget + 1)


@st.composite
def _twin_heavy_instances(draw):
    # five to seven relations, each made of whole classes of one pool of
    # disjoint classes of 2 to 5 elements, relabelled: a pool class's
    # elements are listed together or not at all, so they stay twins.  A
    # relation may hold two pool classes in one class, whose pairs then use
    # one element of each block.  A few relations add a pair of their own,
    # a block of two.  A small pool leaves fewer than 2n elements, so such
    # draws are unmatchable.
    n = draw(st.integers(5, 7))
    sizes = draw(st.lists(st.integers(2, 5), min_size=2, max_size=n))
    own = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    ground = sum(sizes) + 2 * len(own)
    elems = draw(st.permutations(range(ground)))
    ends = list(itertools.accumulate(sizes))
    pool = [elems[end - k : end] for k, end in zip(sizes, ends)]
    rels = []
    for i in range(n):
        classes = []
        for c in sorted(draw(st.sets(st.integers(0, len(pool) - 1), min_size=1))):
            if classes and draw(st.booleans()):
                classes[-1] = classes[-1] + pool[c]
            else:
                classes.append(pool[c])
        if i in own:
            at = ends[-1] + 2 * own.index(i)
            classes.append(elems[at : at + 2])
        rels.append(Partition(classes))
    return Instance(ground, rels)


def _assert_matches_the_list_based_search(inst, data):
    # budgets anywhere in the tree, so often inside a counted subtree, on
    # the last node and past it stop both searches at the same node with
    # the same outcome and matching
    full = exact_solve(inst)
    budgets = {None, full.nodes - 1, full.nodes} | {data.draw(st.integers(0, full.nodes)) for _ in range(8)}
    for budget in budgets - {-1}:
        got, want = exact_solve(inst, budget=budget), reference_solve(inst, budget=budget)
        assert (got.outcome, got.nodes, got.matching) == (want.outcome, want.nodes, want.matching)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_shared_class_instances(), _family_like_instances(), _instances(st.integers(2, 4))), st.data())
def test_two_relation_frames_match_the_list_based_search(inst, data):
    # the search counts dead two-relation frames from its table (five or
    # more relations) and closes the last level in place; the list-based
    # search walks both
    _assert_matches_the_list_based_search(inst, data)


@settings(max_examples=200, deadline=None)
@given(_twin_heavy_instances(), st.data())
def test_twin_keys_match_the_list_based_search(inst, data):
    # the table keys used elements up to twins, so a frame reached with
    # other twins of the same blocks is counted, not searched; on such
    # instances about one drawn budget in ten stops inside a subtree
    # counted through a key that matched only up to twins
    _assert_matches_the_list_based_search(inst, data)


def _blocks(inst: Instance) -> list[tuple[int, ...]]:
    # the twin blocks of more than one element that the search core keys
    span, _ = oracle._twin_blocks([p._pair_masks for p in inst.relations], inst.n)
    blocks: dict[int, list[int]] = {}
    for x, mask in enumerate(span):
        blocks.setdefault(mask, []).append(x)
    return sorted(tuple(b) for mask, b in blocks.items() if mask and len(b) > 1)


def test_twin_blocks():
    # the family's triples are its blocks; the padded family adds each
    # relation's own pair; a dense random instance has no twins
    for n in range(2, 8):
        triples = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(n - 1)]
        assert _blocks(gen_lower_bound_family(n)) == triples
        g = 3 * (n - 1)
        own = [(g + 2 * i, g + 2 * i + 1) for i in range(n)]
        assert _blocks(_padded(gen_lower_bound_family(n))) == triples + own
    assert _blocks(_dense_unmatchable(10, 28)) == []


def _relabelled(inst: Instance, rng: random.Random) -> Instance:
    perm = rng.sample(range(inst.ground_size), inst.ground_size)
    return Instance(inst.ground_size, [
        Partition([perm[x] for x in cl] for cl in p.classes) for p in inst.relations
    ])


def test_dead_table_changes_no_result(monkeypatch):
    # the table off (cap 0), nearly off (cap 4) and at its default cap give
    # the same outcome, nodes and matching.  Most of the relabelled family's
    # nodes lie in subtrees the table counts without walking, so most of
    # the random budgets end inside one; like a walk, they stop one node
    # past the budget, and a budget of at least the node count changes
    # nothing.
    rng = random.Random(20261021)
    insts = [_relabelled(gen_lower_bound_family(n), rng) for n in range(4, 8)]
    insts += [_padded(gen_lower_bound_family(n)) for n in range(4, 8)]
    crit6 = random.Random(424242)
    insts += [_oracle_instance(crit6) for _ in range(1000)]
    for inst in insts:
        full = exact_solve(inst)
        for cap in (0, 4):
            monkeypatch.setattr(oracle, "DEAD_TABLE_CAP", cap)
            got = exact_solve(inst)
            monkeypatch.undo()
            assert (got.outcome, got.nodes, got.matching) == (full.outcome, full.nodes, full.matching)
        budgets = {0, 1, 50, full.nodes - 1, full.nodes, full.nodes + 1}
        budgets |= {rng.randrange(full.nodes + 1) for _ in range(5)}
        for budget in budgets - {-1}:
            got = exact_solve(inst, budget=budget)
            assert got == (full if budget >= full.nodes else SolveResult("budget", None, budget + 1))


def _dense_unmatchable(n: int, seed: int) -> Instance:
    # n relations over 2n - 2 elements, each a random partition of all of
    # them into pairs and triples: no n disjoint pairs fit, and the search
    # must refute many mixed choices
    ground = 2 * n - 2
    rng = random.Random(seed)
    rels = []
    for _ in range(n):
        elems = rng.sample(range(ground), ground)
        classes, at = [], 0
        while at < ground:
            k = 3 if ground - at == 3 or (ground - at >= 5 and rng.random() < 0.5) else 2
            classes.append(elems[at : at + k])
            at += k
        rels.append(Partition(classes))
    return Instance(ground, rels)


def _table_sizes(inst: Instance) -> tuple[SolveResult, list[int]]:
    # exact_solve's result and the size of each search core call's dead
    # table as the call returns (entries are never removed)
    sizes = []

    def on_return(frame, event, arg):
        if event == "return":
            sizes.append(len(frame.f_locals["dead"]))
        return on_return

    def on_call(frame, event, arg):
        if frame.f_code is oracle._search.__code__:
            frame.f_trace_lines = False
            return on_return
        return None

    old = sys.gettrace()
    sys.settrace(on_call)
    try:
        res = exact_solve(inst)
    finally:
        sys.settrace(old)
    return res, sizes


def test_twin_keys_count_and_name_the_relation():
    # Three instances on which a weaker twin key miscounts.  In the first,
    # relations 1 and 2 hold the twins {1, 2} and {5, 6} in one class, so a
    # pair such as (2, 6) uses the second element of two blocks; in the
    # second, the pair (1, 5) uses both elements of one block.  So the key
    # must count a block's used elements for both elements of a pair.  In
    # the third, 7 lies with the twins 3 and 8 in relation 2 and in a class
    # whose least element is 0 in relation 3, where theirs is in relation
    # 4: a signature without the relation would make it their twin.  Every
    # budget stops both searches at the same node.
    cases = [
        (Instance(8, [Partition([(0, 3)]), Partition([(1, 2, 5, 6, 7)]), Partition([(1, 2, 5, 6)]),
                      Partition([(4, 5, 6, 7)]), Partition([(4, 5, 6, 7)])]), [(0, 3), (1, 2), (5, 6)]),
        (Instance(9, [Partition([(2, 7)]), Partition([(3, 6, 8)]), Partition([(0, 1, 4, 5)]),
                      Partition([(1, 5, 8)]), Partition([(1, 4, 5)])]), [(1, 5), (2, 7), (3, 6)]),
        (Instance(9, [Partition([(2, 5)]), Partition([(1, 4)]), Partition([(3, 7, 8)]),
                      Partition([(0, 6, 7)]), Partition([(0, 3, 8)])]), [(1, 4), (2, 5), (3, 8)]),
    ]
    for inst, blocks in cases:
        assert _blocks(inst) == blocks
        full = exact_solve(inst)
        for budget in [None, *range(full.nodes + 1)]:
            got, want = exact_solve(inst, budget=budget), reference_solve(inst, budget=budget)
            assert (got.outcome, got.nodes, got.matching) == (want.outcome, want.nodes, want.matching)


def test_family_table_takes_one_entry_per_set_of_used_triples():
    # keyed up to twins, a frame of the family is its open relations and the
    # triples used so far; the table holds 2^(n-1) - 1 of them, where keys
    # on the used elements themselves took 781 at n = 6 and 58,975 at n = 9
    for n in range(6, 14):
        res, sizes = _table_sizes(gen_lower_bound_family(n))
        assert res.outcome == "proven-none"
        assert sizes == [2 ** (n - 1) - 1]


def test_dead_table_stays_within_its_cap(monkeypatch):
    # 10 relations over 18 elements: uncapped, this search would keep
    # 70,374 entries; the table fills to its cap and takes no more
    res, sizes = _table_sizes(_dense_unmatchable(10, 28))
    assert (res.outcome, res.nodes) == ("proven-none", 155_586)
    assert sizes == [oracle.DEAD_TABLE_CAP]
    small = _dense_unmatchable(9, 0)
    res, sizes = _table_sizes(small)
    assert sizes[0] > 100
    monkeypatch.setattr(oracle, "DEAD_TABLE_CAP", 100)
    capped, sizes = _table_sizes(small)
    assert sizes == [100] and capped == res


class TestMilpOracle:
    def test_lower_bound_family_is_infeasible(self):
        # exact_solve reaches the same verdict at every n here (9,968,255,307
        # nodes at n = 10, most counted from its dead table)
        for n in range(2, 11):
            inst = gen_lower_bound_family(n)
            assert milp_matching(inst) is None
            assert exact_solve(inst).outcome == "proven-none"

    def test_padded_family_is_feasible(self):
        for n in range(2, 11):
            inst = _padded(gen_lower_bound_family(n))
            m = milp_matching(inst)
            assert m is not None and verify_matching(inst, m).valid

    def test_agrees_with_exact_solve(self):
        # random instances with classes of up to 5 elements, some relations
        # without a pair; a feasible program's matching must verify
        rng = random.Random(20261020)
        for _ in range(150):
            inst = _random_instance(rng)
            m = milp_matching(inst)
            assert (m is not None) == (exact_solve(inst).outcome == "matched")
            if m is not None:
                assert verify_matching(inst, m).valid


def test_lower_bound_family_has_a_union_graph_certificate():
    # the union of the family's pairs is n - 1 disjoint triangles, whose
    # largest matching has n - 1 < n edges; up to n = 13 the exact search
    # reaches the same verdict
    for n in range(2, 51):
        inst = gen_lower_bound_family(n)
        assert union_matching_size(inst) == n - 1 < inst.n
        if n <= 13:
            assert exact_solve(inst).outcome == "proven-none"
