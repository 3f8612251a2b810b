"""Exact ground-truth solvers.

Both oracles run one search core, ``_search``: a backtracking search over
per-relation pair choices on an explicit stack, so its depth has no limit,
that holds each open relation's available pairs as one int, so a node
narrows each relation in one step, that counts a subproblem it has
already proven dead, or one that differs from it only by a swap of twin
elements, from a table instead of searching it again, and that closes the
last level in place.
exact_solve wraps it to certify matchings and non-matchings of one
instance at small scale.
search_unmatchable hunts for extremal witnesses: instances whose kernels
all reach a target size yet admit no rainbow matching.  It calls the core
once per candidate tuple on pair masks built once per candidate, in lists
allocated once per shape, and builds an ``Instance`` only for the witness
it returns.  It makes one deterministic pass, so equal arguments give
equal results.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional, Sequence

from .core import FrozenRecord, Instance, Matching, Partition

# Entries one ``_search`` call keeps in its table of dead subproblems; a full
# table takes no more and answers no more lookups.  A key takes one bit per
# relation and per element: a full table of 10 relations over 18 elements
# holds 5.3 MB (tracemalloc).  Keyed up to twins, the lower-bound family at n
# needs 2^(n-1) - 1 entries, one per set of used triples, so this cap holds
# it up to n = 17; dense unmatchable instances add about one entry per two
# nodes.
DEAD_TABLE_CAP = 1 << 16


class SolveResult(FrozenRecord):
    _fields = ("outcome", "matching", "nodes")

    def __init__(self, outcome: str, matching: Optional[Matching] = None, nodes: int = 0):
        object.__setattr__(self, "outcome", outcome)  # "matched", "proven-none" or "budget"
        object.__setattr__(self, "matching", matching)
        object.__setattr__(self, "nodes", nodes)


def exact_solve(inst: Instance, budget: Optional[int] = None) -> SolveResult:
    """Backtracking search; fail-first relation order, deterministic.

    A node is one attempted pair assignment, and ``nodes`` is the size of
    the fail-first search tree up to the outcome.  Subtrees already proven
    dead are counted from a table, not revisited (see ``_search``), so a
    budget stops at the same node as a search that walks them.  Budget
    exhaustion is an outcome, never an error.  The search runs on an
    explicit stack, so its depth is not bounded by Python's recursion limit.
    """
    if inst.n == 0:
        return SolveResult("matched", Matching([]), 0)
    views = [p._pair_masks for p in inst.relations]
    outcome, chosen, nodes = _search(views, [_open(j, view) for j, view in enumerate(views)], budget)
    return SolveResult(outcome, None if chosen is None else Matching(chosen), nodes)


def _open(j: int, view: tuple[list[tuple[int, int]], dict[int, int]]) -> tuple:
    """Relation j's open tuple with every pair of its view open."""
    pairs, masks = view
    return (len(pairs), j, (1 << len(pairs)) - 1, masks)


def _twin_blocks(views: Sequence[tuple[list[tuple[int, int]], dict[int, int]]], m: int) -> tuple[list, list]:
    """Per listed element, its twin block's bits in a frame key and the
    lowest of them.  An element's signature codes (relation, least element
    of its class) for each relation that lists it; equal signatures make
    twins.  A block takes one bit per element, consecutive and above the m
    relation bits, and a key that holds k of its elements sets the lowest k.
    """
    sigs: dict[int, list[int]] = {}
    for j, (pairs, masks) in enumerate(views):
        for x, mask in masks.items():
            # x's lowest pair starts at the least element of x's class
            sigs.setdefault(x, []).append(pairs[(mask & -mask).bit_length() - 1][0] * m + j)
    blocks: dict[tuple[int, ...], list[int]] = {}
    for x, sig in sigs.items():
        blocks.setdefault(tuple(sig), []).append(x)
    size = max(sigs, default=-1) + 1
    span, first = [0] * size, [0] * size
    bit = 1 << m
    for block in blocks.values():
        mask = bit * ((1 << len(block)) - 1)
        for x in block:
            span[x], first[x] = mask, bit
        bit <<= len(block)
    return span, first


def _search(
    views: Sequence[tuple[list[tuple[int, int]], dict[int, int]]],
    opens: list[tuple],
    budget: Optional[int],
) -> tuple[str, Optional[list[tuple[int, int]]], int]:
    """The search behind both oracles: (outcome, chosen pairs, nodes).

    views[j] is relation j's ``Partition._pair_masks``; opens holds one
    open tuple per relation, (open pair count, index, open pairs, its
    elements' masks), in index order.  The chosen pairs, one per relation,
    come back only on "matched".

    A relation's open pairs are one int, bit i for its i-th pair in sorted
    order.  Trying the lowest set bit first keeps sorted order; the
    fail-first relation is the first in index order with the fewest set
    bits; choosing (a, b) clears the pairs holding a or b in every other
    open relation, and one left with none prunes the child.  These are the
    rules the list-based search had, so the nodes, their order and the
    results are the same.

    Different orders of earlier choices often reach the same subproblem, so
    the search keeps a table of dead ones.  A frame is keyed by its open
    relations J and, up to twins, the elements U its path has used, packed
    as one int: J in the low m bits and, above them, the lowest bits of
    each block of twins, one per element of U in it (``_twin_blocks``).
    Twins lie in one class of every relation that lists either, so swapping
    two maps each relation to itself and keeps every open relation's pair
    count, its initial pairs minus those touching U, and every fail-first
    pick.  Frames with equal keys differ by such swaps, and a dead frame
    tries all its pairs, in whatever order, so equal keys root dead
    subtrees of equal size.  A frame exhausted without a matching records
    its subtree's node count; a child whose key is recorded adds that count
    instead of being searched, and a budget that the count passes stops at
    budget + 1, as the walk would have.  Only dead frames are recorded and a
    dead subtree holds no matching, so outcomes, node counts, matchings and
    budget stops are those of the full walk.
    Frames with two or more open relations are keyed, and the last level
    is closed in place: a pair chosen in a frame of two leaves the other
    relation without pairs or matches at its lowest pair left, so that
    node is counted and returned without a frame of one.  A subproblem
    recurs only after two choices made in either order; with four
    relations only a frame of two can, when the root and second relations
    share a pair, and on the witness search at n = 4 a table saved no
    node, so a search of fewer than five relations keeps none.  At
    ``DEAD_TABLE_CAP`` entries the table is closed: it takes no more, and
    frames pushed after that are not keyed, so the search goes on as a
    plain walk.  A table fills when its subproblems seldom recur,
    as on dense unmatchable instances: on 13 relations over 24 elements,
    one lookup in 75 past the cap hit and a hit saved 1.3 nodes, so
    lookups past the cap made the search 20-35% slower.
    """
    # A frame holds the open relations in index order, the fail-first one,
    # its untried pairs, and its mark: (key, node count when pushed), or
    # None for an unkeyed frame.  Open tuples order as fail-first picks.
    fewest = min(opens)  # a relation without pairs leaves nothing to try
    limit = math.inf if budget is None else budget
    m = len(views)
    chosen: list[Optional[tuple[int, int]]] = [None] * m
    nodes = 0
    mark = None
    if m > 4:  # fewer relations seldom repeat a frame (see above)
        dead: dict[int, int] = {}
        mark = ((1 << m) - 1, 0)
        span, first = _twin_blocks(views, m)
    stack = [[opens, fewest, fewest[2], mark]]
    while stack:
        frame = stack[-1]
        opens, rel, untried, mark = frame
        if not untried:
            stack.pop()
            if mark is not None and len(dead) < DEAD_TABLE_CAP:
                dead[mark[0]] = nodes - mark[1]
            continue
        low = untried & -untried
        frame[2] = untried ^ low
        nodes += 1
        if nodes > limit:
            return "budget", None, nodes
        j = rel[1]
        pair = chosen[j] = views[j][0][low.bit_length() - 1]
        if len(opens) == 1:
            return "matched", chosen, nodes
        a, b = pair
        if len(opens) == 2:  # the last level, closed in place (see above)
            other = opens[1] if rel is opens[0] else opens[0]
            left = other[2] & ~(other[3].get(a, 0) | other[3].get(b, 0))
            if left:
                nodes += 1
                if nodes > limit:
                    return "budget", None, nodes
                chosen[other[1]] = views[other[1]][0][(left & -left).bit_length() - 1]
                return "matched", chosen, nodes
            continue
        if mark is not None and len(dead) < DEAD_TABLE_CAP:
            # a block's used bits are its lowest k, so adding its lowest bit
            # gives its next: a and b each take the lowest free one
            key = mark[0] ^ 1 << j
            key |= (key & span[a]) + first[a]
            key |= (key & span[b]) + first[b]
            spent = dead.get(key)
            if spent is not None:
                # a dead subtree: count it, and stop inside it where
                # walking it would pass the budget
                nodes += spent
                if nodes > limit:
                    return "budget", None, budget + 1
                continue
            mark = (key, nodes)
        else:
            mark = None
        child = []
        fewest = None
        for other in opens:
            if other is rel:
                continue
            masks = other[3]
            if a in masks or b in masks:
                left = other[2] & ~(masks.get(a, 0) | masks.get(b, 0))
                if not left:
                    # fail-first would pick this relation and try nothing
                    break
                other = (left.bit_count(), other[1], left, masks)
            child.append(other)
            if fewest is None or other[0] < fewest[0]:
                fewest = other
        else:
            stack.append([child, fewest, fewest[2], mark])
    return "proven-none", None, nodes


class SearchResult(FrozenRecord):
    _fields = ("witness", "ground_size", "nodes", "exhausted")

    def __init__(self, witness: Optional[Instance], ground_size: int, nodes: int, exhausted: bool):
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "exhausted", exhausted)  # the whole space covered without a find


def _partitions_23(elems: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of elems into blocks of size 2 or 3."""
    if not elems:
        yield ()
        return
    first, rest = elems[0], list(elems[1:])
    for size in (1, 2):
        for combo in itertools.combinations(rest, size):
            block = (first,) + combo
            remaining = [e for e in rest if e not in combo]
            for tail in _partitions_23(remaining):
                yield (block,) + tail


def _count_partitions_23(k: int) -> int:
    """The number of partitions of k elements into blocks of size 2 or 3:
    the first element's block takes one or two of the other k - 1."""
    counts = [1, 0, 1]
    for m in range(3, k + 1):
        counts.append((m - 1) * counts[m - 2] + (m - 1) * (m - 2) // 2 * counts[m - 3])
    return counts[k]


def _shapes(k: int) -> list[tuple[int, ...]]:
    """Multisets of block sizes 2 and 3 summing to k, smallest-first order."""
    sizes = [(threes, k - 3 * threes) for threes in range(k // 3 + 1)]
    return sorted(tuple([2] * (rem // 2) + [3] * threes) for threes, rem in sizes if rem % 2 == 0)


def search_unmatchable(
    n: int,
    kernel_target: int,
    max_ground: int,
    budget: int = 10**8,
) -> SearchResult:
    """One deterministic pass over canonical instances with every kernel
    exactly kernel_target, ground size by ground size.

    Restricting kernels to exactly the target loses no witnesses: dropping
    whole classes keeps an instance unmatchable, so a minimal witness sits
    at the target.  Relation 1 is fixed to consecutive canonical blocks per
    shape (killing the element-relabeling symmetry), and the remaining
    relations are chosen in nondecreasing candidate order (relations are
    exchangeable).  The pass stops before a ground size whose estimated
    node count would overrun the budget, or once the budget is spent; then
    the result is not exhausted.

    The estimate counts the candidates for one relation, not the nodes of
    a ground size, which grow like that count to the power n - 1.  For
    n >= 2 it therefore does not bound a ground size's nodes, and the
    budget can stop the pass mid-way through one.
    """
    if n < 1 or kernel_target < 2:
        return SearchResult(None, 0, 0, True)
    nodes = 0
    for ground in range(kernel_target, max_ground + 1):
        est = math.comb(ground, kernel_target) * _count_partitions_23(kernel_target)
        if nodes + est > budget:
            return SearchResult(None, 0, nodes, False)
        candidates: list[tuple[tuple[int, ...], ...]] = []
        for support in itertools.combinations(range(ground), kernel_target):
            candidates.extend(_partitions_23(support))
        # each candidate's pair masks and its open tuple at every relation
        # index, built on first visit and kept for the cell's shapes; a
        # candidate's Partition is built only for a witness
        built: list[Optional[tuple]] = [None] * len(candidates)
        for shape in _shapes(kernel_target):
            # relation 1: consecutive blocks realizing the shape
            ends = itertools.accumulate(shape)
            rel1 = Partition(tuple(range(end - sz, end)) for sz, end in zip(shape, ends))
            view1 = rel1._pair_masks
            # slot 0 holds relation 1; each tuple overwrites slots 1..n-1
            rel_views, opens = [view1] * n, [_open(0, view1)] * n
            for choice in itertools.combinations_with_replacement(range(len(candidates)), n - 1):
                if nodes >= budget:
                    return SearchResult(None, 0, nodes, False)
                for j, i in enumerate(choice, 1):
                    cand = built[i]
                    if cand is None:
                        view = Partition(candidates[i])._pair_masks
                        cand = built[i] = (view, [_open(k, view) for k in range(n)])
                    rel_views[j] = cand[0]
                    opens[j] = cand[1][j]
                outcome, _, spent = _search(rel_views, opens, budget - nodes)
                nodes += spent
                if outcome == "proven-none":
                    witness = Instance(ground, [rel1] + [Partition(candidates[i]) for i in choice])
                    return SearchResult(witness, ground, nodes, False)
    # a budget spent in the last cell may have cut it short
    return SearchResult(None, 0, nodes, nodes < budget)


class KernelEstimate(FrozenRecord):
    _fields = ("value", "witness", "exhausted")

    def __init__(self, value: int, witness: Optional[Instance], exhausted: bool):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "exhausted", exhausted)


def min_unmatchable_kernel(n: int, max_ground: int = 12, budget: int = 10**7) -> KernelEstimate:
    """Largest kernel target for which the bounded search finds a witness.

    Descends from 3n - 1; the 3n - 3 family guarantees termination.  The
    exhausted flag is True only when every failed target was fully covered.
    """
    exhausted = True
    for target in range(3 * n - 1, 1, -1):
        res = search_unmatchable(n, target, max_ground, budget=budget)
        if res.witness is not None:
            return KernelEstimate(target, res.witness, exhausted)
        exhausted = exhausted and res.exhausted
    return KernelEstimate(0, None, exhausted)
