"""Exact ground-truth solvers.

Both oracles run one search core, ``_search``: a backtracking search over
per-relation pair choices on an explicit stack, so its depth has no limit,
that holds each open relation's available pairs as one int, so a node
narrows each relation in one step, that counts a subproblem it has
already proven dead, or one that differs from it only by a swap of twin
elements, from a table built at the first dead subproblem instead of
searching it again, and that closes every subproblem of two open
relations in place (``_close_two``).
exact_solve wraps it to certify matchings and non-matchings of one
instance at small scale.
search_unmatchable hunts for extremal witnesses: instances whose kernels
all reach a target size yet admit no rainbow matching.  It searches each
candidate tuple on pair masks built once per candidate, with the core or,
for three relations with relation 1 fail-first, by walking relation 1's
pairs itself, and builds a ``Partition`` or an ``Instance`` only for the
witness it returns.  It makes one deterministic pass, so equal arguments
give equal results.  Both refuse a negative budget.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional, Sequence

from .core import FrozenRecord, Instance, Matching, Partition, pair_masks

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
    exhaustion is an outcome, never an error; a negative budget raises
    ValueError.  The search runs on an explicit stack, so its depth is not
    bounded by Python's recursion limit.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"negative budget {budget}")
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


def _key_path(views: Sequence[tuple[list[tuple[int, int]], dict[int, int]]], path: list[list], chosen: list) -> tuple[list, list]:
    """Build the twin blocks and key each frame of path, a chain of frames
    from the root, each reached by the pair chosen in the one before; the
    blocks are returned for the keys of the frames that follow."""
    span, first = _twin_blocks(views, len(views))
    key = path[0][3][0]
    for parent, frame in itertools.pairwise(path):
        j = parent[1][1]
        a, b = chosen[j]
        key ^= 1 << j
        key |= (key & span[a]) + first[a]
        key |= (key & span[b]) + first[b]
        frame[3] = (key, frame[3][1])
    return span, first


def _close_two(views: Sequence[tuple[list[tuple[int, int]], dict[int, int]]], x: tuple, y: tuple, chosen: list) -> int:
    """Close a frame of two open relations x and y, in index order, in place.

    The fail-first one tries its open pairs in order, one node each; the
    first that leaves the other relation an open pair ends the frame
    matched, one node later, at that relation's lowest pair left.  Returns
    the frame's node count, with both pairs written to chosen, or minus it
    if no pair leaves the other relation one: a dead frame of two takes one
    node per pair of its fail-first relation.
    """
    if x[0] > y[0]:
        x, y = y, x
    pairs = views[x[1]][0]
    left, masks = y[2], y[3]
    untried = x[2]
    nodes = 1
    while untried:
        low = untried & -untried
        pair = pairs[low.bit_length() - 1]
        keep = left & ~(masks.get(pair[0], 0) | masks.get(pair[1], 0))
        nodes += 1
        if keep:
            chosen[x[1]] = pair
            chosen[y[1]] = views[y[1]][0][(keep & -keep).bit_length() - 1]
            return nodes
        untried ^= low
    return -x[0]


def _search(
    views: Sequence[tuple[list[tuple[int, int]], dict[int, int]]],
    opens: list[tuple],
    budget: Optional[int],
) -> tuple[str, Optional[list[tuple[int, int]]], int]:
    """The search behind both oracles: (outcome, chosen pairs, nodes).

    views[j] is relation j's ``pair_masks``; opens holds one open tuple per
    relation, (open pair count, index, open pairs, its elements' masks), in
    index order.  The chosen pairs, one per relation, come back only on
    "matched".

    A relation's open pairs are one int, bit i for its i-th pair in sorted
    order.  Trying the lowest set bit first keeps sorted order; the
    fail-first relation is the first in index order with the fewest set
    bits; choosing (a, b) clears the pairs holding a or b in every other
    open relation, and one left with none prunes the child.  These are the
    rules the list-based search had, so the nodes, their order and the
    results are the same.

    A frame of two open relations is closed in place (``_close_two``): the
    root of a two-relation search, and every child of two, which is never
    pushed.  Its fail-first relation's pairs are tried in a loop against
    the other relation's open pairs, one node each and one more for the
    match, so the search's frames all hold three or more relations.

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
    Frames with two or more open relations are keyed, those of two closed
    in place too.  An empty table answers no lookup, so until the first
    dead frame below the root, frames carry only their node count when
    pushed; that frame builds the twin blocks and keys the frames on the
    stack from the pairs chosen on its path (``_key_path``).  A search that
    matches before any frame dies, as most do, builds neither.
    A subproblem recurs only after two choices made in either order; with
    four relations only a frame of two can, when the root and second
    relations share a pair, and on the witness search at n = 4 a table saved
    no node, so a search of fewer than five relations keeps none.  At
    ``DEAD_TABLE_CAP`` entries the table is closed: it takes no more, and
    frames pushed after that are not keyed, so the search goes on as a
    plain walk.  A table fills when its subproblems seldom recur,
    as on dense unmatchable instances: on 13 relations over 24 elements,
    one lookup in 75 past the cap hit and a hit saved 1.3 nodes, so
    lookups past the cap made the search 20-35% slower.
    """
    limit = math.inf if budget is None else budget
    m = len(views)
    chosen: list[Optional[tuple[int, int]]] = [None] * m
    if m < 3:
        if m == 2:
            nodes = _close_two(views, opens[0], opens[1], chosen)
        else:  # one relation matches at its lowest pair, if it has one
            nodes = 1 if opens[0][2] else 0
            chosen[0] = views[0][0][0] if nodes else None
        if abs(nodes) > limit:
            return "budget", None, budget + 1
        return ("matched", chosen, nodes) if nodes > 0 else ("proven-none", None, -nodes)
    # A frame holds the open relations in index order, the fail-first one,
    # its untried pairs, and its mark: (key, node count when pushed), the
    # key None until the table is first needed, or None for an unkeyed
    # frame.  Open tuples order as fail-first picks.
    fewest = min(opens)  # a relation without pairs leaves nothing to try
    nodes = 0
    dead: dict[int, int] = {}
    span = first = None  # the twin blocks, built with the first dead frame's key
    mark = ((1 << m) - 1, 0) if m > 4 else None  # fewer relations seldom repeat a frame (see above)
    stack = [[opens, fewest, fewest[2], mark]]
    while stack:
        frame = stack[-1]
        opens, rel, untried, mark = frame
        if not untried:
            if mark is not None and len(dead) < DEAD_TABLE_CAP:
                if mark[0] is None:  # the first dead frame: key the path to it
                    span, first = _key_path(views, stack, chosen)
                    mark = frame[3]
                dead[mark[0]] = nodes - mark[1]
            stack.pop()
            continue
        low = untried & -untried
        frame[2] = untried ^ low
        nodes += 1
        if nodes > limit:
            return "budget", None, nodes
        j = rel[1]
        a, b = chosen[j] = views[j][0][low.bit_length() - 1]
        if mark is not None and len(dead) < DEAD_TABLE_CAP:
            if span is None:
                mark = (None, nodes)
            else:
                # a block's used bits are its lowest k, so adding its lowest
                # bit gives its next: a and b each take the lowest free one
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
            if len(child) > 2:
                stack.append([child, fewest, fewest[2], mark])
                continue
            spent = _close_two(views, child[0], child[1], chosen)
            nodes += abs(spent)
            if nodes > limit:
                return "budget", None, budget + 1
            if spent > 0:
                return "matched", chosen, nodes
            if mark is not None:  # a dead keyed frame of two
                if mark[0] is None:
                    two = [child, fewest, 0, mark]
                    span, first = _key_path(views, stack + [two], chosen)
                    mark = two[3]
                dead[mark[0]] = -spent
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


def _candidate(classes: tuple[tuple[int, ...], ...], n: int) -> tuple:
    """A candidate's pair masks and its open tuple at every relation index."""
    view = pair_masks(classes)
    return view, [_open(j, view) for j in range(n)]


def _pass(view1: tuple, candidates: list, built: list, n: int, nodes: int, budget: int) -> tuple[int, Optional[tuple]]:
    """Search one shape's tuples in order, one core call each, until the
    budget is spent: the nodes then, and the first proven-none tuple."""
    # slot 0 holds relation 1; each tuple overwrites slots 1..n-1
    rel_views, opens = [view1] * n, [_open(0, view1)] * n
    for choice in itertools.combinations_with_replacement(range(len(candidates)), n - 1):
        if nodes >= budget:
            break
        for j, i in enumerate(choice, 1):
            cand = built[i]
            if cand is None:
                cand = built[i] = _candidate(candidates[i], n)
            rel_views[j] = cand[0]
            opens[j] = cand[1][j]
        outcome, _, spent = _search(rel_views, opens, budget - nodes)
        nodes += spent
        if outcome == "proven-none":
            return nodes, choice
    return nodes, None


def _row(view1: tuple, view: tuple, j: int) -> list:
    """A candidate's open tuple at relation index j after each of relation
    1's pairs, in order; one without pairs where that pair empties it."""
    full = _open(j, view)
    masks = full[3]
    row = []
    for a, b in view1[0]:
        if a in masks or b in masks:
            left = full[2] & ~(masks.get(a, 0) | masks.get(b, 0))
            row.append((left.bit_count(), j, left, masks))
        else:
            row.append(full)
    return row


def _pass_three(view1: tuple, candidates: list, built: list, nodes: int, budget: int) -> tuple[int, Optional[tuple]]:
    """``_pass`` for tuples of three relations.  Where relation 1 is the
    fail-first relation, its pairs are walked here, each live child closed
    in place, on rows built once per candidate and index for the shape."""
    rel_views, opens = [view1] * 3, [_open(0, view1)] * 3
    fewest = len(view1[0])
    chosen: list = [None] * 3  # the pairs a frame of two matches at; unread
    rows: list[Optional[list]] = [None] * len(candidates)  # at index 2
    for i in range(len(candidates)):
        cand = built[i]
        if cand is None:
            cand = built[i] = _candidate(candidates[i], 3)
        rel_views[1], opens[1] = cand[0], cand[1][1]
        # None where relation 1 is fail-first in no tuple of this prefix
        row1 = _row(view1, cand[0], 1) if opens[1][0] >= fewest else None
        for k in range(i, len(candidates)):
            if nodes >= budget:
                return nodes, None
            cand = built[k]
            if cand is None:
                cand = built[k] = _candidate(candidates[k], 3)
            rel_views[2], opens[2] = cand[0], cand[1][2]
            if row1 is None or opens[2][0] < fewest:
                outcome, _, spent = _search(rel_views, opens, budget - nodes)
            else:
                row2 = rows[k]
                if row2 is None:
                    row2 = rows[k] = _row(view1, cand[0], 2)
                outcome, spent = "proven-none", 0
                for x, y in zip(row1, row2):
                    # relation 1's pair, then its child: a frame of two that
                    # dies at once where the pair empties a candidate
                    got = _close_two(rel_views, x, y, chosen)
                    if got > 0:
                        outcome, spent = "matched", spent + 1 + got
                        break
                    spent += 1 - got
                if spent > budget - nodes:  # the walk would stop at budget + 1
                    outcome, spent = "budget", budget - nodes + 1
            nodes += spent
            if outcome == "proven-none":
                return nodes, (i, k)
    return nodes, None


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
    the result is not exhausted.  A negative budget raises ValueError.

    Each tuple of candidates is searched node for node as ``exact_solve``
    would search its instance, but without building one: the core runs on
    pair masks built once per candidate, and a ``Partition`` is built only
    for the witness returned.  A tuple of three relations whose fail-first
    relation is relation 1, as when no candidate has fewer pairs, is walked
    by the pass itself (``_pass_three``): one node per pair of relation 1,
    a dead child where that pair empties a candidate, and each live child, a
    frame of two, closed in place.  Each candidate's open tuples after
    relation 1's pairs come from rows built once per candidate, index and
    shape.  Every other tuple runs the core whole: at n = 2 a candidate
    takes part in one tuple, so a row would not pay for itself, and at
    n = 4 each pair of relation 1 would need a core call of its own.

    The estimate counts the candidates for one relation, not the nodes of
    a ground size, which grow like that count to the power n - 1.  For
    n >= 2 it therefore does not bound a ground size's nodes, and the
    budget can stop the pass mid-way through one.
    """
    if budget < 0:
        raise ValueError(f"negative budget {budget}")
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
        # each candidate's pair masks and open tuples (``_candidate``), built
        # on first visit and kept for the cell's shapes
        built: list[Optional[tuple]] = [None] * len(candidates)
        for shape in _shapes(kernel_target):
            # relation 1: consecutive blocks realizing the shape
            ends = itertools.accumulate(shape)
            rel1 = tuple(tuple(range(end - sz, end)) for sz, end in zip(shape, ends))
            view1 = pair_masks(rel1)
            if n == 3:
                nodes, choice = _pass_three(view1, candidates, built, nodes, budget)
            else:
                nodes, choice = _pass(view1, candidates, built, n, nodes, budget)
            if choice is not None:
                witness = Instance(ground, [Partition(rel1)] + [Partition(candidates[i]) for i in choice])
                return SearchResult(witness, ground, nodes, False)
            if nodes >= budget:
                return SearchResult(None, 0, nodes, False)
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
