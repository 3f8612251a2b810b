"""Exact ground-truth solvers.

exact_solve is a backtracking search over per-relation pair choices, used
to certify matchings and non-matchings at small scale.  It runs on an
explicit stack, so its depth has no limit, and each node narrows its
parent's available-pair lists instead of rebuilding them.
search_unmatchable hunts for extremal witnesses: instances whose kernels
all reach a target size yet admit no rainbow matching.  It makes one
deterministic pass, so equal arguments give equal results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .core import Instance, Matching, Partition, kernel


@dataclass(frozen=True)
class SolveResult:
    outcome: str  # "matched", "proven-none", or "budget"
    matching: Optional[Matching] = None
    nodes: int = 0


def _pairs_of(p: Partition) -> list[tuple[int, int]]:
    """The partition's pairs in sorted order, cached on it like its kernel.

    Callers share the cached list and must not mutate it: exact_solve only
    ever replaces a relation's list with a filtered copy.
    """
    out = p.__dict__.get("_pairs_cache")
    if out is None:
        out = []
        for cl in p.classes:
            out.extend(itertools.combinations(cl, 2))
        out.sort()
        p.__dict__["_pairs_cache"] = out
    return out


def exact_solve(inst: Instance, budget: Optional[int] = None) -> SolveResult:
    """Backtracking search; fail-first relation order, deterministic.

    A node is one attempted pair assignment.  Budget exhaustion is reported
    as an outcome, never an error.  The search runs on an explicit stack,
    so its depth is not bounded by Python's recursion limit.
    """
    n = inst.n
    if n == 0:
        return SolveResult("matched", Matching([]), 0)
    pair_lists = [_pairs_of(p) for p in inst.relations]
    if any(not pl for pl in pair_lists):
        return SolveResult("proven-none", None, 0)
    kernels = [kernel(p) for p in inst.relations]
    chosen: list[Optional[tuple[int, int]]] = [None] * n
    nodes = 0

    # A frame holds the open relations in index order with their available
    # pairs, the position of the fail-first relation (the first with the
    # fewest pairs) and an iterator over that relation's pairs.  A child
    # shares every list its pair leaves alone with its parent.
    def frame(ids: list[int], avail: list[list[tuple[int, int]]]):
        lens = [len(pl) for pl in avail]
        k = lens.index(min(lens))
        return ids, avail, k, iter(avail[k])

    stack = [frame(list(range(n)), pair_lists)]
    while stack:
        ids, avail, k, pairs = stack[-1]
        pair = next(pairs, None)
        if pair is None:
            stack.pop()
            continue
        nodes += 1
        if budget is not None and nodes > budget:
            return SolveResult("budget", None, nodes)
        chosen[ids[k]] = pair
        if len(ids) == 1:
            return SolveResult("matched", Matching(chosen), nodes)
        a, b = pair
        child_ids = ids[:k] + ids[k + 1 :]
        child = avail[:k] + avail[k + 1 :]
        for pos, j in enumerate(child_ids):
            if a in kernels[j] or b in kernels[j]:
                pl = [q for q in child[pos] if a not in q and b not in q]
                if not pl:
                    # fail-first would pick this relation and try nothing
                    break
                child[pos] = pl
        else:
            stack.append(frame(child_ids, child))
    return SolveResult("proven-none", None, nodes)


@dataclass(frozen=True)
class SearchResult:
    witness: Optional[Instance]
    ground_size: int
    nodes: int
    exhausted: bool  # True when the whole space was covered without a find


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
    out = []
    for threes in range(k // 3 + 1):
        rem = k - 3 * threes
        if rem % 2 == 0:
            out.append(tuple([2] * (rem // 2) + [3] * threes))
    return sorted(out)


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
        # each candidate's Partition, built on first visit and kept for the
        # cell's shapes, so its kernel and pair list are computed once
        parts: list[Optional[Partition]] = [None] * len(candidates)
        for shape in _shapes(kernel_target):
            # relation 1: consecutive blocks realizing the shape
            blocks, at = [], 0
            for sz in shape:
                blocks.append(tuple(range(at, at + sz)))
                at += sz
            rel1 = Partition(blocks)
            for choice in itertools.combinations_with_replacement(range(len(candidates)), n - 1):
                if nodes >= budget:
                    return SearchResult(None, 0, nodes, False)
                rels = [rel1]
                for i in choice:
                    if parts[i] is None:
                        parts[i] = Partition(candidates[i])
                    rels.append(parts[i])
                inst = Instance(ground, rels)
                res = exact_solve(inst, budget=budget - nodes)
                nodes += res.nodes
                if res.outcome == "proven-none":
                    return SearchResult(inst, ground, nodes, False)
    # a budget spent in the last cell may have cut it short
    return SearchResult(None, 0, nodes, nodes < budget)


@dataclass(frozen=True)
class KernelEstimate:
    value: int
    witness: Optional[Instance]
    exhausted: bool


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
