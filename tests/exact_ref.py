"""Reference exact solver: the list-based search that ``exact_solve`` ran
before its open pairs became bitmasks.

Each node rebuilds the open relations' pair lists with the pairs its choice
leaves alone, and picks the first relation with the fewest.  The bitmask
solver must visit the same nodes in the same order, so its outcome, node
count and matching must equal this one's on every input.
"""

from __future__ import annotations

import itertools
from typing import Optional

from grinblat.core import Instance, Matching, kernel
from grinblat.oracle import SolveResult


def sorted_pairs(p) -> list[tuple[int, int]]:
    """Every pair of equivalent elements of partition p, in sorted order."""
    out = []
    for cl in p.classes:
        out.extend(itertools.combinations(cl, 2))
    out.sort()
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
    pair_lists = [sorted_pairs(p) for p in inst.relations]
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
