"""Reference witness search: the loop ``search_unmatchable`` ran before it
called the solver's core directly.

Each candidate tuple becomes one ``Instance``, solved by one public
``exact_solve`` call with the budget that is left.  The package's search
must try the same tuples in the same order and spend the same nodes, so its
witness, ground size, node count and exhausted flag must equal this one's
on every input.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from grinblat.core import Instance, Partition
from grinblat.oracle import (
    KernelEstimate,
    SearchResult,
    _count_partitions_23,
    _partitions_23,
    _shapes,
    exact_solve,
)


def search_unmatchable(n: int, kernel_target: int, max_ground: int, budget: int = 10**8) -> SearchResult:
    """One deterministic pass over canonical instances with every kernel
    exactly kernel_target, ground size by ground size."""
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
        parts: list[Optional[Partition]] = [None] * len(candidates)
        for shape in _shapes(kernel_target):
            ends = itertools.accumulate(shape)
            rel1 = Partition(tuple(range(end - sz, end)) for sz, end in zip(shape, ends))
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
    return SearchResult(None, 0, nodes, nodes < budget)


def min_unmatchable_kernel(n: int, max_ground: int = 12, budget: int = 10**7) -> KernelEstimate:
    """Largest kernel target for which the reference search finds a witness."""
    exhausted = True
    for target in range(3 * n - 1, 1, -1):
        res = search_unmatchable(n, target, max_ground, budget=budget)
        if res.witness is not None:
            return KernelEstimate(target, res.witness, exhausted)
        exhausted = exhausted and res.exhausted
    return KernelEstimate(0, None, exhausted)
