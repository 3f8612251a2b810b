"""Reference completion: a depth-first search over every position's options.

This is the search ``complete_assignment`` ran before it became a two-pass
chain shift.  It pins the given pairs and tries the remaining <= 3 options
per position depth-first, highest position first, on an explicit stack.
Its first solution is the answer the chain shift must reproduce, and its
errors are the ones the chain shift must raise.
"""

from __future__ import annotations

from typing import Iterator

from grinblat.core import Matching
from grinblat.errors import CompletionImpossible


def _options(state, pos: int) -> list[tuple[int, int]]:
    opts: list[tuple[int, int]] = []
    if pos >= 2:
        comp = state.comps[pos]
        opts.append((comp.a, comp.b))
    if pos + 1 <= state.extent:
        above = state.comps[pos + 1]
        opts.append((above.a, above.c))
        opts.append((above.b, above.d))
    return opts


def complete_assignment_dfs(state, pins: dict[int, tuple[int, int]]) -> Matching:
    for pos, (x, y) in pins.items():
        if not (1 <= pos <= state.n):
            raise ValueError(f"override position {pos} out of range")
        if x == y:
            raise ValueError(f"degenerate override pair at position {pos}")
        if y not in state.relation_at(pos).class_of(x):
            raise ValueError(
                f"override pair ({x}, {y}) not equivalent under position {pos}"
            )
    consumed = set()
    for x, y in pins.values():
        for e in (x, y):
            if e in consumed:
                raise ValueError(f"override element {e} used twice")
            consumed.add(e)

    result: dict[int, tuple[int, int]] = dict(pins)
    free = [pos for pos in range(state.n, 0, -1) if pos not in pins]
    # options[d] holds the untried pairs of free[d], and free[d] has a pair
    # in result while the search is below it
    options: list[Iterator[tuple[int, int]]] = []
    d = 0
    while d < len(free):
        if d == len(options):
            options.append(iter(_options(state, free[d])))
        else:  # back from a dead end below: release free[d]'s pair
            consumed.difference_update(result.pop(free[d]))
        for x, y in options[d]:
            if x not in consumed and y not in consumed:
                consumed.add(x)
                consumed.add(y)
                result[free[d]] = (x, y)
                d += 1
                break
        else:
            options.pop()
            d -= 1
            if d < 0:
                raise CompletionImpossible(
                    f"no completion under overrides {sorted(pins)}; {state.digest()}"
                )
    return Matching([result[p] for p in range(1, state.n + 1)])
