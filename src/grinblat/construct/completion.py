"""Generic completion engine.

Every win branch of the constructive argument ends the same way: a handful
of relations get explicitly chosen pairs, and the rest fall back to their
component's identity pair or, for relations under the track, to one of the
two cross pairs of the component above them.  Rather than hand-coding each
chain-shift diagram, we pin the explicit pairs as overrides and search the
remaining <= 3 options per relation depth-first, on an explicit stack.
"""

from __future__ import annotations

from typing import Iterator

from ..core import Matching
from ..errors import CompletionImpossible
from .state import Overrides, TrackState


def _options(state: TrackState, pos: int) -> list[tuple[int, int]]:
    opts: list[tuple[int, int]] = []
    if pos >= 2:
        comp = state.comps[pos]
        opts.append((comp.a, comp.b))
    if pos + 1 <= state.extent:
        above = state.comps[pos + 1]
        opts.append((above.a, above.c))
        opts.append((above.b, above.d))
    return opts


def complete_assignment(state: TrackState, ov: Overrides) -> Matching:
    """Assign every position a pair, honoring overrides; raise if impossible.

    Positions are processed in decreasing order; relation 1 has no identity
    pair, so callers must either override it or leave a cross pair of C_2
    free.  The result is in position order (callers map it back through
    the permutation).
    """
    assigned = ov.as_dict()
    for pos, (x, y) in assigned.items():
        if not (1 <= pos <= state.n):
            raise ValueError(f"override position {pos} out of range")
        if x == y:
            raise ValueError(f"degenerate override pair at position {pos}")
        if y not in state.relation_at(pos).class_of(x):
            raise ValueError(
                f"override pair ({x}, {y}) not equivalent under position {pos}"
            )
    consumed = set()
    for x, y in assigned.values():
        for e in (x, y):
            if e in consumed:
                raise ValueError(f"override element {e} used twice")
            consumed.add(e)

    result: dict[int, tuple[int, int]] = dict(assigned)
    free = [pos for pos in range(state.n, 0, -1) if pos not in assigned]
    # depth-first over the free positions, highest first; options[d] holds
    # the untried pairs of free[d], and free[d] has a pair in result while
    # the search is below it
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
                    f"no completion under overrides {sorted(assigned)}; {state.digest()}"
                )
    return Matching([result[p] for p in range(1, state.n + 1)])
