"""Completion of pinned pairs by a chain shift.

Every win branch of the constructive argument ends the same way: a few
positions get pinned pairs, and every other position p takes its identity
pair (a_p, b_p) or, below the track's top, a cross pair (a_{p+1}, c_{p+1})
or (b_{p+1}, d_{p+1}) of the component above.  A cross pair uses an
identity element of C_{p+1}, so it pushes position p+1 off its identity
pair in turn.  A shift starts wherever a position's identity pair is gone
(position 1 has none; a pin may hold one of its elements) and runs up the
track until it reaches a pinned position.  It dead-ends at position
``extent``, which has no cross pair to shift onto.

So the completion is one pass from position 1 upward: each free position
takes its identity pair unless the position below shifted onto its
component or a pin holds one of its elements, and otherwise shifts onto the
first cross pair above that avoids the pins.  Every completion shifts at
least those positions, so this is also the first completion in the order
identity, (a, c), (b, d), chosen from position n downward.
"""

from __future__ import annotations

from ..core import Matching
from ..errors import CompletionImpossible
from .state import TrackState


def complete_assignment(state: TrackState, pins: dict[int, tuple[int, int]]) -> Matching:
    """Assign every position a pair, keeping the pinned ones; raise if impossible.

    ``pins`` maps positions to pairs.  Relation 1 has no identity pair, so
    callers must either pin it or leave a cross pair of C_2 free.  The
    result is in position order (callers map it back through the
    permutation).
    """
    for pos, (x, y) in pins.items():
        if not (1 <= pos <= state.n):
            raise ValueError(f"override position {pos} out of range")
        if x == y:
            raise ValueError(f"degenerate override pair at position {pos}")
        if y not in state.relation_at(pos).class_of(x):
            raise ValueError(
                f"override pair ({x}, {y}) not equivalent under position {pos}"
            )
    pinned = set()
    for x, y in pins.values():
        for e in (x, y):
            if e in pinned:
                raise ValueError(f"override element {e} used twice")
            pinned.add(e)

    result = dict(pins)
    shifted = False  # the position below took a cross pair of this position's component
    for pos in range(1, state.n + 1):
        if pos in pins:
            shifted = False
            continue
        if pos >= 2 and not shifted:
            comp = state.comps[pos]
            if comp.a not in pinned and comp.b not in pinned:
                result[pos] = (comp.a, comp.b)
                continue
        shifted = False
        if pos < state.extent:
            above = state.comps[pos + 1]
            for pair in ((above.a, above.c), (above.b, above.d)):
                if pinned.isdisjoint(pair):
                    result[pos] = pair
                    shifted = True
                    break
        if not shifted:
            raise CompletionImpossible(
                f"no completion under overrides {sorted(pins)}; {state.digest()}"
            )
    return Matching([result[p] for p in range(1, state.n + 1)])
