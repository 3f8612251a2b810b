"""Reference charging pass, and the per-index view of Scheme 3's tables.

``charge`` is the Python loop that Schemes 1, 2 and 3 charged through
before the pass became array operations over a batch of rows, with the
lookup of a class's lowest identity member that it used.  Its results are
the ones the array pass must reproduce, row by row.

``scheme_3_table`` and ``tables_from_dicts`` translate between the array
tables (``ChargeTables``) and the per-index form Scheme 3 returned before:
``{pos: (count, ((element, identity partner), ...))}`` for every position
the index charged.
"""

from __future__ import annotations

from typing import AbstractSet, Optional

import numpy as np

from grinblat.construct.state import ChargeTables


def lowest_identity_member(state, cl: tuple[int, ...], above: int) -> Optional[tuple[int, int]]:
    """(position, element) of the lowest identity element (member of B)
    in class ``cl`` whose component sits past position ``above``; ties in
    position go to the smaller element.  None if there is none."""
    comp_of = state.component_of()
    best = None
    for y in cl:  # classes are sorted, so the first hit per position is its least
        if y in state.b_set:
            p = comp_of[y]
            if p > above and (best is None or p < best[0]):
                best = (p, y)
    return best


def charge(
    state,
    pos: int,
    direct: AbstractSet[int],
    above: int,
    skip: AbstractSet[int] = frozenset(),
    hold: AbstractSet[int] = frozenset(),
):
    """Charge each kernel element of the relation at ``pos``, class by
    class: an element in ``direct`` to its own component; one in ``skip``
    not at all; any other is held if its class meets ``hold``, else charged
    as an outsider to the class's lowest identity member past ``above``,
    else stuck.  Returns (counts, outsiders, held, stuck): counts[p] per
    position, outsiders[p] the (element, identity partner) pairs charged to
    p in visit order, the held elements, and the stuck elements, each with
    its class."""
    comp_of = state.component_of()
    counts = [0] * (state.n + 1)
    outsiders: dict[int, list[tuple[int, int]]] = {}
    held: list[int] = []
    stuck: list[tuple[int, tuple[int, ...]]] = []
    for cl in state.relation_at(pos).classes:
        held_cl = target = None  # per-class facts, each found on first need
        for x in cl:
            if x in direct:
                counts[comp_of[x]] += 1
                continue
            if x in skip:
                continue
            if held_cl is None:
                held_cl = bool(hold) and not hold.isdisjoint(cl)
            if held_cl:
                held.append(x)
                continue
            if target is None:
                target = lowest_identity_member(state, cl, above) or ()
            if not target:
                stuck.append((x, cl))
                continue
            p, partner = target
            counts[p] += 1
            outsiders.setdefault(p, []).append((x, partner))
    return counts, outsiders, held, stuck


def scheme_3_table(tables: ChargeTables, i: int) -> dict[int, tuple[int, tuple[tuple[int, int], ...]]]:
    """Heavy index i's table in the per-index form."""
    r = tables.heavy.index(i)
    outs: dict[int, list[tuple[int, int]]] = {}
    for row, p, x, partner in tables.outsiders.tolist():
        if row == r:
            outs.setdefault(p, []).append((x, partner))
    return {
        p: (cnt, tuple(outs.get(p, ())))
        for p, cnt in enumerate(tables.counts[r].tolist())
        if cnt
    }


def tables_from_dicts(n: int, dicts: dict[int, dict[int, tuple[int, tuple[tuple[int, int], ...]]]]) -> ChargeTables:
    """The array tables holding per-index tables, rows in index order."""
    heavy = tuple(sorted(dicts))
    counts = np.zeros((len(heavy), n + 1), np.int64)
    outsiders = []
    for r, i in enumerate(heavy):
        for p, (cnt, outs) in sorted(dicts[i].items()):
            counts[r, p] = cnt
            outsiders.extend((r, p, x, partner) for x, partner in outs)
    return ChargeTables(heavy, counts, np.array(outsiders, np.int64).reshape(-1, 4))
