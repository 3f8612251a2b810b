"""Final phase: the lucky component, witness sets, and the closing win.

After every heavy index has charged its kernel, some right-side component
received four i-charges from many different heavy i.  That component is the
lucky one: ``find_lucky`` reads Scheme 3's array tables, scores each
position by the number of rows that give it four charges and takes the
first maximum.  The pairs of outside elements it received are the witness
sets W_k.  A bipartiteness argument thins the candidate indices, two compatible
indices are selected, and the matching is closed by rerouting through the
witness elements.
"""

from __future__ import annotations

import math
from typing import Optional

from ..core import Matching
from ..errors import CompletionImpossible, InternalLogicError, certify
from .charging import direct_pair
from .completion import complete_assignment
from .heavy import pick_heavy_pair_elements
from .state import ChargeLedger, ChargeTables, LuckyData, Telemetry, TrackState

def find_lucky(
    state: TrackState,
    ledger: ChargeLedger,
    tables: ChargeTables,
    c: int,
) -> LuckyData:
    """Pick the right-side component with the most four-charge heavy
    indices: a position's score is the number of rows of the Scheme 3
    tables that give it four charges, and the first maximum wins."""
    import numpy as np  # where it is used: see grinblat.core's docstring

    n1, first = state.n + 1, state.extent + 1
    four = tables.counts[:, first:] == 4
    certify("find_lucky", "right-side positions >= 1", four.shape[1], ">=", 1)
    best_pos = first + int(np.argmax(four.sum(axis=0)))
    rows = np.flatnonzero(four[:, best_pos - first])
    certify("find_lucky", f"4|four-charge rows at {best_pos}| >= c - 10", 4 * len(rows), ">=", c - 10)
    rows = rows[: max(0, math.ceil((c - 10) / 4))]
    hprime = tuple(tables.heavy[r] for r in rows.tolist())
    # each kept row's outsiders at best_pos: a run of the sorted table
    out = tables.outsiders
    slots = out[:, 0] * n1 + out[:, 1]
    lo = np.searchsorted(slots, rows * n1 + best_pos).tolist()
    hi = np.searchsorted(slots, rows * n1 + best_pos, side="right").tolist()
    W: dict[int, tuple[int, int]] = {}
    bprime = state.bprime_set
    for k, a, b in zip(hprime, lo, hi):
        certify("find_lucky", f"outside {k}-charges at {best_pos} == 2", b - a, "==", 2)
        w = (int(out[a, 2]), int(out[a + 1, 2]))
        if set(w) & bprime:
            raise InternalLogicError("find_lucky", f"witness set {w} meets B'")
        if set(w) & set(ledger.U(k)):
            raise InternalLogicError("find_lucky", f"witness set {w} meets U_{k}")
        W[k] = w
    return LuckyData(jstar=best_pos, hprime=hprime, W=W)


def _conflicting(state: TrackState, lucky: LuckyData, k1: int, k2: int) -> bool:
    """True when no injective choice (w, x, y, z) joins C_{j*} to W_{k1}, W_{k2}."""
    comp = state.comps[lucky.jstar]
    r1, r2 = state.relation_at(k1), state.relation_at(k2)
    for w, x in ((comp.a, comp.b), (comp.b, comp.a)):
        for y in lucky.W[k1]:
            if not r1.equivalent(w, y):
                continue
            for z in lucky.W[k2]:
                if z == y or not r2.equivalent(x, z):
                    continue
                if len({w, x, y, z}) == 4:
                    return False
    return True


def select_nonconflicting(
    state: TrackState, lucky: LuckyData, c: int
) -> LuckyData:
    """Two-color the conflict graph on H' and keep one side, capped at c/16."""
    hprime = list(lucky.hprime)
    adj: dict[int, list[int]] = {k: [] for k in hprime}
    for a_idx in range(len(hprime)):
        for b_idx in range(a_idx + 1, len(hprime)):
            k1, k2 = hprime[a_idx], hprime[b_idx]
            if _conflicting(state, lucky, k1, k2):
                adj[k1].append(k2)
                adj[k2].append(k1)
    color: dict[int, int] = {}
    keep: list[int] = []
    for start in hprime:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        members = [start]
        while queue:
            v = queue.pop(0)
            for u in adj[v]:
                if u not in color:
                    color[u] = 1 - color[v]
                    members.append(u)
                    queue.append(u)
                elif color[u] == color[v]:
                    raise InternalLogicError(
                        "select_nonconflicting",
                        f"odd cycle in conflict graph through {u} and {v}",
                    )
        side0 = [m for m in members if color[m] == 0]
        side1 = [m for m in members if color[m] == 1]
        # larger side wins; on a tie, the side holding the lowest index
        keep.extend(side0 if len(side0) >= len(side1) else side1)
    keep.sort()
    limit = max(0, math.ceil(c / 16))
    return LuckyData(
        jstar=lucky.jstar, hprime=lucky.hprime, W=lucky.W, hsecond=tuple(keep[:limit])
    )


def find_compatible_pair(
    state: TrackState, ledger: ChargeLedger, lucky: LuckyData, c: int
) -> tuple[int, int]:
    """Lowest k1 whose U set avoids every popular witness element, then the
    lowest partner k2 with mutually disjoint U and W sets."""
    threshold = math.isqrt(max(c, 1) - 1) + 1 if c > 0 else 1
    counts: dict[int, int] = {}
    for k in lucky.hsecond:
        for e in lucky.W[k]:
            counts[e] = counts.get(e, 0) + 1
    popular = frozenset(e for e, cnt in counts.items() if cnt >= threshold)
    k1 = None
    for k in lucky.hsecond:
        if not popular.intersection(ledger.U(k)):
            k1 = k
            break
    if k1 is None:
        raise InternalLogicError(
            "find_compatible_pair", f"every U_k meets the popular set {sorted(popular)}"
        )
    for k2 in lucky.hsecond:
        if k2 == k1:
            continue
        if set(lucky.W[k1]) & set(ledger.U(k2)):
            continue
        if set(lucky.W[k2]) & set(ledger.U(k1)):
            continue
        if _conflicting(state, lucky, k1, k2):
            continue
        return k1, k2
    raise InternalLogicError(
        "find_compatible_pair", f"no compatible partner for k1={k1} in {lucky.hsecond}"
    )


def exclusion_set(state: TrackState, ledger: ChargeLedger, lucky: LuckyData) -> frozenset[int]:
    y: set[int] = set(state.right_set)
    for k in lucky.hsecond:
        y.update(lucky.W[k])
        y.update(ledger.U(k))
    return frozenset(y)


def _free_pair(state: TrackState, lucky: LuckyData, y: frozenset[int]) -> tuple[int, int]:
    pair = direct_pair(state.relation_at(lucky.jstar), y)
    if pair is not None:
        return pair
    raise InternalLogicError(
        "final_win",
        f"no pair of relation at position {lucky.jstar} avoids the exclusion set",
    )


def _paired_recipe(
    state: TrackState,
    ledger: ChargeLedger,
    lucky: LuckyData,
    pair: tuple[int, int],
    k1: int,
    k2: int,
    telemetry: Optional[Telemetry],
    branch: str,
) -> Optional[Matching]:
    """Close via two witness indices: relation j* takes the free pair, k1 and
    k2 hook the identity elements of C_{j*} to their witness sets, and the
    heavy-pair elements of k1, k2 cover relations 1 and t."""
    x, yy = pair
    comp = state.comps[lucky.jstar]
    r1, r2 = state.relation_at(k1), state.relation_at(k2)
    cross_pairs = {
        frozenset((state.comps[j].c, state.comps[j].d)) for j in state.left_positions()
    }
    quads = [pick_heavy_pair_elements(state, ledger, k1, k2)]
    v1, w1, v2, w2 = quads[0]
    if frozenset((w1, w2)) in cross_pairs:
        # unlucky draw: both 1-/t-partners came from one cross pair; redo the
        # pick forcing exactly one of them to survive
        quads.append(pick_heavy_pair_elements(state, ledger, k1, k2, q=w1, r=w2))
    for v1, w1, v2, w2 in quads:
        for o1, o2 in ((comp.a, comp.b), (comp.b, comp.a)):
            for u1 in lucky.W[k1]:
                if not r1.equivalent(o1, u1):
                    continue
                for u2 in lucky.W[k2]:
                    if u2 == u1 or not r2.equivalent(o2, u2):
                        continue
                    ov = {
                        lucky.jstar: (x, yy),
                        k1: (o1, u1),
                        k2: (o2, u2),
                        1: (v1, w1),
                        state.t: (v2, w2),
                    }
                    try:
                        m = complete_assignment(state, ov)
                    except (CompletionImpossible, ValueError):
                        continue
                    if telemetry:
                        telemetry.record(
                            "final_win", win=branch, jstar=lucky.jstar, k1=k1, k2=k2
                        )
                    return m
    return None


def _single_recipe(
    state: TrackState,
    ledger: ChargeLedger,
    lucky: LuckyData,
    pair: tuple[int, int],
    avoid: set[int],
    telemetry: Optional[Telemetry],
) -> Optional[Matching]:
    """Close via one witness index k whose S_k and T_k avoid the d-elements
    freed by the chosen pair."""
    x, yy = pair
    comp = state.comps[lucky.jstar]
    for k in lucky.hsecond:
        if avoid & set(ledger.T.get(k, ())):
            continue
        relk = state.relation_at(k)
        ck = state.comps[k]
        for o, u_set in ((comp.a, lucky.W[k]), (comp.b, lucky.W[k])):
            for u in u_set:
                if not relk.equivalent(o, u):
                    continue
                for e1, e2 in ((ck.a, ck.b), (ck.b, ck.a)):
                    for s in ledger.S.get(k, ()):
                        if not state.relation_at(1).equivalent(e1, s):
                            continue
                        for tv in ledger.T.get(k, ()):
                            if tv == s or not state.relation_at(state.t).equivalent(e2, tv):
                                continue
                            ov = {
                                lucky.jstar: (x, yy),
                                k: (o, u),
                                1: (e1, s),
                                state.t: (e2, tv),
                            }
                            try:
                                m = complete_assignment(state, ov)
                            except (CompletionImpossible, ValueError):
                                continue
                            if telemetry:
                                telemetry.record(
                                    "final_win", win="split_left", jstar=lucky.jstar, k=k
                                )
                            return m
    return None


def final_win(
    state: TrackState,
    ledger: ChargeLedger,
    lucky: LuckyData,
    compat: tuple[int, int],
    c: int,
    telemetry: Optional[Telemetry] = None,
) -> Matching:
    """Close the matching from the lucky component's witness structure."""
    y = exclusion_set(state, ledger, lucky)
    # |Y| <= 2(n - t) + c/8 + c/4, checked in eighths to stay exact
    certify("final_win", "8|Y| <= 16(n - t) + 3c", 8 * len(y), "<=", 16 * (state.n - state.t) + 3 * c)
    pair = _free_pair(state, lucky, y)
    x, yy = pair
    comp_of = state.component_of()
    px = comp_of.get(x) if comp_of.get(x, state.n + 1) <= state.extent else None
    py = comp_of.get(yy) if comp_of.get(yy, state.n + 1) <= state.extent else None
    k1, k2 = compat
    if px is None or py is None:
        branch = "outside_left"
    elif px == py:
        branch = "same_left"
    else:
        branch = "split_left"
    if branch == "split_left":
        avoid = set()
        for p in (px, py):
            comp = state.comps[p]
            avoid.update(e for e in (comp.c, comp.d) if e not in (x, yy))
        m = _single_recipe(state, ledger, lucky, pair, avoid, telemetry)
        if m is not None:
            return m
    m = _paired_recipe(state, ledger, lucky, pair, k1, k2, telemetry, branch)
    if m is not None:
        return m
    # exhaustive fallback over all compatible index pairs before declaring
    # an internal failure
    for ka in lucky.hsecond:
        for kb in lucky.hsecond:
            if ka == kb or (ka, kb) == (k1, k2):
                continue
            if _conflicting(state, lucky, ka, kb):
                continue
            try:
                m = _paired_recipe(state, ledger, lucky, pair, ka, kb, telemetry, branch)
            except InternalLogicError:
                continue
            if m is not None:
                return m
    raise InternalLogicError(
        "final_win",
        f"no closing recipe for pair {pair} at lucky position {lucky.jstar}; {state.digest()}",
    )

