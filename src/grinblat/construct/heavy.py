"""Per-heavy-component charging (Scheme 3) and its win patterns.

For a heavy right-side position i we first look for two ways to finish
outright: an i-equivalent pair avoiding both B and S_i, or an untainted
left component whose identity element is i-equivalent to something fresh.
If neither applies, K_i is charged to the right-side components by the
shared charging loop, ``charging._charge``: B' direct, targets past t,
U_i skipped, and a class that meets S_i or a tainted identity pair held,
so that a small bounded set of elements stays uncharged.
"""

from __future__ import annotations

from typing import Optional

from ..core import kernel
from ..errors import CompletionImpossible, InternalLogicError
from .charging import _charge, _check_caps, _no_target
from .completion import complete_assignment
from .state import ChargeLedger, Telemetry, TrackState


def tainted_left(state: TrackState, ledger: ChargeLedger, i: int) -> set[int]:
    """Left positions whose component meets T_i."""
    ti = set(ledger.T.get(i, ()))
    out = set()
    for j in state.left_positions():
        if ti.intersection(state.comps[j].elements):
            out.add(j)
    return out


def _try_win_fresh_pair(
    state: TrackState, ledger: ChargeLedger, i: int, telemetry: Optional[Telemetry]
):
    """An i-equivalent pair with both elements outside B and S_i."""
    si = ledger.S.get(i, ())
    rel = state.relation_at(i)
    outside = kernel(rel).difference(state.b_set, si)
    for cl in rel.classes:
        if len(outside.intersection(cl)) < 2:
            continue
        free = [x for x in cl if x in outside]
        for ai in range(len(free)):
            for bi in range(ai + 1, len(free)):
                x, y = free[ai], free[bi]
                # u is in S_i and x, y are not, so u is neither of them
                for u in si:
                    try:
                        m = complete_assignment(
                            state, {i: (x, y), 1: (u, ledger.one_partner[u])}
                        )
                    except (CompletionImpossible, ValueError):
                        continue
                    if telemetry:
                        telemetry.record("heavy_win", win="fresh_pair", index=i)
                    return m
    return None


def _try_win_untainted_left(
    state: TrackState,
    ledger: ChargeLedger,
    i: int,
    tainted: set[int],
    telemetry: Optional[Telemetry],
):
    """An untainted left component with an identity element i-equivalent to a
    fresh element; relation i takes that pair and T_i pays for relation t.
    ``tainted`` is ``tainted_left(state, ledger, i)``."""
    bprime = state.bprime_set
    ti = set(ledger.T.get(i, ()))
    rel = state.relation_at(i)
    for j in state.left_positions():
        if j in tainted:
            continue
        comp = state.comps[j]
        for e in (comp.a, comp.b):
            for z in rel.class_of(e):
                if z == e or z in bprime or z in ti:
                    continue
                # distinct pins: e in B, v not; z not in B' or T_i, v in T_i; part of C_i, e left
                for v in ledger.T.get(i, ()):
                    part = ledger.t_partner[v]
                    try:
                        m = complete_assignment(state, {i: (e, z), state.t: (v, part)})
                    except (CompletionImpossible, ValueError):
                        continue
                    if telemetry:
                        telemetry.record("heavy_win", win="untainted_left", index=i)
                    return m
    return None


def charge_scheme_3(
    state: TrackState,
    ledger: ChargeLedger,
    i: int,
    telemetry: Optional[Telemetry] = None,
):
    """Charge K_i to the right-side components, or finish with a win.

    Returns ("win", Matching) or ("table", {pos: (count, outsiders)}) where
    outsiders holds (element, identity partner) pairs charged from outside B'.
    """
    m = _try_win_fresh_pair(state, ledger, i, telemetry)
    if m is not None:
        return ("win", m)
    tainted = tainted_left(state, ledger, i)
    m = _try_win_untainted_left(state, ledger, i, tainted, telemetry)
    if m is not None:
        return ("win", m)

    ui = set(ledger.U(i))
    hold = set(ledger.S.get(i, ()))
    for j in tainted:
        comp = state.comps[j]
        hold.update((comp.a, comp.b))
    # T_i may hold cross pair elements, which lie in B' but are skipped
    counts, outsiders, held, stuck = _charge(
        state, i, state.bprime_set - ui, state.t, skip=ui, hold=hold
    )
    if stuck:
        raise _no_target("charge_scheme_3", state, i, stuck[0][0])
    if len(held) > 6:
        raise InternalLogicError(
            "charge_scheme_3", f"{len(held)} uncharged elements for position {i}, cap is 6"
        )
    kern = kernel(state.relation_at(i))
    covered = sum(counts) + len(held) + len(ui & kern)
    if covered != len(kern):
        raise InternalLogicError(
            "charge_scheme_3", f"charge accounting off for position {i}: {covered}"
        )
    _check_caps("charge_scheme_3", counts, outsiders)
    table = {p: (cnt, tuple(outsiders.get(p, ()))) for p, cnt in enumerate(counts) if cnt}
    return ("table", table)


def pick_heavy_pair_elements(
    state: TrackState,
    ledger: ChargeLedger,
    i: int,
    j: int,
    q: Optional[int] = None,
    r: Optional[int] = None,
) -> tuple[int, int, int, int]:
    """Choose (v1, w1, v2, w2) with v1 ~1 w1 and v2 ~t w2, all four distinct,
    v's among the identity elements of C_i and C_j, w's in U_i and U_j.

    With q and r given, additionally require exactly one of them among
    {w1, w2}.  The search is exhaustive in a fixed order, so the result is
    deterministic; exhaustion raises InternalLogicError.
    """
    ci, cj = state.comps[i], state.comps[j]
    vs = [ci.a, ci.b] + ([cj.a, cj.b] if j != i else [])
    ws = list(ledger.U(i))
    for x in ledger.U(j):
        if x not in ws:
            ws.append(x)
    rel1 = state.relation_at(1)
    relt = state.relation_at(state.t)
    for v1 in vs:
        for w1 in ws:
            if w1 == v1 or not rel1.equivalent(v1, w1):
                continue
            for v2 in vs:
                if v2 in (v1, w1):
                    continue
                for w2 in ws:
                    if w2 in (v1, w1, v2) or not relt.equivalent(v2, w2):
                        continue
                    if q is not None:
                        hits = sum(1 for e in (q, r) if e in (w1, w2))
                        if hits != 1:
                            continue
                    return (v1, w1, v2, w2)
    raise InternalLogicError(
        "pick_heavy_pair_elements",
        f"no 1-/t-pair choice for components {i}, {j} (q={q}, r={r}); {state.digest()}",
    )
