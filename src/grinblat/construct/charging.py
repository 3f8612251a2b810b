"""Track construction and the 1-/t-charging pass.

The win checks here all reduce to the same test: a pair of equivalent
elements that both avoid the right-side components lets us finish, unless
one lies in the top part and the other in the bottom part of the same
left-side component.
"""

from __future__ import annotations

from typing import AbstractSet, Optional

from ..core import Matching, Partition, kernel
from ..errors import CompletionImpossible, InternalLogicError
from .completion import complete_assignment
from .state import ChargeLedger, Component, Telemetry, TrackState


def direct_pair(rel: Partition, used: AbstractSet[int]) -> Optional[tuple[int, int]]:
    """The two lowest elements outside ``used`` of the first class, in class
    order, that has two such elements; None if no class has.  Walks the
    flat view of a parsed partition, where a mark starts each class."""
    view = rel.__dict__.get("_flat")
    if view is not None:
        flat, marks = view
        first, i = None, 0
        for x in flat:  # a counter, not enumerate or zip, which cost more per call
            if x not in used:
                if first is not None and not marks[i]:
                    return (first, x)
                first = x
            elif marks[i]:
                first = None
            i += 1
        return None
    for cl in rel.classes:
        first = None
        for x in cl:
            if x not in used:
                if first is not None:
                    return (first, x)
                first = x
    return None


def try_direct_pair(state: TrackState) -> Optional[tuple[int, int]]:
    """Two distinct 1-equivalent elements avoiding B, lowest pair if any."""
    return direct_pair(state.relation_at(1), state.b_set)


def _excluded(comp_of: dict[int, int], state: TrackState, x: int, y: int) -> bool:
    """True for the one configuration that does not yield a win: x and y sit
    in opposite parts of the same left-side component."""
    px = comp_of.get(x)
    if px is None or px != comp_of.get(y) or px > state.extent:
        return False
    comp = state.comps[px]
    return (x in comp.top and y in comp.bottom) or (x in comp.bottom and y in comp.top)


def _find_win_pair(state: TrackState, pos: int) -> Optional[tuple[int, int]]:
    """A non-excluded equivalent pair outside C_right under the relation at pos."""
    right = state.right_set
    comp_of = state.component_of()
    for cl in state.relation_at(pos).classes:
        out = [x for x in cl if x not in right]
        if len(out) < 2:
            continue
        for ai in range(len(out)):
            for bi in range(ai + 1, len(out)):
                x, y = out[ai], out[bi]
                if not _excluded(comp_of, state, x, y):
                    return (x, y)
    return None


def _charge_once(state: TrackState, pos: int):
    """Charging Scheme 1 for the relation at ``pos``: every kernel element is
    charged to exactly one component.  Returns (counts, outsiders) where
    outsiders[p] lists (element, identity partner) pairs charged from outside B'.
    """
    rel = state.relation_at(pos)
    bprime = state.bprime_set
    comp_of = state.component_of()
    counts = [0] * (state.n + 1)
    outsiders: dict[int, list[tuple[int, int]]] = {}
    for cl in rel.classes:
        target = None  # the class's lowest right-side identity member, found on first need
        for x in cl:
            if x in bprime:
                counts[comp_of[x]] += 1
                continue
            if target is None:
                target = state.lowest_identity_member(cl, state.extent)
                if target is None:
                    raise InternalLogicError(
                        "charge_scheme_1",
                        f"element {x} of relation at position {pos} has no charge target; {state.digest()}",
                    )
            p, partner = target
            counts[p] += 1
            outsiders.setdefault(p, []).append((x, partner))
    return counts, outsiders


def build_track(state: TrackState, telemetry: Optional[Telemetry] = None):
    """Grow the track to t-1 left components, or finish early with a win.

    Returns ("win", Matching) or ("track", state).
    """
    while state.extent < state.t:
        pos = state.extent  # the relation whose kernel gets charged this step
        win = _find_win_pair(state, pos)
        if win is not None:
            m = complete_assignment(state, {pos: win})
            if telemetry:
                telemetry.record("build_track", win="track_pair", step=pos, track_len=state.extent - 1)
            return ("win", m)
        counts, outsiders = _charge_once(state, pos)
        total = sum(counts)
        ksize = len(kernel(state.relation_at(pos)))
        if total != ksize:
            raise InternalLogicError(
                "charge_scheme_1", f"charge total {total} != kernel size {ksize}"
            )
        chosen = None
        for p in state.right_positions():
            if counts[p] > 4:
                raise InternalLogicError(
                    "charge_scheme_1", f"component at position {p} got {counts[p]} > 4 charges"
                )
            if counts[p] == 4 and chosen is None:
                chosen = p
        if chosen is None:
            raise InternalLogicError(
                "build_track",
                f"no right-side component with four charges at step {pos}; {state.digest()}",
            )
        outs = outsiders.get(chosen, [])
        if len(outs) != 2:
            raise InternalLogicError(
                "build_track", f"four-charge component has {len(outs)} outsiders, expected 2"
            )
        comp = state.comps[chosen]
        c = next(x for x, part in outs if part == comp.a)
        d = next(x for x, part in outs if part == comp.b)
        state.grow_track(chosen, c, d)
    if telemetry:
        telemetry.record("build_track", track_len=state.extent - 1)
    return ("track", state)


def charge_scheme_2(state: TrackState, telemetry: Optional[Telemetry] = None):
    """1-charge K_1 and t-charge K_t, or finish early with a win.

    Returns ("win", Matching) or ("ledger", ChargeLedger).
    """
    n, t = state.n, state.t
    if state.extent != t:
        raise InternalLogicError("charge_scheme_2", f"track extent {state.extent} != t {t}")
    comp_of = state.component_of()
    b = state.b_set
    rel1 = state.relation_at(1)
    relt = state.relation_at(t)

    # an unexcluded t-pair outside C_right ends the step immediately
    win = _find_win_pair(state, t)
    if win is not None:
        m = complete_assignment(state, {t: win})
        if telemetry:
            telemetry.record("charge_scheme_2", win="t_pair")
        return ("win", m)

    sigma = [0] * (n + 1)
    tau = [0] * (n + 1)
    S: dict[int, list[int]] = {}
    T: dict[int, list[int]] = {}
    one_partner: dict[int, int] = {}
    t_partner: dict[int, int] = {}

    for cl in rel1.classes:
        target = None  # the class's lowest member of B, found on first need
        for x in cl:
            if x in b:
                sigma[comp_of[x]] += 1
                one_partner[x] = x
                continue
            if target is None:
                target = state.lowest_identity_member(cl, 1)
                if target is None:
                    # unreachable after try_direct_pair found nothing: then
                    # each class holds at most one element outside B, so
                    # x's class holds a member of B, at position >= 2
                    raise InternalLogicError(
                        "charge_scheme_2",
                        f"element {x} of relation at position 1 has no charge target; {state.digest()}",
                    )
            p, partner = target
            sigma[p] += 1
            S.setdefault(p, []).append(x)
            one_partner[x] = partner

    special: set[int] = set()
    for j in state.left_positions():
        comp = state.comps[j]
        if comp.d in relt.class_of(comp.c):
            tau[j] += 2
            T.setdefault(j, []).extend([comp.c, comp.d])
            t_partner[comp.c] = comp.d
            t_partner[comp.d] = comp.c
            special.update((comp.c, comp.d))

    for cl in relt.classes:
        target = None  # the class's lowest right-side member of B, found on first need
        for z in cl:
            if z in special:
                continue
            if z in b:
                tau[comp_of[z]] += 1
                t_partner[z] = z
                continue
            if target is None:
                target = state.lowest_identity_member(cl, t)
            if target is not None:
                p, partner = target
                tau[p] += 1
                T.setdefault(p, []).append(z)
                t_partner[z] = partner
                continue
            # z is c_j or d_j and t-equivalent within its own component
            # (anything else would have been a win above)
            pz = comp_of.get(z)
            partner = next(
                (y for y in cl if y != z and comp_of.get(y) == pz), None
            )
            if pz is None or pz > t or partner is None:
                raise InternalLogicError(
                    "charge_scheme_2", f"element {z} has no t-charge target; {state.digest()}"
                )
            tau[pz] += 1
            T.setdefault(pz, []).append(z)
            t_partner[z] = partner

    ledger = ChargeLedger(
        n=n,
        t=t,
        sigma=sigma,
        tau=tau,
        S={p: tuple(v) for p, v in S.items()},
        T={p: tuple(v) for p, v in T.items()},
        one_partner=one_partner,
        t_partner=t_partner,
    )
    _validate_ledger(state, ledger)
    if telemetry:
        telemetry.record(
            "charge_scheme_2",
            sigma_hist=_hist(sigma[2:]),
            tau_hist=_hist(tau[2:]),
        )
    return ("ledger", ledger)


def _hist(values) -> dict[int, int]:
    out: dict[int, int] = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return dict(sorted(out.items()))


def _validate_ledger(state: TrackState, ledger: ChargeLedger) -> None:
    n, t = state.n, state.t
    k1 = len(kernel(state.relation_at(1)))
    kt = len(kernel(state.relation_at(t)))
    if sum(ledger.sigma) != k1:
        raise InternalLogicError("ledger", f"sum sigma {sum(ledger.sigma)} != |K_1| {k1}")
    if sum(ledger.tau) != kt:
        raise InternalLogicError("ledger", f"sum tau {sum(ledger.tau)} != |K_t| {kt}")
    seen_s: set[int] = set()
    seen_t: set[int] = set()
    membership: dict[int, int] = {}
    for p in range(2, n + 1):
        if ledger.sigma[p] > 4 or ledger.tau[p] > 4:
            raise InternalLogicError(
                "ledger", f"position {p}: sigma {ledger.sigma[p]}, tau {ledger.tau[p]} exceeds 4"
            )
        s, tt = ledger.S.get(p, ()), ledger.T.get(p, ())
        if len(s) > 2 or len(tt) > 2:
            raise InternalLogicError("ledger", f"position {p}: |S|={len(s)}, |T|={len(tt)} exceeds 2")
        for x in s:
            if x in seen_s:
                raise InternalLogicError("ledger", f"element {x} in two S sets")
            seen_s.add(x)
        for x in tt:
            if x in seen_t:
                raise InternalLogicError("ledger", f"element {x} in two T sets")
            seen_t.add(x)
        for x in ledger.U(p):
            membership[x] = membership.get(x, 0) + 1
            if membership[x] > 2:
                raise InternalLogicError("ledger", f"element {x} lies in three U sets")
    for p in range(t + 1, n + 1):
        if ledger.charges(p) >= 7:
            s, tt = ledger.S.get(p, ()), ledger.T.get(p, ())
            if not s or not tt or max(len(s), len(tt)) != 2:
                raise InternalLogicError(
                    "ledger", f"heavy position {p} violates S/T size bounds: {s}, {tt}"
                )


def heavy_indices(state: TrackState, ledger: ChargeLedger, c: int) -> list[int]:
    """Right-side heavy positions, with the counting checks of the argument."""
    heavy_all = ledger.heavy_left() + ledger.heavy_right()
    if 5 * len(heavy_all) < state.n + 5 * c:
        raise InternalLogicError(
            "heavy_indices",
            f"{len(heavy_all)} heavy components < n/5 + c = {state.n / 5 + c}",
        )
    h = ledger.heavy_right()
    if 5 * len(h) < state.n + 5 * (c - 4):
        raise InternalLogicError(
            "heavy_indices",
            f"{len(h)} right-side heavy components < n/5 + c - 4",
        )
    return h


def try_five_heavy_left_win(
    state: TrackState, ledger: ChargeLedger, telemetry: Optional[Telemetry] = None
) -> Optional[Matching]:
    """Win from five heavy left-side components, or None if fewer exist."""
    heavy = ledger.heavy_left()
    if len(heavy) < 5:
        return None
    i1, i2, i3, i4, i5 = heavy[:5]
    comp = state.comps[i2]
    a, bb, cc, d = comp.a, comp.b, comp.c, comp.d
    relt = state.relation_at(state.t)

    def finish(overrides: dict[int, tuple[int, int]], branch: str) -> Optional[Matching]:
        try:
            m = complete_assignment(state, overrides)
        except (CompletionImpossible, ValueError):
            return None
        if telemetry:
            telemetry.record("five_heavy_left", win=branch)
        return m

    # case 1: the cross pair itself is t-equivalent
    if d in relt.class_of(cc):
        for k in (i3, i4, i5):
            for y in ledger.S.get(k, ()):
                if y in (cc, d):
                    continue
                m = finish({state.t: (cc, d), 1: (y, ledger.one_partner[y])}, "case1")
                if m is not None:
                    return m
    # case 2: a ~t d (or symmetrically b ~t c)
    for tpair, free in (((a, d), bb), ((bb, cc), a)):
        if tpair[1] not in relt.class_of(tpair[0]):
            continue
        for y in ledger.S.get(i2, ()):
            if ledger.one_partner[y] != free:
                continue
            blocked = d if free == bb else cc
            if y != blocked:
                m = finish({1: (free, y), state.t: tpair}, "case2a")
                if m is not None:
                    return m
            else:
                # case 2b: free ~1 blocked; use the other cross pair for
                # position i2-1 and a t-pair from C_{i1}
                if free == bb:
                    ov = {i2 - 1: (a, cc), 1: (bb, d)}
                else:
                    ov = {i2 - 1: (bb, d), 1: (a, cc)}
                for z in ledger.T.get(i1, ()):
                    m = finish({**ov, state.t: (z, ledger.t_partner[z])}, "case2b")
                    if m is not None:
                        return m
    raise InternalLogicError(
        "five_heavy_left",
        f"five heavy left components {heavy[:5]} but no case applied; {state.digest()}",
    )
