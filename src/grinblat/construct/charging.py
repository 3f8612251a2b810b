"""Track construction, the 1-/t-charging pass, and the charging loop
that all three schemes share.

``_charge`` charges each kernel element of a relation to one component:
an element of a "direct" set to its own, any other to the lowest identity
member of its class past a given position.  Scheme 1 (``build_track``),
Scheme 2 (``charge_scheme_2``) and Scheme 3 (``heavy.charge_scheme_3``)
differ only in its parameters, and ``_check_caps`` holds the caps they
share: at most 4 charges per component, at most 2 from outside the
direct set.

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
    flat view, where a mark starts each class."""
    marks = rel._marks
    first, i = None, 0
    for x in rel._flat:  # a counter, not enumerate or zip, which cost more per call
        if x not in used:
            if first is not None and not marks[i]:
                return (first, x)
            first = x
        elif marks[i]:
            first = None
        i += 1
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


def _charge(
    state: TrackState,
    pos: int,
    direct: AbstractSet[int],
    above: int,
    skip: AbstractSet[int] = frozenset(),
    hold: AbstractSet[int] = frozenset(),
):
    """The one charging pass, shared by Schemes 1, 2 and 3: charge each
    kernel element of the relation at ``pos`` to one component.

    Visiting class by class, an element in ``direct`` is charged to its
    own component; one in ``skip``, which must be disjoint from ``direct``,
    is left alone; any other is held if its class meets ``hold``, else
    charged as an outsider to the class's lowest identity member past
    position ``above`` (ties go to the smaller element), else stuck.
    Returns (counts, outsiders, held, stuck): counts[p] charges per
    position, outsiders[p] the (element, identity partner) pairs charged
    to p in visit order, the held elements, and the stuck elements, each
    with its class.
    """
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
                target = state.lowest_identity_member(cl, above) or ()
            if not target:
                stuck.append((x, cl))
                continue
            p, partner = target
            counts[p] += 1
            outsiders.setdefault(p, []).append((x, partner))
    return counts, outsiders, held, stuck


def _no_target(step: str, state: TrackState, pos: int, x: int) -> InternalLogicError:
    return InternalLogicError(
        step, f"element {x} of relation at position {pos} has no charge target; {state.digest()}"
    )


def _check_caps(step: str, counts, outsiders) -> None:
    """The caps every charging scheme obeys: each position gets at most 4
    charges, at most 2 of them from outside the direct set."""
    for p, cnt in enumerate(counts):
        if cnt > 4:
            raise InternalLogicError(step, f"position {p} got {cnt} > 4 charges")
    for p, outs in outsiders.items():
        if len(outs) > 2:
            raise InternalLogicError(step, f"position {p} got {len(outs)} > 2 outside charges")


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
        counts, outsiders, _, stuck = _charge(state, pos, state.bprime_set, state.extent)
        if stuck:
            raise _no_target("charge_scheme_1", state, pos, stuck[0][0])
        total = sum(counts)
        ksize = len(kernel(state.relation_at(pos)))
        if total != ksize:
            raise InternalLogicError(
                "charge_scheme_1", f"charge total {total} != kernel size {ksize}"
            )
        _check_caps("charge_scheme_1", counts, outsiders)
        chosen = next((p for p in state.right_positions() if counts[p] == 4), None)
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
    relt = state.relation_at(t)

    # an unexcluded t-pair outside C_right ends the step immediately
    win = _find_win_pair(state, t)
    if win is not None:
        m = complete_assignment(state, {t: win})
        if telemetry:
            telemetry.record("charge_scheme_2", win="t_pair")
        return ("win", m)

    # 1-charging; an element with no target is unreachable after
    # try_direct_pair found nothing: then each class holds at most one
    # element outside B, so x's class holds a member of B, at position >= 2
    sigma, outsiders, _, stuck = _charge(state, 1, b, 1)
    if stuck:
        raise _no_target("charge_scheme_2", state, 1, stuck[0][0])
    one_partner = {x: x for x in kernel(state.relation_at(1)) & b}
    S: dict[int, list[int]] = {}
    for p, outs in outsiders.items():
        S[p] = [x for x, _ in outs]
        one_partner.update(outs)

    # t-charging, past the cross pairs that are t-equivalent in their component
    T: dict[int, list[int]] = {}
    t_partner: dict[int, int] = {}
    special: set[int] = set()
    for j in state.left_positions():
        comp = state.comps[j]
        if comp.d in relt.class_of(comp.c):
            T[j] = [comp.c, comp.d]
            t_partner[comp.c] = comp.d
            t_partner[comp.d] = comp.c
            special.update((comp.c, comp.d))
    tau, outsiders, _, stuck = _charge(state, t, b, t, skip=special)
    for j in T:
        tau[j] += 2
    t_partner.update((z, z) for z in kernel(relt) & b)
    for p, outs in outsiders.items():
        T[p] = [z for z, _ in outs]
        t_partner.update(outs)
    for z, cl in stuck:
        # z is c_j or d_j and t-equivalent within its own component
        # (anything else would have been a win above)
        pz = comp_of.get(z)
        partner = next((y for y in cl if y != z and comp_of.get(y) == pz), None)
        if pz is None or pz > t or partner is None:
            raise _no_target("charge_scheme_2", state, t, z)
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
    _check_caps("ledger", ledger.sigma, ledger.S)
    _check_caps("ledger", ledger.tau, ledger.T)
    for p in range(2, n + 1):
        s, tt = ledger.S.get(p, ()), ledger.T.get(p, ())
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
