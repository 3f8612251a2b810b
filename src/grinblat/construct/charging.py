"""Track construction, the 1-/t-charging pass, and the charging pass
that all three schemes share.

``_charge`` charges each kernel element of a relation to one component:
an element of a "direct" set to its own, any other to the lowest identity
member of its class past a given position.  It is one numpy pass over a
batch of rows (relation positions), the kernels flattened class by class
(``_Batch``), with the direct, skip and hold sets given as masks over the
batch.  A class's target is one ``np.minimum.reduceat`` over the key
position * ground + element of its identity members past that position,
so ties in position go to the smaller element.  Scheme 1
(``build_track``) and Scheme 2 (``charge_scheme_2``) charge one row per
call; Scheme 3 (``heavy.charge_scheme_3``) charges all heavy rows in
batches of at most ``BLOCK_ELEMENTS`` elements.  ``_check_caps`` certifies
the caps they share (through ``errors.certify``, like every counting check
of the step): at most 4 charges per component, at most 2 from outside the
direct set.

The win checks here all reduce to the same test: a pair of equivalent
elements that both avoid the right-side components lets us finish, unless
one lies in the top part and the other in the bottom part of the same
left-side component.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, AbstractSet, Iterator, Optional

from ..core import Matching, Partition, kernel, kernel_size
from ..errors import CompletionImpossible, InternalLogicError, certify
from .completion import complete_assignment
from .state import ChargeLedger, Component, Telemetry, TrackState

if TYPE_CHECKING:  # numpy is imported where it is used (see grinblat.core)
    import numpy as np


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


BLOCK_ELEMENTS = 8192
"""The most kernel elements one batch of Scheme 3 rows holds (a single
larger row makes a batch of its own), so the pass's arrays stay small."""

_NO_TARGET = 2**63 - 1  # the largest int64: a class with no target


class _Batch:
    """The kernels of the relations at some positions, the batch's rows,
    flattened in the order the pass visits them: class by class, each
    class ascending.  Per element: its component's position (0 if
    untracked), whether it is an identity element, its row and its class
    (an index into ``starts``, where each class begins)."""

    __slots__ = ("rows", "x", "px", "ident", "row", "starts", "cls")

    def __init__(self, state: TrackState, rows: list[int]):
        import numpy as np

        rels = [state.relation_at(p) for p in rows]
        sizes = [len(rel._flat) for rel in rels]
        x = np.fromiter(itertools.chain.from_iterable([rel._flat for rel in rels]), np.int64, sum(sizes))
        marks = np.frombuffer(b"".join([rel._marks for rel in rels]), np.uint8)
        pos, ident = state.position_arrays()
        self.rows, self.x, self.px, self.ident = rows, x, pos[x].astype(np.int64), ident[x]
        self.row = np.repeat(np.arange(len(rows)), sizes) if len(rows) > 1 else np.zeros(len(x), np.intp)
        self.starts = marks.nonzero()[0]
        self.cls = np.add.accumulate(marks, dtype=np.intp) - 1


def _batches(state: TrackState, rows: list[int]) -> Iterator[_Batch]:
    """Consecutive runs of rows, each of at most BLOCK_ELEMENTS elements
    unless it is a single row."""
    run: list[int] = []
    size = 0
    for p in rows:
        k = len(state.relation_at(p)._flat)
        if run and size + k > BLOCK_ELEMENTS:
            yield _Batch(state, run)
            run, size = [], 0
        run.append(p)
        size += k
    if run:
        yield _Batch(state, run)


def _find_win_pair(state: TrackState, batch: _Batch) -> Optional[tuple[int, int]]:
    """A non-excluded equivalent pair outside C_right under the relation of
    a one-row batch.  Only the classes holding two elements outside C_right
    (the identity elements past the track) are scanned."""
    import numpy as np

    outside = ~batch.ident | (batch.px <= state.extent)
    cand = (np.add.reduceat(outside, batch.starts) >= 2).nonzero()[0].tolist()
    if not cand:
        return None
    right = state.right_set
    comp_of = state.component_of()
    flat = state.relation_at(batch.rows[0])._flat
    bounds = batch.starts.tolist() + [len(flat)]
    for ci in cand:
        out = [x for x in flat[bounds[ci] : bounds[ci + 1]] if x not in right]
        for ai in range(len(out)):
            for bi in range(ai + 1, len(out)):
                x, y = out[ai], out[bi]
                if not _excluded(comp_of, state, x, y):
                    return (x, y)
    return None


def _charge(
    state: TrackState,
    batch: _Batch,
    above: int,
    direct: np.ndarray,
    skip: Optional[np.ndarray] = None,
    hold: Optional[np.ndarray] = None,
):
    """The one charging pass, shared by Schemes 1, 2 and 3: charge each
    kernel element of every row of ``batch`` to one component.

    The masks are over the batch's elements.  An element in ``direct`` is
    charged to its own component; one in ``skip``, which must be disjoint
    from ``direct``, is left alone; any other is held if its class meets
    ``hold``, else charged as an outsider to the class's lowest identity
    member past position ``above`` (ties go to the smaller element), else
    stuck.  Returns (counts, outside, outsiders, held, stuck):
    counts[r, p] charges row r gave position p, outside[r, p] of them from
    outside the direct set; outsiders the arrays (row, position, element,
    identity partner) of those, in visit order; and the indices into the
    batch of the held and the stuck elements.
    """
    import numpy as np

    n1 = state.n + 1
    k = len(batch.rows)
    g = len(state.position_arrays()[0])
    # a class's target is its least key position * g + element over its
    # identity members past above: the lowest position, then the least element
    key = np.where(batch.ident & (batch.px > above), batch.px * g + batch.x, _NO_TARGET)
    target = np.minimum.reduceat(key, batch.starts)[batch.cls]
    rest = ~direct if skip is None else ~(direct | skip)
    held = np.zeros(0, np.intp)
    if hold is not None:
        held_cls = np.logical_or.reduceat(hold, batch.starts)[batch.cls]
        held = (rest & held_cls).nonzero()[0]
        rest &= ~held_cls
    missing = target == _NO_TARGET
    stuck = (rest & missing).nonzero()[0]
    out = (rest & ~missing).nonzero()[0]
    to, partner = np.divmod(target[out], g)
    row = batch.row[out]
    outside = np.bincount(row * n1 + to, minlength=k * n1)
    counts = outside + np.bincount(batch.row[direct] * n1 + batch.px[direct], minlength=k * n1)
    outsiders = (row, to, batch.x[out], partner)
    return counts.reshape(k, n1), outside.reshape(k, n1), outsiders, held, stuck


def _by_position(to, xs, partners) -> dict[int, list[tuple[int, int]]]:
    """A one-row batch's outsiders: position -> (element, identity partner)
    pairs in visit order."""
    out: dict[int, list[tuple[int, int]]] = {}
    for p, x, partner in zip(to.tolist(), xs.tolist(), partners.tolist()):
        out.setdefault(p, []).append((x, partner))
    return out


def _no_target(step: str, state: TrackState, pos: int, x: int) -> InternalLogicError:
    return InternalLogicError(
        step, f"element {x} of relation at position {pos} has no charge target; {state.digest()}"
    )


def _check_caps(step: str, counts, outside) -> None:
    """The caps every charging scheme obeys: each position p gets at most
    counts[p] <= 4 charges, at most outside[p] <= 2 of them from outside
    the direct set."""
    import numpy as np

    for cap, what, values in ((4, "charges", counts), (2, "outside charges", outside)):
        over = (np.asarray(values) > cap).nonzero()[0]
        if len(over):
            p = int(over[0])
            certify(step, f"{what} at position {p} <= {cap}", int(values[p]), "<=", cap)


def build_track(state: TrackState, telemetry: Optional[Telemetry] = None):
    """Grow the track to t-1 left components, or finish early with a win.

    Returns ("win", Matching) or ("track", state).
    """
    import numpy as np

    while state.extent < state.t:
        pos = state.extent  # the relation whose kernel gets charged this step
        batch = _Batch(state, [pos])
        win = _find_win_pair(state, batch)
        if win is not None:
            m = complete_assignment(state, {pos: win})
            if telemetry:
                telemetry.record("build_track", win="track_pair", step=pos, track_len=state.extent - 1)
            return ("win", m)
        counts, outside, (_, to, xs, partners), _, stuck = _charge(
            state, batch, state.extent, batch.px > 0
        )
        if len(stuck):
            raise _no_target("charge_scheme_1", state, pos, int(batch.x[stuck[0]]))
        certify("charge_scheme_1", "charge total == |K|", int(counts.sum()), "==",
                kernel_size(state.relation_at(pos)))
        _check_caps("charge_scheme_1", counts[0], outside[0])
        four = (counts[0, state.extent + 1 :] == 4).nonzero()[0]
        if not len(four):
            raise InternalLogicError(
                "build_track",
                f"no right-side component with four charges at step {pos}; {state.digest()}",
            )
        chosen = state.extent + 1 + int(four[0])
        at = to == chosen
        outs = list(zip(xs[at].tolist(), partners[at].tolist()))
        certify("build_track", "outsiders of the four-charge component == 2", len(outs), "==", 2)
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
    import numpy as np

    n, t = state.n, state.t
    certify("charge_scheme_2", "track extent == t", state.extent, "==", t)
    comp_of = state.component_of()
    b = state.b_set
    relt = state.relation_at(t)

    # an unexcluded t-pair outside C_right ends the step immediately
    batch_t = _Batch(state, [t])
    win = _find_win_pair(state, batch_t)
    if win is not None:
        m = complete_assignment(state, {t: win})
        if telemetry:
            telemetry.record("charge_scheme_2", win="t_pair")
        return ("win", m)

    # 1-charging; an element with no target is unreachable after
    # try_direct_pair found nothing: then each class holds at most one
    # element outside B, so x's class holds a member of B, at position >= 2
    batch_1 = _Batch(state, [1])
    counts, _, (_, *outsiders), _, stuck = _charge(state, batch_1, 1, batch_1.ident)
    if len(stuck):
        raise _no_target("charge_scheme_2", state, 1, int(batch_1.x[stuck[0]]))
    sigma = counts[0].tolist()
    one_partner = {x: x for x in kernel(state.relation_at(1)) & b}
    S: dict[int, list[int]] = {}
    for p, outs in _by_position(*outsiders).items():
        S[p] = [x for x, _ in outs]
        one_partner.update(outs)

    # t-charging, past the cross pairs that are t-equivalent in their component
    T: dict[int, list[int]] = {}
    t_partner: dict[int, int] = {}
    special = np.zeros(n + 1, bool)  # positions whose cross pair is skipped
    for j in state.left_positions():
        comp = state.comps[j]
        if comp.d in relt.class_of(comp.c):
            T[j] = [comp.c, comp.d]
            t_partner[comp.c] = comp.d
            t_partner[comp.d] = comp.c
            special[j] = True
    counts, _, (_, *outsiders), _, stuck = _charge(
        state, batch_t, t, batch_t.ident, skip=~batch_t.ident & special[batch_t.px]
    )
    tau = counts[0].tolist()
    for j in T:
        tau[j] += 2
    t_partner.update((z, z) for z in kernel(relt) & b)
    for p, outs in _by_position(*outsiders).items():
        T[p] = [z for z, _ in outs]
        t_partner.update(outs)
    for z in batch_t.x[stuck].tolist():
        # z is c_j or d_j and t-equivalent within its own component
        # (anything else would have been a win above)
        pz = comp_of.get(z)
        partner = next((y for y in relt.class_of(z) if y != z and comp_of.get(y) == pz), None)
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
    certify("ledger", "sum sigma == |K_1|", sum(ledger.sigma), "==", kernel_size(state.relation_at(1)))
    certify("ledger", "sum tau == |K_t|", sum(ledger.tau), "==", kernel_size(state.relation_at(t)))
    seen_s: set[int] = set()
    seen_t: set[int] = set()
    membership: dict[int, int] = {}
    _check_caps("ledger", ledger.sigma, [len(ledger.S.get(p, ())) for p in range(n + 1)])
    _check_caps("ledger", ledger.tau, [len(ledger.T.get(p, ())) for p in range(n + 1)])
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
    certify("heavy_indices", "5|H| >= n + 5c", 5 * len(heavy_all), ">=", state.n + 5 * c)
    h = ledger.heavy_right()
    certify("heavy_indices", "5|H_right| >= n + 5(c - 4)", 5 * len(h), ">=", state.n + 5 * (c - 4))
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
