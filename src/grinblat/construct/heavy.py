"""Per-heavy-component charging (Scheme 3) and its win patterns.

For a heavy right-side position i there are two ways to finish outright:
an i-equivalent pair avoiding both B and S_i, or an untainted left
component whose identity element is i-equivalent to something fresh.
Otherwise K_i is charged to the right-side components by the shared
charging pass, ``charging._charge``: B' - U_i direct, targets past t, U_i
skipped, and a class that meets S_i or a tainted identity pair held, so
that a small bounded set of elements stays uncharged.

``charge_scheme_3`` is one call per extension step.  It sends all heavy
rows through the pass in batches, S and T membership read from arrays of
each element's owner (the S sets are pairwise disjoint, and so are the T
sets).  Array tests pick the rows that have a class that could give a win;
only those go to the Python win checks, in heavy order, with each row's
checks.  The tables stay arrays (``ChargeTables``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core import kernel
from ..errors import CompletionImpossible, InternalLogicError, certify
from .charging import _batches, _charge, _check_caps, _no_target
from .completion import complete_assignment
from .state import ChargeLedger, ChargeTables, Telemetry, TrackState

if TYPE_CHECKING:  # numpy is imported where it is used (see grinblat.core)
    import numpy as np

# Elements of one heavy kernel that Scheme 3 may hold uncharged.
HELD_CAP = 6


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


def _owners(size: int, sets: dict[int, tuple[int, ...]]) -> np.ndarray:
    """Each element's position in the pairwise disjoint ``sets``, else 0."""
    import numpy as np

    owner = np.zeros(size, np.int32)
    for p, elems in sets.items():
        owner[list(elems)] = p
    return owner


def charge_scheme_3(
    state: TrackState,
    ledger: ChargeLedger,
    heavy: list[int],
    telemetry: Optional[Telemetry] = None,
):
    """Charge the kernel of every heavy position to the right-side
    components, or finish with a win.

    For a heavy position i, B' - U_i is charged direct, U_i is skipped and a
    class that meets S_i or a tainted identity pair is held; targets lie
    past t.  The rows go through the charging pass in batches.  Only a row
    with a class that could give a win (two elements outside B and S_i, or
    an untainted left identity element and an element outside B' and T_i)
    goes to the win checks, and those and the row's checks run in heavy
    order, as one row at a time would.

    Returns ("win", Matching) or ("tables", ChargeTables).
    """
    import numpy as np

    n1, extent = state.n + 1, state.extent
    pos, _ = state.position_arrays()
    s_owner, t_owner = _owners(len(pos), ledger.S), _owners(len(pos), ledger.T)
    counts, outsiders, win_checked, first = [], [], 0, 0  # first: the batch's first row
    for batch in _batches(state, heavy):
        k, row, x, px = len(batch.rows), batch.row, batch.x, batch.px
        own = np.array(batch.rows)[row]  # each element's heavy position i
        in_s, in_t = s_owner[x] == own, t_owner[x] == own
        skip = in_s | in_t  # U_i
        # tainted[r, j]: C_j meets T_i; only left positions j are read
        tainted = np.zeros((k, n1), bool)
        for r, i in enumerate(batch.rows):
            tainted[r, pos[list(ledger.T.get(i, ()))]] = True
        left = batch.ident & (px <= extent)
        tainted_id = left & tainted[row, px]
        row_counts, outside, outs, held, stuck = _charge(
            state, batch, state.t, (px > 0) & ~skip, skip, in_s | tainted_id
        )

        # rows with a class that could give a win, and rows failing a check
        starts = batch.starts
        cls_row = row[starts]
        fresh = np.bincount(
            cls_row[np.add.reduceat(~batch.ident & ~in_s, starts) >= 2], minlength=k
        )
        untainted = np.bincount(cls_row[
            np.logical_or.reduceat(left & ~tainted_id, starts)
            & np.logical_or.reduceat((px == 0) & ~in_t, starts)
        ], minlength=k)
        stuck_rows = row[stuck]
        n_held = np.bincount(row[held], minlength=k)
        covered = row_counts.sum(axis=1) + n_held + np.bincount(row[skip], minlength=k)
        size = np.bincount(row, minlength=k)  # |K_i|: a row lists each kernel element once
        bad = (
            (np.bincount(stuck_rows, minlength=k) > 0) | (n_held > HELD_CAP) | (covered != size)
            | (row_counts > 4).any(axis=1) | (outside > 2).any(axis=1)
        )
        for r in np.flatnonzero((fresh > 0) | (untainted > 0) | bad).tolist():
            i = batch.rows[r]
            win_checked += bool(fresh[r] or untainted[r])
            m = _try_win_fresh_pair(state, ledger, i, telemetry) if fresh[r] else None
            if m is None and untainted[r]:
                m = _try_win_untainted_left(
                    state, ledger, i, tainted_left(state, ledger, i), telemetry
                )
            if m is not None:
                return ("win", m)
            if not bad[r]:
                continue
            # the checks one row at a time made, in their order
            xs = x[stuck[stuck_rows == r]]
            if len(xs):
                raise _no_target("charge_scheme_3", state, i, int(xs[0]))
            certify("charge_scheme_3", f"held elements of K_{i} <= {HELD_CAP}", int(n_held[r]), "<=", HELD_CAP)
            certify("charge_scheme_3", f"charged + held + skipped elements == |K_{i}|",
                    int(covered[r]), "==", int(size[r]))
            _check_caps("charge_scheme_3", row_counts[r], outside[r])
        counts.append(row_counts)
        order = np.argsort(outs[0] * n1 + outs[1], kind="stable")  # runs keep visit order
        outsiders.append(np.column_stack((outs[0] + first, *outs[1:]))[order])
        first += k
    if telemetry:
        telemetry.record("charge_scheme_3", heavy=len(heavy), win_checked=win_checked)
    return ("tables", ChargeTables(
        tuple(heavy),
        np.concatenate(counts) if counts else np.zeros((0, n1), np.int64),
        np.concatenate(outsiders) if outsiders else np.zeros((0, 4), np.int64),
    ))


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
