"""Orchestration of one extension step and the outer induction loop.

extend_matching runs the phase pipeline for a single new relation:
direct pair, track construction, 1-/t-charging, heavy analysis, lucky
analysis, final win.  solve() realizes the induction iteratively, adding
relations one at a time.  Most steps are the trivial direct-pair case (the
new relation has two equivalent elements outside the matching so far), so
solve() runs one greedy pass and calls extend_matching, with the new
relation playing relation 1, only at a relation where greedy gets stuck.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from ..core import Instance, Matching, _same_class, min_kernel, verify_matching
from ..errors import HypothesisViolation, InternalLogicError
from ..oracle import SolveResult, exact_solve
from .charging import (
    build_track,
    charge_scheme_2,
    direct_pair,
    heavy_indices,
    try_direct_pair,
    try_five_heavy_left_win,
)
from .completion import complete_assignment
from .heavy import charge_scheme_3
from .lucky import (
    exclusion_set,
    final_win,
    find_compatible_pair,
    find_lucky,
    select_nonconflicting,
)
from .state import Component, Telemetry, TrackState

DEFAULT_C = 5000
DEFAULT_N_MIN = 30
DEEP_C_MIN = 32  # the argument's minimum constant: the least c' the lucky phase works with


def hypothesis_bound(n: int, c: int) -> int:
    """ceil(16n/5) + c.  A step that gets past charging scheme 3 runs the
    lucky phase and the final win with c' = 16 * floor(c / 16), which the
    hypothesis at c implies, and refuses with HypothesisViolation where c'
    is below DEEP_C_MIN (32)."""
    return math.ceil(16 * n / 5) + c


def _initial_state(
    inst: Instance, sub: Mapping[int, tuple[int, int]], new_rel: int
) -> TrackState:
    n = inst.n
    if new_rel not in range(n):
        raise ValueError(f"new_rel {new_rel} out of range")
    others = [i for i in range(n) if i != new_rel]
    if sorted(sub) != others:
        raise ValueError("sub must cover exactly the relations other than new_rel")
    seen: set[int] = set()
    for i in others:
        a, b = sub[i]
        if a == b or not _same_class(inst.relations[i], a, b):
            raise ValueError(f"sub pair {sub[i]} invalid for relation {i}")
        for e in (a, b):
            if e in seen:
                raise ValueError(f"sub reuses element {e}")
            seen.add(e)
    perm = [-1, new_rel] + others
    comps = {}
    for pos, i in enumerate(perm[2:], start=2):
        a, b = sorted(sub[i])
        comps[pos] = Component(a=a, b=b)
    return TrackState(inst, perm, comps)


def _to_relation_order(state: TrackState, m: Matching) -> Matching:
    out: list[Optional[tuple[int, int]]] = [None] * state.n
    for pos in range(1, state.n + 1):
        out[state.perm[pos]] = m.pairs[pos - 1]
    return Matching(out)  # type: ignore[arg-type]


def extend_matching(
    inst: Instance,
    sub: Mapping[int, tuple[int, int]],
    new_rel: int,
    c: int = DEFAULT_C,
    telemetry: Optional[Telemetry] = None,
) -> Matching:
    """Extend a rainbow matching of all relations but new_rel to all of them.

    Raises HypothesisViolation if min_kernel falls below ceil(16n/5) + c,
    or if the step reaches the lucky phase with 16 * floor(c / 16) below
    DEEP_C_MIN, and InternalLogicError if a step the argument proves must
    succeed fails.
    """
    n = inst.n
    mk = min_kernel(inst)
    bound = hypothesis_bound(n, c)
    if mk < bound:
        raise HypothesisViolation(
            f"min kernel {mk} below ceil(16n/5) + c = {bound} (n={n}, c={c})"
        )
    state = _initial_state(inst, sub, new_rel)

    pair = try_direct_pair(state)
    if pair is not None:
        if telemetry:
            telemetry.record("direct_pair", win="direct_pair", pair=pair)
        m = complete_assignment(state, {1: pair})
        return _finish(state, m)

    if state.t < 2:
        # too small for a track (n < 10), so hand off to the exact solver.
        # With no direct pair |K_1| <= 4(n - 1), so the hypothesis admits
        # this for 5 <= n <= 9 whenever c <= 4n/5 - 4
        res = exact_solve(inst)
        if telemetry:
            telemetry.record("exact_fallback", outcome=res.outcome, nodes=res.nodes)
        if res.matching is None:
            raise InternalLogicError(
                "extend_matching", f"exact fallback failed with outcome {res.outcome}"
            )
        return res.matching

    kind, payload = build_track(state, telemetry)
    if kind == "win":
        return _finish(state, payload)

    kind, payload = charge_scheme_2(state, telemetry)
    if kind == "win":
        return _finish(state, payload)
    ledger = payload

    m = try_five_heavy_left_win(state, ledger, telemetry)
    if m is not None:
        return _finish(state, m)

    heavy = heavy_indices(state, ledger, c)
    kind, payload = charge_scheme_3(state, ledger, heavy, telemetry)
    if kind == "win":
        return _finish(state, payload)

    # the lucky phase's caps count in sixteenths of c; rounding c down to a
    # multiple of 16 keeps each within the exclusion bound, and H'' needs
    # c' >= 32 to hold a compatible pair
    c_deep = 16 * (c // 16)
    if c_deep < DEEP_C_MIN:
        raise HypothesisViolation(
            f"c = {c} gives the lucky phase c' = 16 * floor(c / 16) = {c_deep}, "
            f"below the argument's minimum constant {DEEP_C_MIN} (n={n})"
        )
    lucky = find_lucky(state, ledger, payload, c_deep)
    lucky = select_nonconflicting(state, lucky, c_deep)
    compat = find_compatible_pair(state, ledger, lucky, c_deep)
    y = exclusion_set(state, ledger, lucky)
    if telemetry:
        telemetry.record(
            "lucky",
            jstar=lucky.jstar,
            hprime=len(lucky.hprime),
            hsecond=len(lucky.hsecond),
            exclusion=len(y),
        )
    m = final_win(state, ledger, lucky, compat, c_deep, telemetry)
    return _finish(state, m)


def _finish(state: TrackState, m: Matching) -> Matching:
    out = _to_relation_order(state, m)
    report = verify_matching(state.inst, out)
    if not report.valid:
        raise InternalLogicError("extend_matching", f"output failed verification: {report}")
    return out


def solve(
    inst: Instance,
    c: int = DEFAULT_C,
    n_min: int = DEFAULT_N_MIN,
    telemetry: Optional[Telemetry] = None,
    exact_budget: int = 10_000_000,
) -> SolveResult:
    """Top-level dispatcher: constructive pipeline when the hypothesis and
    size threshold hold, exact search otherwise.

    The constructive pipeline is one greedy pass over the relations in
    order: relation k takes the two lowest elements outside the pairs so
    far of its first class that has two such elements (try_direct_pair's
    choice).  Only where no class has two, extend_matching re-matches the
    prefix 0..k, and the pass goes on from its output.  Kernels larger than
    4(n-1) never get stuck: a relation with no class holding two free
    elements has at most two kernel elements per used one.

    Once the full instance passes the hypothesis, every prefix does (its
    kernels are the same, its bound smaller), so greedy steps skip the
    per-step check and verification; the final matching is verified here.
    The output equals running extend_matching at every step: that step's
    direct-pair completion returns the earlier pairs sorted, so pairs that
    come back from extend_matching are sorted before the next step.
    """
    n = inst.n
    if n == 0:
        return SolveResult("matched", Matching([]))
    if n < n_min or min_kernel(inst) < hypothesis_bound(n, c):
        res = exact_solve(inst, budget=exact_budget)
        if telemetry:
            telemetry.record("exact_dispatch", n=n, outcome=res.outcome, nodes=res.nodes)
        return res

    pairs: dict[int, tuple[int, int]] = {}
    used: set[int] = set()
    for k, rel in enumerate(inst.relations):
        pair = direct_pair(rel, used)
        if pair is not None:
            if k and telemetry:
                telemetry.record("direct_pair", win="direct_pair", pair=pair)
            pairs[k] = pair
            used.update(pair)
            continue
        step_inst = Instance(inst.ground_size, inst.relations[: k + 1])
        m = extend_matching(step_inst, pairs, new_rel=k, c=c, telemetry=telemetry)
        if k < n - 1:
            pairs = {i: tuple(sorted(p)) for i, p in enumerate(m.pairs)}
        else:
            pairs = dict(enumerate(m.pairs))
        used = {e for p in pairs.values() for e in p}
    final = Matching([pairs[i] for i in range(n)])
    report = verify_matching(inst, final)
    if not report.valid:
        raise InternalLogicError("solve", f"final matching failed verification: {report}")
    if telemetry:
        telemetry.record("solved", n=n)
    return SolveResult("matched", final)
