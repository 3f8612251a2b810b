"""Unit tests for the constructive engine: completion, track, charging,
lemma wins, lucky analysis, and the orchestrated pipeline."""

import functools

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import fixtures
from charging_ref import charge, scheme_3_table, tables_from_dicts
from completion_ref import complete_assignment_dfs
from fixtures import FixtureSpec, gen_fixture_ledger
from grinblat.construct import (
    ChargeLedger,
    Component,
    LuckyData,
    Telemetry,
    TrackState,
    build_track,
    charge_scheme_2,
    charge_scheme_3,
    complete_assignment,
    extend_matching,
    final_win,
    find_compatible_pair,
    find_lucky,
    heavy_indices,
    hypothesis_bound,
    pick_heavy_pair_elements,
    select_nonconflicting,
    solve,
    try_direct_pair,
    try_five_heavy_left_win,
)
from grinblat.construct import charging
from grinblat.construct.charging import _batches, _charge, _check_caps
from grinblat.construct.lucky import _conflicting, exclusion_set
from grinblat.construct.pipeline import DEEP_C_MIN, _initial_state
from grinblat.core import Instance, Matching, Partition, kernel, min_kernel, verify_matching
from grinblat.errors import (
    CompletionImpossible,
    HypothesisViolation,
    InternalLogicError,
    certify,
)
from grinblat.gen import gen_planted_concentrated, gen_random_hypothesis


def base_state(n=30, extra=None):
    return gen_fixture_ledger(FixtureSpec(n=n, extra=extra or {}))


# ---------------------------------------------------------------- direct pair


class TestDirectPair:
    @staticmethod
    def _tampered(extra_class):
        inst, sub = gen_planted_concentrated(30, 0, seed=3)
        rels = list(inst.relations)
        g = inst.ground_size
        rels[0] = Partition(list(rels[0].classes) + [tuple(extra_class)])
        inst2 = Instance(g + len(extra_class), rels)
        return _initial_state(inst2, sub, 0)

    def test_planted_has_no_direct_pair(self):
        inst, sub = gen_planted_concentrated(30, 0, seed=3)
        state = _initial_state(inst, sub, 0)
        assert try_direct_pair(state) is None

    def test_fresh_class_gives_pair(self):
        g = gen_planted_concentrated(30, 0, seed=3)[0].ground_size
        state = self._tampered([g, g + 1])
        pair = try_direct_pair(state)
        assert pair == (g, g + 1)
        assert state.relation_at(1).equivalent(*pair)
        assert set(pair).isdisjoint(state.b_set)

    def test_class_with_two_free_members(self):
        inst, sub = gen_planted_concentrated(30, 0, seed=3)
        g = inst.ground_size
        b_elem = sub[1][0]
        state = self._tampered([b_elem, g, g + 1])
        pair = try_direct_pair(state)
        assert pair == (g, g + 1)


# ------------------------------------------------------------------ completion


class TestCompleteAssignment:
    def test_bare_track_state_is_stuck(self):
        # relation 1's only options are cross pairs of C_2, whose elements
        # feed the shift chain that dead-ends at position t; every real win
        # supplies overrides for relations 1 and t together
        state, _ = base_state()
        with pytest.raises(CompletionImpossible):
            complete_assignment(state, {})

    def test_chain_shift(self):
        state, _ = base_state(
            extra={1: [[("a", 4), ("x", "y")]], 6: [[("c", 4), ("d", 4)]]}
        )
        comp4, comp5, comp6 = state.comps[4], state.comps[5], state.comps[6]
        y = next(
            e
            for e in state.relation_at(1).class_of(comp4.a)
            if e not in (comp4.a, comp4.c)
        )
        m = complete_assignment(state, {1: (comp4.a, y), 6: (comp4.c, comp4.d)})
        # position 4 lost its identity element and shifts to C_5's cross,
        # pushing position 5 onto C_6's cross
        assert m.pairs[3] in ((comp5.a, comp5.c), (comp5.b, comp5.d))
        assert m.pairs[4] in ((comp6.a, comp6.c), (comp6.b, comp6.d))
        assert len(m.pairs) == state.n
        for pos in range(1, state.n + 1):
            a, b = m.pairs[pos - 1]
            assert state.relation_at(pos).equivalent(a, b)

    def test_override_element_reuse_rejected(self):
        state, _ = base_state()
        comp2, comp3 = state.comps[2], state.comps[3]
        with pytest.raises(ValueError):
            complete_assignment(state, {2: (comp2.a, comp2.b), 3: (comp2.a, comp3.b)})

    def test_non_equivalent_override_rejected(self):
        state, _ = base_state()
        comp = state.comps[20]
        with pytest.raises(ValueError):
            complete_assignment(state, {7: (comp.a, comp.b)})

    def test_blocked_right_identity_raises(self):
        # consuming a right component's identity leaves that position with
        # no option at all
        state, _ = base_state(extra={6: [[("a", 20), ("b", 20)]]})
        comp = state.comps[20]
        with pytest.raises(CompletionImpossible):
            complete_assignment(state, {6: (comp.a, comp.b)})


@functools.lru_cache(maxsize=None)
def _completion_states() -> tuple[TrackState, ...]:
    """The hand fixtures' states, plus planted states with a full track."""
    states = [base_state()[0]]
    states += [
        build()[0]
        for build in (
            fixtures.five_heavy_case1,
            fixtures.five_heavy_case2a,
            fixtures.five_heavy_case2b,
            fixtures.pair_elements_disjoint,
            fixtures.pair_elements_crossing,
            fixtures.pair_elements_redraw,
            fixtures.scheme3_win_fresh_pair,
            fixtures.scheme3_win_untainted_left,
            fixtures.conflict_triple,
            fixtures.jstar_unlucky,
            fixtures.jstar_split,
        )
    ]
    for n, c, seed in ((30, 0, 2), (60, 20, 5), (100, 32, 1)):
        inst, sub = gen_planted_concentrated(n, c, seed)
        kind, state = build_track(_initial_state(inst, sub, 0))
        assert kind == "track"
        states.append(state)
    return tuple(states)


def _completion_outcome(complete, state, pins):
    try:
        return complete(state, pins).pairs
    except (ValueError, CompletionImpossible) as exc:
        return (type(exc), str(exc))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_completion_matches_reference_search(data):
    states = _completion_states()
    state = states[data.draw(st.integers(0, len(states) - 1))]
    tracked = sorted(state.component_of())
    pins = {}
    for _ in range(data.draw(st.integers(0, 3))):
        pos = data.draw(st.integers(1, state.n))
        rel = state.relation_at(pos)
        # a class through a track element, so that pins block identity and
        # cross pairs, or any class of the relation
        if data.draw(st.booleans()):
            cl = rel.class_of(data.draw(st.sampled_from(tracked)))
        else:
            cl = data.draw(st.sampled_from(rel.classes))
        if len(cl) >= 2:
            i, j = data.draw(
                st.lists(st.integers(0, len(cl) - 1), min_size=2, max_size=2, unique=True)
            )
            pins[pos] = (cl[i], cl[j])
    expected = _completion_outcome(complete_assignment_dfs, state, pins)
    assert _completion_outcome(complete_assignment, state, pins) == expected


# ------------------------------------------------------------------ track


class TestBuildTrack:
    def test_planted_track_full_length(self):
        inst, sub = gen_planted_concentrated(60, 20, seed=5)
        state = _initial_state(inst, sub, 0)
        assert try_direct_pair(state) is None
        kind, payload = build_track(state)
        assert kind == "track"
        assert payload.extent == payload.t == 12
        for p in payload.left_positions():
            comp = payload.comps[p]
            assert comp.is_left
            # cross pair equivalent to the identity pair one relation up
            rel = payload.relation_at(p - 1)
            assert rel.equivalent(comp.a, comp.c)
            assert rel.equivalent(comp.b, comp.d)

    def test_bprime_distinct_after_track(self):
        inst, sub = gen_planted_concentrated(30, 0, seed=2)
        state = _initial_state(inst, sub, 0)
        kind, state = build_track(state)
        assert kind == "track"
        bprime = state.bprime_set
        assert len(bprime) == 2 * (state.n - 1) + 2 * (state.t - 1)

    def test_early_win_on_left_cross_pair(self):
        # two elements 1-equivalent across two different left components is a
        # win; easiest check: a fresh pair appears mid-track
        inst, sub = gen_planted_concentrated(60, 20, seed=1)
        # tamper: give relation 3 (position 4) an extra fresh class
        rels = list(inst.relations)
        g = inst.ground_size
        rels[3] = Partition(list(rels[3].classes) + [(g, g + 1)])
        inst2 = Instance(g + 2, rels)
        state = _initial_state(inst2, sub, 0)
        kind, payload = build_track(state)
        assert kind == "win"
        # build_track returns a position-ordered matching; remap and verify
        remapped = [None] * inst2.n
        for pos in range(1, inst2.n + 1):
            remapped[state.perm[pos]] = payload.pairs[pos - 1]
        assert verify_matching(inst2, Matching(remapped)).valid


# ---------------------------------------------------------------- track state


def _assert_sets_current(state):
    """The maintained derived sets equal a rebuild from comps and extent."""
    comps = state.comps
    b = {e for p in range(2, state.n + 1) for e in (comps[p].a, comps[p].b)}
    cross = {e for p in state.left_positions() for e in (comps[p].c, comps[p].d)}
    right = {e for p in state.right_positions() for e in (comps[p].a, comps[p].b)}
    comp_of = {x: p for p in range(2, state.n + 1) for x in comps[p].elements}
    assert state.b_set == b
    assert state.bprime_set == b | cross
    assert state.right_set == right
    assert state.component_of() == comp_of
    pos, ident = state.position_arrays()
    assert len(pos) >= state.inst.ground_size
    assert {x: int(p) for x, p in enumerate(pos) if p} == comp_of
    assert set(np.flatnonzero(ident).tolist()) == b


class TestTrackStateSets:
    @pytest.mark.parametrize("n, c, seed", [(30, 0, 2), (60, 20, 5), (100, 32, 1)])
    def test_sets_follow_build_track(self, monkeypatch, n, c, seed):
        inst, sub = gen_planted_concentrated(n, c, seed)
        state = _initial_state(inst, sub, 0)
        _assert_sets_current(state)  # builds the lazy sets before the track grows
        grow = TrackState.grow_track
        steps = []

        def checked_grow(self, pos, c, d):
            grow(self, pos, c, d)
            _assert_sets_current(self)
            steps.append(pos)

        monkeypatch.setattr(TrackState, "grow_track", checked_grow)
        kind, state = build_track(state)
        assert kind == "track"
        assert len(steps) == state.t - 1

    def test_swaps_keep_sets_current(self):
        state, _ = base_state()
        _assert_sets_current(state)
        t = state.t
        # within the right side, within the track, across it and back, and a no-op
        for p, q in ((t + 1, state.n), (2, t), (3, t + 2), (t + 2, 3), (5, 5)):
            state.swap_positions(p, q)
            _assert_sets_current(state)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_position_arrays_follow_swaps_and_growth(data):
    # after any sequence of swaps and track growth, and an instance swapped
    # for one with a larger ground set, the arrays equal a rebuild from comps
    n = data.draw(st.integers(3, 12))
    comps = {p: Component(a=2 * p, b=2 * p + 1) for p in range(2, n + 1)}
    cross = iter(range(2 * n + 2, 4 * n))
    state = TrackState(Instance(4 * n, [Partition([])] * n), [-1, *range(n)], comps)
    state.position_arrays()
    state.component_of()
    for _ in range(data.draw(st.integers(0, 12))):
        op = data.draw(st.sampled_from(["swap", "grow", "ground"]))
        # the track grows by a right-side component with no cross pair yet
        bare = [p for p in state.right_positions() if not state.comps[p].is_left]
        if op == "grow" and bare:
            state.grow_track(data.draw(st.sampled_from(bare)), next(cross), next(cross))
        elif op == "ground":
            state.inst = Instance(state.inst.ground_size + data.draw(st.integers(1, 5)), state.inst.relations)
        else:
            state.swap_positions(data.draw(st.integers(2, n)), data.draw(st.integers(2, n)))
    _assert_sets_current(state)


# ------------------------------------------------------------- charge schemes


def _array_charge(state, rows, above, direct, skip=None, hold=None):
    """The array pass over ``rows``, in batches of charging.BLOCK_ELEMENTS,
    with per-row sets (indexed like rows; skip and hold optional), and each
    row's result in the reference's form: (counts, outsiders, held, stuck)."""
    results = []
    for batch in _batches(state, rows):
        first = len(results)
        elems = list(zip(batch.x.tolist(), batch.row.tolist()))

        def mask(sets):
            return np.array([x in sets[first + r] for x, r in elems], bool)

        counts, _, outs, held, stuck = _charge(
            state, batch, above, mask(direct),
            None if skip is None else mask(skip), None if hold is None else mask(hold),
        )
        for r, pos in enumerate(batch.rows):
            outsiders = {}
            for row, p, x, partner in zip(*(a.tolist() for a in outs)):
                if row == r:
                    outsiders.setdefault(p, []).append((x, partner))
            rel = state.relation_at(pos)
            results.append((
                counts[r].tolist(),
                outsiders,
                [elems[j][0] for j in held.tolist() if elems[j][1] == r],
                [(elems[j][0], rel.class_of(elems[j][0])) for j in stuck.tolist() if elems[j][1] == r],
            ))
    return results


class TestChargingPass:
    """The one pass behind Schemes 1-3, on a hand-built relation at right
    position 10 with one class per outcome."""

    @staticmethod
    def _state():
        state, _ = base_state(extra={10: [
            [("a", 3), ("x", "stuck")],  # its one identity member sits at 3
            [("a", 12), ("x", "held"), ("x", "hold")],
            [("a", 15), ("a", 20), ("x", "out")],
            [("a", 16), ("x", "skip")],
            [("a", 25), ("b", 25), ("x", "tie")],
        ]})
        rel = state.relation_at(10)
        return state, state.comps, lambda p: rel.class_of(state.comps[p].a)

    def test_each_element_lands_in_its_outcome(self):
        state, comps, cl = self._state()
        [(counts, outsiders, held, stuck)] = _array_charge(
            state, [10], 7, [state.bprime_set], skip=[{cl(16)[1]}], hold=[{cl(12)[2]}]
        )
        # direct: every identity element, a_16 too (only its partner is skipped)
        expected = {3: 1, 10: 2, 12: 1, 15: 2, 16: 1, 20: 1, 25: 3}
        assert {p: k for p, k in enumerate(counts) if k} == expected
        # outsiders go to the lowest identity member past 7; the tie at 25
        # goes to the smaller element, a_25
        assert outsiders == {15: [(cl(15)[2], comps[15].a)], 25: [(cl(25)[2], comps[25].a)]}
        assert held == [cl(12)[1], cl(12)[2]]
        assert stuck == [(cl(3)[1], cl(3))]

    def test_above_moves_the_target(self):
        state, comps, cl = self._state()
        [(_, outsiders, _, stuck)] = _array_charge(state, [10], 15, [state.bprime_set])
        assert outsiders[20] == [(cl(15)[2], comps[20].a)]
        assert 15 not in outsiders
        # nothing held: the class of a_12 is stuck as well now
        assert [x for x, _ in stuck] == [cl(3)[1], cl(12)[1], cl(12)[2]]

    def test_scheme_3_raises_on_a_stuck_element(self):
        # c_3 ~8 z with S_8 empty: no win applies, and z has no identity
        # member past t to be charged to
        state, ledger = base_state(extra={8: [[("c", 3), ("x", "z")]]})
        with pytest.raises(InternalLogicError) as err:
            charge_scheme_3(state, ledger, [8])
        assert err.value.step == "charge_scheme_3"
        assert "no charge target" in err.value.detail

    @pytest.mark.parametrize("counts, outside, detail", [
        ([0, 0, 5], [0, 0, 0], "charges at position 2 <= 4 fails: 5 <= 4"),
        ([0, 0, 3], [0, 0, 3], "outside charges at position 2 <= 2 fails: 3 <= 2"),
    ], ids=["five-charges", "three-outsiders"])
    def test_caps_raise_with_the_scheme_step(self, counts, outside, detail):
        _check_caps("charge_scheme_1", [0, 0, 4], [0, 0, 2])  # both caps met exactly
        with pytest.raises(InternalLogicError) as err:
            _check_caps("charge_scheme_1", counts, outside)
        assert (err.value.step, err.value.detail) == ("charge_scheme_1", detail)


@pytest.mark.parametrize("op, holds, fails", [
    ("<=", [4, 5], [6]),
    (">=", [6, 5], [4]),
    ("==", [5], [4, 6]),
])
def test_certify_holds_to_its_boundary_and_fails_one_past(op, holds, fails):
    for lhs in holds:
        certify("charge_scheme_3", f"x {op} 5", lhs, op, 5)
    for lhs in fails:
        with pytest.raises(InternalLogicError) as err:
            certify("charge_scheme_3", f"x {op} 5", lhs, op, 5)
        assert err.value.step == "charge_scheme_3"
        assert err.value.detail == f"x {op} 5 fails: {lhs} {op} 5"


@st.composite
def charging_cases(draw):
    """A small track state and a call of the charging pass on it: several
    rows, each with its direct set (B or B'), skip and hold sets, one
    ``above`` and a block budget that may split the rows across batches.
    Element labels are shuffled, so either identity element of a
    component may be the smaller, and classes hold 2-5 elements."""
    n = draw(st.integers(4, 12))
    extent = draw(st.integers(1, n))
    fresh = draw(st.integers(0, 8))
    size = 2 * (n - 1) + 2 * (extent - 1) + fresh
    labels = draw(st.permutations(range(size)))
    it = iter(labels)
    comps = {}
    for p in range(2, n + 1):
        a, b = next(it), next(it)
        comps[p] = (Component(a=a, b=b, c=next(it), d=next(it)) if p <= extent
                    else Component(a=a, b=b))
    rows = draw(st.lists(st.integers(1, n), min_size=1, max_size=4, unique=True))
    relations = [Partition([]) for _ in range(n)]
    for p in rows:
        elems = draw(st.lists(st.sampled_from(labels), min_size=2, max_size=min(size, 16), unique=True))
        classes, i = [], 0
        while len(elems) - i >= 2:
            k = draw(st.integers(2, 5))
            if len(elems) - i - k < 2:
                k = len(elems) - i
            classes.append(elems[i : i + k])
            i += k
        relations[p - 1] = Partition(classes)
    state = TrackState(Instance(size, relations), [-1, *range(n)], comps, extent)
    direct, skip, hold = [], [], []
    for p in rows:
        kern = sorted(kernel(state.relation_at(p)))
        base = state.bprime_set if draw(st.booleans()) else state.b_set
        sk = set(draw(st.lists(st.sampled_from(kern), max_size=3)))
        skip.append(sk)
        direct.append(set(base) - sk)
        hold.append(set(draw(st.lists(st.sampled_from(kern), max_size=2))))
    above = draw(st.integers(0, n))
    block = draw(st.integers(1, 40))
    return state, rows, above, direct, skip, hold, block


def _batch_count(case):
    state, rows, *_, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charging, "BLOCK_ELEMENTS", block)
        return len(list(_batches(state, rows)))


def _run_both(case):
    state, rows, above, direct, skip, hold, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charging, "BLOCK_ELEMENTS", block)
        got = _array_charge(state, rows, above, direct, skip, hold)
    want = [charge(state, p, d, above, s, h) for p, d, s, h in zip(rows, direct, skip, hold)]
    return got, want


@settings(max_examples=300, deadline=None)
@given(charging_cases())
def test_array_pass_matches_reference(case):
    got, want = _run_both(case)
    # the same counts, outsiders in the same order, held and stuck elements
    assert got == want


def _tie(case):
    """A class charged to an identity member that ties in position with
    another member of the class past ``above``."""
    state, rows, above, direct, skip, hold, _ = case
    comp_of = state.component_of()
    _, want = _run_both(case)
    for p, (_, outsiders, _, _) in zip(rows, want):
        for cl in state.relation_at(p).classes:
            ids = [comp_of[y] for y in cl if y in state.b_set and comp_of[y] > above]
            if ids and ids.count(min(ids)) == 2 and any(x in cl for outs in outsiders.values() for x, _ in outs):
                return True
    return False


@pytest.mark.parametrize("reached", [
    _tie,
    lambda case: any(r[2] for r in _run_both(case)[1]),
    lambda case: any(r[3] for r in _run_both(case)[1]),
    lambda case: any({1, 3} & set(r[0]) for r in _run_both(case)[1]),
    lambda case: _batch_count(case) > 1,
], ids=["identity-tie", "held-class", "stuck-element", "one-or-three-charges", "rows-split-across-batches"])
def test_charging_draws_reach(reached):
    # the differential test's draws reach what no planted step produces
    find(charging_cases(), reached,
         settings=settings(max_examples=2000, database=None, phases=[Phase.generate]))


class TestChargeScheme2:
    def test_conservation_and_caps(self):
        state, ledger = base_state()
        assert sum(ledger.sigma) == len(kernel(state.relation_at(1)))
        assert sum(ledger.tau) == len(kernel(state.relation_at(state.t)))
        assert max(ledger.sigma) <= 4 and max(ledger.tau) <= 4

    def test_b_member_charged_to_own_component(self):
        state, ledger = base_state()
        # a_2 lies in K_1 through the track class {a_2, c_2}
        assert ledger.sigma[2] == 4
        assert set(ledger.S[2]) == {state.comps[2].c, state.comps[2].d}

    def test_special_cross_pair_charged_together(self):
        state, ledger = base_state(extra={6: [[("c", 4), ("d", 4)]]})
        comp = state.comps[4]
        assert ledger.tau[4] >= 2
        assert comp.c in ledger.T[4] and comp.d in ledger.T[4]
        assert ledger.t_partner[comp.c] == comp.d

    def test_s_sets_pairwise_disjoint(self):
        _, ledger = fixtures.five_heavy_case1()
        seen = set()
        for p, s in ledger.S.items():
            for e in s:
                assert e not in seen
                seen.add(e)


class TestFiveHeavyLeft:
    def test_fewer_than_five_returns_none(self):
        state, ledger = base_state()
        assert try_five_heavy_left_win(state, ledger) is None

    def test_case1(self):
        state, ledger = fixtures.five_heavy_case1()
        assert len(ledger.heavy_left()) == 5
        tel = Telemetry()
        m = try_five_heavy_left_win(state, ledger, tel)
        assert m is not None and tel.win_branch == "case1"
        comp3 = state.comps[3]
        # relation t (position 6) got the cross pair of C_3
        assert set(m.pairs[5]) == {comp3.c, comp3.d}
        assert _verify_positional(state, m)

    def test_case2a(self):
        state, ledger = fixtures.five_heavy_case2a()
        tel = Telemetry()
        m = try_five_heavy_left_win(state, ledger, tel)
        assert m is not None and tel.win_branch == "case2a"
        assert _verify_positional(state, m)

    def test_case2b(self):
        state, ledger = fixtures.five_heavy_case2b()
        tel = Telemetry()
        m = try_five_heavy_left_win(state, ledger, tel)
        assert m is not None and tel.win_branch == "case2b"
        comp3 = state.comps[3]
        # relation i_2 - 1 (position 2) holds (a', c'), relation 1 holds (b', d')
        assert set(m.pairs[1]) == {comp3.a, comp3.c}
        assert set(m.pairs[0]) == {comp3.b, comp3.d}
        assert _verify_positional(state, m)


def _verify_positional(state, m) -> bool:
    remapped = [None] * state.n
    for pos in range(1, state.n + 1):
        remapped[state.perm[pos]] = m.pairs[pos - 1]
    return verify_matching(state.inst, Matching(remapped)).valid


# ------------------------------------------------------------- heavy pairs


class TestPickHeavyPairElements:
    def test_disjoint_case(self):
        state, ledger = fixtures.pair_elements_disjoint()
        p = ledger.S[8][0]
        s = ledger.T[9][0]
        v1, w1, v2, w2 = pick_heavy_pair_elements(state, ledger, 8, 9)
        assert (v1, w1) == (state.comps[8].a, p)
        assert (v2, w2) == (state.comps[9].a, s)

    def test_crossing_needs_both_components(self):
        state, ledger = fixtures.pair_elements_crossing()
        with pytest.raises(InternalLogicError):
            pick_heavy_pair_elements(state, ledger, 8, 8)
        quad = pick_heavy_pair_elements(state, ledger, 8, 9)
        assert len(set(quad)) == 4

    def test_constrained_redraw_variant(self):
        state, ledger, q, s = fixtures.pair_elements_redraw()
        v1, w1, v2, w2 = pick_heavy_pair_elements(state, ledger, 8, 9, q=q, r=s)
        assert sum(1 for e in (q, s) if e in (w1, w2)) == 1
        assert state.relation_at(1).equivalent(v1, w1)
        assert state.relation_at(state.t).equivalent(v2, w2)
        assert len({v1, w1, v2, w2}) == 4


# ----------------------------------------------------------------- scheme 3


class TestChargeScheme3:
    def test_bprime_to_own_component(self):
        extra = {}
        fixtures.heavy_right(extra, 8, "h")
        state, ledger = base_state(extra=extra)
        kind, tables = charge_scheme_3(state, ledger, [8])
        assert kind == "tables"
        table = scheme_3_table(tables, 8)
        # own identity pair charged to position 8
        assert table[8][0] >= 2
        for pos, (cnt, outs) in table.items():
            assert cnt <= 4 and len(outs) <= 2

    def test_table_skips_u_and_holds_a_tainted_class(self):
        # c_3 ~1 a_8 puts c_3, which lies in B', in S_8: relation 8 skips it
        # rather than charge it to component 3.  c_4 ~t a_8 puts c_4 in T_8
        # and so taints component 4: the class {a_4, x} of relation 8 is
        # held, where x would otherwise be stuck
        state, ledger = base_state(extra={
            1: [[("c", 3), ("a", 8)]],
            6: [[("c", 4), ("a", 8)]],
            8: [[("a", 4), ("x", "x")], [("a", 20), ("c", 3)]],
        })
        assert ledger.S[8] == (state.comps[3].c,)
        assert ledger.T[8] == (state.comps[4].c,)
        kind, tables = charge_scheme_3(state, ledger, [8])
        assert kind == "tables"
        assert scheme_3_table(tables, 8) == {4: (1, ()), 8: (2, ()), 20: (1, ())}

    def test_table_skips_a_t_element_in_b_prime(self):
        # c_4 ~t a_8 puts c_4, which lies in B', in T_8: relation 8 skips it
        # in its class {a_20, c_4} rather than charge it to component 4;
        # relation 9, in the same call, charges only its identity pair
        state, ledger = base_state(extra={
            6: [[("c", 4), ("a", 8)]],
            8: [[("a", 20), ("c", 4)]],
        })
        assert ledger.T[8] == (state.comps[4].c,)
        kind, tables = charge_scheme_3(state, ledger, [8, 9])
        assert kind == "tables"
        assert scheme_3_table(tables, 8) == {8: (2, ()), 20: (1, ())}
        assert scheme_3_table(tables, 9) == {9: (2, ())}

    @pytest.mark.parametrize("held", [6, 7])
    def test_held_elements_hold_to_their_cap(self, held):
        # c_3 ~t a_8 and c_4 ~t b_8 taint components 3 and 4, so each class
        # of relation 8 on one of their identity elements is held: its fresh
        # elements stay uncharged.  With S_8 empty no fresh pair wins, and
        # the sixth held element passes while the seventh fails
        classes = [[("a", 3), ("x", 1), ("x", 2)], [("b", 3), ("x", 3), ("x", 4)],
                   [("a", 4), ("x", 5), ("x", 6)], [("b", 4), ("x", 7)]]
        state, ledger = base_state(extra={
            6: [[("c", 3), ("a", 8)], [("c", 4), ("b", 8)]],
            8: classes[: 3 if held == 6 else 4],
        })
        assert 8 not in ledger.S and ledger.T[8] == (state.comps[3].c, state.comps[4].c)
        if held == 6:
            assert charge_scheme_3(state, ledger, [8])[0] == "tables"
            return
        with pytest.raises(InternalLogicError) as exc:
            charge_scheme_3(state, ledger, [8])
        assert exc.value.step == "charge_scheme_3"
        assert exc.value.detail == "held elements of K_8 <= 6 fails: 7 <= 6"

    def test_win_checks_run_only_on_candidate_rows(self):
        # relation 8's class {a_3, a_20, z} holds an untainted left identity
        # element and z, outside B' and T_8: the row goes to the win checks,
        # which find nothing with T_8 empty, and z is charged to a_20
        state, ledger = base_state(extra={8: [[("a", 3), ("a", 20), ("x", "z")]]})
        assert 8 not in ledger.T
        tel = Telemetry()
        kind, tables = charge_scheme_3(state, ledger, [8, 9], tel)
        assert kind == "tables"
        assert tel.events == [{"phase": "charge_scheme_3", "heavy": 2, "win_checked": 1}]
        z = state.relation_at(8).class_of(state.comps[20].a)[-1]
        assert scheme_3_table(tables, 8) == {3: (1, ()), 8: (2, ()), 20: (2, ((z, state.comps[20].a),))}

    def test_win_fresh_pair(self):
        state, ledger = fixtures.scheme3_win_fresh_pair()
        tel = Telemetry()
        kind, m = charge_scheme_3(state, ledger, [8], tel)
        assert kind == "win" and tel.win_branch == "fresh_pair"
        assert _verify_positional(state, m)
        # relation 1 used an S_8 element with its identity partner
        assert any(e in ledger.S[8] for e in m.pairs[0])

    def test_win_untainted_left(self):
        state, ledger = fixtures.scheme3_win_untainted_left()
        tel = Telemetry()
        kind, m = charge_scheme_3(state, ledger, [8], tel)
        assert kind == "win" and tel.win_branch == "untainted_left"
        assert _verify_positional(state, m)
        # relation t used a T_8 element
        assert any(e in ledger.T[8] for e in m.pairs[5])

    def test_charge_puts_each_element_in_one_outcome(self, monkeypatch):
        # the accounting identity charged + held + skipped == |K_i| holds
        # because the pass sorts every element of a batch into exactly one
        # of direct, skipped, held, stuck and outsider.  Two hand-built
        # two-row batches (the second with a stuck element, so the step
        # raises) and the deep planted step's 80 heavy rows
        from grinblat.construct import heavy as heavy_module

        calls = []

        def spy(state, batch, above, direct, skip=None, hold=None):
            result = _charge(state, batch, above, direct, skip, hold)
            calls.append((batch, direct, skip, result))
            return result

        held_and_skipped = base_state(extra={
            1: [[("c", 3), ("a", 8)]],
            6: [[("c", 4), ("a", 8)]],
            8: [[("a", 4), ("x", "x")], [("a", 20), ("c", 3)], [("a", 15), ("a", 21), ("x", "out")]],
        })
        stuck = base_state(extra={8: [[("a", 16), ("x", "y")]], 9: [[("c", 3), ("x", "z")]]})
        inst, sub = gen_planted_concentrated(100, 32, seed=6)
        _, planted = build_track(_initial_state(inst, sub, 0))
        _, ledger = charge_scheme_2(planted)
        cases = [(*held_and_skipped, [8, 9]), (*stuck, [8, 9]),
                 (planted, ledger, heavy_indices(planted, ledger, c=32))]
        monkeypatch.setattr(heavy_module, "_charge", spy)
        seen = set()
        for state, ledger, heavy in cases:
            calls.clear()
            try:
                charge_scheme_3(state, ledger, heavy)
            except InternalLogicError:
                pass
            for batch, direct, skip, (counts, _, outs, held, stuck) in calls:
                rows, xs = batch.row.tolist(), batch.x.tolist()
                index = {e: j for j, e in enumerate(zip(rows, xs))}
                assert len(index) == len(xs)  # a row lists each kernel element once
                outsiders = [index[e] for e in zip(outs[0].tolist(), outs[2].tolist())]
                outcome = [None] * len(xs)
                for name, where in (("direct", direct.nonzero()[0]), ("skipped", skip.nonzero()[0]),
                                    ("held", held), ("stuck", stuck), ("outsider", outsiders)):
                    for j in np.asarray(where, int).tolist():
                        assert outcome[j] is None, (xs[j], outcome[j], name)
                        outcome[j] = name
                        seen.add(name)
                assert None not in outcome
                for r, i in enumerate(batch.rows):
                    mine = [o for o, row in zip(outcome, rows) if row == r]
                    assert len(mine) == len(kernel(state.relation_at(i)))
                    assert int(counts[r].sum()) == mine.count("direct") + mine.count("outsider")
                if len(batch.rows) > 1:
                    seen.add("multi-row")
        assert seen == {"direct", "skipped", "held", "stuck", "outsider", "multi-row"}

    def test_uncharged_when_equivalent_to_s(self):
        extra = {}
        fixtures.heavy_right(extra, 8, "h")
        state, ledger = base_state(extra=extra)
        s_elem = ledger.S[8][0]
        # a fresh element 8-equivalent to an S_8 element stays uncharged;
        # pair it with a B element so no 7(a) win fires
        rels = list(state.inst.relations)
        g = state.inst.ground_size
        idx = state.perm[8]
        rels[idx] = Partition(list(rels[idx].classes) + [(s_elem, g)])
        state.inst = Instance(g + 1, rels)
        kind, tables = charge_scheme_3(state, ledger, [8])
        assert kind == "tables"
        table = scheme_3_table(tables, 8)
        total = sum(cnt for cnt, _ in table.values())
        k8 = len(kernel(state.relation_at(8)))
        u8 = len(set(ledger.U(8)) & kernel(state.relation_at(8)))
        # s_elem is uncharged as a U member (inside u8); g is uncharged
        # because it is 8-equivalent to an S_8 element
        assert total == k8 - u8 - 1


# ------------------------------------------------------------ lucky analysis


class TestLuckyAnalysis:
    def test_conflict_edge_and_two_coloring(self):
        state, ledger, W = fixtures.conflict_triple()
        lucky = LuckyData(jstar=10, hprime=(7, 8, 9), W=W)
        assert _conflicting(state, lucky, 7, 8)
        assert not _conflicting(state, lucky, 7, 9)
        assert not _conflicting(state, lucky, 8, 9)
        out = select_nonconflicting(state, lucky, c=48)
        assert out.hsecond == (7, 9)

    def test_no_conflicts_keeps_lowest(self):
        state, ledger, W = fixtures.jstar_split()
        lucky = LuckyData(jstar=10, hprime=(7, 8, 9), W=W)
        out = select_nonconflicting(state, lucky, c=32)
        assert out.hsecond == (7, 8)  # ceil(32/16) = 2 lowest

    def test_compatible_pair_skips_popular_blocked_index(self):
        state, ledger, W = fixtures.conflict_triple()
        # shared element between W_7 and W_8 is popular at c=4 (threshold 2);
        # planting it in U_7 forces k1 = 8
        wy = W[7][0]
        ledger2 = ChargeLedger(
            n=ledger.n,
            t=ledger.t,
            sigma=ledger.sigma,
            tau=ledger.tau,
            S={**ledger.S, 7: (wy,)},
            T=ledger.T,
            one_partner=ledger.one_partner,
            t_partner=ledger.t_partner,
        )
        lucky = LuckyData(jstar=10, hprime=(7, 8, 9), W=W, hsecond=(7, 8, 9))
        k1, k2 = find_compatible_pair(state, ledger2, lucky, c=4)
        assert k1 == 8
        assert k2 == 9  # 7 conflicts with 8

    def test_find_lucky_prefers_larger_index_set(self):
        # synthetic tables: component 20 gets four i-charges from three
        # indices, component 21 from five; witness elements are fresh
        state, ledger = base_state()
        mk = lambda pos, i: (4, ((900 + 10 * i, state.comps[pos].a), (901 + 10 * i, state.comps[pos].b)))
        tables = {}
        for i in (7, 8, 9):
            tables[i] = {20: mk(20, i)}
        for i in (10, 11, 12, 13, 14):
            tables[i] = {21: mk(21, i)}
        lucky = find_lucky(state, ledger, tables_from_dicts(state.n, tables), c=18)
        assert lucky.jstar == 21
        # ceil((18-10)/4) = 2 lowest four-charge indices survive
        assert lucky.hprime == (10, 11)
        assert lucky.W[10] == (1000, 1001)

    def test_find_lucky_counts_hold_to_their_boundaries(self):
        # the right side is the positions past the extent: one right-side
        # position with one four-charge row meets 4|rows| >= c - 10 at c = 14
        state, ledger = base_state()
        state.extent = state.n - 1
        n = state.n
        tables = tables_from_dicts(n, {7: {n: (4, ((900, state.comps[n].a), (901, state.comps[n].b)))}})
        assert find_lucky(state, ledger, tables, c=14).hprime == (7,)
        with pytest.raises(InternalLogicError) as err:
            find_lucky(state, ledger, tables, c=15)
        assert str(err.value) == "find_lucky: 4|four-charge rows at 30| >= c - 10 fails: 4 >= 5"
        state.extent = n
        with pytest.raises(InternalLogicError) as err:
            find_lucky(state, ledger, tables, c=14)
        assert str(err.value) == "find_lucky: right-side positions >= 1 fails: 0 >= 1"

    def test_find_lucky_rejects_witness_in_bprime(self):
        state, ledger = base_state()
        bad = state.comps[2].a
        tables = {7: {20: (4, ((bad, state.comps[20].a), (950, state.comps[20].b)))}}
        with pytest.raises(InternalLogicError, match="meets B'"):
            find_lucky(state, ledger, tables_from_dicts(state.n, tables), c=14)

    def test_exclusion_bound_violation_detected(self):
        state, ledger, W = fixtures.jstar_unlucky()
        lucky = LuckyData(jstar=10, hprime=(11, 12), W=W, hsecond=(11, 12))
        with pytest.raises(InternalLogicError) as err:
            final_win(state, ledger, lucky, (11, 12), c=0)
        assert str(err.value) == "final_win: 8|Y| <= 16(n - t) + 3c fails: 448 <= 384"


class TestFinalWin:
    def test_unlucky_cross_pair_redraw(self):
        state, ledger, W = fixtures.jstar_unlucky()
        lucky = LuckyData(jstar=10, hprime=(11, 12), W=W, hsecond=(11, 12))
        tel = Telemetry()
        m = final_win(state, ledger, lucky, (11, 12), c=48, telemetry=tel)
        assert _verify_positional(state, m)
        comp5 = state.comps[5]
        assert set(m.pairs[9]) == {comp5.a, comp5.b}
        # d_6 must have survived for position 5
        comp6 = state.comps[6]
        used = {e for p in m.pairs for e in p}
        assert not {comp6.c, comp6.d} <= (used - set(m.pairs[4]))

    def test_split_left_picks_unblocked_k(self):
        state, ledger, W = fixtures.jstar_split()
        lucky = LuckyData(jstar=10, hprime=(7, 8, 9), W=W, hsecond=(7, 8, 9))
        tel = Telemetry()
        m = final_win(state, ledger, lucky, (7, 8), c=48, telemetry=tel)
        assert _verify_positional(state, m)
        assert tel.events[-1]["win"] == "split_left"
        assert tel.events[-1]["k"] == 9


# ------------------------------------------------------------------ pipeline


class TestExtendMatching:
    def test_hypothesis_violation(self):
        inst = gen_random_hypothesis(30, 0, seed=1)
        sub = _some_sub(inst)
        with pytest.raises(HypothesisViolation):
            extend_matching(inst, sub, new_rel=0, c=10**6)

    def test_n1_wrapper(self):
        inst = Instance(4, [Partition([(0, 1), (2, 3)])])
        res = solve(inst, c=0, n_min=1)
        assert res.outcome == "matched"
        assert verify_matching(inst, res.matching).valid

    def test_random_instance(self):
        inst = gen_random_hypothesis(50, 5000, seed=9)
        res = solve(inst, c=5000)
        assert res.outcome == "matched"
        assert verify_matching(inst, res.matching).valid

    def test_planted_track_telemetry(self):
        inst, sub = gen_planted_concentrated(60, 20, seed=4)
        tel = Telemetry()
        m = extend_matching(inst, sub, new_rel=0, c=20, telemetry=tel)
        assert verify_matching(inst, m).valid
        track_events = [e for e in tel.events if e["phase"] == "build_track"]
        assert track_events and track_events[-1]["track_len"] == 11

    def test_deep_pipeline_reaches_final_win(self):
        inst, sub = gen_planted_concentrated(100, 32, seed=6)
        tel = Telemetry()
        m = extend_matching(inst, sub, new_rel=0, c=32, telemetry=tel)
        assert verify_matching(inst, m).valid
        phases = tel.phases()
        for phase in ("build_track", "charge_scheme_2", "charge_scheme_3", "lucky", "final_win"):
            assert phase in phases

    def test_planted_step_sends_no_row_to_the_win_checks(self):
        inst, sub = gen_planted_concentrated(100, 32, seed=6)
        tel = Telemetry()
        extend_matching(inst, sub, new_rel=0, c=32, telemetry=tel)
        [event] = [e for e in tel.events if e["phase"] == "charge_scheme_3"]
        assert event == {"phase": "charge_scheme_3", "heavy": 80, "win_checked": 0}

    def test_heavy_count_assertion(self):
        inst, sub = gen_planted_concentrated(100, 32, seed=6)
        state = _initial_state(inst, sub, 0)
        kind, state = build_track(state)
        assert kind == "track"
        kind, ledger = charge_scheme_2(state)
        assert kind == "ledger"
        h = heavy_indices(state, ledger, c=32)
        assert 5 * (len(h) + len(ledger.heavy_left())) >= state.n + 5 * 32
        assert heavy_indices(state, ledger, c=60) == h  # 80 heavy: 5|H| = n + 5c exactly
        for c, rhs in ((61, 405), (1000, 5100)):
            with pytest.raises(InternalLogicError) as err:
                heavy_indices(state, ledger, c=c)
            assert str(err.value) == f"heavy_indices: 5|H| >= n + 5c fails: 400 >= {rhs}"

    def test_right_heavy_count_holds_to_its_boundary(self):
        # five heavy left components and no right one, n = 30
        state, ledger = fixtures.five_heavy_case1()
        assert heavy_indices(state, ledger, c=-2) == []  # 5|H_right| = 0 = n + 5(c - 4)
        with pytest.raises(InternalLogicError) as err:
            heavy_indices(state, ledger, c=-1)
        assert str(err.value) == "heavy_indices: 5|H_right| >= n + 5(c - 4) fails: 0 >= 5"

    def test_small_n_falls_back_to_exact_under_the_hypothesis(self):
        # n = 5 gives t = 1, too small for a track.  Relation 0 pairs each of
        # the 8 elements of B with a fresh one, so it has no direct pair and
        # |K_1| = 16 = 4(n - 1) meets ceil(16n/5) + c exactly at c = 0
        rels = [Partition([(b, 8 + b) for b in range(8)])] + [Partition([tuple(range(16))])] * 4
        inst = Instance(16, rels)
        sub = {k: (2 * k - 2, 2 * k - 1) for k in range(1, 5)}
        tel = Telemetry()
        m = extend_matching(inst, sub, new_rel=0, c=0, telemetry=tel)
        assert tel.phases() == ["exact_fallback"]
        assert verify_matching(inst, m).valid
        with pytest.raises(HypothesisViolation):
            extend_matching(inst, sub, new_rel=0, c=1)


def _some_sub(inst):
    used = set()
    sub = {}
    for i in range(1, inst.n):
        for cl in inst.relations[i].classes:
            free = [e for e in cl if e not in used]
            if len(free) >= 2:
                sub[i] = (free[0], free[1])
                used.update(free[:2])
                break
    return sub


# ------------------------------------------------------------ property tests


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=30, max_value=45))
def test_random_hypothesis_always_solved(seed, n):
    inst = gen_random_hypothesis(n, 200, seed)
    res = solve(inst, c=200)
    assert res.outcome == "matched"
    assert verify_matching(inst, res.matching).valid


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_planted_small_c_always_solved(seed):
    inst, sub = gen_planted_concentrated(40, 8, seed)
    tel = Telemetry()
    m = extend_matching(inst, sub, new_rel=0, c=8, telemetry=tel)
    assert verify_matching(inst, m).valid
    assert tel.win_branch is not None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=-2, max_value=4),
    st.data(),
)
def test_extend_matching_on_solved_sub_is_verified(n, c, seed, dc, data):
    # the sub is the matching solve finds for the other relations; under the
    # hypothesis the step returns a verified matching, and with a raised c
    # it may only refuse with HypothesisViolation
    inst = gen_random_hypothesis(n, c, seed)
    new_rel = data.draw(st.integers(min_value=0, max_value=n - 1))
    others = [i for i in range(n) if i != new_rel]
    rest = Instance(inst.ground_size, [inst.relations[i] for i in others])
    res = solve(rest, c=c, n_min=1)
    assert res.outcome == "matched"
    sub = dict(zip(others, res.matching.pairs))
    try:
        m = extend_matching(inst, sub, new_rel=new_rel, c=c + dc)
    except HypothesisViolation:
        assert dc > 0
        return
    assert verify_matching(inst, m).valid


@pytest.mark.parametrize("n, c, seed, stride", [
    (200, 64, 1, 1),
    (100, 32, 1, 1),
    (100, 32, 2, 1),
    (100, 32, 3, 1),
    # a stride prime to 16 still meets every residue of c mod 16
    pytest.param(400, 128, 1, 5, marks=pytest.mark.slow),
])
def test_deep_step_keeps_its_contract_for_every_c(n, c, seed, stride):
    # the deep-instance twin of the test above: a planted instance that runs
    # to the final win at c, extended at every c' the hypothesis check
    # passes, returns a verified matching, or refuses with
    # HypothesisViolation where 16 * floor(c' / 16) is below the minimum
    # constant; never InternalLogicError
    inst, sub = gen_planted_concentrated(n, c, seed)
    top = min_kernel(inst) - hypothesis_bound(n, 0)
    assert top >= c
    for cc in range(0, top + 1, stride):
        tel = Telemetry()
        try:
            m = extend_matching(inst, sub, new_rel=0, c=cc, telemetry=tel)
        except HypothesisViolation:
            assert 16 * (cc // 16) < DEEP_C_MIN
            continue
        assert verify_matching(inst, m).valid
        assert "final_win" in tel.phases()
