"""Acceptance suite.

Seven criteria, each reported with one printed pass/fail line.  The verdict
lines are emitted outside pytest's capture, so they appear in the terminal
output of any run, with or without -s.

The constructive sweep (criteria 3-5 share it) is executed once per test
session and takes a few minutes at n = 200.
"""

import time
from contextlib import contextmanager

import pytest

import fixtures
from brute import brute_has_matching
from grinblat.construct import (
    Telemetry,
    build_track,
    charge_scheme_2,
    charge_scheme_3,
    extend_matching,
    final_win,
    find_compatible_pair,
    find_lucky,
    heavy_indices,
    hypothesis_bound,
    select_nonconflicting,
    try_direct_pair,
    try_five_heavy_left_win,
)
from grinblat.construct.lucky import exclusion_set
from grinblat.construct.pipeline import _initial_state
from grinblat.core import (
    Instance,
    KernelInfo,
    Partition,
    kernel,
    min_kernel,
    verify_matching,
)
from grinblat.errors import InternalLogicError
from grinblat.experiment import ExperimentConfig, run_experiment
from grinblat.formats import write_instance, write_matching
from grinblat.gen import (
    gen_lower_bound_family,
    gen_planted_concentrated,
    gen_random_hypothesis,
)
from grinblat.oracle import exact_solve, search_unmatchable

import random


@contextmanager
def criterion(capsys, num: int, name: str):
    """Print the verdict line past pytest's capture so it always shows."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {num} ({name}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {num} ({name}): PASS")


# ----------------------------------------------------------- shared sweep


SWEEP_NS = (30, 50, 100, 200)
SWEEP_SEEDS = 100
SWEEP_C = 5000


def _greedy_sub(inst):
    used: set[int] = set()
    sub = {}
    for i in range(1, inst.n):
        for cl in inst.relations[i].classes:
            free = [e for e in cl if e not in used]
            if len(free) >= 2:
                sub[i] = (free[0], free[1])
                used.update(free[:2])
                break
    return sub


@pytest.fixture(scope="module")
def sweep():
    """Criterion 3's runs; criteria 4 and 5 piggyback on the same trials."""
    out = {
        "trials": 0,
        "verified": 0,
        "logic_errors": 0,
        "max_wall_200": 0.0,
        "phases": {},
    }
    for n in SWEEP_NS:
        for gen_name in ("planted", "uniform"):
            for s in range(SWEEP_SEEDS):
                seed = 1_000_000 * n + s
                if gen_name == "planted":
                    inst, sub = gen_planted_concentrated(n, SWEEP_C, seed)
                else:
                    inst = gen_random_hypothesis(n, SWEEP_C, seed)
                    sub = _greedy_sub(inst)
                tel = Telemetry()
                out["trials"] += 1
                start = time.perf_counter()
                try:
                    m = extend_matching(inst, sub, new_rel=0, c=SWEEP_C, telemetry=tel)
                except InternalLogicError:
                    out["logic_errors"] += 1
                    continue
                wall = time.perf_counter() - start
                if n == 200:
                    out["max_wall_200"] = max(out["max_wall_200"], wall)
                if verify_matching(inst, m).valid:
                    out["verified"] += 1
                ph = tel.phase_reached
                out["phases"][ph] = out["phases"].get(ph, 0) + 1
    return out


# --------------------------------------------------------------- criteria


def test_criterion_1_lower_bound_family(capsys):
    with criterion(capsys, 1, "lower-bound family"):
        start = time.perf_counter()
        for n in range(2, 8):
            inst = gen_lower_bound_family(n)
            assert min_kernel(inst) == 3 * n - 3
            assert KernelInfo.of(inst).sizes == tuple([3 * n - 3] * n)
            assert exact_solve(inst).outcome == "proven-none"
            # one extra disjoint pair in every relation restores a matching
            g = inst.ground_size
            rels = [
                Partition(list(p.classes) + [(g, g + 1)]) for p in inst.relations
            ]
            fixed = Instance(g + 2, rels)
            res = exact_solve(fixed)
            assert res.outcome == "matched"
            assert verify_matching(fixed, res.matching).valid
        assert time.perf_counter() - start < 60.0


@pytest.mark.slow
def test_criterion_2_v3_evidence(capsys):
    with criterion(capsys, 2, "v(3) evidence"):
        budget = 2_000_000  # same budget both sides, well under 10^8
        found = search_unmatchable(3, 8, 12, budget=budget)
        assert found.witness is not None
        assert min(KernelInfo.of(found.witness).sizes) == 8
        assert exact_solve(found.witness).outcome == "proven-none"
        none9 = search_unmatchable(3, 9, 12, budget=budget)
        assert none9.witness is None


@pytest.mark.slow
def test_criterion_3_constructive_success(sweep, capsys):
    with criterion(capsys, 3, "constructive success"):
        expected = len(SWEEP_NS) * 2 * SWEEP_SEEDS
        assert sweep["trials"] == expected
        assert sweep["logic_errors"] == 0
        assert sweep["verified"] == expected
        assert sweep["max_wall_200"] < 5.0
        print(f"  phase coverage: {sweep['phases']}")


def _deep_pipeline_artifacts():
    """Run the planted deep instance phase by phase, returning every
    intermediate object for explicit invariant checks."""
    inst, sub = gen_planted_concentrated(100, 32, seed=6)
    state = _initial_state(inst, sub, 0)
    assert try_direct_pair(state) is None
    kind, state = build_track(state)
    assert kind == "track"
    kind, ledger = charge_scheme_2(state)
    assert kind == "ledger"
    assert try_five_heavy_left_win(state, ledger) is None
    heavy = heavy_indices(state, ledger, 32)
    tables = {}
    for i in heavy:
        kind, payload = charge_scheme_3(state, ledger, i)
        assert kind == "table"
        tables[i] = payload
    lucky = find_lucky(state, ledger, tables, 32)
    lucky = select_nonconflicting(state, lucky, 32)
    compat = find_compatible_pair(state, ledger, lucky, 32)
    return inst, state, ledger, heavy, tables, lucky, compat


@pytest.mark.slow
def test_criterion_4_charging_invariants(sweep, capsys):
    with criterion(capsys, 4, "charging invariants"):
        # every scheme invariant is asserted inside the pipeline and raises
        # InternalLogicError on violation; the sweep saw none
        assert sweep["logic_errors"] == 0
        # explicit re-check on a deep run that reaches every scheme
        _, state, ledger, heavy, tables, lucky, _ = _deep_pipeline_artifacts()
        n, t = state.n, state.t
        assert sum(ledger.sigma) == len(kernel(state.relation_at(1)))
        assert sum(ledger.tau) == len(kernel(state.relation_at(t)))
        assert max(ledger.sigma) <= 4 and max(ledger.tau) <= 4
        for group in (ledger.S, ledger.T):
            seen: set[int] = set()
            for pos, elems in group.items():
                assert len(elems) <= 2
                for e in elems:
                    assert e not in seen
                    seen.add(e)
        heavy_left = ledger.heavy_left()
        assert 5 * (len(heavy) + len(heavy_left)) >= n + 5 * 32
        for i, table in tables.items():
            ki = kernel(state.relation_at(i))
            charged = 0
            for pos, (cnt, outs) in table.items():
                assert cnt <= 4
                assert len(outs) <= 2
                charged += cnt
            assert len(ki) - charged <= 6  # uncharged cap per heavy index


@pytest.mark.slow
def test_criterion_5_structural_lemmas(sweep, capsys):
    with criterion(capsys, 5, "structural lemma checks"):
        # bipartiteness is checked on every constructive run (odd cycles
        # raise InternalLogicError); zero were seen in the sweep
        assert sweep["logic_errors"] == 0
        # explicit exclusion bound on the deep run
        _, state, ledger, _, _, lucky, compat = _deep_pipeline_artifacts()
        y = exclusion_set(state, ledger, lucky)
        assert 8 * len(y) <= 16 * (state.n - state.t) + 3 * 32
        m = final_win(state, ledger, lucky, compat, 32)
        remapped = [None] * state.n
        for pos in range(1, state.n + 1):
            remapped[state.perm[pos]] = m.pairs[pos - 1]
        assert verify_matching(state.inst, type(m)(remapped)).valid
        # the hand-built lemma fixtures all complete into verified matchings
        lemma_runs = [
            ("case1", *fixtures.five_heavy_case1()),
            ("case2a", *fixtures.five_heavy_case2a()),
            ("case2b", *fixtures.five_heavy_case2b()),
        ]
        for name, fstate, fledger in lemma_runs:
            tel = Telemetry()
            fm = try_five_heavy_left_win(fstate, fledger, tel)
            assert fm is not None, name
            assert tel.win_branch == name
            out = [None] * fstate.n
            for pos in range(1, fstate.n + 1):
                out[fstate.perm[pos]] = fm.pairs[pos - 1]
            assert verify_matching(fstate.inst, type(fm)(out)).valid, name
        for name, builder, hsec in (
            ("jstar-unlucky", fixtures.jstar_unlucky, (11, 12)),
            ("jstar-split", fixtures.jstar_split, (7, 8, 9)),
        ):
            fstate, fledger, W = builder()
            from grinblat.construct import LuckyData

            ld = LuckyData(jstar=10, hprime=hsec, W=W, hsecond=hsec)
            fm = final_win(fstate, fledger, ld, hsec[:2], c=48)
            out = [None] * fstate.n
            for pos in range(1, fstate.n + 1):
                out[fstate.perm[pos]] = fm.pairs[pos - 1]
            assert verify_matching(fstate.inst, type(fm)(out)).valid, name


def _oracle_instance(rng: random.Random) -> Instance:
    ground = rng.randint(4, 30)
    n = rng.randint(1, 8)
    rels = []
    for _ in range(n):
        elems = list(range(ground))
        rng.shuffle(elems)
        classes = []
        at = 0
        for _ in range(rng.randint(1, 3)):
            size = rng.choice((2, 3))
            if at + size > ground:
                break
            classes.append(tuple(elems[at : at + size]))
            at += size
        if not classes:
            classes = [tuple(elems[:2])]
        rels.append(Partition(classes))
    return Instance(ground, rels)


def test_criterion_6_oracle_agreement(capsys):
    with criterion(capsys, 6, "oracle agreement"):
        rng = random.Random(424242)
        for _ in range(1000):
            inst = _oracle_instance(rng)
            res = exact_solve(inst)
            assert res.outcome in ("matched", "proven-none")
            assert (res.outcome == "matched") == brute_has_matching(inst)
            if res.matching is not None:
                assert verify_matching(inst, res.matching).valid


def test_criterion_7_determinism(capsys):
    with criterion(capsys, 7, "determinism"):
        # byte-identical matchings from two consecutive solves
        from grinblat.construct import solve

        inst = gen_random_hypothesis(40, 100, seed=77)
        m1 = solve(inst, c=100).matching
        m2 = solve(inst, c=100).matching
        assert write_matching(m1) == write_matching(m2)
        # byte-identical instances from two consecutive generator calls
        assert write_instance(gen_random_hypothesis(40, 100, seed=77)) == write_instance(
            gen_random_hypothesis(40, 100, seed=77)
        )
        # byte-identical CSV reports from two consecutive experiment runs
        cfg = ExperimentConfig(
            master_seed=5,
            ns=(30, 40),
            cs=(8,),
            trials=3,
            generators=("planted", "uniform"),
        )
        assert run_experiment(cfg) == run_experiment(cfg)
