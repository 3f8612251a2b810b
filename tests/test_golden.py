"""Pinned outputs of the constructive solver, the exact oracles and the
experiment report.

Each digest is the sha256 of a written matching, telemetry event list or
CSV report on a generated instance, so any change to a phase's choices
shows up here even when the new matching is still valid.  The instance
pins hold the written generator output, so a change to how an instance is
drawn, built or written shows up too.  The oracle pins
hold exact_solve's outcome, node count and matching, so a rewrite of the
search must visit the same nodes in the same order.  A change that alters
an output on purpose must say why and update the digest.
"""

import hashlib
import json
import random

import pytest

from grinblat.construct import Telemetry, extend_matching, solve
from grinblat.core import Instance, Partition, verify_matching
from grinblat.experiment import ExperimentConfig, run_experiment
from grinblat.formats import parse_instance, write_instance, write_matching
from grinblat.gen import (
    gen_lower_bound_family,
    gen_planted_concentrated,
    gen_random_hypothesis,
    planted_capacity,
)
from grinblat.oracle import exact_solve, search_unmatchable
from test_oracle import _random_small_instance


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()

GOLDEN = [
    # (n, c, seed, win branch, sha256)
    (100, 32, 1, "same_left", "d85be28e0e1bb01b274d9dd627bcc644b527d473b15c9d84851d29be83cc8d89"),
    (100, 32, 2, "same_left", "d8a17c408feeff2ee20ff3ad3c199a21d35175c7eb9bd2c09cd5bb2f28ad503e"),
    (100, 32, 3, "same_left", "bf0ed683d51e815662284337a5c95c875fe45df6d3c010faf6bb1f4cabe63f99"),
    (100, 32, 4, "same_left", "a1dcaae9878652e5402934649c22850e7d7909eb886f1fd43678f00509bea888"),
    (100, 32, 5, "same_left", "780cc7b94a6611fb1a037c8d374675cb5084067c4a9121e14ebde20f61196e67"),
    (60, 20, 1, "t_pair", "2cc945a2b6ae78b664e896f5efac2c606ebc2244fcfc26a83df5b0ceb9f99d22"),
]


@pytest.mark.parametrize("n, c, seed, branch, digest", GOLDEN)
def test_planted_matching_digest(n, c, seed, branch, digest):
    inst, sub = gen_planted_concentrated(n, c, seed)
    tel = Telemetry()
    m = extend_matching(inst, sub, new_rel=0, c=c, telemetry=tel)
    assert tel.win_branch == branch
    assert _sha(write_matching(m)) == digest


TRACK_PAIR_GOLDEN = [
    # (n, c, seed, sha256); relation 0 gets no direct pair, every other
    # relation a fresh class, so the first track step already wins
    (30, 0, 3, "e171b406ec97e7e7a101743ba7b307a813b0302d41d9380620a8722fa8837849"),
    (60, 20, 5, "de88162cb12c4ceaeff507a464d11e2d3d4c3787fbd589a97e14ce94d47bc146"),
    (100, 32, 1, "fb8491b0e55df72e89f002f3d0f41283a22bb577ba37dea3fd7bf8db82bf126f"),
]


@pytest.mark.parametrize("n, c, seed, digest", TRACK_PAIR_GOLDEN)
def test_track_pair_matching_digest(n, c, seed, digest):
    inst, sub = gen_planted_concentrated(n, c, seed)
    g = inst.ground_size
    fresh = [inst.relations[0]] + [
        Partition(list(rel.classes) + [(g, g + 1)]) for rel in inst.relations[1:]
    ]
    inst = Instance(g + 2, fresh)
    tel = Telemetry()
    m = extend_matching(inst, sub, new_rel=0, c=c, telemetry=tel)
    assert tel.events[-1] == {"phase": "build_track", "win": "track_pair", "step": 2, "track_len": 1}
    assert verify_matching(inst, m).valid
    assert _sha(write_matching(m)) == digest


INSTANCE_GOLDEN = [
    # (n, c, seed, slack, sha256 of write_instance(gen_random_hypothesis(n, c, seed, slack)))
    (1, 0, 1, 0, "464183c27b4a5c5f57453e414de57a4e9094b1ad2dbd8d210189ad94749b111f"),
    (1, 5000, 2, 0, "1f6edb03b2334c2015c283ba71fc49534602c937cd7cb8b246e2a06f93754ba1"),
    (5, -10, 3, 0, "40bc34249d6ff4b9cb60e5a2879dcfb256d55e53c1ca866036de547681edf397"),
    (5, -15, 4, 0, "5737451042cbb93d1d7200c827b8aa86a6a8ed3f855e1c8063d6c985bd8996a9"),
    (5, -16, 5, 0, "682d32b5b0c5223448cbf76141252f31cdd43c783b741ded3c2c8f853a581d1f"),
    (30, 5000, 1, 0, "12506c4f0703542d7e4d626195cfd2990843136df50afa27d8a26faa9295b86b"),
    (30, 5000, 7, 0, "8dff92693c25d9d35a406b94d865d89515a832a8725e0936145fc4cfa46ef060"),
    (12, 0, 4, 3, "2b86c505036b9f5ad632b7f5e73c8579333868211c33fa4a54c04a38ba3847c4"),
    (30, 8, 7, 5, "c0a62a35584fa31adcb8de7376ab81b218df506f209c34ad2e3ea01dbc314ab7"),
    (40, 32, 9, 11, "da72b624ac8771cdbc0241aae861aa514927645cd764f68673697fb76ccf6248"),
]


@pytest.mark.parametrize("n, c, seed, slack, digest", INSTANCE_GOLDEN)
def test_uniform_instance_digest(n, c, seed, slack, digest):
    assert _sha(write_instance(gen_random_hypothesis(n, c, seed, slack))) == digest


@pytest.mark.parametrize("seed, digest", [
    (1, "37abd3a25e65ce003f756d6c2e9a46d86f5192d0d653174590725351bc77e263"),
    (2, "8821317fd0d8ce1fa5fee72b268c26c2c0f16d6254a4fcbccce054b10cb8175a"),
])
def test_planted_instance_digest(seed, digest):
    inst, _ = gen_planted_concentrated(100, 32, seed)
    assert _sha(write_instance(inst)) == digest


@pytest.mark.parametrize("n, c, seed, digest", [
    # above planted_capacity(n), where the core is padded with shared filler
    (30, 5000, 1, "4693705b67d959f5250ef55cce8ee77b556eea51cdeb15b5f6c25cb5f66a2902"),
    (200, 5000, 1, "1802485c3760008b3dd6a31e72de80a3df8aa80479dc6aec4b8e92e7f1848f63"),
])
def test_planted_filler_instance_digest(n, c, seed, digest):
    assert c > planted_capacity(n)
    inst, _ = gen_planted_concentrated(n, c, seed)
    assert _sha(write_instance(inst)) == digest


SOLVE_GOLDEN = [
    # (n, c, seed, sha256 of the matching, sha256 of the telemetry events as JSON)
    (30, 5000, 1, "5f874947b780ac62e893cc80febeedae5c922dacb9ef1052d447763b439dbbdf", "55e1cbca2883c9688d90b41429b278a037b3efd694876a0f6a04fe3fd0dbb6ab"),
    (30, 5000, 2, "99d8fcfb7d7b9fca7fbd66ab7ebe809bd585f48a9293f37e8396f647995eaf43", "df3a542a2d15798eecf333a61fd8b62949b0081e244abfb8efac2582e457f0ed"),
    (30, 5000, 3, "91073f8ee59cc970fb07b783fe245b84b3b94712a799f427e78bc7bffca3efef", "dd7ca6faf7a6cc2ca30e40a1853134efcd38dc89e88ddc45c62b1f355c488e48"),
    (30, 8, 1, "2adb5ac00e2aa037adf2e23479f0ca289e9665e390d8aced71fb6218e65f7b88", "5f5a22ff090778eea054d38a6ba700e393c34a27598c8ac0d0a191a7e78215f2"),
    (30, 8, 2, "fc1c2e5aac78e7d8c0a12780816c88aa6a996afcd692cdf7c6d80a7c7c96b9bd", "865e3b3ca7d293e100e74de02dd0634193b664dac32a9835b403ccbca87a6f0e"),
    (30, 8, 3, "1780ed610ca05fa2e4e9d3a0d9522a3be2d095fe6b0f2778f6f161138fa661ed", "3e863a906db1eec07ec60c142ba8669dc1a81208428e2eeb8e0fb4b39b5765fc"),
]


@pytest.mark.parametrize("n, c, seed, digest, events_digest", SOLVE_GOLDEN)
def test_uniform_solve_digest(n, c, seed, digest, events_digest):
    tel = Telemetry()
    res = solve(gen_random_hypothesis(n, c, seed), c=c, telemetry=tel)
    assert tel.phases() == ["direct_pair"] * (n - 1) + ["solved"]
    assert _sha(write_matching(res.matching)) == digest
    assert _sha(json.dumps(tel.events).encode()) == events_digest


@pytest.mark.parametrize("n, c, seed, digest, events_digest", SOLVE_GOLDEN)
def test_uniform_solve_digest_after_parse(n, c, seed, digest, events_digest):
    # the same solve on the written and parsed instance, whose relations
    # hold the parser's flat view rather than the generator's arrays
    tel = Telemetry()
    inst = parse_instance(write_instance(gen_random_hypothesis(n, c, seed)))
    res = solve(inst, c=c, telemetry=tel)
    assert _sha(write_matching(res.matching)) == digest
    assert _sha(json.dumps(tel.events).encode()) == events_digest


@pytest.mark.parametrize("make", [
    lambda: gen_random_hypothesis(30, 5000, 1),
    lambda: gen_random_hypothesis(30, 8, 7, 5),
    lambda: gen_planted_concentrated(100, 32, 1)[0],
    lambda: gen_planted_concentrated(30, 5000, 1)[0],
    lambda: gen_lower_bound_family(6),
], ids=["uniform", "uniform-slack", "planted", "planted-filler", "lower-bound"])
def test_written_instance_reads_back_to_the_same_bytes(make):
    data = write_instance(make())
    assert write_instance(parse_instance(data)) == data


def test_sweep_report_digest():
    cfg = ExperimentConfig(master_seed=1, ns=(30,), cs=(8, 32), trials=2)
    out = run_experiment(cfg)
    assert _sha(out.encode()) == "b03a9f51a696974f067993b626b89c37a1a3df51cadd26dd93917c9c0e7cbd67"


def test_mixed_greedy_and_extension_path():
    # Greedy pairs relation 1 as (2, 3), which leaves relation 2 no free
    # pair; extend_matching's exact fallback re-matches relations 0-2, and
    # greedy finishes relation 3.
    inst = Instance(10, [
        Partition([(0, 1, 2)]),
        Partition([(0, 1, 2, 3), (8, 9)]),
        Partition([(0, 2), (1, 3)]),
        Partition([(4, 5), (6, 7)]),
    ])
    tel = Telemetry()
    res = solve(inst, c=-100, n_min=1, telemetry=tel)
    assert tel.phases() == ["direct_pair", "exact_fallback", "direct_pair", "solved"]
    assert res.matching.pairs == ((0, 2), (8, 9), (1, 3), (4, 5))


def test_exact_solve_random_digest():
    # (outcome, nodes, matching) on seeded random small instances, each under
    # no budget, a budget that usually runs out and one that sometimes does
    rng = random.Random(20261018)
    lines = []
    for _ in range(300):
        inst = _random_small_instance(rng)
        for budget in (None, 3, 50):
            res = exact_solve(inst, budget=budget)
            pairs = None if res.matching is None else res.matching.pairs
            lines.append(repr((res.outcome, res.nodes, pairs)))
    assert _sha("\n".join(lines).encode()) == "7a6eb6cd728e7dc270b9dd95cc8c8ee6bda81a8401c366514ae2a7e72f41ac55"


def test_exact_solve_lower_bound_family_nodes():
    got = {}
    for n in range(2, 7):
        res = exact_solve(gen_lower_bound_family(n))
        assert res.outcome == "proven-none" and res.matching is None
        got[n] = res.nodes
    assert got == {2: 3, 3: 24, 4: 225, 5: 2712, 6: 40695}
    # a budget stops the search one node past it
    res = exact_solve(gen_lower_bound_family(5), budget=50)
    assert (res.outcome, res.nodes, res.matching) == ("budget", 51, None)


def test_search_unmatchable_witness():
    res = search_unmatchable(3, 8, 12, budget=2_000_000)
    assert res.nodes == 29_205
    assert not res.exhausted
    assert res.ground_size == 8
    assert [p.classes for p in res.witness.relations] == [
        ((0, 1), (2, 3), (4, 5), (6, 7)),
        ((0, 2), (1, 3), (4, 6), (5, 7)),
        ((0, 3), (1, 2), (4, 7), (5, 6)),
    ]


SEARCH_GRID = [
    # (n, kernel_target, max_ground, budget): a witness, two exhausted
    # searches, a budget spent exactly by the last cell (not exhausted),
    # two budgets spent mid-cell, and two with a single relation
    (3, 8, 8, 2_000_000),
    (2, 5, 7, 10**6),
    (2, 6, 7, 2 * 10**6),
    (2, 5, 7, 560),
    (2, 6, 12, 10**4),
    (3, 9, 10, 2 * 10**4),
    (1, 2, 4, 10**8),
    (1, 5, 7, 10**8),
]


def test_search_outcomes_digest():
    rows = []
    for n, target, max_ground, budget in SEARCH_GRID:
        res = search_unmatchable(n, target, max_ground, budget=budget)
        classes = None if res.witness is None else [
            [list(cl) for cl in p.classes] for p in res.witness.relations
        ]
        rows.append([classes, res.ground_size, res.nodes, res.exhausted])
    assert _sha(json.dumps(rows).encode()) == (
        "d06d7d469d78fcf3a732261861db010f096a5bae8d3323ade9ab804ff8fee028"
    )


def test_search_stops_before_an_unaffordable_cell():
    # grounds 7 to 10 cost 34,650 nodes; ground 11 is estimated at
    # C(11, 7) * 105 = 34,650 more, past the budget, so the search stops
    # there, and with no node spent on it
    res = search_unmatchable(2, 7, 12, budget=60_000)
    assert (res.witness, res.nodes, res.exhausted) == (None, 34_650, False)
