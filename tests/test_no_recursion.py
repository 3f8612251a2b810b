"""Search depth must not depend on Python's recursion limit.

Each test runs with the recursion limit cut to the current stack depth plus
a small headroom, so any search that recurses once per relation fails with
RecursionError on these inputs.
"""

import contextlib
import sys

from grinblat import cli
from grinblat.construct import extend_matching
from grinblat.core import Instance, Partition, verify_matching
from grinblat.formats import parse_matching, write_instance
from grinblat.gen import gen_planted_concentrated
from grinblat.oracle import exact_solve, search_unmatchable

HEADROOM = 60


@contextlib.contextmanager
def shallow_recursion_limit():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + HEADROOM)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _disjoint_pairs(k: int) -> Instance:
    return Instance(2 * k, [Partition([(2 * i, 2 * i + 1)]) for i in range(k)])


def test_exact_solve_1500_disjoint_pairs():
    inst = _disjoint_pairs(1500)
    with shallow_recursion_limit():
        res = exact_solve(inst)
    assert res.outcome == "matched" and res.nodes == 1500
    assert verify_matching(inst, res.matching).valid


def test_cli_exact_1500_disjoint_pairs(tmp_path, capsys):
    inst = _disjoint_pairs(1500)
    path = tmp_path / "pairs.txt"
    path.write_bytes(write_instance(inst))
    with shallow_recursion_limit():
        code = cli.main(["exact", str(path)])
    assert code == 0
    m = parse_matching(capsys.readouterr().out)
    assert verify_matching(inst, m).valid


def test_search_unmatchable_1500_relations():
    # one candidate relation, {0, 1}, chosen for every relation
    with shallow_recursion_limit():
        res = search_unmatchable(1500, 2, 2)
    assert res.witness is not None and res.witness.n == 1500


def test_extend_matching_deep_planted():
    inst, sub = gen_planted_concentrated(100, 32, 1)
    with shallow_recursion_limit():
        m = extend_matching(inst, sub, new_rel=0, c=32)
    assert verify_matching(inst, m).valid
