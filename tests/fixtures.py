"""Hand-built track states exercising the deep lemma engines.

``gen_fixture_ledger`` materialises a ``FixtureSpec``: a full track plus
hand-given extra classes, charged by the real 1-/t-charging pass.  Each
state function below returns (state, ledger) plus whatever bookkeeping the test
needs.  All use n=30 (t=6): left positions 2..6, right positions 7..30.

Conventions: a component j becomes heavy by giving relation 1 the classes
{a_j, x}, {b_j, y} (sigma 4) and relation t either two fresh partners
(right side) or two intra-component pairs (left side; anything else would
hand the t-charging scan an immediate win).  Component 2 already has
sigma 4 from the base track classes {a_2, c_2}, {b_2, d_2}, so it is
never pumped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

from grinblat.construct.charging import charge_scheme_2
from grinblat.construct.state import ChargeLedger, Component, TrackState
from grinblat.core import Instance, Partition

N = 30  # t = 6


class InfeasibleFixture(Exception):
    """A requested fixture pattern contradicts a ledger invariant."""


ElementRef = Union[tuple[str, int], tuple[str, str]]


@dataclass(frozen=True)
class FixtureSpec:
    """Recipe for a synthetic track state: per-position extra classes given
    as symbolic references ("a", pos), ("b", pos), ("c", pos), ("d", pos),
    or named fresh elements ("x", name)."""

    n: int
    extra: dict[int, Sequence[Sequence[ElementRef]]] = field(default_factory=dict)
    sigma_target: dict[int, int] = field(default_factory=dict)
    tau_target: dict[int, int] = field(default_factory=dict)


def gen_fixture_ledger(spec: FixtureSpec) -> tuple[TrackState, ChargeLedger]:
    """Materialize a track state realizing the fixture and charge it.

    The base carries identity pairs for positions 2..n and a full track
    (cross pairs for 2..t); the fixture's extra classes are merged in, the
    1-/t-charging pass runs for real, and declared charge targets are
    checked against the result.
    """
    n = spec.n
    t = n // 5
    if t < 2:
        raise InfeasibleFixture(f"n={n} gives track parameter t={t} < 2")
    for pos, target in list(spec.sigma_target.items()) + list(spec.tau_target.items()):
        if target > 4:
            raise InfeasibleFixture(f"declared charge count {target} at {pos} exceeds 4")
    counter = 0

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter - 1

    a = {p: fresh() for p in range(2, n + 1)}
    b = {p: fresh() for p in range(2, n + 1)}
    cc = {p: fresh() for p in range(2, t + 1)}
    d = {p: fresh() for p in range(2, t + 1)}
    named: dict[str, int] = {}

    def resolve(ref: ElementRef) -> int:
        kind, key = ref
        if kind == "a":
            return a[key]
        if kind == "b":
            return b[key]
        if kind == "c":
            return cc[key]
        if kind == "d":
            return d[key]
        if kind == "x":
            if key not in named:
                named[key] = fresh()
            return named[key]
        raise InfeasibleFixture(f"unknown element reference {ref}")

    rel_classes: dict[int, list[tuple[int, ...]]] = {m: [] for m in range(1, n + 1)}
    rel_classes[1].extend([(a[2], cc[2]), (b[2], d[2])])
    for m in range(2, t):
        rel_classes[m].extend([(a[m], b[m]), (a[m + 1], cc[m + 1]), (b[m + 1], d[m + 1])])
    for m in range(t, n + 1):
        rel_classes[m].append((a[m], b[m]))
    for pos, classes in spec.extra.items():
        for cls in classes:
            rel_classes[pos].append(tuple(resolve(ref) for ref in cls))

    # merge classes sharing elements (extras may extend base classes)
    rels = []
    for m in range(1, n + 1):
        rels.append(Partition(_merge_classes(rel_classes[m])))
    inst = Instance(counter, rels)
    inst.validate()

    comps = {}
    for p in range(2, n + 1):
        if p <= t:
            comps[p] = Component(a=a[p], b=b[p], c=cc[p], d=d[p])
        else:
            comps[p] = Component(a=a[p], b=b[p])
    state = TrackState(inst, list(range(-1, n)), comps, extent=t)

    kind, payload = charge_scheme_2(state)
    if kind == "win":
        raise InfeasibleFixture("fixture admits an immediate t-charging win")
    ledger = payload
    for pos, target in spec.sigma_target.items():
        if ledger.sigma[pos] != target:
            raise InfeasibleFixture(
                f"position {pos}: sigma {ledger.sigma[pos]} != declared {target}"
            )
    for pos, target in spec.tau_target.items():
        if ledger.tau[pos] != target:
            raise InfeasibleFixture(
                f"position {pos}: tau {ledger.tau[pos]} != declared {target}"
            )
    return state, ledger


def _merge_classes(classes: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cl in classes:
        for e in cl[1:]:
            parent[find(e)] = find(cl[0])
    groups: dict[int, set[int]] = {}
    for cl in classes:
        for e in cl:
            groups.setdefault(find(e), set()).add(e)
    return [tuple(sorted(g)) for g in groups.values()]


# ------------------------------------------------ hand-built states



def _pump_sigma(extra: dict, j: int, tag: str) -> None:
    """sigma_j = 4 via two fresh 1-partners (only for j >= 3)."""
    extra.setdefault(1, []).extend(
        [[("a", j), ("x", f"s{tag}")], [("b", j), ("x", f"ss{tag}")]]
    )


def _heavy_left_cd(extra: dict, j: int) -> None:
    """tau_j = 4 via the special cross pair plus the identity pair."""
    extra.setdefault(6, []).extend([[("c", j), ("d", j)], [("a", j), ("b", j)]])


def _heavy_left_crossed(extra: dict, j: int) -> None:
    """tau_j = 4 via the two crossed intra-component pairs (a,d) and (b,c).

    Not usable for j = t: the identity pair {a_t, b_t} is itself a class of
    relation t, so a crossed class would merge with it and hand the win scan
    a same-part pair.  Component t gets the cd pump instead (its identity
    class already contributes tau 2).
    """
    extra.setdefault(6, []).extend([[("a", j), ("d", j)], [("b", j), ("c", j)]])


def _heavy_left_cd_only(extra: dict, j: int) -> None:
    """tau_j += 2 via the special cross pair alone (for j = t)."""
    extra.setdefault(6, []).append([("c", j), ("d", j)])


def _five_heavy_base(extra: dict) -> None:
    for j in range(3, 7):
        _pump_sigma(extra, j, str(j))


def five_heavy_case1():
    """C_{i_2} = C_3 carries c' ~t d'; the 1-pair comes from a later component."""
    extra: dict = {}
    _five_heavy_base(extra)
    for j in range(2, 6):
        if j == 3:
            _heavy_left_cd(extra, j)
        else:
            _heavy_left_crossed(extra, j)
    _heavy_left_cd_only(extra, 6)
    return gen_fixture_ledger(FixtureSpec(n=N, extra=extra))


def five_heavy_case2a():
    """C_3 has a' ~t d' and a fresh 1-partner for b'."""
    extra: dict = {}
    _five_heavy_base(extra)
    for j in range(2, 6):
        _heavy_left_crossed(extra, j)
    _heavy_left_cd_only(extra, 6)
    return gen_fixture_ledger(FixtureSpec(n=N, extra=extra))


def five_heavy_case2b():
    """C_3 has a' ~t d' and d' ~1 b', so the win reroutes through C_2's t-pair."""
    extra: dict = {
        1: [[("a", 3), ("x", "s3")], [("b", 3), ("d", 3)]],
    }
    for j in range(4, 7):
        _pump_sigma(extra, j, str(j))
    for j in range(2, 6):
        _heavy_left_crossed(extra, j)
    _heavy_left_cd_only(extra, 6)
    return gen_fixture_ledger(FixtureSpec(n=N, extra=extra))


def heavy_right(extra: dict, i: int, tag: str) -> None:
    """Make right position i heavy: sigma 4 (fresh S) and tau 4 (fresh T)."""
    extra.setdefault(1, []).extend(
        [[("a", i), ("x", f"s{tag}")], [("b", i), ("x", f"ss{tag}")]]
    )
    extra.setdefault(6, []).extend(
        [[("a", i), ("x", f"t{tag}")], [("b", i), ("x", f"tt{tag}")]]
    )


def pair_elements_disjoint():
    """S_8 = {p}, T_9 = {s}: the direct disjoint heavy-pair case."""
    extra: dict = {
        1: [[("a", 8), ("x", "p")]],
        6: [[("a", 9), ("x", "s")]],
    }
    return gen_fixture_ledger(FixtureSpec(n=N, extra=extra))


def pair_elements_crossing():
    """Component 8 crossed (a ~1 u, b ~1 v, a ~t v, b ~t u), so a single
    component cannot supply the four elements; component 9 escapes."""
    extra: dict = {
        1: [
            [("a", 8), ("x", "u")],
            [("b", 8), ("x", "v")],
            [("a", 9), ("x", "p")],
        ],
        6: [
            [("a", 8), ("x", "v")],
            [("b", 8), ("x", "u")],
            [("a", 9), ("x", "s")],
        ],
    }
    return gen_fixture_ledger(FixtureSpec(n=N, extra=extra))


def pair_elements_redraw():
    """q sits in S_8 and T_8 at once; component 9 supplies the other side."""
    extra: dict = {
        1: [[("a", 8), ("x", "q")], [("a", 9), ("x", "p")]],
        6: [[("b", 8), ("x", "q")], [("a", 9), ("x", "s")]],
    }
    state, ledger = gen_fixture_ledger(FixtureSpec(n=N, extra=extra))
    q = ledger.S[8][0]
    s = ledger.T[9][0]
    return state, ledger, q, s


def scheme3_win_fresh_pair():
    """Heavy right 8 whose relation has a class fully outside B and S_8."""
    extra: dict = {}
    heavy_right(extra, 8, "h8")
    extra[8] = [[("x", "w1"), ("x", "w2")]]
    return gen_fixture_ledger(FixtureSpec(n=N, extra=extra))


def scheme3_win_untainted_left():
    """Heavy right 8, untainted left C_2, a_2 ~8 fresh z."""
    extra: dict = {}
    heavy_right(extra, 8, "h8")
    extra[8] = [[("a", 2), ("x", "z")]]
    return gen_fixture_ledger(FixtureSpec(n=N, extra=extra))


def conflict_triple(jstar: int = 10):
    """H' = (7, 8, 9) with 7 and 8 conflicting (crossed shared witness set).

    Returns (state, ledger, W) where W maps each index to its witness pair.
    """
    extra: dict = {
        7: [[("a", jstar), ("x", "wy")], [("b", jstar), ("x", "wz")]],
        8: [[("a", jstar), ("x", "wz")], [("b", jstar), ("x", "wy")]],
        9: [[("a", jstar), ("x", "wu")], [("b", jstar), ("x", "wv")]],
    }
    state, ledger = gen_fixture_ledger(FixtureSpec(n=N, extra=extra))
    W = {k: _witness_pair(state, jstar, k) for k in (7, 8, 9)}
    return state, ledger, W


def _witness_pair(state, jstar: int, k: int) -> tuple[int, int]:
    comp = state.comps[jstar]
    rel = state.relation_at(k)
    return tuple(
        next(e for e in rel.class_of(v) if e != v) for v in (comp.a, comp.b)
    )


def jstar_unlucky(jstar: int = 10, k1: int = 11, k2: int = 12):
    """Final-win fixture whose first heavy-pair draw eats the cross pair of C_6.

    Relation jstar offers (a_5, b_5); consuming that pair pushes position 5
    onto the cross pair of C_6, so a draw eating both c_6 and d_6 cannot be
    completed.  The constrained redraw keeps d_6 alive via component k2.
    """
    extra: dict = {
        1: [[("a", k1), ("c", 6)], [("a", k2), ("x", "g")]],
        6: [[("b", k1), ("d", 6)], [("a", k2), ("x", "h")]],
        k1: [[("a", jstar), ("x", "w1")], [("b", jstar), ("x", "w2")]],
        k2: [[("a", jstar), ("x", "w3")], [("b", jstar), ("x", "w4")]],
        jstar: [[("a", 5), ("b", 5)]],
    }
    state, ledger = gen_fixture_ledger(FixtureSpec(n=N, extra=extra))
    W = {k: _witness_pair(state, jstar, k) for k in (k1, k2)}
    return state, ledger, W


def jstar_split(jstar: int = 10):
    """Final-win fixture in the two-left-components case; k = 9 is the only
    index of H'' = (7, 8, 9) whose T set avoids the freed d elements."""
    extra: dict = {
        1: [[("a", 9), ("x", "p")]],
        6: [
            [("a", 7), ("d", 4)],
            [("a", 8), ("d", 5)],
            [("b", 9), ("x", "s")],
        ],
        7: [[("a", jstar), ("x", "w71")], [("b", jstar), ("x", "w72")]],
        8: [[("a", jstar), ("x", "w81")], [("b", jstar), ("x", "w82")]],
        9: [[("a", jstar), ("x", "w91")], [("b", jstar), ("x", "w92")]],
        jstar: [[("a", 4), ("a", 5)]],
    }
    state, ledger = gen_fixture_ledger(FixtureSpec(n=N, extra=extra))
    W = {k: _witness_pair(state, jstar, k) for k in (7, 8, 9)}
    return state, ledger, W
