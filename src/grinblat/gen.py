"""Instance generators.

Three families: the classical lower-bound family, uniform hypothesis-regime
instances, and planted adversarial instances that steer the constructive
engine through its deep phases.  gen_fixture_ledger additionally builds
tiny hand-specified track states for unit-testing the lemma engines.

A hard feasibility fact shapes gen_planted_concentrated: if relation 1 has
no class with two elements outside B, then |K_1| <= 4(n-1).  The kernel
hypothesis demands ceil(16n/5) + c, so forcing the track is only possible
when c <= roughly 0.4n; beyond that capacity the generator pads kernels
with filler classes, which necessarily reintroduce direct pairs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np
from typing import Optional, Sequence, Union

from .construct.charging import charge_scheme_2
from .construct.state import ChargeLedger, Component, TrackState
from .core import Instance, Partition
from .errors import InfeasibleFixture


def gen_lower_bound_family(n: int) -> Instance:
    """n identical relations over n-1 shared triples; kernels 3n-3, no matching."""
    if n < 2:
        raise ValueError("family needs n >= 2")
    classes = [(3 * j, 3 * j + 1, 3 * j + 2) for j in range(n - 1)]
    rel = Partition(classes)
    return Instance(3 * (n - 1), [rel] * n)


def gen_random_hypothesis(n: int, c: int, seed: int, slack: int = 0) -> Instance:
    """Uniform instances with every kernel at least ceil(16n/5) + c + slack."""
    if n < 1:
        raise ValueError("n must be positive")
    bound = math.ceil(16 * n / 5) + c + slack
    ground = math.ceil(1.5 * (math.ceil(16 * n / 5) + c))
    ground = max(ground, bound + 2)
    rng = np.random.default_rng(seed)
    rels = []
    for _ in range(n):
        elems = rng.permutation(ground).tolist()
        sizes = rng.integers(2, 4, size=bound // 2 + 1)
        # Classes of the drawn sizes are cut from the front of elems until
        # they cover bound elements.  Each class starts before bound and
        # has at most 3 elements, so it ends by bound + 2 <= ground and is
        # never clipped; the sizes sum to at least bound + 1, so the draw
        # never runs out.
        ends = np.cumsum(sizes)
        m = int(np.searchsorted(ends, bound)) + 1 if bound > 0 else 0
        cuts = [0, *ends[:m].tolist()]
        assert cuts[-1] <= ground
        rels.append(Partition(map(elems.__getitem__, map(slice, cuts, cuts[1:]))))
    return Instance(ground, rels)


def planted_capacity(n: int) -> int:
    """Largest c the track-forcing construction supports at this n.

    The binding constraint is the kernel of a right-side relation:
    2 own + 4 per other right component + 2 per left component.
    """
    t = n // 5
    return (4 * n - 2 * t - 4) - math.ceil(16 * n / 5)


def _deep_eligible(n: int, c: int) -> bool:
    # c divisible by 16 keeps the exclusion-set bound exact; c >= 32 makes
    # the thinned witness index set large enough for a compatible pair
    return c <= planted_capacity(n) and c >= 32 and c % 16 == 0


def gen_planted_concentrated(
    n: int, c: int, seed: int
) -> tuple[Instance, dict[int, tuple[int, int]]]:
    """Planted sub-matching for relations 1..n-1 plus a relation 0 whose
    kernel classes all meet B, so the extension step must build its track.

    Within capacity the instance runs the pipeline deep: with c a multiple
    of 16 (at least 32) all the way to the lucky-component win, otherwise to
    a planted t-charging win after the full track.  Above capacity the core
    is padded with shared filler classes to honor the kernel bound; the
    filler gives relation 0 a direct pair, which is unavoidable there.
    """
    if n < 10:
        raise ValueError("planted construction needs n >= 10")
    cap = planted_capacity(n)
    t = n // 5
    counter = 0

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter - 1

    # identity pairs for positions 2..n and cross elements for 2..t
    a = {p: fresh() for p in range(2, n + 1)}
    b = {p: fresh() for p in range(2, n + 1)}
    cc = {p: fresh() for p in range(2, t + 1)}
    d = {p: fresh() for p in range(2, t + 1)}

    rel_classes: dict[int, list[tuple[int, ...]]] = {m: [] for m in range(1, n + 1)}

    # relation 1: track edges into C_2 plus one pump class per identity element
    rel_classes[1].append((a[2], cc[2]))
    rel_classes[1].append((b[2], d[2]))
    for j in range(3, n + 1):
        rel_classes[1].append((a[j], fresh()))
        rel_classes[1].append((b[j], fresh()))

    # relations 2..t-1: own pair, track edges into C_{m+1}, right pumps, left pumps
    for m in range(2, t):
        cls = rel_classes[m]
        cls.append((a[m], b[m]))
        cls.append((a[m + 1], cc[m + 1]))
        cls.append((b[m + 1], d[m + 1]))
        for j in range(m + 2, n + 1):
            cls.append((a[j], fresh()))
            cls.append((b[j], fresh()))
        for j in range(2, m):
            cls.append((a[j], b[j]))

    # relation t: own pair, right pumps, left pumps; no cross elements appear,
    # so every t-charge lands on an identity element's component
    cls = rel_classes[t]
    cls.append((a[t], b[t]))
    for j in range(t + 1, n + 1):
        cls.append((a[j], fresh()))
        cls.append((b[j], fresh()))
    for j in range(2, t):
        cls.append((a[j], b[j]))

    # right-side relations: own pair, pumps to the other right components,
    # left pumps on identity pairs only
    for i in range(t + 1, n + 1):
        cls = rel_classes[i]
        cls.append((a[i], b[i]))
        for p in range(t + 1, n + 1):
            if p != i:
                cls.append((a[p], fresh()))
                cls.append((b[p], fresh()))
        for j in range(2, t + 1):
            cls.append((a[j], b[j]))

    if c <= cap and not _deep_eligible(n, c):
        # plant a t-equivalent fresh pair: the pipeline finishes at the
        # t-charging win scan right after the track is complete
        rel_classes[t].append((fresh(), fresh()))

    if c > cap:
        # shared filler pool lifting every kernel to the required bound
        bound = math.ceil(16 * n / 5) + c
        deficit = max(
            bound - sum(len(cl) for cl in rel_classes[m]) for m in range(1, n + 1)
        )
        pool = [(fresh(), fresh()) for _ in range((deficit + 1) // 2)]
        for m in range(1, n + 1):
            rel_classes[m].extend(pool)

    ground = counter
    # seeded relabeling so different seeds give genuinely different instances
    rng = random.Random(seed)
    relabel = list(range(ground))
    rng.shuffle(relabel)

    def rl(x: int) -> int:
        return relabel[x]

    rels = [
        Partition([tuple(rl(e) for e in cl) for cl in rel_classes[m]])
        for m in range(1, n + 1)
    ]
    inst = Instance(ground, rels)
    sub = {p - 1: (rl(a[p]), rl(b[p])) for p in range(2, n + 1)}
    return inst, sub


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
            comps[p] = Component(pos=p, a=a[p], b=b[p], c=cc[p], d=d[p])
        else:
            comps[p] = Component(pos=p, a=a[p], b=b[p])
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

