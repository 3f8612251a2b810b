"""Reference planted generator: ``gen_planted_concentrated`` as it was
before its relations became array-born.

It relabels every element of every class through a Python closure, relabels
the shared filler pool once per relation, and builds each relation from its
class tuples with ``Partition(classes)``.  The array-born generator must
give the same ground size, the same sub-matching and the same written
instance for every n, c and seed.
"""

from __future__ import annotations

import math
import random

from grinblat.core import Instance, Partition
from grinblat.gen import _deep_eligible, planted_capacity


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
