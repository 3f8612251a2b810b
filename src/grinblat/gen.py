"""Instance generators.

Three families: the classical lower-bound family, uniform hypothesis-regime
instances, and planted adversarial instances that steer the constructive
engine through its deep phases.  The uniform and planted generators build
every relation from arrays (``Partition._from_arrays``), canonicalised for
all relations in one sort, and cut no class tuple.

A hard feasibility fact shapes gen_planted_concentrated: if relation 1 has
no class with two elements outside B, then |K_1| <= 4(n-1).  The kernel
hypothesis demands ceil(16n/5) + c, so forcing the track is only possible
when c <= roughly 0.4n; beyond that capacity the generator pads kernels
with filler classes, which necessarily reintroduce direct pairs.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import TYPE_CHECKING

from .core import Instance, Partition

if TYPE_CHECKING:  # numpy is imported where it is used (see grinblat.core)
    import numpy as np


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
    import numpy as np

    bound = math.ceil(16 * n / 5) + c + slack
    ground = math.ceil(1.5 * (math.ceil(16 * n / 5) + c))
    ground = max(ground, bound + 2)
    rng = np.random.default_rng(seed)
    cuts, sizes = [], []
    for _ in range(n):
        elems = rng.permutation(ground)
        drawn = rng.integers(2, 4, size=bound // 2 + 1)
        # Classes of the drawn sizes are cut from the front of elems until
        # they cover bound elements.  Each class starts before bound and
        # has at most 3 elements, so it ends by bound + 2 <= ground and is
        # never clipped; the sizes sum to at least bound + 1, so the draw
        # never runs out.
        ends = np.cumsum(drawn)
        m = int(np.searchsorted(ends, bound)) + 1 if bound > 0 else 0
        cuts.append(elems[: ends[m - 1] if m else 0])
        sizes.append(drawn[:m])
        assert len(cuts[-1]) == sizes[-1].sum()
    return Instance(ground, _canon_relations(cuts, sizes, ground))


def _canon_relations(cuts: list[np.ndarray], sizes: list[np.ndarray], ground: int) -> list[Partition]:
    """Partitions whose classes are cut from the front of cuts[r] in the
    sizes sizes[r], for distinct elements below ground, canonicalised for
    all relations at once.  One sort on the key (r * ground + head) *
    ground + element, where head is the smallest element of the element's
    class, orders the relations, the classes of each by their heads, and
    the elements within each class."""
    import numpy as np

    if len(cuts) * ground * ground > np.iinfo(np.int64).max:
        raise ValueError("n * ground**2 exceeds the int64 sort key")
    counts = [len(s) for s in sizes]
    elems, sizes = np.concatenate(cuts), np.concatenate(sizes)
    heads = np.minimum.reduceat(elems, np.cumsum(sizes) - sizes)
    heads += np.repeat(np.arange(len(counts)) * ground, counts)
    key = np.sort(np.repeat(heads * ground, sizes) + elems)
    group = key // ground  # r * ground + head, the same along each class
    flat, starts = key - group * ground, np.flatnonzero(np.diff(group, prepend=-1))
    rels, at, first = [], 0, 0
    for m, cut in zip(counts, cuts):
        rels.append(Partition._from_arrays(flat[first : first + len(cut)], starts[at : at + m] - first))
        at, first = at + m, first + len(cut)
    return rels


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

    Every class is a pair.  The classes are built unlabelled, in a fixed
    order, then relabelled through one seeded ``random.Random(seed)``
    shuffle of the ground set with one numpy take per relation; the filler
    pool is relabelled once and appended to every relation's core.
    """
    if n < 10:
        raise ValueError("planted construction needs n >= 10")
    import numpy as np

    cap = planted_capacity(n)
    t = n // 5
    fresh = itertools.count().__next__  # the next unused unlabelled element

    # identity pairs for positions 2..n and cross elements for 2..t
    a = {p: fresh() for p in range(2, n + 1)}
    b = {p: fresh() for p in range(2, n + 1)}
    cc = {p: fresh() for p in range(2, t + 1)}
    d = {p: fresh() for p in range(2, t + 1)}

    # each relation's classes, all pairs, as one flat list of their elements
    rel: dict[int, list[int]] = {m: [] for m in range(1, n + 1)}

    # relation 1: track edges into C_2 plus one pump class per identity element
    rel[1] += a[2], cc[2], b[2], d[2]
    for j in range(3, n + 1):
        rel[1] += a[j], fresh(), b[j], fresh()

    # relations 2..t-1: own pair, track edges into C_{m+1}, right pumps, left pumps
    for m in range(2, t):
        pairs = rel[m]
        pairs += a[m], b[m], a[m + 1], cc[m + 1], b[m + 1], d[m + 1]
        for j in range(m + 2, n + 1):
            pairs += a[j], fresh(), b[j], fresh()
        for j in range(2, m):
            pairs += a[j], b[j]

    # relation t: own pair, right pumps, left pumps; no cross elements appear,
    # so every t-charge lands on an identity element's component
    pairs = rel[t]
    pairs += a[t], b[t]
    for j in range(t + 1, n + 1):
        pairs += a[j], fresh(), b[j], fresh()
    for j in range(2, t):
        pairs += a[j], b[j]

    # right-side relations: own pair, pumps to the other right components,
    # left pumps on identity pairs only
    for i in range(t + 1, n + 1):
        pairs = rel[i]
        pairs += a[i], b[i]
        for p in range(t + 1, n + 1):
            if p != i:
                pairs += a[p], fresh(), b[p], fresh()
        for j in range(2, t + 1):
            pairs += a[j], b[j]

    if c <= cap and not _deep_eligible(n, c):
        # plant a t-equivalent fresh pair: the pipeline finishes at the
        # t-charging win scan right after the track is complete
        rel[t] += fresh(), fresh()

    core = fresh()  # the core's elements are 0..core-1
    ground = core
    if c > cap:
        # shared filler pool of fresh pairs, elements core..ground-1, lifting
        # every kernel to the required bound
        deficit = math.ceil(16 * n / 5) + c - min(map(len, rel.values()))
        ground += (deficit + 1) // 2 * 2

    # seeded relabeling so different seeds give genuinely different instances
    relabel = list(range(ground))
    random.Random(seed).shuffle(relabel)
    perm = np.array(relabel)
    pool = perm[core:]  # the filler pool's labels, relabelled once
    cuts = [np.concatenate((perm[elems], pool)) for elems in rel.values()]
    twos = np.full(ground // 2, 2)  # every class is a pair
    sizes = [twos[: len(cut) // 2] for cut in cuts]
    sub = {p - 1: (relabel[a[p]], relabel[b[p]]) for p in range(2, n + 1)}
    return Instance(ground, _canon_relations(cuts, sizes, ground)), sub
