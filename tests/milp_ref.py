"""Independent rainbow-matching oracle: a 0/1 integer program solved by
``scipy.optimize.milp`` (HiGHS).

One binary per (relation, pair of equivalent elements); each relation takes
exactly one of its pairs and each element lies in at most one chosen pair.
It shares no code with ``exact_solve``, so a verdict both give rests on two
different algorithms.  scipy is a test dependency only; the package never
imports it.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from grinblat.core import Instance, Matching


def milp_matching(inst: Instance) -> Optional[Matching]:
    """A rainbow matching of inst, or None when the program is infeasible."""
    pairs: list[tuple[int, tuple[int, int]]] = []
    for j, p in enumerate(inst.relations):
        for cl in p.classes:
            pairs.extend((j, pr) for pr in itertools.combinations(cl, 2))
    if {j for j, _ in pairs} != set(range(inst.n)):
        return None  # some relation has no pair to take
    if not pairs:
        return Matching([])
    rows, cols = [], []
    for v, (j, (a, b)) in enumerate(pairs):
        # row j: relation j's pairs; row n + x: the pairs holding element x
        rows += [j, inst.n + a, inst.n + b]
        cols += [v, v, v]
    m = inst.n + inst.ground_size
    a = csr_array((np.ones(len(rows)), (rows, cols)), shape=(m, len(pairs)))
    lo = np.r_[np.ones(inst.n), np.zeros(inst.ground_size)]
    res = milp(
        np.zeros(len(pairs)),
        constraints=LinearConstraint(a, lo, np.ones(m)),
        integrality=np.ones(len(pairs)),
        bounds=Bounds(0, 1),
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"milp gave no verdict: {res.message}")
    chosen: list[Optional[tuple[int, int]]] = [None] * inst.n
    for v in np.flatnonzero(res.x > 0.5):
        j, pr = pairs[v]
        chosen[j] = pr
    return Matching(chosen)
