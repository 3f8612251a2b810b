"""State carried through one extension step of the constructive solver.

Positions vs. relations: the argument freely renames relation indices
("without loss of generality ..."), so we keep an explicit permutation.
Internal *positions* run 1..n; position 1 is the relation being added,
positions 2..n carry the components of the existing matching.  ``perm[p]``
is the index of the relation (in the instance) sitting at position p.

Besides its sets, the track state keeps two arrays over the ground set for
the array charging pass: each element's component position and whether it
is an identity element.  ``ChargeTables`` holds Scheme 3's charges as
arrays, one row per heavy index.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core import Instance, Partition, Record

if TYPE_CHECKING:
    import numpy as np


class Component(Record):
    """Identity pair (a, b), plus the cross pair (c, d) on left-side components."""

    _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: Optional[int] = None, d: Optional[int] = None):
        self.a, self.b, self.c, self.d = a, b, c, d

    @property
    def is_left(self) -> bool:
        return self.c is not None

    @property
    def elements(self) -> tuple[int, ...]:
        if self.is_left:
            return (self.a, self.b, self.c, self.d)
        return (self.a, self.b)

    @property
    def top(self) -> tuple[int, ...]:
        return (self.a, self.c) if self.is_left else (self.a,)

    @property
    def bottom(self) -> tuple[int, ...]:
        return (self.b, self.d) if self.is_left else (self.b,)


class TrackState:
    """Components, the index permutation, and the current track extent.

    Left-side positions are 2..extent; an extent of 1 means no track yet.

    The derived sets ``b_set``, ``bprime_set``, ``right_set``, the map
    ``component_of()`` and the arrays of ``position_arrays()`` are owned by
    the state and must not be mutated by callers.  B is fixed at
    construction; the others are built on first use and then kept current
    by ``swap_positions`` and ``grow_track``, the only two ways the state
    changes.  The updates rely on the state's elements being pairwise
    distinct.
    """

    def __init__(self, inst: Instance, perm: list[int], comps: dict[int, Component], extent: int = 1):
        self.inst = inst
        self.n = inst.n
        self.perm = perm  # perm[p] = relation index at position p; perm[0] unused
        self.comps = comps  # position -> Component, positions 2..n
        self.extent = extent
        self.t = inst.n // 5
        self.b_set: frozenset[int] = frozenset(
            e for p in range(2, self.n + 1) for e in (comps[p].a, comps[p].b)
        )
        self._bprime: Optional[set[int]] = None
        self._right: Optional[set[int]] = None
        self._comp_of: Optional[dict[int, int]] = None
        self._pos: Optional[np.ndarray] = None
        self._ident: Optional[np.ndarray] = None

    def relation_at(self, pos: int) -> Partition:
        return self.inst.relations[self.perm[pos]]

    @property
    def bprime_set(self) -> set[int]:
        if self._bprime is None:
            out = set(self.b_set)
            for p in self.left_positions():
                c = self.comps[p]
                out.add(c.c)
                out.add(c.d)
            self._bprime = out
        return self._bprime

    def right_positions(self) -> range:
        return range(self.extent + 1, self.n + 1)

    def left_positions(self) -> range:
        return range(2, self.extent + 1)

    @property
    def right_set(self) -> set[int]:
        if self._right is None:
            out: set[int] = set()
            for p in self.right_positions():
                c = self.comps[p]
                out.add(c.a)
                out.add(c.b)
            self._right = out
        return self._right

    def component_of(self) -> dict[int, int]:
        """Map each tracked element to its component's position."""
        if self._comp_of is None:
            out: dict[int, int] = {}
            for p in range(2, self.n + 1):
                for x in self.comps[p].elements:
                    out[x] = p
            self._comp_of = out
        return self._comp_of

    def position_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(pos, ident) over the ground set: the int32 position of each
        element's component (0 for an untracked element) and whether the
        element is an identity element, a member of B.  While cross pairs
        sit only on left components, as the solver keeps them, B' is
        pos > 0.  The arrays are sized from the instance on each use, so a state
        whose instance is replaced by one with a larger ground set gets
        them rebuilt."""
        import numpy as np  # where it is used: see grinblat.core's docstring

        if self._pos is None or len(self._pos) < self.inst.ground_size:
            comp_of = self.component_of()
            size = max(self.inst.ground_size, max(comp_of, default=-1) + 1)
            self._pos = np.zeros(size, np.int32)
            self._pos[np.fromiter(comp_of, np.intp, len(comp_of))] = list(comp_of.values())
            self._ident = np.zeros(size, bool)
            self._ident[np.fromiter(self.b_set, np.intp, len(self.b_set))] = True
        return self._pos, self._ident

    def swap_positions(self, p: int, q: int) -> None:
        """Exchange the components (and relation bindings) at two positions."""
        if p == q:
            return
        self.perm[p], self.perm[q] = self.perm[q], self.perm[p]
        cp, cq = self.comps[p], self.comps[q]
        self.comps[p], self.comps[q] = cq, cp
        if self._comp_of is not None:
            for x in cp.elements:
                self._comp_of[x] = q
            for x in cq.elements:
                self._comp_of[x] = p
        if self._pos is not None:
            for x in cp.elements:
                self._pos[x] = q
            for x in cq.elements:
                self._pos[x] = p
        if (p <= self.extent) != (q <= self.extent):
            # a swap across the track boundary (the solver makes none) drops
            # the two side-dependent sets; they are rebuilt on next use
            self._right = self._bprime = None

    def grow_track(self, pos: int, c: int, d: int) -> None:
        """Move the right-side component at ``pos`` to the end of the track
        and give it the cross pair (c, d)."""
        self.swap_positions(pos, self.extent + 1)
        self.extent += 1
        comp = self.comps[self.extent]
        comp.c, comp.d = c, d
        if self._comp_of is not None:
            self._comp_of[c] = self._comp_of[d] = self.extent
        if self._pos is not None:
            self._pos[c] = self._pos[d] = self.extent
        if self._right is not None:
            self._right.difference_update((comp.a, comp.b))
        if self._bprime is not None:
            self._bprime.update((c, d))

    def digest(self) -> str:
        """Short fingerprint for InternalLogicError payloads."""
        comps = ",".join(
            f"{p}:{self.comps[p].elements}" for p in sorted(self.comps)[:6]
        )
        return f"n={self.n} t={self.t} extent={self.extent} perm[:6]={self.perm[:6]} comps={comps}..."


class ChargeLedger(Record):
    """Per-component charge counts and sets from the 1-/t-charging pass.

    ``sigma`` and ``tau`` are indexed by position ([0..1] unused); ``S``
    and ``T`` map a position to the non-identity elements 1- and
    t-charged to it; ``one_partner`` and ``t_partner`` map a charged
    element to the identity element it is 1- or t-equivalent to.
    """

    _fields = ("n", "t", "sigma", "tau", "S", "T", "one_partner", "t_partner")

    def __init__(
        self,
        n: int,
        t: int,
        sigma: list[int],
        tau: list[int],
        S: dict[int, tuple[int, ...]],
        T: dict[int, tuple[int, ...]],
        one_partner: dict[int, int],
        t_partner: dict[int, int],
    ):
        self.n, self.t, self.sigma, self.tau = n, t, sigma, tau
        self.S, self.T, self.one_partner, self.t_partner = S, T, one_partner, t_partner

    def U(self, pos: int) -> tuple[int, ...]:
        s = self.S.get(pos, ())
        out = list(s)
        for x in self.T.get(pos, ()):
            if x not in out:
                out.append(x)
        return tuple(out)

    def charges(self, pos: int) -> int:
        return self.sigma[pos] + self.tau[pos]

    def heavy_left(self) -> list[int]:
        return [p for p in range(2, self.t + 1) if self.charges(p) >= 7]

    def heavy_right(self) -> list[int]:
        return [p for p in range(self.t + 1, self.n + 1) if self.charges(p) >= 7]


class ChargeTables:
    """Scheme 3's charges, one row per heavy index.

    ``counts[r, p]`` is how many charges the kernel of the relation at
    position ``heavy[r]`` gives position p.  Each row of ``outsiders`` is
    (row, position, element, identity partner) for an element charged from
    outside the direct set; the rows are sorted by row, then position, then
    the order the pass visits the elements in.  (A plain class, as the
    records are: see ``grinblat.core``.)
    """

    def __init__(self, heavy: tuple[int, ...], counts: np.ndarray, outsiders: np.ndarray):
        self.heavy, self.counts, self.outsiders = heavy, counts, outsiders


class LuckyData(Record):
    """Lucky component and witness sets of the final phase."""

    _fields = ("jstar", "hprime", "W", "hsecond")

    def __init__(
        self, jstar: int, hprime: tuple[int, ...], W: dict[int, tuple[int, int]], hsecond: tuple[int, ...] = ()
    ):
        self.jstar, self.hprime, self.W, self.hsecond = jstar, hprime, W, hsecond


class Telemetry(Record):
    """Structured step log emitted by one solve."""

    _fields = ("events",)

    def __init__(self, events: Optional[list[dict]] = None):
        self.events = [] if events is None else events

    def record(self, phase: str, **details) -> None:
        self.events.append({"phase": phase, **details})

    @property
    def phase_reached(self) -> str:
        return self.events[-1]["phase"] if self.events else "none"

    def phases(self) -> list[str]:
        return [e["phase"] for e in self.events]

    @property
    def win_branch(self) -> Optional[str]:
        for e in reversed(self.events):
            if "win" in e:
                return e["win"]
        return None
