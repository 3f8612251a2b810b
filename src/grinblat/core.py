"""Canonical data model: instances, kernels, matchings, verification.

Elements are dense integer indices 0..ground_size-1.  A partition stores
only its nontrivial classes (size >= 2); singletons are implicit.  Classes
are kept internally sorted, and the class list itself is sorted, so equal
partitions compare equal and serialize identically.  The generator's
partitions and those the parser reads in one pass hold CSR arrays instead
and build their class tuples only when ``classes`` is read (see
``CsrPartition``).  The parser's also keep a flat view, which
``min_kernel``, ``verify_matching`` and the greedy pass of ``solve`` read
in place of the tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np


def _canon_classes(classes: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(map(tuple, map(sorted, classes))))


class Partition:
    """One equivalence relation, given by its nontrivial classes: the
    tuple ``classes`` of sorted tuples, in order of their first element.
    A partition is immutable."""

    def __init__(self, classes: Iterable[Iterable[int]]):
        # object.__setattr__ keeps the attribute in the instance's inline
        # values; writing self.__dict__ here made exact_solve's runs 10%
        # slower in the benchmark's oracle workload
        object.__setattr__(self, "classes", _canon_classes(classes))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.classes == other.classes

    def __hash__(self) -> int:
        return hash((self.classes,))

    def __repr__(self) -> str:
        return f"Partition(classes={self.classes!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def _span(self) -> Optional[tuple[int, int]]:
        """(min, max) element if the classes are disjoint and of size >= 2,
        else None; cached on first use, like the kernel it is read from."""
        if "_span_cache" not in self.__dict__:
            classes, kern = self.classes, kernel(self)
            span = None
            # as many listed elements as distinct ones: none is listed twice
            if min(map(len, classes), default=2) >= 2 and sum(map(len, classes)) == len(kern):
                span = (min(kern, default=0), max(kern, default=-1))
            self.__dict__["_span_cache"] = span
        return self.__dict__["_span_cache"]

    def validate(self, ground_size: int) -> None:
        """Raise ValueError naming the first bad class or element; O(1)
        after the first call."""
        span = self._span
        if span is not None and 0 <= span[0] and span[1] < ground_size:
            return
        seen: set[int] = set()
        for cl in self.classes:
            if len(cl) < 2:
                raise ValueError(f"class {cl} has size < 2")
            if len(set(cl)) != len(cl):
                raise ValueError(f"class {cl} repeats an element")
            for x in cl:
                if not (0 <= x < ground_size):
                    raise ValueError(f"element {x} outside ground set of size {ground_size}")
                if x in seen:
                    raise ValueError(f"element {x} appears in two classes")
                seen.add(x)

    @property
    def _class_index(self) -> dict[int, tuple[int, ...]]:
        # cached on first use; safe, as the classes never change
        idx = self.__dict__.get("_class_index_cache")
        if idx is None:
            idx = {x: cl for cl in self.classes for x in cl}
            self.__dict__["_class_index_cache"] = idx
        return idx

    def class_of(self, x: int) -> tuple[int, ...]:
        """The class containing x; implicit singleton if x is not listed."""
        return self._class_index.get(x, (x,))

    def equivalent(self, x: int, y: int) -> bool:
        return x == y or y in self.class_of(x)


class CsrPartition(Partition):
    """A partition born from its canonical classes as CSR arrays
    (compressed sparse rows): ``elems``, the int64 elements in class
    order, and ``starts``, the int64 start offset of each class.  Every
    element is non-negative and every class non-empty, so that
    ``write_instance`` can format the arrays digit by digit.  The
    ``classes`` tuples are built from the arrays when first read, and
    two such partitions compare their arrays, not their tuples.

    Only this subclass has ``classes`` as a descriptor.  That makes each
    read of it slower (by half in CPython 3.11, where the read is no longer
    specialised); partitions of any other origin read a plain attribute."""

    def __init__(self, elems: np.ndarray, starts: np.ndarray):
        object.__setattr__(self, "elems", elems)
        object.__setattr__(self, "starts", starts)

    @classmethod
    def _from_checked(
        cls, elems: np.ndarray, starts: np.ndarray, marks: bytes, top: int
    ) -> "CsrPartition":
        """The partition of canonical classes the caller has checked to be
        disjoint and of size >= 2, with top their largest element, and
        marks holding 1 where elems starts a class, else 0.
        Caches the kernel size, the span and the flat view that
        ``direct_pair`` and ``_same_class`` read: the elements as one
        tuple, with marks.  Builds no class tuple and no kernel set."""
        p = cls(elems, starts)
        flat = tuple(elems.tolist())
        p.__dict__.update(_flat=(flat, marks), _kernel_size=len(flat), _span_cache=(flat[0], top))
        return p

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        view = self.__dict__.get("_flat")
        flat = tuple(self.elems.tolist()) if view is None else view[0]
        return _cut(flat, self.starts.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CsrPartition):
            return _same_array(self.elems, other.elems) and _same_array(self.starts, other.starts)
        return super().__eq__(other)

    __hash__ = Partition.__hash__


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return len(a) == len(b) and bool((a == b).all())


def kernel(p: Partition) -> frozenset[int]:
    """Elements equivalent to at least one element other than themselves."""
    cached = p.__dict__.get("_kernel_cache")
    if cached is None:
        cached = frozenset(itertools.chain.from_iterable(p.classes))
        p.__dict__["_kernel_cache"] = cached
    return cached


def kernel_size(p: Partition) -> int:
    """len(kernel(p)), read without building the kernel where the parser
    cached it."""
    size = p.__dict__.get("_kernel_size")
    return len(kernel(p)) if size is None else size


def _cut(flat: tuple[int, ...], starts: list[int]) -> tuple[tuple[int, ...], ...]:
    """flat cut into the classes that begin at the offsets in starts."""
    ends = starts[1:]
    ends.append(len(flat))
    return tuple([flat[i:j] for i, j in zip(starts, ends)])


@dataclass(frozen=True)
class Instance:
    """Ground set size plus n partitions; the problem input."""

    ground_size: int
    relations: tuple[Partition, ...]

    def __init__(self, ground_size: int, relations: Iterable[Partition]):
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "relations", tuple(relations))

    @property
    def n(self) -> int:
        return len(self.relations)

    def validate(self) -> None:
        if self.ground_size < 0:
            raise ValueError("negative ground size")
        for p in self.relations:
            p.validate(self.ground_size)


@dataclass(frozen=True)
class KernelInfo:
    """Per-relation kernel sets and their sizes."""

    kernels: tuple[frozenset[int], ...]

    @classmethod
    def of(cls, inst: Instance) -> "KernelInfo":
        return cls(tuple(kernel(p) for p in inst.relations))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(k) for k in self.kernels)


@dataclass(frozen=True)
class Matching:
    """One ordered pair per relation; the certificate of success."""

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs: Iterable[Sequence[int]]):
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in pairs))


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    violation: Optional[str] = None
    index: Optional[int] = None


def verify_matching(inst: Instance, m: Matching) -> VerifyReport:
    """Check distinctness first, then per-relation equivalence, in index order."""
    if len(m.pairs) != inst.n:
        return VerifyReport(False, "pair count differs from relation count", None)
    seen: dict[int, int] = {}
    for i, (a, b) in enumerate(m.pairs):
        if a == b:
            return VerifyReport(False, f"pair ({a}, {b}) is degenerate", i)
        for x in (a, b):
            if not (0 <= x < inst.ground_size):
                return VerifyReport(False, f"element {x} outside ground set", i)
            if x in seen:
                return VerifyReport(False, f"element {x} reused (first used by pair {seen[x]})", i)
            seen[x] = i
    for i, (a, b) in enumerate(m.pairs):
        if not _same_class(inst.relations[i], a, b):
            return VerifyReport(False, f"elements {a}, {b} not equivalent under relation {i}", i)
    return VerifyReport(True)


def _same_class(p: Partition, a: int, b: int) -> bool:
    """b shares a's class (a != b); scans the flat view of a parsed
    partition or else the classes, rather than build the element index
    for one pair, unless the index is already there."""
    view = p.__dict__.get("_flat")
    if view is not None:
        flat, marks = view
        if a > b:
            a, b = b, a
        try:
            i = flat.index(a)
            j = flat.index(b, i)  # a class ascends, so b can only follow a in it
        except ValueError:
            return False
        return 1 not in marks[i + 1 : j + 1]  # no class starts after a, up to b
    idx = p.__dict__.get("_class_index_cache")
    if idx is not None:
        return b in idx.get(a, ())
    for cl in p.classes:
        if a in cl:
            return b in cl
    return False


def _split_class(cl: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Split a sorted class into blocks of size 2 or 3.

    Greedy blocks of 3 in sorted order; when len mod 3 == 1 the final four
    elements split as 2+2 so no block drops below size 2.
    """
    k = len(cl)
    if k <= 3:
        return [cl]
    blocks = []
    i = 0
    while k - i > 4:
        blocks.append(cl[i : i + 3])
        i += 3
    if k - i == 4:
        blocks.append(cl[i : i + 2])
        blocks.append(cl[i + 2 : i + 4])
    else:  # 2 or 3 left
        blocks.append(cl[i:])
    return blocks


def normalize(inst: Instance) -> Instance:
    """Cut every class down to size 2 or 3 without shrinking any kernel.

    Every output class is a subset of an input class, so a rainbow matching
    of the output is one of the input.
    """
    rels = []
    for p in inst.relations:
        new_classes: list[tuple[int, ...]] = []
        for cl in p.classes:
            new_classes.extend(_split_class(cl))
        rels.append(Partition(new_classes))
    return Instance(inst.ground_size, rels)


def min_kernel(inst: Instance) -> int:
    if inst.n == 0:
        raise ValueError("min_kernel undefined for an instance with no relations")
    return min(map(kernel_size, inst.relations))
