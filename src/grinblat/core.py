"""Canonical data model: instances, kernels, matchings, verification.

Elements are dense integer indices 0..ground_size-1.  A partition stores
only its nontrivial classes (size >= 2); singletons are implicit.  Classes
are kept internally sorted, and the class list itself is sorted, so equal
partitions compare equal and serialize identically.  A ``Partition`` is
built from its classes or, by ``Partition._from_arrays``, from checked
CSR arrays; every other view is derived on first read and kept.

numpy is imported inside the functions that use arrays, never at module
level, here and in every other module of the package.  The exact oracle,
the witness search and the CLI's ``search`` and ``gen lower-bound`` touch
no array, and numpy's import is most of the package's start-up time and
memory; only the generators, the canonical reader/writer and the deep
step load it, at their first call.

The package's record classes are plain subclasses of ``Record`` and
``FrozenRecord`` below, not dataclasses: ``import dataclasses`` loads
``inspect``, and ``@dataclass`` compiles generated source for each class,
which together cost about a third of ``import grinblat`` when no bytecode
cache is written.  A record names its fields in ``_fields`` and writes its
own ``__init__``.  A frozen record's ``__init__`` sets each field with
``object.__setattr__``, as ``@dataclass(frozen=True)`` does: a shared helper
looping over ``_fields`` costs about 0.5 us more per record, and ``solve``
builds several.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np


def _canon_classes(classes: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(map(tuple, map(sorted, classes))))


@lru_cache(maxsize=64)
def _class_marks(size: int) -> bytes:
    """The marks of a class of size elements: 1 for its first, then 0s."""
    return b"\x01".ljust(size, b"\x00")[:size]


class FrozenRecordError(AttributeError):
    """A field of a frozen record was assigned or deleted."""


class Record:
    """Equality and ``repr`` over the fields named in ``_fields``, as
    ``@dataclass`` writes them: records of one class are equal when their
    field tuples are, and a record of another class compares as
    NotImplemented.  A mutable record is unhashable."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable record, hashed by its field tuple."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenRecordError(f"cannot delete field {name!r}")


class _view:
    """functools.cached_property without the lock CPython 3.11 takes on
    each first read, which the deep step makes for every relation."""

    def __init__(self, derive):
        self.derive, self.name = derive, derive.__name__

    def __get__(self, p, owner=None):
        if p is None:
            return self
        view = p.__dict__[self.name] = self.derive(p)
        return view


class Partition(FrozenRecord):
    """One equivalence relation, given by its nontrivial classes: the
    tuple ``classes`` of sorted tuples, in order of their first element.
    A partition is immutable.  ``arrays`` holds the CSR arrays (compressed
    sparse rows) it was built from, if any: the int64 elements in class
    order and the int64 offset where each class starts."""

    _fields = ("classes",)
    arrays: Optional[tuple[np.ndarray, np.ndarray]] = None

    def __init__(self, classes: Iterable[Iterable[int]]):
        object.__setattr__(self, "classes", _canon_classes(classes))

    @classmethod
    def _from_arrays(cls, elems: np.ndarray, starts: np.ndarray) -> "Partition":
        """The partition whose classes are elems cut at the offsets in
        starts, which the caller has checked to be canonical: every class
        ascending and of size >= 2, the classes in ascending order of their
        first element, no element negative or listed twice.  Builds no
        class tuple, and knows its kernel size from the array length."""
        p = cls.__new__(cls)
        object.__setattr__(p, "arrays", (elems, starts))
        object.__setattr__(p, "_kernel_size", len(elems))  # each element is listed once
        return p

    @_view
    def classes(self) -> tuple[tuple[int, ...], ...]:
        # read only on an array-born partition: __init__ sets the attribute
        flat, starts = self._flat, self.arrays[1].tolist()
        starts.append(len(flat))
        return tuple([flat[i:j] for i, j in itertools.pairwise(starts)])

    @_view
    def _flat(self) -> tuple[int, ...]:
        """The elements in class order, as one tuple."""
        if self.arrays is None:
            return tuple(itertools.chain.from_iterable(self.classes))
        return tuple(self.arrays[0].tolist())

    @_view
    def _marks(self) -> bytes:
        """One byte per element of the flat view: 1 where a class starts."""
        if self.arrays is not None:
            import numpy as np  # where it is used: see the module docstring

            elems, starts = self.arrays
            marks = np.zeros(len(elems), np.uint8)
            marks[starts] = 1
            return marks.tobytes()
        classes = self.classes
        sizes = set(map(len, classes))
        if len(sizes) == 1:  # all classes of one size, such as all pairs
            return _class_marks(sizes.pop()) * len(classes)
        return b"".join(map(_class_marks, map(len, classes)))

    @_view
    def _kernel(self) -> frozenset[int]:
        return frozenset(self._flat)

    @_view
    def _kernel_size(self) -> int:
        # set when an array-born partition is built
        return len(self._kernel)

    @_view
    def _span(self) -> Optional[tuple[int, int]]:
        """(min, max) element if the classes are disjoint and of size >= 2,
        else None."""
        if self.arrays is not None:  # checked when built
            elems = self.arrays[0]
            return (int(elems[0]), int(elems.max())) if len(elems) else (0, -1)
        classes, kern = self.classes, self._kernel
        # as many listed elements as distinct ones: none is listed twice
        if min(map(len, classes), default=2) >= 2 and len(self._flat) == len(kern):
            return (min(kern, default=0), max(kern, default=-1))
        return None

    @_view
    def _pair_masks(self) -> tuple[list[tuple[int, int]], dict[int, int]]:
        return pair_masks(self.classes)

    @_view
    def _index(self) -> dict[int, tuple[int, ...]]:
        """Each listed element's class."""
        return {x: cl for cl in self.classes for x in cl}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        if self.arrays is not None and other.arrays is not None:
            return all(len(a) == len(b) and (a == b).all() for a, b in zip(self.arrays, other.arrays))
        return self.classes == other.classes

    __hash__ = FrozenRecord.__hash__  # a class that defines __eq__ gets None otherwise

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

    def class_of(self, x: int) -> tuple[int, ...]:
        """The class containing x; implicit singleton if x is not listed."""
        return self._index.get(x, (x,))

    def equivalent(self, x: int, y: int) -> bool:
        return x == y or y in self.class_of(x)


def pair_masks(classes: Iterable[tuple[int, ...]]) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """Every pair of equivalent elements of the sorted classes, in sorted
    order, and for each listed element an int whose bit i is set when pair
    i holds it; a class of k elements gives each member a mask of k(k-1)/2
    bits.  ``Partition._pair_masks`` keeps this view of its classes."""
    pairs = []
    for cl in classes:
        pairs.extend(itertools.combinations(cl, 2))
    pairs.sort()
    masks: dict[int, int] = {}
    for i, (a, b) in enumerate(pairs):
        masks[a] = masks.get(a, 0) | 1 << i
        masks[b] = masks.get(b, 0) | 1 << i
    return pairs, masks


def kernel(p: Partition) -> frozenset[int]:
    """Elements equivalent to at least one element other than themselves."""
    return p._kernel


def kernel_size(p: Partition) -> int:
    """len(kernel(p)), which an array-born partition knows without
    building the kernel."""
    return p._kernel_size


class Instance(FrozenRecord):
    """Ground set size plus n partitions; the problem input."""

    _fields = ("ground_size", "relations")

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


class KernelInfo(FrozenRecord):
    """Per-relation kernel sets and their sizes."""

    _fields = ("kernels",)

    def __init__(self, kernels: tuple[frozenset[int], ...]):
        object.__setattr__(self, "kernels", kernels)

    @classmethod
    def of(cls, inst: Instance) -> "KernelInfo":
        return cls(tuple(kernel(p) for p in inst.relations))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(k) for k in self.kernels)


class Matching(FrozenRecord):
    """One ordered pair per relation; the certificate of success."""

    _fields = ("pairs",)

    def __init__(self, pairs: Iterable[Sequence[int]]):
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in pairs))


class VerifyReport(FrozenRecord):
    _fields = ("valid", "violation", "index")

    def __init__(self, valid: bool, violation: Optional[str] = None, index: Optional[int] = None):
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "violation", violation)
        object.__setattr__(self, "index", index)


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
    """b shares a's class (a != b), found in the flat view."""
    flat = p._flat
    if a > b:
        a, b = b, a
    try:
        i = flat.index(a)
        j = flat.index(b, i)  # a class ascends, so b can only follow a in it
    except ValueError:
        return False
    return 1 not in p._marks[i + 1 : j + 1]  # no class starts after a, up to b


def _split_class(cl: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Split a sorted class into blocks of size 2 or 3.

    Greedy blocks of 3 in sorted order; when len mod 3 == 1 the final four
    elements split as 2+2 so no block drops below size 2.
    """
    k = len(cl)
    blocks, i = [], 0
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
