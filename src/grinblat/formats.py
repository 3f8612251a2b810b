"""Text formats for instances and matchings.

Instance files: a header line ``grinblat 1 <n> <ground_size>``, then for
each relation a line ``rel <i> <k>`` followed by k class lines of
space-separated element indices.  UTF-8, LF, '#' starts a comment.
``write_instance`` emits the canonical form: each class sorted, classes in
order of their smallest element, one space between indices.  It formats
the digits of a relation that holds CSR arrays (see ``core.CsrPartition``)
in one vectorised pass, and joins any other relation's lines class by class.
``parse_instance`` accepts the classes and their elements in any order,
with any whitespace, and canonicalises them.  A relation whose class lines
are canonical and hold only ASCII digits and spaces (as ``write_instance``
emits them) is checked in one numpy pass and read as a ``CsrPartition``
that holds the checked arrays, its kernel size, its span and a flat view
of its elements, but no class tuple and no kernel set.  Any other relation
is read line by line into a tuple-born ``Partition``, so that the
``ParseError`` of a faulty one names its first bad line.
Matching files hold one line ``i a b`` per relation, sorted by i.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Optional, Union

import numpy as np

from .core import CsrPartition, Instance, Matching, Partition
from .errors import ParseError

_HEADER = "grinblat 1"


def _lines(data: Union[bytes, str]) -> tuple[list[int], list[str]]:
    """The 1-based numbers and the stripped text of the non-blank lines,
    comments removed, as two flat lists rather than a tuple per line."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            no = data.count(b"\n", 0, exc.start) + 1
            raise ParseError(no, f"invalid UTF-8 at byte {exc.start}") from None
    else:
        text = data
    raws = text.split("\n")
    if "#" in text:
        raws = [raw.split("#", 1)[0] for raw in raws]
    stripped = list(map(str.strip, raws))
    return list(compress(count(1), stripped)), list(filter(None, stripped))


def _ints(no: int, parts: list[str], what: str) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(no, f"non-integer {what}: {parts!r}") from None


def parse_instance(data: Union[bytes, str]) -> Instance:
    nos, lines = _lines(data)
    if not lines:
        raise ParseError(0, "empty input")
    no, header = nos[0], lines[0]
    parts = header.split()
    if len(parts) != 4 or " ".join(parts[:2]) != _HEADER:
        raise ParseError(no, f"bad header {header!r}, expected '{_HEADER} <n> <ground>'")
    n, ground = _ints(no, parts[2:], "header field")
    if n < 0 or ground < 0:
        raise ParseError(no, "negative count in header")
    idx = 1
    relations: list[Partition] = []
    for i in range(n):
        if idx >= len(lines):
            raise ParseError(nos[-1], f"missing 'rel {i}' section")
        no, line = nos[idx], lines[idx]
        parts = line.split()
        if len(parts) != 3 or parts[0] != "rel":
            raise ParseError(no, f"expected 'rel {i} <k>', got {line!r}")
        ri, k = _ints(no, parts[1:], "rel field")
        if ri != i:
            raise ParseError(no, f"expected relation {i}, got {ri}")
        if k < 0:
            raise ParseError(no, "negative class count")
        idx += 1
        relations.append(_read_relation(nos, lines, idx, k, i, ground))
        idx += k
    if idx != len(lines):
        raise ParseError(nos[idx], "trailing content after last relation")
    return Instance(ground, relations)


def _read_relation(
    nos: list[int], lines: list[str], idx: int, k: int, i: int, ground: int
) -> Partition:
    """Relation i from its k class lines at lines[idx:]: a canonical block
    in one numpy pass, and any other line by line, which names the first
    bad line.  Either way the relation is validated and its span cached."""
    block = lines[idx : idx + k]
    if len(block) == k:
        rel = _read_canonical("\n".join(block), ground)
        if rel is not None:
            return rel
    rel = Partition(_check_classes(nos, lines, idx, k, i, ground))
    rel.validate(ground)
    return rel


def _read_canonical(text: str, ground: int) -> Optional[CsrPartition]:
    """The relation whose class lines, joined by newlines, are text, if
    there is at least one and each holds only ASCII digits and spaces and
    is a canonical class: at least two elements, ascending, each below
    ground and none listed twice in the relation, with the classes in
    ascending order of their first element.  None on anything else."""
    if not text.isascii():
        return None
    # a newline before the first line and a space after the last, so that
    # each line follows a newline and each token has an edge on both sides
    buf = np.frombuffer(f"\n{text} ".encode("ascii"), np.uint8)
    digit = (buf - 48) < 10  # uint8 wraps, so only '0'..'9' pass
    newline = buf == 10
    if not (digit | newline | (buf == 32)).all():
        return None
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    starts, stops = edges[0::2], edges[1::2]
    firsts = np.searchsorted(starts, np.flatnonzero(newline))  # each line's first token
    sizes = np.diff(firsts, append=len(starts))
    # at most 18 digits, so that no value overflows int64
    if (sizes < 2).any() or (stops - starts).max() > 18:
        return None
    vals = np.fromstring(text, np.int64, sep=" ")
    rising = np.diff(vals) > 0
    rising[firsts[1:] - 1] = True  # a class may start below where the last one ended
    if not rising.all() or (np.diff(vals[firsts]) <= 0).any():
        return None
    order = np.sort(vals)  # neighbours here are equal where an element repeats
    if (order[1:] == order[:-1]).any() or order[-1] >= ground:
        return None
    marks = np.zeros(len(vals), np.uint8)
    marks[firsts] = 1
    return CsrPartition._from_checked(vals, firsts, marks.tobytes(), int(order[-1]))


def _check_classes(
    nos: list[int], lines: list[str], idx: int, k: int, i: int, ground: int
) -> list[tuple[int, ...]]:
    """Relation i's k class lines from lines[idx], checked one line at a
    time; raises ParseError at the first bad line."""
    classes: list[tuple[int, ...]] = []
    seen: dict[int, int] = {}
    for at in range(idx, idx + k):
        if at >= len(lines):
            raise ParseError(nos[-1], f"missing class line in relation {i}")
        no, line = nos[at], lines[at]
        elems = _ints(no, line.split(), "element")
        if len(elems) < 2:
            raise ParseError(no, f"class size {len(elems)} < 2")
        for e in elems:
            if not (0 <= e < ground):
                raise ParseError(no, f"element {e} outside ground set of size {ground}")
            if e in seen:
                where = "same class" if seen[e] == no else f"line {seen[e]}"
                raise ParseError(no, f"duplicate element {e} (also in {where})")
            seen[e] = no
        classes.append(tuple(elems))
    return classes


def write_instance(inst: Instance) -> bytes:
    out = [f"{_HEADER} {inst.n} {inst.ground_size}\n".encode()]
    for i, rel in enumerate(inst.relations):
        k, lines = _class_lines(rel)
        out.append(f"rel {i} {k}\n".encode())
        out.append(lines)
    return b"".join(out)


def _class_lines(rel: Partition) -> tuple[int, bytes]:
    """The number of rel's classes and their lines, each ended by a
    newline: formatted from the CSR arrays if rel holds them, else with
    one join per class."""
    if isinstance(rel, CsrPartition):
        return len(rel.starts), _digit_lines(rel.elems, rel.starts)
    classes = rel.classes
    return len(classes), "".join(" ".join(map(str, cl)) + "\n" for cl in classes).encode()


def _digit_lines(elems: np.ndarray, starts: np.ndarray) -> bytes:
    """The class lines of non-empty classes of non-negative elements, in
    one vectorised pass.  Row j of cells holds every element's digit of
    place value 10**(top - 1 - j), and row top its separator: a space, or
    a newline where its class ends.  Read column by column, the cells that
    keep marks are the lines: keep drops each element's leading zeros."""
    if not len(elems):
        return b""
    top = len(str(int(elems.max())))
    cells = np.empty((top + 1, len(elems)), np.uint8)
    keep = np.ones((top + 1, len(elems)), bool)
    cells[top] = 32
    cells[top, np.append(starts[1:], len(elems)) - 1] = 10
    rest = elems
    for j in range(top - 1, -1, -1):
        if j < top - 1:
            np.greater(rest, 0, out=keep[j])
        higher = rest // 10
        cells[j] = rest - 10 * higher + 48
        rest = higher
    return cells.T[keep.T].tobytes()


def parse_matching(data: Union[bytes, str]) -> Matching:
    entries: dict[int, tuple[int, int]] = {}
    for no, line in zip(*_lines(data)):
        parts = _ints(no, line.split(), "matching field")
        if len(parts) != 3:
            raise ParseError(no, f"expected 'i a b', got {line!r}")
        i, a, b = parts
        if i in entries:
            raise ParseError(no, f"relation {i} listed twice")
        entries[i] = (a, b)
    if sorted(entries) != list(range(len(entries))):
        raise ParseError(0, "relation indices are not 0..n-1")
    return Matching([entries[i] for i in range(len(entries))])


def write_matching(m: Matching) -> bytes:
    out = [f"{i} {a} {b}" for i, (a, b) in enumerate(m.pairs)]
    return ("\n".join(out) + "\n").encode("utf-8") if out else b""
