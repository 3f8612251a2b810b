"""Text formats for instances and matchings.

Instance files: a header line ``grinblat 1 <n> <ground_size>``, then for
each relation a line ``rel <i> <k>`` followed by k class lines of sorted
space-separated element indices.  UTF-8, LF, '#' starts a comment.
Matching files hold one line ``i a b`` per relation, sorted by i.
"""

from __future__ import annotations

from typing import Union

from .core import Instance, Matching, Partition
from .errors import ParseError

_HEADER = "grinblat 1"


def _lines(data: Union[bytes, str]) -> list[tuple[int, str]]:
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
    return [(no, line) for no, raw in enumerate(raws, start=1) if (line := raw.strip())]


def _ints(no: int, parts: list[str], what: str) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(no, f"non-integer {what}: {parts!r}") from None


def parse_instance(data: Union[bytes, str]) -> Instance:
    lines = _lines(data)
    if not lines:
        raise ParseError(0, "empty input")
    no, header = lines[0]
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
            raise ParseError(lines[-1][0], f"missing 'rel {i}' section")
        no, line = lines[idx]
        parts = line.split()
        if len(parts) != 3 or parts[0] != "rel":
            raise ParseError(no, f"expected 'rel {i} <k>', got {line!r}")
        ri, k = _ints(no, parts[1:], "rel field")
        if ri != i:
            raise ParseError(no, f"expected relation {i}, got {ri}")
        if k < 0:
            raise ParseError(no, "negative class count")
        idx += 1
        # one pass: convert, canonicalise and check the whole relation; on
        # any fault the line-by-line check names the first bad line
        rel = None
        if idx + k <= len(lines):
            try:
                rel = Partition(map(int, cl.split()) for _, cl in lines[idx : idx + k])
                rel.validate(ground)
            except ValueError:
                rel = None
        if rel is None:
            rel = Partition(_check_classes(lines, idx, k, i, ground))
        relations.append(rel)
        idx += k
    if idx != len(lines):
        raise ParseError(lines[idx][0], "trailing content after last relation")
    return Instance(ground, relations)


def _check_classes(
    lines: list[tuple[int, str]], idx: int, k: int, i: int, ground: int
) -> list[tuple[int, ...]]:
    """Relation i's k class lines from lines[idx], checked one line at a
    time; raises ParseError at the first bad line."""
    classes: list[tuple[int, ...]] = []
    seen: dict[int, int] = {}
    for at in range(idx, idx + k):
        if at >= len(lines):
            raise ParseError(lines[-1][0], f"missing class line in relation {i}")
        no, line = lines[at]
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
    out = [f"{_HEADER} {inst.n} {inst.ground_size}"]
    for i, rel in enumerate(inst.relations):
        out.append(f"rel {i} {len(rel.classes)}")
        for cl in rel.classes:
            out.append(" ".join(map(str, cl)))
    return ("\n".join(out) + "\n").encode("utf-8")


def parse_matching(data: Union[bytes, str]) -> Matching:
    lines = _lines(data)
    entries: dict[int, tuple[int, int]] = {}
    for no, line in lines:
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
