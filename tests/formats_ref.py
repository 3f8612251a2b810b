"""Reference instance parser: ``parse_instance`` as it was before it
walked canonical text relation by relation.

It splits the whole text into its stripped, numbered lines, then joins
each relation's block back together and tries the one-pass canonical
reader on it, reading the block line by line where that fails.  The
package's parser must give an equal instance (equal classes, arrays, flat
views and marks) or the same ``ParseError`` on every input.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Optional, Union

import numpy as np

from grinblat.core import Instance, Partition
from grinblat.errors import ParseError

_HEADER = "grinblat 1"


def _lines(data: Union[bytes, str]) -> tuple[list[int], list[str]]:
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
    block = lines[idx : idx + k]
    if len(block) == k:
        rel = _read_canonical("\n".join(block), ground)
        if rel is not None:
            return rel
    rel = Partition(_check_classes(nos, lines, idx, k, i, ground))
    rel.validate(ground)
    return rel


def _read_canonical(text: str, ground: int) -> Optional[Partition]:
    if not text.isascii():
        return None
    buf = np.frombuffer(f"\n{text} ".encode("ascii"), np.uint8)
    digit = (buf - 48) < 10
    newline = buf == 10
    if not (digit | newline | (buf == 32)).all():
        return None
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    starts, stops = edges[0::2], edges[1::2]
    firsts = np.searchsorted(starts, np.flatnonzero(newline))
    sizes = np.diff(firsts, append=len(starts))
    if (sizes < 2).any() or (stops - starts).max() > 18:
        return None
    vals = np.fromstring(text, np.int64, sep=" ")
    rising = np.diff(vals) > 0
    rising[firsts[1:] - 1] = True
    if not rising.all() or (np.diff(vals[firsts]) <= 0).any():
        return None
    order = np.sort(vals)
    if (order[1:] == order[:-1]).any() or order[-1] >= ground:
        return None
    rel = Partition._from_arrays(vals, firsts)
    rel._flat, rel._marks
    return rel


def _check_classes(
    nos: list[int], lines: list[str], idx: int, k: int, i: int, ground: int
) -> list[tuple[int, ...]]:
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
