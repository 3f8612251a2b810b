"""Text formats for instances and matchings.

Instance files: a header line ``grinblat 1 <n> <ground_size>``, then for
each relation a line ``rel <i> <k>`` followed by k class lines of
space-separated element indices.  UTF-8, LF, '#' starts a comment.
``write_instance`` emits the canonical form: each class sorted, classes in
order of their smallest element, one space between indices.  It formats
the digits of a relation that holds CSR arrays (see ``core.Partition``)
in one vectorised pass, and joins any other relation's lines class by class.
``parse_instance`` accepts the classes and their elements in any order,
with any whitespace, and canonicalises them.  A text in write_instance's
form is walked relation by relation, without splitting it into lines: each
relation's block of class lines is one slice of the text, checked in one
numpy pass (canonical classes of ASCII digits and spaces, exactly k lines)
and read as a ``Partition`` that holds the checked arrays and the flat view
of its elements, but no class tuple and no kernel set.  Any other text
(comments, CR, tabs, blank lines, a non-canonical header or block, trailing
content) is read line by line: each relation takes the one-pass reader if
its joined lines pass it, else is read into a ``Partition`` of its classes,
so that the ``ParseError`` of a faulty text names its first bad line.
Matching files hold one line ``i a b`` per relation, sorted by i.
"""

from __future__ import annotations

from itertools import compress, count
from typing import TYPE_CHECKING, Optional, Union

from .core import Instance, Matching, Partition
from .errors import ParseError

if TYPE_CHECKING:  # numpy is imported where it is used (see grinblat.core)
    import numpy as np

_HEADER = "grinblat 1"


def _text(data: Union[bytes, str]) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(no, f"invalid UTF-8 at byte {exc.start}") from None


def _lines(text: str) -> tuple[list[int], list[str]]:
    """The 1-based numbers and the stripped text of the non-blank lines,
    comments removed, as two flat lists rather than a tuple per line."""
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
    text = _text(data)
    if "#" not in text and "\r" not in text and "\t" not in text:
        inst = _walk(text)
        if inst is not None:
            return inst
    return _read_lines(*_lines(text))


def _walk(text: str) -> Optional[Instance]:
    """The instance of a text in write_instance's form, read relation by
    relation: the block of class lines after each ``rel i k`` line, up to
    the next line that starts with an 'r' (which no class line holds) or
    the end of the text, goes to the one-pass reader as one slice.  None
    wherever the text departs from that form."""
    end = _eol(text, 0)
    try:
        n, ground = map(int, text[len(_HEADER) + 1 : end].split(" "))
    except ValueError:
        return None
    if text[:end] != f"{_HEADER} {n} {ground}" or n < 0 or ground < 0:
        return None
    pos, relations = end + 1, []
    for i in range(n):
        head, end = f"rel {i} ", _eol(text, pos)
        k = text[pos + len(head) : end]
        if not (text.startswith(head, pos) and k.isascii() and k.isdigit() and len(k) < 19):
            return None
        nxt = text.find("r", end)  # one memchr, where "\nrel " would be a slow search
        if nxt < 0:  # the last block: the rest of the text, less its final newline
            stop = len(text) - text.endswith("\n")
        elif text[nxt - 1] == "\n":
            stop = nxt - 1
        else:
            return None
        rel = _read_canonical(text[end + 1 : stop], int(k), ground)
        if rel is None:
            return None
        relations.append(rel)
        pos = stop + 1
    return Instance(ground, relations) if pos >= len(text) else None


def _eol(text: str, pos: int) -> int:
    """Where the line at pos ends: its newline, or the end of the text."""
    end = text.find("\n", pos)
    return len(text) if end < 0 else end


def _read_lines(nos: list[int], lines: list[str]) -> Instance:
    """The instance of the numbered lines of any text, read line by line:
    raises the ParseError that names the first bad line."""
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
    bad line.  Either way the relation is checked against ground; the
    line-by-line reader also caches its span."""
    block = lines[idx : idx + k]
    if len(block) == k:
        rel = _read_canonical("\n".join(block), k, ground)
        if rel is not None:
            return rel
    rel = Partition(_check_classes(nos, lines, idx, k, i, ground))
    rel.validate(ground)
    return rel


def _read_canonical(text: str, k: int, ground: int) -> Optional[Partition]:
    """The relation whose k class lines, joined by newlines, are text, if
    text has k lines, each holding only ASCII digits and spaces and each a
    canonical class: at least two elements, ascending, each below ground
    and none listed twice in the relation, with the classes in ascending
    order of their first element.  None on anything else."""
    if not k:
        return None if text else Partition(())
    if not text.isascii():
        return None
    import numpy as np

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
    if len(firsts) != k:
        return None
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
    rel = Partition._from_arrays(vals, firsts)
    rel._flat, rel._marks  # the flat view, derived here rather than in the solve that reads it
    return rel


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
    if rel.arrays is not None:
        elems, starts = rel.arrays
        return len(starts), _digit_lines(elems, starts)
    classes = rel.classes
    return len(classes), "".join(" ".join(map(str, cl)) + "\n" for cl in classes).encode()


def _digit_lines(elems: np.ndarray, starts: np.ndarray) -> bytes:
    """The class lines of non-empty classes of non-negative elements, in
    one vectorised pass.  Column j of cells holds every element's digit of
    place value 10**(top - 1 - j), and column top its separator: a space,
    or a newline where its class ends.  Read row by row, the cells that
    keep marks are the lines: keep drops each element's leading zeros."""
    if not len(elems):
        return b""
    import numpy as np

    top = len(str(int(elems.max())))
    cells = np.empty((len(elems), top + 1), np.uint8)
    keep = np.ones((len(elems), top + 1), bool)
    cells[:, top] = 32
    cells[np.append(starts[1:], len(elems)) - 1, top] = 10
    rest = elems.astype(np.int32) if top < 10 else elems  # numpy divides int32 far faster than int64
    for j in range(top - 1, -1, -1):
        if j < top - 1:
            np.greater(rest, 0, out=keep[:, j])
        higher = rest // 10
        cells[:, j] = rest - 10 * higher + 48
        rest = higher
    return cells[keep].tobytes()


def parse_matching(data: Union[bytes, str]) -> Matching:
    entries: dict[int, tuple[int, int]] = {}
    for no, line in zip(*_lines(_text(data))):
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
