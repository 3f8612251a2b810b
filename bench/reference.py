"""Host-speed reference for the benchmark's timings.

On a shared host the same Python code runs up to 1.7 times slower or faster
from one second to the next, and the level drifts from one minute to the
next, so raw medians of runs made minutes apart differ by 20-30%.  Every
timed step is therefore bracketed by a fixed pure-Python reference loop,
and its time is reported at the reference speed:

    raw seconds * NOMINAL_S / (mean of the loop's time just before and just
    after the step)

Work that slows down with the host reads the same; a change to the code
under test moves the value as much as it moves the raw time.  Steps must be
short (about 0.3 s or less) for the loop to see the same host speed as the
step.
"""

from __future__ import annotations

import time
from typing import Any

# The loop's time when the host is not slowed down, on the 2-CPU machine the
# baseline was measured on; values read as seconds at that speed.
NOMINAL_S = 0.005


def reference_loop() -> int:
    """Fixed work of the kinds the package does: tuples, dict and set
    updates, membership tests and integer arithmetic."""
    d: dict[int, tuple[int, int, int]] = {}
    s: set[int] = set()
    acc = 0
    for i in range(15000):
        t = (i, i ^ 0x5BD1, i * 7 % 1013)
        d[t[1]] = t
        if t[2] not in s:
            s.add(t[2])
        acc += len(t)
    return acc


class Clock:
    """Times calls and normalises them by the reference loop run around
    them; consecutive calls share the loop run between them."""

    def __init__(self):
        self._last: float | None = None

    def _reference(self) -> float:
        t0 = time.perf_counter()
        reference_loop()
        self._last = time.perf_counter() - t0
        return self._last

    def reset(self) -> None:
        """Forget the last reference time, so the next call measures afresh."""
        self._last = None

    def time(self, fn, *args, **kwargs) -> tuple[Any, float, float]:
        """Return fn's result, its raw seconds and its seconds at the
        reference speed."""
        before = self._last if self._last is not None else self._reference()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        after = self._reference()
        return out, raw, raw * NOMINAL_S * 2 / (before + after)
