"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: phase functions are wrapped
at the module attributes their callers look them up through (for example
``grinblat.construct.pipeline.charge_scheme_3``), so the package itself is
not edited.  A target that no longer exists is listed as absent instead of
failing the run, so a later rename shows up in the report rather than as a
crash.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Optional

# (label, module, attribute): each phase of one extension step under the
# name grinblat.construct.pipeline binds it to, plus the completion engine
# as bound in every module that calls it, plus the experiment layer's
# bindings of the solver and the generators.
PIPELINE = "grinblat.construct.pipeline"
PHASE_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("extend_matching", PIPELINE, "extend_matching"),
    ("extend_matching", "grinblat.experiment", "extend_matching"),
    ("initial_state", PIPELINE, "_initial_state"),
    ("min_kernel", PIPELINE, "min_kernel"),
    ("direct_pair", PIPELINE, "try_direct_pair"),
    ("build_track", PIPELINE, "build_track"),
    ("charge_scheme_2", PIPELINE, "charge_scheme_2"),
    ("five_heavy_left", PIPELINE, "try_five_heavy_left_win"),
    ("heavy_indices", PIPELINE, "heavy_indices"),
    ("charge_scheme_3", PIPELINE, "charge_scheme_3"),
    ("lucky", PIPELINE, "find_lucky"),
    ("lucky", PIPELINE, "select_nonconflicting"),
    ("lucky", PIPELINE, "find_compatible_pair"),
    ("lucky", PIPELINE, "exclusion_set"),
    ("final_win", PIPELINE, "final_win"),
    ("complete_assignment", PIPELINE, "complete_assignment"),
    ("complete_assignment", "grinblat.construct.charging", "complete_assignment"),
    ("complete_assignment", "grinblat.construct.heavy", "complete_assignment"),
    ("complete_assignment", "grinblat.construct.lucky", "complete_assignment"),
    ("verify", PIPELINE, "verify_matching"),
    ("gen.planted", "grinblat.experiment", "gen_planted_concentrated"),
    ("gen.uniform", "grinblat.experiment", "gen_random_hypothesis"),
)

PHASES = (
    "extend_matching",
    "initial_state",
    "min_kernel",
    "direct_pair",
    "build_track",
    "charge_scheme_2",
    "five_heavy_left",
    "heavy_indices",
    "charge_scheme_3",
    "lucky",
    "final_win",
    "complete_assignment",
    "verify",
)


@dataclass
class Span:
    name: str
    start: float
    parent: Optional["Span"] = None
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by direct child spans."""
        return self.duration_s - self.child_s


@dataclass
class PhaseTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Recorder:
    """Collects spans in memory.

    The span stack is per thread, so spans from the experiment layer's
    worker threads nest correctly.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        sp = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if sp.parent is not None:
                sp.parent.child_s += sp.duration_s
            self.spans.append(sp)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self, targets=PHASE_TARGETS) -> None:
        """Wrap every target that exists; record the missing ones as absent."""
        for label, mod_name, attr in targets:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._patches.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(label, fn))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, fn = self._patches.pop()
            setattr(mod, attr, fn)

    def totals(self) -> dict[str, PhaseTotals]:
        out: dict[str, PhaseTotals] = {}
        for sp in self.spans:
            t = out.setdefault(sp.name, PhaseTotals())
            t.calls += 1
            t.total_s += sp.duration_s
            t.self_s += sp.self_s
        return out
