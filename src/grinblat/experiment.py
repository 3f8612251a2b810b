"""Experiment runner: seeded sweeps over (n, c, generator) cells with CSV
output.

Per-trial seeds derive from the master seed through a fixed splitmix-style
mix, so a sweep is reproducible.  Trials run one after another in trial
order: they are pure Python, so threads only add contention.  A trial that
fails on its input is recorded as a row outcome and the sweep goes on.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Union

from .construct import Telemetry, extend_matching, solve
from .core import min_kernel
from .errors import CompletionImpossible, GrinblatError, HypothesisViolation, InternalLogicError
from .gen import gen_planted_concentrated, gen_random_hypothesis

CSV_HEADER = "seed,n,c,min_kernel,outcome,phase_reached,wall_nanos,node_count"

_GENERATORS = ("uniform", "planted")


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int
    ns: tuple[int, ...]
    cs: tuple[int, ...]
    trials: int
    generators: tuple[str, ...] = _GENERATORS
    n_min: int = 30
    exact_budget: int = 10_000_000
    measure_time: bool = False  # wall_nanos written as 0 when off, for byte-stable reports

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GrinblatError(f"bad experiment config: {exc}") from exc
        try:
            cfg = cls(
                master_seed=_typed(raw, "master_seed", "integer"),
                ns=tuple(_typed(raw, "ns", "list of integers")),
                cs=tuple(_typed(raw, "cs", "list of integers")),
                trials=_typed(raw, "trials", "integer"),
                generators=tuple(_typed(raw, "generators", "list", _GENERATORS)),
                n_min=_typed(raw, "n_min", "integer", 30),
                exact_budget=_typed(raw, "exact_budget", "integer", 10_000_000),
                measure_time=_typed(raw, "measure_time", "boolean", False),
            )
        except (KeyError, TypeError) as exc:
            raise GrinblatError(f"bad experiment config: {exc}") from exc
        for g in cfg.generators:
            if g not in _GENERATORS:
                raise GrinblatError(f"unknown generator {g!r}")
        if cfg.trials < 0:
            raise GrinblatError("negative trial count")
        return cfg


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_KINDS = {
    "boolean": lambda v: isinstance(v, bool),
    "integer": _is_int,
    "list": lambda v: isinstance(v, list),
    "list of integers": lambda v: isinstance(v, list) and all(map(_is_int, v)),
}


def _typed(raw: dict, name: str, kind: str, default=None):
    """raw[name] if it is a JSON value of kind, a key of _KINDS; default if
    name is absent, or KeyError if there is none.  Nothing is coerced: a
    string such as "false" or "30", a float or true is rejected."""
    if name not in raw:
        if default is None:
            raise KeyError(name)
        return default
    if not _KINDS[kind](raw[name]):
        raise GrinblatError(f"bad experiment config: {name!r} must be a JSON {kind}, got {raw[name]!r}")
    return raw[name]


def derive_seed(master: int, index: int) -> int:
    """Fixed splitmix64 step from (master, index); documented in the README."""
    z = (master * 0x9E3779B97F4A7C15 + index) & (1 << 64) - 1
    z = (z + 0x9E3779B97F4A7C15) & (1 << 64) - 1
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (1 << 64) - 1
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (1 << 64) - 1
    return z ^ (z >> 31)


@dataclass
class TrialResult:
    index: int
    seed: int
    n: int
    c: int
    generator: str
    min_kernel: int = 0
    outcome: str = "logic-error"
    phase_reached: str = "none"
    wall_nanos: int = 0
    node_count: int = 0

    def row(self) -> str:
        return (
            f"{self.seed},{self.n},{self.c},{self.min_kernel},{self.outcome},"
            f"{self.phase_reached},{self.wall_nanos},{self.node_count}"
        )


def _cells(cfg: ExperimentConfig):
    index = 0
    for gen_name in cfg.generators:
        for n in cfg.ns:
            for c in cfg.cs:
                for _ in range(cfg.trials):
                    yield index, gen_name, n, c
                    index += 1


def _run_trial(cfg: ExperimentConfig, index: int, gen_name: str, n: int, c: int) -> TrialResult:
    seed = derive_seed(cfg.master_seed, index)
    res = TrialResult(index=index, seed=seed, n=n, c=c, generator=gen_name)
    tel = Telemetry()
    start = time.perf_counter_ns()
    try:
        if gen_name == "planted":
            inst, sub = gen_planted_concentrated(n, c, seed)
            res.min_kernel = min_kernel(inst)
            extend_matching(inst, sub, new_rel=0, c=c, telemetry=tel)
            res.outcome = "matched"
        else:
            inst = gen_random_hypothesis(n, c, seed)
            res.min_kernel = min_kernel(inst)
            solved = solve(inst, c=c, n_min=cfg.n_min, telemetry=tel, exact_budget=cfg.exact_budget)
            res.outcome = solved.outcome
            res.node_count = solved.nodes
    except InternalLogicError:
        res.outcome = "logic-error"
    except HypothesisViolation:
        res.outcome = "hypothesis-violation"
    except CompletionImpossible:
        res.outcome = "completion-impossible"
    except ValueError:
        res.outcome = "invalid-input"
    if cfg.measure_time:
        res.wall_nanos = time.perf_counter_ns() - start
    res.phase_reached = tel.phase_reached
    return res


def run_experiment(cfg: ExperimentConfig) -> str:
    """Run every trial and return the CSV report (rows, then '#' summaries)."""
    results = [_run_trial(cfg, *w) for w in _cells(cfg)]
    lines = [CSV_HEADER]
    lines.extend(r.row() for r in results)
    lines.extend(_summaries(cfg, results))
    return "\n".join(lines) + "\n"


def _summaries(cfg: ExperimentConfig, results: list[TrialResult]) -> list[str]:
    out = []
    for gen_name in cfg.generators:
        for n in cfg.ns:
            for c in cfg.cs:
                cell = [
                    r for r in results
                    if r.generator == gen_name and r.n == n and r.c == c
                ]
                if not cell:
                    continue
                ok = sum(1 for r in cell if r.outcome == "matched")
                phases: dict[str, int] = {}
                for r in cell:
                    phases[r.phase_reached] = phases.get(r.phase_reached, 0) + 1
                hist = " ".join(f"{k}:{v}" for k, v in sorted(phases.items()))
                out.append(
                    f"# cell generator={gen_name} n={n} c={c} "
                    f"success={ok}/{len(cell)} phases[{hist}]"
                )
    return out
