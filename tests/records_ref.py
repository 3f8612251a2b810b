"""Reference record classes: the package's records as the ``@dataclass``
definitions they were before they became plain classes (see
``grinblat.core``).

Each twin keeps its class's name, fields, defaults and hand-written
``__init__``, and drops the other methods and properties, which are not
part of a record's behaviour.  A package record and its twin must agree on
equality, hashing, ``repr`` and immutability for the same field values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from grinblat.core import Partition

_GENERATORS = ("uniform", "planted")


@dataclass(frozen=True)
class Instance:
    ground_size: int
    relations: tuple[Partition, ...]

    def __init__(self, ground_size: int, relations: Iterable[Partition]):
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "relations", tuple(relations))


@dataclass(frozen=True)
class KernelInfo:
    kernels: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class Matching:
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs: Iterable[Sequence[int]]):
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in pairs))


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    violation: Optional[str] = None
    index: Optional[int] = None


@dataclass(frozen=True)
class SolveResult:
    outcome: str
    matching: Optional[Matching] = None
    nodes: int = 0


@dataclass(frozen=True)
class SearchResult:
    witness: Optional[Instance]
    ground_size: int
    nodes: int
    exhausted: bool


@dataclass(frozen=True)
class KernelEstimate:
    value: int
    witness: Optional[Instance]
    exhausted: bool


@dataclass
class Component:
    a: int
    b: int
    c: Optional[int] = None
    d: Optional[int] = None


@dataclass
class ChargeLedger:
    n: int
    t: int
    sigma: list[int]
    tau: list[int]
    S: dict[int, tuple[int, ...]]
    T: dict[int, tuple[int, ...]]
    one_partner: dict[int, int]
    t_partner: dict[int, int]


@dataclass
class LuckyData:
    jstar: int
    hprime: tuple[int, ...]
    W: dict[int, tuple[int, int]]
    hsecond: tuple[int, ...] = ()


@dataclass
class Telemetry:
    events: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int
    ns: tuple[int, ...]
    cs: tuple[int, ...]
    trials: int
    generators: tuple[str, ...] = _GENERATORS
    n_min: int = 30
    exact_budget: int = 10_000_000
    measure_time: bool = False


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
