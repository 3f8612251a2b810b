"""Rainbow matchings over equivalence relations: constructive solver,
exact oracles, generators, and experiment tooling."""

from .core import (
    Instance,
    KernelInfo,
    Matching,
    Partition,
    VerifyReport,
    kernel,
    min_kernel,
    normalize,
    verify_matching,
)
from .errors import (
    CompletionImpossible,
    GrinblatError,
    HypothesisViolation,
    InternalLogicError,
    ParseError,
)
from .construct import Telemetry, extend_matching, hypothesis_bound, solve
from .gen import (
    gen_lower_bound_family,
    gen_planted_concentrated,
    gen_random_hypothesis,
)
from .oracle import (
    KernelEstimate,
    SearchResult,
    SolveResult,
    exact_solve,
    min_unmatchable_kernel,
    search_unmatchable,
)

__version__ = "1.0.0"

__all__ = [
    "CompletionImpossible",
    "GrinblatError",
    "HypothesisViolation",
    "Instance",
    "InternalLogicError",
    "KernelEstimate",
    "KernelInfo",
    "Matching",
    "ParseError",
    "Partition",
    "SearchResult",
    "SolveResult",
    "VerifyReport",
    "Telemetry",
    "exact_solve",
    "extend_matching",
    "gen_lower_bound_family",
    "gen_planted_concentrated",
    "gen_random_hypothesis",
    "hypothesis_bound",
    "kernel",
    "min_kernel",
    "min_unmatchable_kernel",
    "normalize",
    "search_unmatchable",
    "solve",
    "verify_matching",
]
