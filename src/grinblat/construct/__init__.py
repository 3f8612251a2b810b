from .charging import (
    build_track,
    charge_scheme_2,
    heavy_indices,
    try_direct_pair,
    try_five_heavy_left_win,
)
from .completion import complete_assignment
from .heavy import charge_scheme_3, pick_heavy_pair_elements, tainted_left
from .lucky import (
    exclusion_set,
    final_win,
    find_compatible_pair,
    find_lucky,
    select_nonconflicting,
)
from .pipeline import (
    DEFAULT_C,
    DEFAULT_N_MIN,
    extend_matching,
    hypothesis_bound,
    solve,
)
from .state import ChargeLedger, ChargeTables, Component, LuckyData, Telemetry, TrackState

__all__ = [
    "DEFAULT_C",
    "DEFAULT_N_MIN",
    "ChargeLedger",
    "ChargeTables",
    "Component",
    "LuckyData",
    "Telemetry",
    "TrackState",
    "build_track",
    "charge_scheme_2",
    "charge_scheme_3",
    "complete_assignment",
    "exclusion_set",
    "extend_matching",
    "final_win",
    "find_compatible_pair",
    "find_lucky",
    "heavy_indices",
    "hypothesis_bound",
    "pick_heavy_pair_elements",
    "select_nonconflicting",
    "solve",
    "tainted_left",
    "try_direct_pair",
    "try_five_heavy_left_win",
]
