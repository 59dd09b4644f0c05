"""The paper's algorithms (§4) plus labeled-ring baselines."""

from .alternating import (
    AlternatingInputDistribution,
    distribute_inputs_alternating,
)
from .async_input_distribution import (
    AsyncInputDistribution,
    compute_function_async,
    distribute_inputs_async,
    expected_message_count,
)
from .combined import (
    OrientedInputDistribution,
    UniversalInputDistribution,
    barrier_cycle,
    distribute_inputs_general,
)
from .compute import compute_async, compute_sync
from .extrema import find_extremum_distinct, find_extremum_general
from .functions import (
    AND,
    MAJORITY,
    MAX,
    MIN,
    OR,
    STANDARD_FUNCTIONS,
    SUM,
    XOR,
    RingFunction,
    constant,
    pattern_count,
    threshold,
)
from .leader_election import (
    ChangRoberts,
    Franklin,
    HirschbergSinclair,
    Peterson,
    best_case_labels,
    elect_leader,
    worst_case_labels,
)
from .leader_election_sync import ChangRobertsSync
from .orientation import QuasiOrientation, orient_ring, quasi_orient
from .orientation_async import majority_switch_bit, orient_ring_async
from .start_sync import StartSynchronization, synchronize_start
from .start_sync_bits import BitStartSynchronization, synchronize_start_bits
from .sync_and import SyncAnd, compute_and_sync
from .sync_input_distribution import SyncInputDistribution, distribute_inputs_sync
from .sync_input_distribution_uni import (
    SyncInputDistributionUni,
    distribute_inputs_sync_uni,
)
from .time_encoding import (
    ORIENTATION_ALPHABET,
    TimeEncoded,
    run_time_encoded,
    time_encode,
)

__all__ = [
    "AND",
    "AlternatingInputDistribution",
    "AsyncInputDistribution",
    "BitStartSynchronization",
    "ChangRoberts",
    "ChangRobertsSync",
    "Franklin",
    "HirschbergSinclair",
    "MAJORITY",
    "MAX",
    "MIN",
    "OR",
    "ORIENTATION_ALPHABET",
    "OrientedInputDistribution",
    "Peterson",
    "QuasiOrientation",
    "RingFunction",
    "STANDARD_FUNCTIONS",
    "SUM",
    "StartSynchronization",
    "SyncAnd",
    "SyncInputDistribution",
    "SyncInputDistributionUni",
    "TimeEncoded",
    "UniversalInputDistribution",
    "XOR",
    "barrier_cycle",
    "best_case_labels",
    "compute_and_sync",
    "compute_async",
    "compute_function_async",
    "compute_sync",
    "constant",
    "distribute_inputs_alternating",
    "distribute_inputs_async",
    "distribute_inputs_general",
    "distribute_inputs_sync",
    "distribute_inputs_sync_uni",
    "elect_leader",
    "expected_message_count",
    "find_extremum_distinct",
    "find_extremum_general",
    "majority_switch_bit",
    "orient_ring",
    "orient_ring_async",
    "pattern_count",
    "quasi_orient",
    "run_time_encoded",
    "synchronize_start",
    "synchronize_start_bits",
    "threshold",
    "time_encode",
    "worst_case_labels",
]
