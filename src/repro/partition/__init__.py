"""Phase A of the paper's Fig. 1 runtime: 1-D locality transformations
(Sec. 3.1), interval partitioning (Fig. 3), MCR arrangement (Sec. 3.4)."""

from repro.partition.arrangement import (
    RedistributionCostModel,
    Transfer,
    brute_force_arrangement,
    message_count,
    minimize_cost_redistribution,
    overlap_elements,
    redistribution_gain,
    transfer_matrix,
)
from repro.partition.hpf import (
    BlockCyclicDistribution,
    BlockDistribution,
    CyclicDistribution,
    HPFDistribution,
    hpf_transfer_summary,
    redistribute_hpf,
)
from repro.partition.inertial import InertialOrdering, inertial_order
from repro.partition.intervals import (
    IntervalPartition,
    partition_list,
    proportional_sizes,
)
from repro.partition.ordering import (
    IdentityOrdering,
    OrderingMethod,
    RandomOrdering,
    inverse,
    positions_from_order,
)
from repro.partition.quality import (
    OrderingReport,
    compare_orderings,
    evaluate_ordering,
)
from repro.partition.rcb import RCBOrdering, rcb_order
from repro.partition.sfc import (
    HilbertOrdering,
    MortonOrdering,
    hilbert_keys_2d,
    morton_keys,
    sfc_order,
)
from repro.partition.spectral import (
    SpectralOrdering,
    fiedler_vector,
    rsb_order,
)
from repro.partition.weighted import partition_weighted_list

__all__ = [
    "BlockCyclicDistribution",
    "BlockDistribution",
    "CyclicDistribution",
    "HPFDistribution",
    "hpf_transfer_summary",
    "partition_weighted_list",
    "redistribute_hpf",
    "HilbertOrdering",
    "IdentityOrdering",
    "InertialOrdering",
    "IntervalPartition",
    "MortonOrdering",
    "OrderingMethod",
    "OrderingReport",
    "RCBOrdering",
    "RandomOrdering",
    "RedistributionCostModel",
    "SpectralOrdering",
    "Transfer",
    "brute_force_arrangement",
    "compare_orderings",
    "evaluate_ordering",
    "fiedler_vector",
    "hilbert_keys_2d",
    "inertial_order",
    "inverse",
    "message_count",
    "minimize_cost_redistribution",
    "morton_keys",
    "overlap_elements",
    "partition_list",
    "positions_from_order",
    "proportional_sizes",
    "rcb_order",
    "redistribution_gain",
    "rsb_order",
    "sfc_order",
    "transfer_matrix",
]
