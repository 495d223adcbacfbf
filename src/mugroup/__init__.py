"""MU-MIMO downlink user grouping under air-time fairness.

Decides, per transmit opportunity, whether each station is served alone
(beamformed single-user) or inside a multi-user group of flexible size,
maximizing sum throughput weighted by group air time.  Ships the exact
pair-or-single solver, the general graph-matching heuristic, greedy and
random baselines, an exhaustive-search reference, a correlated Rician
channel generator, and a benchmark harness with a CLI (``mugroup``).
"""

from .baselines import SusParams, random_grouping, sus_grouping, zfs_grouping
from .bench import (
    ExperimentConfig,
    ResultRow,
    Scenario,
    Schedule,
    Slot,
    build_schedule,
    run_experiment,
    run_runtime_comparison,
    slot_rotation,
    system_throughput,
    write_csv,
)
from .channel import (
    ChannelSet,
    CorrelatedRicianSpec,
    correlation_matrix,
    generate_rician,
    load_channels,
    pairwise_correlation,
    write_channels,
)
from .errors import (
    ChannelFormatError,
    ConfigurationError,
    SearchSpaceError,
    SingularChannelError,
)
from .gma import gma, merge_gain, optimal_mu2_su
from .grouping import (
    GroupingSolution,
    Hypergraph,
    build_hypergraph,
    canonical_group,
    canonical_partition,
    count_partitions,
    enumerate_partitions,
    exhaustive_search,
    is_complete_matching,
    objective,
    validate_partition,
)
from .kernels import active_backend
from .matching import (
    Matching,
    WeightedGraph,
    WeightMatrix,
    brute_force_assignment,
    brute_force_matching,
    hungarian,
    max_weight_matching,
)
from .phy import (
    DEFAULT_MCS_TABLE,
    McsEntry,
    PhyConfig,
    RateMode,
    RateOracle,
    SteeringMatrix,
    group_rate,
    make_rate_oracle,
    map_sinr_to_mcs,
    phy_rate,
    zf_steering,
)

__version__ = "0.1.0"
