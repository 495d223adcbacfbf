"""MU-MIMO downlink user grouping under air-time fairness.

Decides, per transmit opportunity, whether each station is served alone
(beamformed single-user) or inside a multi-user group of flexible size,
maximizing sum throughput weighted by group air time.  Ships the exact
pair-or-single solver, the general graph-matching heuristic, greedy and
random baselines, an exhaustive-search reference, a correlated Rician
channel generator, and a benchmark harness with a CLI (``mugroup``).
Every solver takes one ``RateOracle``, which holds the problem: the
stations' channels, their number M and the group cap Nu.
"""

from .baselines import SusParams, random_grouping, sus_grouping, zfs_grouping
from .bench import (
    ExperimentConfig,
    ResultRow,
    Scenario,
    run_experiment,
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
)
from .gma import gma, optimal_mu2_su
from .grouping import (
    GroupingSolution,
    active_backend,
    canonical_group,
    canonical_partition,
    count_partitions,
    exhaustive_search,
    objective,
    validate_partition,
)
from .matching import WeightedGraph, hungarian, max_weight_matching
from .phy import (
    DEFAULT_MCS_TABLE,
    McsEntry,
    PhyConfig,
    RateMode,
    RateOracle,
    make_rate_oracle,
    phy_rate,
)

__version__ = "0.1.0"
