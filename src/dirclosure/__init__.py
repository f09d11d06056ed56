"""Directed triadic-closure analytics.

Head-based directed closure coefficients (local, average, global),
center-based directed clustering coefficients, configuration-model
expectations and swap sampling, an extremal four-class construction, and
per-node feature export.
"""

from .analysis import (
    CorrelationMatrix,
    closure_correlation_matrix,
    edge_label_tallies,
    export_features,
    read_labels,
    summary_report,
)
from .closure import (
    ALL_KEYS,
    SYMMETRIC_PAIRS,
    WEDGE_TYPES,
    Census,
    CoefficientKey,
    NodeClosureProfile,
    average_closure,
    census,
    check_symmetry,
    closure_profiles,
    global_closure,
)
from .clustering import (
    NodeClusteringProfile,
    clustering_profiles,
    mean_clustering,
)
from .extremal import ExtremalSpec, build_extremal, claimed_io_closure, node_classes
from .graph import (
    IN,
    OUT,
    DegreeMoments,
    DirectedGraph,
    Direction,
    EdgeListFormatError,
    LoadWarnings,
    degree_moments,
    load_edge_list,
    write_edge_list,
    write_id_map,
)
from .nullmodel import (
    CountMode,
    EdgeSwapState,
    NullModelReport,
    SwapChainConfig,
    SwapResult,
    default_attempts,
    expected_average_closure,
    expected_clustering,
    expected_global_closure,
    expected_local_closure,
    run_null_experiment,
    run_swap_chain,
    sample_seed,
)

__version__ = "0.1.0"
