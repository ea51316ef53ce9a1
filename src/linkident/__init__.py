"""Exact identifiability of link metrics from two-monitor path sums.

Given an undirected graph with two monitor nodes, every simple
monitor-to-monitor path yields one measurement: the sum of its link
metrics. A link metric is identifiable when it is pinned down by all
such measurements together, i.e. when its unit vector lies in the
rational row space of the path-link incidence matrix.

Two independent engines answer the question. `analyze` decomposes the
graph structurally (biconnected blocks, then triconnected components)
and classifies each component; `oracle_analysis` enumerates the paths
and decides membership by exact rational elimination. The sweep module
diffs them at scale; they must agree wherever the structural engine
does not itself delegate to the oracle.
"""

from .agents import AgentAssignment, locate_agents
from .connectivity import (
    has_disjoint_fan,
    interior_identifiability_predicate,
    k_vertex_connected,
)
from .decomposition import (
    Block,
    BlockCutTree,
    TriComponent,
    TriconnectedDecomposition,
    biconnected_components,
    decompose_links,
    reassemble,
    triconnected_components,
)
from .dotexport import (
    block_cut_tree_dot,
    decomposition_dot,
    graph_dot,
    report_dot,
)
from .errors import (
    BrokenPairing,
    Disconnected,
    DuplicateEdge,
    GenerationFailed,
    GraphError,
    InconsistentSystem,
    LinkIdentError,
    MonitorNotInGraph,
    MonitorsNotDistinct,
    MonitorsUnset,
    NoPath,
    NotBiconnected,
    ParseError,
    PathExplosion,
    SelfLoop,
    TooLarge,
    TooSmall,
    UnknownBlock,
    UnknownNode,
    WrongAgentCount,
)
from .generators import (
    SweepConfig,
    barbell,
    enumerate_all_connected_graphs,
    generate_graph,
    gnp_connected,
    grid,
    random_biconnected,
)
from .graph import Graph
from .linalg import IntegerEchelon
from .oracle import (
    DEFAULT_PATH_CAP,
    MetricRecovery,
    OracleResult,
    enumerate_simple_paths,
    identifiable_links_bruteforce,
    oracle_analysis,
    verify_metric_recovery,
)
from .structural import (
    ALL_RULES,
    Category,
    Classification,
    IdentifiabilityReport,
    LinkVerdict,
    Structure,
    analyze,
    classify_component,
)
from .sweep import (
    DiffRecord,
    SweepSummary,
    diff_instance,
    exhaustive_sweep,
    fingerprint,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AgentAssignment",
    "ALL_RULES",
    "Block",
    "BlockCutTree",
    "BrokenPairing",
    "Category",
    "Classification",
    "DEFAULT_PATH_CAP",
    "DiffRecord",
    "Disconnected",
    "DuplicateEdge",
    "GenerationFailed",
    "Graph",
    "GraphError",
    "IdentifiabilityReport",
    "InconsistentSystem",
    "IntegerEchelon",
    "LinkIdentError",
    "LinkVerdict",
    "MetricRecovery",
    "MonitorNotInGraph",
    "MonitorsNotDistinct",
    "MonitorsUnset",
    "NoPath",
    "NotBiconnected",
    "OracleResult",
    "ParseError",
    "PathExplosion",
    "SelfLoop",
    "Structure",
    "SweepConfig",
    "SweepSummary",
    "TooLarge",
    "TooSmall",
    "TriComponent",
    "TriconnectedDecomposition",
    "UnknownBlock",
    "UnknownNode",
    "WrongAgentCount",
    "analyze",
    "barbell",
    "biconnected_components",
    "block_cut_tree_dot",
    "classify_component",
    "decompose_links",
    "decomposition_dot",
    "diff_instance",
    "enumerate_all_connected_graphs",
    "enumerate_simple_paths",
    "exhaustive_sweep",
    "fingerprint",
    "generate_graph",
    "gnp_connected",
    "graph_dot",
    "grid",
    "has_disjoint_fan",
    "identifiable_links_bruteforce",
    "interior_identifiability_predicate",
    "k_vertex_connected",
    "locate_agents",
    "oracle_analysis",
    "random_biconnected",
    "reassemble",
    "report_dot",
    "run_sweep",
    "triconnected_components",
    "verify_metric_recovery",
]
