"""Prototype-based event log preprocessing for process discovery.

Cluster the variants of an event log by edit distance, discover a Petri
net from the cluster medoids (the prototypes), score it against the
whole log with alignment fitness, escaping-edges precision and F_beta,
and keep adding prototypes from deviating traces while the score
improves.
"""

from .builtin_models import (
    MODELS,
    choice_parallel_net,
    flower_net,
    three_group_net,
    two_group_net,
)
from .clustering import Clustering, kmedoids
from .conformance import (
    AlignmentResult,
    QualityReport,
    alignment_cost,
    compute_report,
    f_beta,
    shortest_visible_path,
    variant_alignments,
)
from .discovery import (
    DirectlyFollowsGraph,
    ProcessTree,
    dfg,
    discover,
    discover_tree,
    tree_to_net,
)
from .eventlog import (
    CsvColumns,
    EventLog,
    LogFormatError,
    Trace,
    export_xes,
    parse_csv,
    parse_xes,
    variants,
)
from .petrinet import (
    BudgetExceeded,
    Marking,
    PetriNet,
    cardoso_metric,
    enabled,
    export_pnml,
    fire,
    language_upto,
    parse_pnml,
    size_metric,
)
from .protoselect import (
    IterationRecord,
    SelectionResult,
    baseline_frequency,
    baseline_random,
    gen_synthetic,
    select_incremental,
)
from .tracedist import DistanceMatrix, distance_matrix, edit_distance, lcs_length

__version__ = "0.1.0"

__all__ = [
    "AlignmentResult",
    "BudgetExceeded",
    "Clustering",
    "CsvColumns",
    "DirectlyFollowsGraph",
    "DistanceMatrix",
    "EventLog",
    "IterationRecord",
    "LogFormatError",
    "MODELS",
    "Marking",
    "PetriNet",
    "ProcessTree",
    "QualityReport",
    "SelectionResult",
    "Trace",
    "alignment_cost",
    "baseline_frequency",
    "baseline_random",
    "cardoso_metric",
    "choice_parallel_net",
    "compute_report",
    "dfg",
    "discover",
    "discover_tree",
    "distance_matrix",
    "edit_distance",
    "enabled",
    "export_pnml",
    "export_xes",
    "f_beta",
    "fire",
    "flower_net",
    "gen_synthetic",
    "kmedoids",
    "language_upto",
    "lcs_length",
    "parse_csv",
    "parse_pnml",
    "parse_xes",
    "select_incremental",
    "shortest_visible_path",
    "size_metric",
    "three_group_net",
    "tree_to_net",
    "two_group_net",
    "variant_alignments",
    "variants",
]
