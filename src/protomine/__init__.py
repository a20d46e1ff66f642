"""Prototype-based event log preprocessing for process discovery.

Cluster the variants of an event log by edit distance, discover a Petri
net from the cluster medoids (the prototypes), score it against the
whole log with alignment fitness, escaping-edges precision and F_beta,
and keep adding prototypes from deviating traces while the score
improves.

Names load on first use: ``import protomine`` runs no submodule, and
``protomine.parse_xes`` imports only ``eventlog`` (PEP 562). Each name
resolves to the object its module defines and is then cached here.
"""

__version__ = "0.1.0"

# the defining submodule of every public name
_EXPORTS = {
    "builtin_models": ("MODELS", "choice_parallel_net", "flower_net", "three_group_net", "two_group_net"),
    "conformance": (
        "AlignmentResult", "QualityReport", "alignment_cost", "compute_report", "f_beta",
        "shortest_visible_path", "variant_alignments",
    ),
    "discovery": ("DirectlyFollowsGraph", "ProcessTree", "dfg", "discover", "discover_tree", "tree_to_net"),
    "eventlog": (
        "CsvColumns", "EventLog", "LogFormatError", "Trace", "export_xes", "parse_csv", "parse_xes", "variants",
    ),
    "petrinet": (
        "BudgetExceeded", "Marking", "PetriNet", "cardoso_metric", "export_pnml", "parse_pnml", "size_metric",
    ),
    "protoselect": (
        "IterationRecord", "SelectionResult", "baseline_frequency", "baseline_random", "gen_synthetic",
        "select_incremental",
    ),
    "tracedist": ("Clustering", "DistanceMatrix", "distance_matrix", "edit_distance", "kmedoids", "lcs_length"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
