"""Span recorders around the bindings through which protomine's layers call.

``protomine.cli`` and ``protoselect`` import the functions of the layers
below them by name, and ``conformance`` looks up ``alignment_cost`` as a
module global, so replacing those module attributes intercepts every
call between layers without editing ``src/``. Each span records its
duration and, through a stack, the time its child spans took, which
gives every layer's self time.

A binding that has gone, or that records no call where its layer must
run, raises ``MissingSpan`` naming it: a refactor that moves a call must
fail the traced run, not show up as a 0 s layer.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# (module, attribute) -> layer; the span name is the attribute
BINDINGS: dict[tuple[str, str], str] = {
    ("cli", "parse_xes"): "eventlog",
    ("cli", "parse_csv"): "eventlog",
    ("cli", "export_xes"): "eventlog",
    ("cli", "export_pnml"): "petrinet",
    ("cli", "select_incremental"): "protoselect",
    ("cli", "baseline_frequency"): "protoselect",
    ("cli", "baseline_random"): "protoselect",
    ("cli", "discover"): "discovery",
    ("cli", "compute_report"): "conformance",
    ("protoselect", "distance_matrix"): "tracedist",
    ("protoselect", "kmedoids"): "clustering",
    ("protoselect", "discover"): "discovery",
    ("protoselect", "variant_alignments"): "conformance",
    ("protoselect", "compute_report"): "conformance",
    ("conformance", "alignment_cost"): "conformance",
    ("conformance", "shortest_visible_path"): "petrinet",
}

# bindings each command must call; the parse binding depends on the format
EXPECTED = {
    "discover": [
        ("cli", "export_xes"),
        ("cli", "export_pnml"),
        ("cli", "select_incremental"),
        ("protoselect", "distance_matrix"),
        ("protoselect", "kmedoids"),
        ("protoselect", "discover"),
        ("protoselect", "variant_alignments"),
        ("protoselect", "compute_report"),
        ("conformance", "alignment_cost"),
        ("conformance", "shortest_visible_path"),
    ],
    "compare": [
        ("cli", "select_incremental"),
        ("cli", "baseline_frequency"),
        ("cli", "baseline_random"),
        ("cli", "discover"),
        ("cli", "compute_report"),
        ("protoselect", "distance_matrix"),
        ("protoselect", "kmedoids"),
        ("protoselect", "discover"),
        ("protoselect", "variant_alignments"),
        ("protoselect", "compute_report"),
        ("conformance", "alignment_cost"),
        ("conformance", "shortest_visible_path"),
    ],
}


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class MissingSpan(RuntimeError):
    """A traced binding is gone or recorded no call where it must run."""


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Recorder:
    """Wraps the bindings for one command run and aggregates its spans."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], SpanStats] = defaultdict(SpanStats)
        self.stack: list[list[float]] = []
        self.root_s = 0.0
        self.root_self_s = 0.0
        # layer-specific counts, observed on arguments and results
        self.variant_lengths: list[list[int]] = []
        self.lloyd_rounds = 0
        self.net_size_max = 0
        self.aligned: set[tuple[int, tuple[str, ...]]] = set()
        self.align_repeats = 0
        self.align_deviating = 0
        self.nets: list[object] = []  # keeps aligned nets alive, so ids stay unique
        self.iterations = 0
        self.prototypes = 0

    def _observe(self, key: tuple[str, str], args: tuple, kwargs: dict, result: object) -> None:
        name = key[1]
        if name == "distance_matrix":
            self.variant_lengths.append([len(t) for t in _arg(args, kwargs, 0, "variant_list")])
        elif name == "kmedoids":
            self.lloyd_rounds += len(result.iteration_costs)
        elif name == "discover":
            size = len(result.places) + len(result.transitions) + len(result.arcs)
            self.net_size_max = max(self.net_size_max, size)
        elif name == "alignment_cost":
            trace = tuple(_arg(args, kwargs, 0, "trace"))
            net = _arg(args, kwargs, 1, "net")
            pair = (id(net), trace)
            if pair in self.aligned:
                self.align_repeats += 1
            else:
                self.aligned.add(pair)
                self.nets.append(net)
            self.align_deviating += result.cost > 0
        elif name == "select_incremental":
            self.iterations = len(result.history)
            self.prototypes = len(result.prototypes)

    def _wrap(self, key: tuple[str, str], fn: Callable) -> Callable:
        stats = self.stats[key]
        stack = self.stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                stack[-1][0] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
            self._observe(key, args, kwargs, result)
            return result

        return traced

    def run(self, package: str, call: Callable[[], int]) -> int:
        """Run ``call`` with every binding wrapped; restore them after."""
        originals = []
        try:
            for module_name, attr in BINDINGS:
                module = importlib.import_module(f"{package}.{module_name}")
                if not hasattr(module, attr):
                    raise MissingSpan(f"traced binding {module_name}.{attr} is gone")
                originals.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap((module_name, attr), getattr(module, attr)))
            root = [0.0]
            self.stack.append(root)
            start = perf_counter()
            try:
                return call()
            finally:
                self.root_s = perf_counter() - start
                self.root_self_s = self.root_s - root[0]
                self.stack.clear()
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def require(self, command: str, fmt: str) -> None:
        expected = EXPECTED[command] + [("cli", f"parse_{fmt}")]
        silent = [f"{m}.{a}" for m, a in expected if self.stats[(m, a)].calls == 0]
        if silent:
            raise MissingSpan(f"{command}: traced bindings recorded no calls: {', '.join(silent)}")

    def _layer_self(self, layer: str, names: tuple[str, ...] | None = None) -> float:
        return sum(
            s.self_s
            for key, s in self.stats.items()
            if BINDINGS[key] == layer and (names is None or key[1] in names)
        )

    def _calls(self, name: str) -> int:
        return sum(s.calls for key, s in self.stats.items() if key[1] == name)

    def metrics(self, command: str) -> dict[str, float]:
        """Per-layer metrics of this run, named without the command prefix."""
        pairs = sum(len(ls) * (len(ls) - 1) // 2 for ls in self.variant_lengths)
        # sum over pairs of len(a) * len(b), from the sum and sum of squares
        cells = sum((sum(ls) ** 2 - sum(x * x for x in ls)) // 2 for ls in self.variant_lengths)
        matrix_s = self._layer_self("tracedist")
        align_calls = self._calls("alignment_cost")
        m = {
            "eventlog.parse_s": self._layer_self("eventlog", ("parse_xes", "parse_csv")),
            "tracedist.matrix_s": matrix_s,
            "tracedist.pairs": pairs,
            "tracedist.cells": cells,
            "tracedist.ns_per_cell": matrix_s / cells * 1e9 if cells else 0.0,
            "clustering.kmedoids_s": self._layer_self("clustering"),
            "clustering.calls": self._calls("kmedoids"),
            "clustering.lloyd_rounds": self.lloyd_rounds,
            "discovery.discover_s": self._layer_self("discovery"),
            "discovery.calls": self._calls("discover"),
            "discovery.net_size_max": self.net_size_max,
            "conformance.align_s": self._layer_self("conformance", ("alignment_cost",)),
            "conformance.align_calls": align_calls,
            "conformance.deviating_share": self.align_deviating / align_calls,
            "conformance.align_repeat_share": self.align_repeats / align_calls,
            "conformance.report_self_s": self._layer_self("conformance", ("compute_report",)),
            "conformance.report_calls": self._calls("compute_report"),
            "petrinet.shortest_path_s": self._layer_self("petrinet", ("shortest_visible_path",)),
            "protoselect.select_s": self.stats[("cli", "select_incremental")].total_s,
            "protoselect.self_s": self._layer_self("protoselect"),
            "protoselect.iterations": self.iterations,
            "protoselect.prototypes": self.prototypes,
            "cli.self_s": self.root_self_s,
        }
        if command == "discover":
            m["eventlog.export_s"] = self._layer_self("eventlog", ("export_xes",))
            m["petrinet.export_pnml_s"] = self._layer_self("petrinet", ("export_pnml",))
        return m

