"""Output checks that do not rely on protomine's own code.

The PNML and XES artifacts are read with ElementTree here, not with
``parse_pnml``/``parse_xes``, and prototypes are replayed with a small
token game written for this file. Each check returns a list of failure
messages; an empty list means the artifact passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

Trace = tuple[str, ...]

DISCOVER_ARTIFACTS = ("model.pnml", "prototypes.xes", "report.json", "history.json")
COMPARE_ARTIFACTS = ("compare.csv",)
COMPARE_HEADER = ["method", "f1", "f_beta", "fitness", "precision", "size", "cardoso", "n_selected"]
COMPARE_METHODS = ["prototypes", "frequency", "random", "nothing"]
DISCOVER_STDOUT = re.compile(r"selected (\d+) prototypes in (\d+) iterations \((\w+)\)")
REPLAY_BUDGET = 200_000  # token-game states per prototype
TOLERANCE = 1e-9


def artifact_hashes(out: Path, names: tuple[str, ...]) -> dict[str, str]:
    """sha256 of each artifact; a missing file hashes to "missing"."""
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        if (out / name).is_file()
        else "missing"
        for name in names
    }


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _children(element: ET.Element, name: str) -> list[ET.Element]:
    return [child for child in element if _local(child.tag) == name]


def _text(element: ET.Element, path: tuple[str, ...]) -> str | None:
    for name in path:
        found = _children(element, name)
        if not found:
            return None
        element = found[0]
    return element.text


@dataclass(frozen=True)
class Net:
    """A labelled place/transition net as written to PNML."""

    places: tuple[str, ...]
    labels: dict[str, str | None]
    pre: dict[str, tuple[int, ...]]
    post: dict[str, tuple[int, ...]]
    initial: tuple[int, ...]
    final: tuple[int, ...]


def read_pnml(data: bytes) -> Net:
    root = ET.fromstring(data)
    net_el = next(el for el in root.iter() if _local(el.tag) == "net")
    places: dict[str, int] = {}
    labels: dict[str, str | None] = {}
    arcs: list[tuple[str, str]] = []
    for el in net_el.iter():
        tag = _local(el.tag)
        if tag == "place" and el.get("id") is not None:
            places[el.get("id")] = int(_text(el, ("initialMarking", "text")) or 0)
        elif tag == "transition":
            labels[el.get("id")] = _text(el, ("name", "text"))
        elif tag == "arc":
            arcs.append((el.get("source"), el.get("target")))
    order = tuple(sorted(places))
    index = {p: i for i, p in enumerate(order)}
    pre: dict[str, list[int]] = {t: [] for t in labels}
    post: dict[str, list[int]] = {t: [] for t in labels}
    for source, target in arcs:
        if source in index:
            pre[target].append(index[source])
        else:
            post[source].append(index[target])
    final = [0] * len(order)
    for marking in (el for el in net_el.iter() if _local(el.tag) == "finalmarkings"):
        for ref in (el for el in marking.iter() if _local(el.tag) == "place"):
            final[index[ref.get("idref")]] = int(_text(ref, ("text",)) or 1)
    return Net(
        places=order,
        labels=labels,
        pre={t: tuple(v) for t, v in pre.items()},
        post={t: tuple(v) for t, v in post.items()},
        initial=tuple(places[p] for p in order),
        final=tuple(final),
    )


def replays(net: Net, trace: Trace, budget: int = REPLAY_BUDGET) -> bool | None:
    """True if some firing sequence with silent moves spells the trace.

    Depth-first search over (marking, consumed prefix) states; returns None
    when the search gives up after ``budget`` states.
    """
    stack = [(net.initial, 0)]
    seen = set(stack)
    while stack:
        marking, pos = stack.pop()
        if pos == len(trace) and marking == net.final:
            return True
        for t, label in net.labels.items():
            if label is not None and (pos == len(trace) or label != trace[pos]):
                continue
            if any(marking[i] < 1 for i in net.pre[t]):
                continue
            fired = list(marking)
            for i in net.pre[t]:
                fired[i] -= 1
            for i in net.post[t]:
                fired[i] += 1
            state = (tuple(fired), pos + (label is not None))
            if state not in seen:
                if len(seen) >= budget:
                    return None
                seen.add(state)
                stack.append(state)
    return False


def read_xes_traces(data: bytes) -> list[Trace]:
    root = ET.fromstring(data)
    traces = []
    for trace_el in _children(root, "trace"):
        events = []
        for event_el in _children(trace_el, "event"):
            names = [
                a.get("value")
                for a in _children(event_el, "string")
                if a.get("key") == "concept:name"
            ]
            events.append(names[0] if names else "")
        traces.append(tuple(events))
    return traces


def f_measure(precision: float, fitness: float, beta: float) -> float:
    b2 = beta * beta
    denominator = b2 * precision + fitness
    return 0.0 if denominator == 0 else (1 + b2) * precision * fitness / denominator


@dataclass
class DiscoverSummary:
    """What the fingerprint keeps from one discover run."""

    prototypes: int
    iterations: int
    stop_reason: str
    report: dict


def check_discover(out: Path, stdout: str, log: Counter) -> tuple[list[str], DiscoverSummary | None]:
    missing = [name for name in DISCOVER_ARTIFACTS if not (out / name).is_file()]
    if missing:
        return [f"discover wrote no {', '.join(missing)}"], None
    failures: list[str] = []
    total = sum(log.values())

    proto_counts = Counter(read_xes_traces((out / "prototypes.xes").read_bytes()))
    for trace, count in sorted(proto_counts.items()):
        if trace not in log:
            failures.append(f"prototypes.xes trace {' '.join(trace)!r} is not a variant of the log")
        elif count != log[trace]:
            failures.append(
                f"prototypes.xes holds {count} copies of {' '.join(trace)!r}, the log {log[trace]}"
            )

    net = read_pnml((out / "model.pnml").read_bytes())
    for trace in sorted(proto_counts):
        verdict = replays(net, trace)
        if verdict is not True:
            what = "gave up on" if verdict is None else "cannot replay"
            failures.append(f"token game {what} prototype {' '.join(trace)!r} on model.pnml")

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    history = json.loads((out / "history.json").read_text(encoding="utf-8"))
    expected_fb = f_measure(report["precision"], report["fitness"], report["beta"])
    if abs(report["f_beta"] - expected_fb) > TOLERANCE:
        failures.append(f"report.json f_beta {report['f_beta']} != recomputed {expected_fb}")
    coverage = sum(log[t] for t in proto_counts if t in log) / total
    if abs(report["log_coverage"] - coverage) > TOLERANCE:
        failures.append(f"report.json log_coverage {report['log_coverage']} != recount {coverage}")
    if not 0.0 <= report["fitness"] <= 1.0 or not 0.0 <= report["precision"] <= 1.0:
        failures.append("report.json fitness or precision outside [0, 1]")
    if not history:
        failures.append("history.json is empty")
    elif max(history, key=lambda r: r["report"]["f_beta"])["report"] != report:
        failures.append("the best history.json record differs from report.json")

    match = DISCOVER_STDOUT.search(stdout)
    if match is None:
        failures.append(f"discover printed no selection summary: {stdout.strip()!r}")
        return failures, None
    summary = DiscoverSummary(int(match[1]), int(match[2]), match[3], report)
    if summary.prototypes != len(proto_counts):
        failures.append(
            f"discover reports {summary.prototypes} prototypes, prototypes.xes has {len(proto_counts)}"
        )
    if summary.iterations != len(history):
        failures.append(
            f"discover reports {summary.iterations} iterations, history.json has {len(history)}"
        )
    return failures, summary


def check_compare(
    out: Path, log: Counter, discovered: DiscoverSummary | None
) -> tuple[list[str], list[list[str]]]:
    if not (out / "compare.csv").is_file():
        return ["compare wrote no compare.csv"], []
    rows = list(csv.reader(io.StringIO((out / "compare.csv").read_text(encoding="utf-8"))))
    if not rows or rows[0] != COMPARE_HEADER or [r[0] for r in rows[1:]] != COMPARE_METHODS:
        return [f"compare.csv does not hold one row per method: {rows!r}"], []
    failures: list[str] = []
    by_method = {r[0]: dict(zip(COMPARE_HEADER, r)) for r in rows[1:]}
    for method, row in by_method.items():
        fitness, precision = float(row["fitness"]), float(row["precision"])
        # the file rounds to 6 places; recomputing from rounded inputs
        # moves the result by at most a few units in the last place
        if abs(float(row["f1"]) - f_measure(precision, fitness, 1.0)) > 5e-6:
            failures.append(f"compare.csv {method} f1 {row['f1']} does not follow from its scores")
        if row["f_beta"] != row["f1"]:
            failures.append(f"compare.csv {method} f_beta differs from f1 at beta 1")
    nothing = by_method["nothing"]
    if float(nothing["fitness"]) != 1.0:
        failures.append(f"compare.csv nothing row has fitness {nothing['fitness']}, not 1")
    if int(nothing["n_selected"]) != len(log):
        failures.append(
            f"compare.csv nothing row selects {nothing['n_selected']} of {len(log)} variants"
        )
    picked = {by_method[m]["n_selected"] for m in ("prototypes", "frequency", "random")}
    if len(picked) != 1:
        failures.append(f"compare.csv selection sizes differ across methods: {sorted(picked)}")
    if discovered is not None:
        protos = by_method["prototypes"]
        if int(protos["n_selected"]) != discovered.prototypes:
            failures.append("compare.csv prototypes row and discover chose different prototype counts")
        if protos["f_beta"] != f"{discovered.report['f_beta']:.6f}":
            failures.append("compare.csv prototypes row and discover's report.json disagree on f_beta")
    return failures, rows
