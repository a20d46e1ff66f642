"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the implementation paths they check:
the LCS oracle is a plain quadratic table (the library uses a bit-parallel
kernel inside an LCS reduction), the edit-distance oracle is the direct
insert/delete dynamic program, and the alignment oracle minimises edit
distance over a brute-force enumeration of the model language, and the
K-Medoids reference loops over variants without a distance matrix. The
reference interpreter (``reference_enabled``/``reference_fire``) plays
the token game on ``Marking`` dicts, independent of the library's
compiled marking ids and move table. ``reference_alignment_cost`` runs
the alignment search on (``Marking``, pos) tuple states and plays the
token game with that interpreter, so the oracle never runs on the kernel
it checks; the library's int-keyed search must match it in cost,
projection and budget overrun, and ``reference_expansions`` bisects for
the least budget it finishes under. ``reference_escaping_edges_precision``
replays model words with a dict keyed on every prefix and the reference
silent closure over ``Marking`` sets, where the library walks an
int-node prefix tree over marking ids. ``reference_export_xes`` builds
the XES document as an ElementTree and lets ElementTree indent, escape
and encode it; the library writes the same bytes as text.
"""

from __future__ import annotations

import heapq
import io
import random
import xml.etree.ElementTree as ET
from typing import Sequence

import pytest

from protomine import AlignmentResult, BudgetExceeded, Marking, PetriNet, choice_parallel_net, language_upto
from protomine.conformance import DEFAULT_ALIGN_BUDGET
from protomine.eventlog import XES_NAMESPACE, EventLog, LogFormatError, Trace, variants
from protomine.discovery import ProcessTree, leaf, parallel, seq, tree_to_net, xor


@pytest.fixture
def fixture_net() -> PetriNet:
    return choice_parallel_net()


def reference_enabled(net: PetriNet, marking: Marking) -> set[str]:
    """Transitions whose every input place holds at least one token."""
    counts = marking.as_dict()
    return {
        t
        for t in net.transition_ids
        if all(counts.get(p, 0) >= 1 for p in net.inputs(t))
    }


def reference_fire(net: PetriNet, marking: Marking, transition: str) -> Marking:
    """Fire a transition: one token per input arc in, one per output arc out."""
    counts = marking.as_dict()
    for p in net.inputs(transition):
        if counts.get(p, 0) < 1:
            raise ValueError(f"transition {transition!r} is not enabled at {marking}")
        counts[p] -= 1
    for p in net.outputs(transition):
        counts[p] = counts.get(p, 0) + 1
    return Marking.of(counts)


def reference_silent_closure(net: PetriNet, markings) -> set[Marking]:
    """Every marking reachable from the given ones by silent firings only."""
    closure = set(markings)
    frontier = list(closure)
    while frontier:
        marking = frontier.pop()
        for t in reference_enabled(net, marking):
            if net.label(t) is None:
                nxt = reference_fire(net, marking, t)
                if nxt not in closure:
                    closure.add(nxt)
                    frontier.append(nxt)
    return closure


def reference_simulate_trace(net: PetriNet, rng: random.Random, max_steps: int = 1000):
    """A random walk from the initial to the final marking, as gen_synthetic walks."""
    for _ in range(100):
        marking = net.initial_marking
        word = []
        for _ in range(max_steps):
            if marking == net.final_marking:
                return tuple(word)
            options = sorted(reference_enabled(net, marking))
            if not options:
                break
            t = rng.choice(options)
            if net.label(t) is not None:
                word.append(net.label(t))
            marking = reference_fire(net, marking, t)
    raise RuntimeError("simulation repeatedly failed to reach the final marking")


def lcs_oracle(a, b) -> int:
    """Full-table LCS DP, independent of the library's bit-parallel kernel."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def insert_delete_dp(a, b) -> int:
    """Direct DP over insertions and deletions only (no substitution)."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1]
            else:
                table[i][j] = 1 + min(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def _first_best(values, better) -> int:
    """Index of the best value; on ties the lowest index wins."""
    best = 0
    for i in range(1, len(values)):
        if better(values[i], values[best]):
            best = i
    return best


def reference_kmedoids(variant_counts, k: int, distance=insert_delete_dp) -> dict:
    """K-Medoids as the clustering module describes it, one loop per step.

    Farthest-point initialisation from the most frequent variant, then
    Lloyd rounds (assign to the nearest medoid, move each medoid to the
    member with the least weighted distance sum) until the assignment
    repeats or 100 rounds ran; every tie goes to the lowest index. It
    computes distances itself, with no distance matrix.
    """
    traces = [t for t, _ in variant_counts]
    counts = [c for _, c in variant_counts]
    n = len(traces)
    table = {(a, b): distance(a, b) for a in traces for b in traces}

    def d(i: int, j: int) -> int:
        return table[traces[i], traces[j]]

    def nearest(medoids):
        return [_first_best([d(i, m) for m in medoids], lambda x, y: x < y) for i in range(n)]

    medoids = [_first_best(counts, lambda x, y: x > y)]
    while len(medoids) < k:
        spread = [min(d(i, m) for m in medoids) for i in range(n)]
        medoids.append(_first_best(spread, lambda x, y: x > y))
    assign, costs = None, []
    for _ in range(100):
        new_assign = nearest(medoids)
        if new_assign == assign:
            break
        assign = new_assign
        round_cost = 0
        for c in range(k):
            members = [i for i in range(n) if assign[i] == c]
            if not members:
                continue
            candidates = [sum(counts[i] * d(i, j) for i in members) for j in members]
            best = _first_best(candidates, lambda x, y: x < y)
            medoids[c] = members[best]
            round_cost += candidates[best]
        costs.append(round_cost)
    else:
        assign = nearest(medoids)
    return {
        "medoids": tuple(traces[m] for m in medoids),
        "members": tuple(
            tuple(traces[i] for i in range(n) if assign[i] == c) for c in range(k)
        ),
        "assignment": {traces[i]: assign[i] for i in range(n)},
        "total_cost": sum(counts[i] * d(i, medoids[assign[i]]) for i in range(n)),
        "iteration_costs": tuple(costs),
    }


def brute_force_alignment_cost(trace, net: PetriNet, max_len: int) -> int:
    """Minimum insert/delete distance from the trace to any model word."""
    words = language_upto(net, max_len)
    assert words, "oracle needs a non-empty language"
    return min(len(trace) + len(w) - 2 * lcs_oracle(trace, w) for w in words)


def random_trace(rng: random.Random, alphabet, max_len: int):
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def random_acyclic_tree(rng: random.Random, max_leaves: int = 6) -> ProcessTree:
    """A random loop-free process tree; its net has a small finite language."""
    alphabet = list("abcdefgh")

    def build(budget: int) -> tuple[ProcessTree, int]:
        if budget <= 1 or rng.random() < 0.4:
            return leaf(rng.choice(alphabet)), 1
        op = rng.choice((seq, xor, parallel))
        n_children = rng.randint(2, min(3, budget))
        children = []
        used = 0
        for i in range(n_children):
            share = max(1, (budget - used) // (n_children - i))
            child, spent = build(share)
            children.append(child)
            used += spent
        return op(*children), used

    tree, _ = build(max_leaves)
    if tree.operator is None:  # ensure at least one operator level sometimes
        return tree
    return tree


def count_activity_leaves(tree: ProcessTree) -> int:
    if tree.operator is None:
        return 0 if tree.label is None else 1
    return sum(count_activity_leaves(c) for c in tree.children)


def random_acyclic_net(rng: random.Random, max_leaves: int = 6):
    tree = random_acyclic_tree(rng, max_leaves)
    return tree_to_net(tree), count_activity_leaves(tree)


def reference_alignment_cost(
    trace: Sequence[str], net: PetriNet, budget: int = DEFAULT_ALIGN_BUDGET
) -> AlignmentResult:
    """Optimal insert/delete alignment of a trace against the net.

    The same search keyed on (marking, pos) tuples in dist, parent and
    the heap: the oracle the library's int-state kernel must reproduce,
    cost, projection and budget overrun alike.

    Uniform-cost search over (marking, trace position) states. Moves:
    fire a transition matching the next activity (free), fire a silent
    transition (free), fire a visible transition without consuming input
    (cost 1, an insertion), or skip the next input activity (cost 1, a
    deletion). Among equal-cost states the search prefers those with
    more of the trace consumed, which does not affect optimality.
    Raises BudgetExceeded naming the trace when over ``budget`` states expand.

    The token game is the reference interpreter's: ``Marking`` states,
    transitions tried in ``transition_ids`` (sorted) order, as the
    library's move lists are.
    """
    trace = tuple(trace)
    start = (net.initial_marking, 0)
    goal_pos = len(trace)

    dist: dict[tuple[Marking, int], int] = {start: 0}
    parent: dict = {start: None}
    heap: list = [(0, 0, 0, start)]
    tie = 0
    expanded = 0

    while heap:
        cost, _, _, state = heapq.heappop(heap)
        if cost > dist.get(state, cost):
            continue
        marking, pos = state
        if pos == goal_pos and marking == net.final_marking:
            projection: list[str] = []
            cursor = state
            while parent[cursor] is not None:
                cursor, label = parent[cursor]
                if label is not None:
                    projection.append(label)
            return AlignmentResult(cost=cost, model_projection=tuple(reversed(projection)))
        expanded += 1
        if expanded > budget:
            shown = " ".join(trace[:8]) + (" ..." if goal_pos > 8 else "")
            raise BudgetExceeded(f"alignment search of trace [{shown}] ({goal_pos} events)", budget)

        moves: list[tuple[tuple, int, str | None]] = []
        for t in sorted(reference_enabled(net, marking)):
            label = net.label(t)
            fired = reference_fire(net, marking, t)
            if label is None:
                moves.append(((fired, pos), 0, None))
            else:
                if pos < goal_pos and trace[pos] == label:
                    moves.append(((fired, pos + 1), 0, label))  # synchronous
                moves.append(((fired, pos), 1, label))  # model-only (insertion)
        if pos < goal_pos:
            moves.append(((marking, pos + 1), 1, None))  # trace-only (deletion)

        for nxt, step, label in moves:
            new_cost = cost + step
            if new_cost < dist.get(nxt, new_cost + 1):
                dist[nxt] = new_cost
                parent[nxt] = (state, label)
                tie -= 1  # LIFO among equals: dive down silent chains first
                heapq.heappush(heap, (new_cost, goal_pos - nxt[1], tie, nxt))

    raise ValueError("final marking is not reachable from the initial marking")


def reference_expansions(trace, net) -> int:
    """The states the reference search expands: the least budget it finishes under."""
    def overruns(budget):
        try:
            reference_alignment_cost(trace, net, budget)
        except BudgetExceeded:
            return True
        return False

    low, high = 0, 1
    while overruns(high):
        low, high = high + 1, 2 * high
    while low < high:
        mid = (low + high) // 2
        if overruns(mid):
            low = mid + 1
        else:
            high = mid
    return low


def reference_escaping_edges_precision(net: PetriNet, projected, closure_budget: int) -> float:
    """Escaping-edges precision of replayed model words, one prefix at a time.

    Every prefix of every word is a key of its own (``word[:i]``), with
    the traces passing through it and the labels seen leaving it. The
    marking set of a prefix is the reference silent closure of the
    markings its parent's set reaches by one firing of its last label,
    filled shortest prefix first. A closure that grows past
    ``max(closure_budget, start size)`` raises BudgetExceeded, as the
    library's does.
    """
    weight: dict[tuple, int] = {}
    observed: dict[tuple, set[str]] = {}
    for word, count in sorted(projected.items()):
        for i in range(len(word) + 1):
            prefix = word[:i]
            weight[prefix] = weight.get(prefix, 0) + count
            observed.setdefault(prefix, set())
            if i < len(word):
                observed[prefix].add(word[i])

    def closure(start: set[Marking]) -> set[Marking]:
        result = reference_silent_closure(net, start)
        if len(result) > max(closure_budget, len(start)):
            raise BudgetExceeded("silent closure", closure_budget)
        return result

    marking_sets = {(): closure({net.initial_marking})}
    for prefix in sorted(weight, key=len):
        if prefix:
            marking_sets[prefix] = closure({
                reference_fire(net, marking, t)
                for marking in marking_sets[prefix[:-1]]
                for t in reference_enabled(net, marking)
                if net.label(t) == prefix[-1]
            })

    escaping_total = 0
    enabled_total = 0
    for prefix, w in weight.items():
        enabled_labels = {
            net.label(t)
            for marking in marking_sets[prefix]
            for t in reference_enabled(net, marking)
            if net.label(t) is not None
        }
        escaping_total += w * len(enabled_labels - observed[prefix])
        enabled_total += w * len(enabled_labels)
    if enabled_total == 0:
        return 1.0
    return 1.0 - escaping_total / enabled_total


def reference_export_xes(log: EventLog) -> bytes:
    """XES bytes as ElementTree writes them: indented, UTF-8, with a declaration."""
    root = ET.Element("log", {"xes.version": "1.0", "xmlns": XES_NAMESPACE})
    for trace, count in variants(log):
        for _ in range(count):
            trace_el = ET.SubElement(root, "trace")
            for activity in trace:
                event_el = ET.SubElement(trace_el, "event")
                ET.SubElement(event_el, "string", {"key": "concept:name", "value": activity})
    tree = ET.ElementTree(root)
    ET.indent(tree)
    buf = io.BytesIO()
    tree.write(buf, encoding="UTF-8", xml_declaration=True)
    return buf.getvalue()


def xml_char(c: str) -> bool:
    """A character of XML 1.0's Char production."""
    cp = ord(c)
    return cp in (0x9, 0xA, 0xD) or 0x20 <= cp <= 0xD7FF or 0xE000 <= cp <= 0xFFFD or cp >= 0x10000


def _local(tag: str) -> str:
    """Tag name with any XML namespace stripped."""
    return tag.rsplit("}", 1)[-1]


def reference_parse_xes(document: bytes) -> EventLog:
    """The XES reader as an ElementTree walk: build the whole tree, then read it.

    One trace per ``<trace>`` element, activities taken from each event's
    ``concept:name`` string attribute in document order. All other event
    attributes are dropped.
    """
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise LogFormatError(f"malformed XES XML: {exc}") from exc
    if _local(root.tag) != "log":
        raise LogFormatError(f"expected <log> root element, got <{_local(root.tag)}>")

    traces: list[Trace] = []
    trace_index = 0
    for trace_el in root:
        if _local(trace_el.tag) != "trace":
            continue
        activities: list[str] = []
        for event_el in trace_el:
            if _local(event_el.tag) != "event":
                continue
            name = None
            for attr in event_el:
                if _local(attr.tag) == "string" and attr.get("key") == "concept:name":
                    name = attr.get("value")
                    break
            if not name:
                raise LogFormatError(
                    f"trace {trace_index}: event without a concept:name attribute"
                )
            activities.append(name)
        traces.append(tuple(activities))
        trace_index += 1
    return EventLog.from_traces(traces)
