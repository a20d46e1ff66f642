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
int-node prefix tree over marking ids. ``reference_parse_pnml`` walks the
tree recursively with a hand-written child lookup, where the library
uses ElementTree's namespace wildcards and a stack of iterators.
``reference_export_xes`` and ``reference_export_pnml`` build their
documents as ElementTrees and let ElementTree indent, escape and encode
them; the library writes the same bytes as text. ``reference_parse_csv``
is the CSV reader before its row loop was tightened. ``language_upto``
enumerates a net's short words for the brute-force oracles; it walks the
compiled move table, which ``TestCompiledNetAgainstReference`` checks
against the reference interpreter. ``reference_reachability`` searches
the DFG from every node, where the miner closes it by Warshall's rule.
``reference_simplify_tree`` normalises a finished tree with any-star
predicates that walk every subtree, where the library builds each node in
normal form from its children's shapes.
``reference_select_incremental`` composes the distance, K-Medoids,
alignment and precision oracles into the whole selection loop, with
``discover`` (which ``TestPinnedNets`` pins) its one library step, and
``reference_compare`` rescores every ``compare`` baseline from them.
``silent_only_net``, which accepts only the empty word, is a net only the
tests use.
"""

from __future__ import annotations

import functools
import heapq
import io
import math
import random
import re
import xml.etree.ElementTree as ET
from collections import deque
from datetime import datetime
from fractions import Fraction
from typing import Sequence

import pytest

from protomine import AlignmentResult, BudgetExceeded, Marking, PetriNet, choice_parallel_net
from protomine.conformance import DEFAULT_ALIGN_BUDGET, DEFAULT_CLOSURE_BUDGET, QualityReport
from protomine.eventlog import _NOT_XML, XES_NAMESPACE, CsvColumns, EventLog, LogFormatError, Trace, export_xes, variants
from protomine.discovery import ProcessTree, discover, flower, leaf, parallel, seq, silent_leaf, tree_to_net, xor
from protomine.petrinet import PNML_NAMESPACE, PTNET_TYPE
from protomine.protoselect import IterationRecord


@pytest.fixture
def fixture_net() -> PetriNet:
    return choice_parallel_net()


def silent_only_net() -> PetriNet:
    """Accepts exactly the empty word through one silent transition."""
    return PetriNet(
        places=["p_in", "p_out"],
        transitions={"t_skip": None},
        arcs=[("p_in", "t_skip"), ("t_skip", "p_out")],
        initial_marking=Marking.of({"p_in": 1}),
        final_marking=Marking.of({"p_out": 1}),
    )


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


def reference_silent_closure(net: PetriNet, markings, enabled=None) -> set[Marking]:
    """Every marking reachable from the given ones by silent firings only.

    ``enabled(marking)``, when given, stands in for ``reference_enabled``.
    """
    enabled = enabled or functools.partial(reference_enabled, net)
    closure = set(markings)
    frontier = list(closure)
    while frontier:
        marking = frontier.pop()
        for t in enabled(marking):
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


def language_upto(net: PetriNet, max_len: int, max_states: int = 100_000) -> set[Trace]:
    """All visible words of length <= max_len accepted by the net.

    Breadth-first walk over (marking, word) pairs; silent transitions
    extend the firing sequence but not the word. The budget counts
    distinct markings, so nets whose reachability graph is too large for
    brute-force enumeration raise instead of hanging.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    compiled = net.compiled
    words: set[Trace] = set()
    start = (compiled.initial, ())
    seen_pairs = {start}
    seen_ids = {compiled.initial}
    queue = deque([start])
    while queue:
        sid, word = queue.popleft()
        if sid == compiled.final:
            words.add(word)
        for _, label, fired in compiled.moves(sid):
            next_word = word if label is None else word + (label,)
            if len(next_word) > max_len:
                continue
            state = (fired, next_word)
            if state in seen_pairs:
                continue
            seen_pairs.add(state)
            if fired not in seen_ids:
                seen_ids.add(fired)
                if len(seen_ids) > max_states:
                    what = f"language enumeration of words up to length {max_len} on {net!r}"
                    raise BudgetExceeded(what, max_states)
            queue.append(state)
    return words


def reference_reachability(graph) -> dict[str, set[str]]:
    """Transitive closure over a DFG's edges by a search from every node."""
    succ: dict[str, set[str]] = {n: set() for n in graph.nodes}
    for a, b in graph.edges:
        succ[a].add(b)
    reach: dict[str, set[str]] = {}
    for start in graph.nodes:
        seen: set[str] = set()
        frontier = list(succ[start])
        while frontier:
            u = frontier.pop()
            if u in seen:
                continue
            seen.add(u)
            frontier.extend(succ[u])
        reach[start] = seen
    return reach


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
    """K-Medoids as ``tracedist.kmedoids`` describes it, one loop per step.

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


# the process-tree normaliser as it was before the miner built its
# trees in normal form: every node simplified after the whole tree was
# built, any-star decided by walking each subtree


def _reference_tree_alphabet(tree: ProcessTree) -> frozenset[str]:
    """All activity labels occurring in the tree."""
    if tree.operator is None:
        return frozenset() if tree.label is None else frozenset((tree.label,))
    return frozenset().union(*(_reference_tree_alphabet(c) for c in tree.children))


def _reference_accepts_empty(tree: ProcessTree) -> bool:
    if tree.operator is None:
        return tree.label is None
    if tree.operator == "xor":
        return any(_reference_accepts_empty(c) for c in tree.children)
    if tree.operator == "loop":
        return _reference_accepts_empty(tree.children[0])
    return all(_reference_accepts_empty(c) for c in tree.children)  # seq, and


def _reference_covers_singletons(tree: ProcessTree) -> bool:
    """True when every alphabet letter occurs as a one-letter word of the tree."""
    if tree.operator is None:
        return True  # {a} for a visible leaf, vacuous for tau
    if tree.operator == "xor":
        return all(_reference_covers_singletons(c) for c in tree.children)
    if tree.operator == "loop":
        return _reference_accepts_empty(tree.children[0]) and all(
            _reference_covers_singletons(c) for c in tree.children
        )
    # seq/and: a lone letter needs every sibling to be skippable
    return all(_reference_covers_singletons(c) and _reference_accepts_empty(c) for c in tree.children)


def _reference_is_anystar(tree: ProcessTree) -> bool:
    """True when the tree's language is every word over its own alphabet."""
    if tree.operator is None:
        return tree.label is None  # tau accepts exactly the empty word
    if tree.operator == "loop":
        # the loop stars its parts: redo children only need their letters
        # available as one-letter words
        return _reference_is_anystar(tree.children[0]) and all(
            _reference_covers_singletons(c) for c in tree.children[1:]
        )
    if not all(_reference_is_anystar(c) for c in tree.children):
        return False
    if tree.operator == "and":
        return True
    union = _reference_tree_alphabet(tree)
    if tree.operator == "xor":
        return any(_reference_tree_alphabet(c) == union for c in tree.children)
    # seq of any-star children collapses only around one non-trivial child
    nontrivial = [c for c in tree.children if _reference_tree_alphabet(c)]
    return len(nontrivial) <= 1


def reference_simplify_tree(tree: ProcessTree) -> ProcessTree:
    """Language-preserving normalisation of a process tree.

    Flattens nested seq/xor/and, drops redundant silent children, and
    replaces any subtree accepting every word over its alphabet by the
    flat flower. Discovery output on unstructured logs otherwise nests
    parallel and loop gadgets whose state space is exponentially larger
    than the flower with the same language, which hurts both alignment
    search and the simplicity metrics.
    """
    if tree.operator is None:
        return tree
    children = [reference_simplify_tree(c) for c in tree.children]

    if tree.operator in ("seq", "xor", "and"):
        flat: list[ProcessTree] = []
        for child in children:
            if child.operator == tree.operator:
                flat.extend(child.children)
            else:
                flat.append(child)
        children = flat

    is_tau = lambda c: c.operator is None and c.label is None
    if tree.operator in ("seq", "and"):
        # the empty word is the identity of concatenation and shuffle
        children = [c for c in children if not is_tau(c)] or [silent_leaf()]
    elif tree.operator == "xor":
        children = list(dict.fromkeys(children))
        if any(not is_tau(c) and _reference_accepts_empty(c) for c in children):
            children = [c for c in children if not is_tau(c)]

    if tree.operator != "loop" and len(children) == 1:
        result = children[0]
    else:
        result = ProcessTree(operator=tree.operator, children=tuple(children))

    if _reference_is_anystar(result):
        alphabet = _reference_tree_alphabet(result)
        return flower(alphabet) if alphabet else silent_leaf()
    return result


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

    @functools.cache  # per call: each marking's firings, in transition order, played once
    def firings(marking: Marking) -> list[tuple[str | None, Marking]]:
        return [(net.label(t), reference_fire(net, marking, t)) for t in sorted(reference_enabled(net, marking))]

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
        for label, fired in firings(marking):
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

    # each marking's enabled transitions, found once per call
    enabled = functools.cache(functools.partial(reference_enabled, net))

    def closure(start: set[Marking]) -> set[Marking]:
        result = reference_silent_closure(net, start, enabled)
        if len(result) > max(closure_budget, len(start)):
            raise BudgetExceeded("silent closure", closure_budget)
        return result

    marking_sets = {(): closure({net.initial_marking})}
    for prefix in sorted(weight, key=len):
        if prefix:
            marking_sets[prefix] = closure({
                reference_fire(net, marking, t)
                for marking in marking_sets[prefix[:-1]]
                for t in enabled(marking)
                if net.label(t) == prefix[-1]
            })

    escaping_total = 0
    enabled_total = 0
    for prefix, w in weight.items():
        enabled_labels = {
            net.label(t)
            for marking in marking_sets[prefix]
            for t in enabled(marking)
            if net.label(t) is not None
        }
        escaping_total += w * len(enabled_labels - observed[prefix])
        enabled_total += w * len(enabled_labels)
    if enabled_total == 0:
        return 1.0
    return 1.0 - escaping_total / enabled_total


def reference_report(
    log: EventLog,
    net: PetriNet,
    prototypes,
    beta: float,
    align_budget: int = DEFAULT_ALIGN_BUDGET,
    closure_budget: int = DEFAULT_CLOSURE_BUDGET,
) -> tuple[QualityReport, dict[Trace, AlignmentResult]]:
    """A net's report against a log, and each variant's alignment, from the reference oracles.

    Every variant gets its own ``reference_alignment_cost``; the shortest
    word is the empty trace's (at the default budget, as the library's
    is). Fitness is the exact rational ``1 - sum(count * cost / (len +
    shortest)) / total`` rounded once; precision replays the projections
    with ``reference_escaping_edges_precision``. F_beta, size and the
    Cardoso metric are written out here.
    """
    table = log.variants
    total = sum(table.values())
    alignments = {t: reference_alignment_cost(t, net, align_budget) for t in table}
    shortest = reference_alignment_cost((), net).cost
    deviation = sum(
        (Fraction(count * alignments[t].cost, len(t) + shortest) for t, count in table.items() if alignments[t].cost),
        Fraction(0),
    )
    fitness = float(1 - deviation / total)
    projected: dict[Trace, int] = {}
    for t, count in table.items():
        word = alignments[t].model_projection
        projected[word] = projected.get(word, 0) + count
    precision = reference_escaping_edges_precision(net, projected, closure_budget)
    b2 = beta * beta
    weighted = b2 * precision + fitness
    fan_out: dict[str, int] = {}
    for source, _ in net.arcs:
        fan_out[source] = fan_out.get(source, 0) + 1
    report = QualityReport(
        fitness=fitness,
        precision=precision,
        f_beta=0.0 if weighted == 0 else (1 + b2) * (precision * fitness) / weighted,
        beta=beta,
        size=len(net.places) + len(net.transitions) + len(net.arcs),
        cardoso=sum(d - 1 for d in fan_out.values()),
        log_coverage=sum(count for t, count in table.items() if t in prototypes) / total,
        model_trace_coverage=sum(count for t, count in table.items() if alignments[t].cost == 0) / total,
    )
    return report, alignments


def _ranked(log: EventLog) -> list[tuple[Trace, int]]:
    """The variant table by descending count, ties lexicographic."""
    return sorted(log.variants.items(), key=lambda item: (-item[1], item[0]))


@functools.lru_cache(maxsize=4)  # reference_compare re-reads the loop a test has just checked
def reference_select_incremental(
    log: EventLog,
    k: int,
    beta: float,
    max_iterations: int = 20,
    align_budget: int = DEFAULT_ALIGN_BUDGET,
    closure_budget: int = DEFAULT_CLOSURE_BUDGET,
) -> tuple[PetriNet, tuple[Trace, ...], tuple[IterationRecord, ...], str]:
    """The paper's selection loop in its plainest form: (model, prototypes, history, stop reason).

    Each iteration clusters its pool with ``reference_kmedoids`` (every
    variant first, then the variants the last model does not fit), adds
    the medoids not yet selected, discovers a net from the prototypes and
    scores it against the whole log with ``reference_report``. The loop
    stops when an iteration's F_beta is not above the one before it, when
    the model fits every variant, or after ``max_iterations``. The model
    and prototypes are the best iteration's: the first with the highest
    F_beta, which is the last one that improved.
    """
    ranked = _ranked(log)
    pool = ranked
    selected: list[Trace] = []
    history: list[IterationRecord] = []
    stop_reason = "iteration_cap"
    for iteration in range(1, max_iterations + 1):
        medoids = reference_kmedoids(pool, min(k, len(pool)))["medoids"]
        added = tuple(m for m in medoids if m not in selected)
        selected.extend(added)
        net = discover(EventLog({t: log.count(t) for t in selected}))
        report, alignments = reference_report(log, net, selected, beta, align_budget, closure_budget)
        improved = not history or report.f_beta > history[-1].report.f_beta
        history.append(IterationRecord(iteration, added, len(selected), report))
        if not improved:
            stop_reason = "no_improvement"
            break
        pool = [(t, c) for t, c in ranked if alignments[t].cost > 0]
        if not pool:
            stop_reason = "no_deviating_traces"
            break
    best = max(history, key=lambda record: record.report.f_beta)
    prototypes = tuple(selected[: best.prototype_total])
    model = discover(EventLog({t: log.count(t) for t in prototypes}))
    return model, prototypes, tuple(history), stop_reason


def reference_compare(
    log: EventLog,
    k: int,
    seed: int,
    beta: float = 1.0,
    max_iterations: int = 20,
    align_budget: int = DEFAULT_ALIGN_BUDGET,
    closure_budget: int = DEFAULT_CLOSURE_BUDGET,
) -> list[list[str]]:
    """The four rows ``compare`` writes to compare.csv, below its header.

    The prototypes row is ``reference_select_incremental``'s best report;
    the frequency (the most frequent variants), random (a seeded sample)
    and nothing (every variant) baselines keep as many variants as it
    selected, and each baseline's net is discovered and scored afresh.
    """
    _, prototypes, history, _ = reference_select_incremental(
        log, k, beta, max_iterations, align_budget, closure_budget
    )
    ranked = [t for t, _ in _ranked(log)]
    n = len(prototypes)
    scored = [("prototypes", max(history, key=lambda record: record.report.f_beta).report, n)]
    for method, selected in (
        ("frequency", ranked[:n]),
        ("random", random.Random(seed).sample(ranked, n)),
        ("nothing", ranked),
    ):
        net = discover(EventLog({t: log.count(t) for t in selected}))
        report, _ = reference_report(log, net, selected, beta, align_budget, closure_budget)
        scored.append((method, report, len(selected)))
    rows = []
    for method, report, n_selected in scored:
        p, f = report.precision, report.fitness
        f1 = 0.0 if p + f == 0 else 2 * (p * f) / (p + f)
        scores = [f"{x:.6f}" for x in (f1, report.f_beta, f, p)]
        rows.append([method, *scores, str(report.size), str(report.cardoso), str(n_selected)])
    return rows


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


def xes_bytes(log: EventLog) -> bytes:
    """The bytes export_xes writes for a log."""
    stream = io.BytesIO()
    export_xes(log, stream)
    return stream.getvalue()


def reference_export_pnml(net: PetriNet) -> bytes:
    """PNML bytes as ElementTree writes them, with a raw carriage return in text as ``&#13;``."""
    root = ET.Element("pnml", {"xmlns": PNML_NAMESPACE})
    net_el = ET.SubElement(root, "net", {"id": "net1", "type": PTNET_TYPE})
    page = ET.SubElement(net_el, "page", {"id": "page1"})
    initial = net.initial_marking.as_dict()
    for place in sorted(net.places):
        place_el = ET.SubElement(page, "place", {"id": place})
        if initial.get(place, 0) > 0:
            marking_el = ET.SubElement(place_el, "initialMarking")
            ET.SubElement(marking_el, "text").text = str(initial[place])
    for t in sorted(net.transitions):
        t_el = ET.SubElement(page, "transition", {"id": t})
        label = net.transitions[t]
        if label is not None:
            name_el = ET.SubElement(t_el, "name")
            ET.SubElement(name_el, "text").text = label
    for i, (source, target) in enumerate(sorted(net.arcs)):
        ET.SubElement(page, "arc", {"id": f"arc{i}", "source": source, "target": target})
    final_el = ET.SubElement(net_el, "finalmarkings")
    marking_el = ET.SubElement(final_el, "marking")
    for place, count in net.final_marking.tokens:
        ref = ET.SubElement(marking_el, "place", {"idref": place})
        ET.SubElement(ref, "text").text = str(count)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    buf = io.BytesIO()
    tree.write(buf, encoding="UTF-8", xml_declaration=True)
    # ElementTree escapes a CR in an attribute but writes it raw in text,
    # where XML parsing would turn it into a line feed
    return buf.getvalue().replace(b"\r", b"&#13;")


def xml_char(c: str) -> bool:
    """A character of XML 1.0's Char production."""
    cp = ord(c)
    return cp in (0x9, 0xA, 0xD) or 0x20 <= cp <= 0xD7FF or 0xE000 <= cp <= 0xFFFD or cp >= 0x10000


def _reference_xml_error(exc: Exception, document: bytes) -> str:
    """ElementTree's words, with the name of a declared multi-byte encoding, which expat leaves out."""
    # the first encoding attribute is the declaration's; a UTF-16 one reads once its zero bytes go
    text = document.decode("latin-1").replace("\0", "")
    declared = re.search(r"encoding\s*=\s*[\"']([^\"']*)", text) if isinstance(exc, ValueError) else None
    return str(exc) if declared is None else f"multi-byte encoding not supported: {declared[1]}"


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
    except (ET.ParseError, LookupError, ValueError) as exc:  # the last two: a declared encoding
        raise LogFormatError(f"malformed XES XML: {_reference_xml_error(exc, document)}") from exc
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


def _reference_timestamp(text: str) -> object:
    normalized = text.strip()
    try:
        return datetime.fromisoformat(normalized)
    except ValueError:
        pass
    try:
        seconds = float(normalized)
    except ValueError:
        raise LogFormatError(f"unparsable timestamp {text!r}") from None
    if not math.isfinite(seconds):
        raise LogFormatError(f"timestamp {text!r} is not a finite number")
    return seconds


def _reference_timestamp_kind(value: object) -> str:
    if isinstance(value, float):
        return "a number"
    return "a naive ISO datetime" if value.tzinfo is None else "an ISO datetime with an offset"


def reference_parse_csv(document: bytes, columns: CsvColumns) -> EventLog:
    """The CSV reader as it was before its row loop was tightened.

    One ``setdefault`` per row, the row-width bound taken per row, a
    timestamp helper that tries ISO-8601 then a number, and a sort by a
    lambda key.
    """
    import csv

    body = document.removeprefix(b"\xef\xbb\xbf")
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = body[: exc.start].count(b"\n") + 1
        raise LogFormatError(f"line {line}: not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise LogFormatError("CSV document has no header row") from None
    except csv.Error as exc:
        raise LogFormatError(f"line {reader.line_num}: {exc}") from None

    for name in columns:
        if name is not None and header.count(name) != 1:
            problem = "not present in" if name not in header else f"named {header.count(name)} times in"
            raise LogFormatError(f"mapped column {name!r} {problem} CSV header {header}")
    case_col = header.index(columns.case_id)
    act_col = header.index(columns.activity)
    time_col = header.index(columns.timestamp) if columns.timestamp is not None else None

    cases: dict[str, list[tuple[object, str]]] = {}
    first_kind: tuple[int, str] | None = None

    def rows():
        try:
            yield from enumerate(reader, start=2)
        except csv.Error as exc:
            raise LogFormatError(f"line {reader.line_num}: {exc}") from None

    for rownum, row in rows():
        if not row:
            continue
        if len(row) <= max(case_col, act_col, time_col or 0):
            raise LogFormatError(f"row {rownum}: expected {len(header)} fields, got {len(row)}")
        case = row[case_col]
        activity = row[act_col]
        if not activity:
            raise LogFormatError(f"row {rownum}: empty activity")
        if not activity.isprintable() and re.search(_NOT_XML, activity):
            raise LogFormatError(f"row {rownum}: activity {activity!r} holds a character XML 1.0 forbids")
        if time_col is not None:
            try:
                key: object = _reference_timestamp(row[time_col])
            except LogFormatError as exc:
                raise LogFormatError(f"row {rownum}: {exc}") from None
            kind = _reference_timestamp_kind(key)
            if first_kind is None:
                first_kind = (rownum, kind)
            elif kind != first_kind[1]:
                raise LogFormatError(
                    f"row {rownum}: timestamp {row[time_col]!r} is {kind}, but the column's "
                    f"first timestamp (row {first_kind[0]}) is {first_kind[1]}"
                )
        else:
            key = 0
        cases.setdefault(case, []).append((key, activity))

    traces = []
    for events in cases.values():
        events.sort(key=lambda e: e[0])
        traces.append([activity for _, activity in events])
    return EventLog.from_traces(traces)


def reference_parse_pnml(document: bytes) -> PetriNet:
    """The PNML reader as a recursive walk with a hand-written child lookup.

    Children match on their local tag name. ``<page>`` and ``<net>``
    containers are read recursively in document order; a place's first
    ``<initialMarking>`` and a transition's first ``<name>`` count, each
    with its first ``<text>``. A final-marking ``<place>`` without an
    ``idref`` is skipped, and an arc given twice is rejected.
    """

    def find_child(element: ET.Element, name: str) -> ET.Element | None:
        for child in element:
            if _local(child.tag) == name:
                return child
        return None

    try:
        root = ET.fromstring(document)
    except (ET.ParseError, LookupError, ValueError) as exc:  # the last two: a declared encoding
        raise ValueError(f"malformed PNML XML: {_reference_xml_error(exc, document)}") from exc
    net_el = root if _local(root.tag) == "net" else find_child(root, "net")
    if net_el is None:
        raise ValueError("PNML document has no <net> element")

    places: set[str] = set()
    transitions: dict[str, str | None] = {}
    arcs: list[tuple[str, str]] = []
    initial: dict[str, int] = {}
    final: dict[str, int] = {}

    def tokens(text: str, pid: str | None, which: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"{which} marking of place {pid!r} is not an integer: {text!r}") from None

    def walk(element: ET.Element) -> None:
        for child in element:
            kind = _local(child.tag)
            if kind == "place":
                pid = child.get("id")
                if pid is None:
                    raise ValueError("place without id")
                if pid in places:
                    raise ValueError(f"duplicate place id {pid!r}")
                places.add(pid)
                marking_el = find_child(child, "initialMarking")
                if marking_el is not None:
                    text_el = find_child(marking_el, "text")
                    if text_el is not None and text_el.text:
                        initial[pid] = tokens(text_el.text, pid, "initial")
            elif kind == "transition":
                tid = child.get("id")
                if tid is None:
                    raise ValueError("transition without id")
                if tid in transitions:
                    raise ValueError(f"duplicate transition id {tid!r}")
                label: str | None = None
                name_el = find_child(child, "name")
                if name_el is not None:
                    text_el = find_child(name_el, "text")
                    if text_el is not None and text_el.text:
                        label = text_el.text
                transitions[tid] = label
            elif kind == "arc":
                source, target = child.get("source"), child.get("target")
                if source is None or target is None:
                    raise ValueError("arc without source/target")
                if (source, target) in arcs:
                    raise ValueError(f"arc {source!r} -> {target!r} is given twice: only unit-weight arcs are supported")
                arcs.append((source, target))
            elif kind == "finalmarkings":
                for marking_el in child:
                    for ref in marking_el:
                        if _local(ref.tag) != "place":
                            continue
                        pid = ref.get("idref")
                        text_el = find_child(ref, "text")
                        count = tokens(text_el.text, pid, "final") if text_el is not None and text_el.text else 1
                        if pid is not None:
                            final[pid] = count
            elif kind in ("page", "net"):
                walk(child)

    walk(net_el)
    return PetriNet(
        places=places,
        transitions=transitions,
        arcs=arcs,
        initial_marking=Marking.of(initial),
        final_marking=Marking.of(final),
    )
