"""Alignment-based model quality: fitness, precision, F_beta, coverage.

``alignment_cost`` finds an optimal alignment of one trace over the
synchronous product: synchronous moves and silent model moves are free,
a trace-only move (deleting an activity) or a visible model-only move
(inserting one) costs one. The alignment cost therefore equals the
minimum insert/delete edit distance from the trace to any word of the
model language, and

    fitness(trace, net) = 1 - cost / (len(trace) + shortest_word(net))

so 1 means the trace is a word of the model; ``shortest_word`` is the
empty trace's alignment cost. The ratio is kept exact, so a trace deviates
(fitness < 1) exactly when its cost is positive, without float comparison.

Precision follows the escaping-edges idea: replay the aligned model
projection of every trace, weight each replay state by the traces passing
through it, and compare the activities the model enables against the
activities actually observed leaving the state. The replay states are
the nodes of the words' ``prefix_trie``, each holding the set of markings
reachable with its prefix. Many prefixes share a set (a flower net has
two), so sets are interned per call and each subset step ``(set,
label)``, with its silent closure and its enabled labels, is computed
once and memoised; weights and observed labels stay per node.

``variant_alignments`` aligns each variant of a log once per net and
budget, and ``compute_report`` derives every metric from those
alignments in one pass: fitness, precision, F_beta and both coverages.
No other function turns alignments into metrics.

Every search here, the alignments and the precision replay alike, runs
on the net's compiled form (``PetriNet.compiled``), so they share its one
id-keyed table of moves.

There is one alignment search, ``_align_trie`` (after prefix-alignments,
van Zelst et al., IJDSA 2019), over a prefix trie: one trace's path for
``alignment_cost``, the log's trie of every variant, built once per log,
for ``variant_alignments``. Restricted to one variant's path it pops in
that variant's own order, so every cost, projection and budget overrun
is that of aligning the variant alone.

The search reads each marking's moves once and pushes its cost-1 moves
only when a cost level is exhausted, so on a log whose variants all fit
it pushes no cost-1 move, and elsewhere none that would pop stale.

Log fitness is folded exactly in integers: the deviating variants'
``count * cost`` are summed per denominator ``len(trace) + shortest``,
each sum is scaled to the denominators' least common multiple, and one
int / int true division rounds the exact rational to the float, as
``float(Fraction)`` would.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Sequence

from .eventlog import EventLog, PrefixTrie, Trace, prefix_trie
from .petrinet import BudgetExceeded, PetriNet, cardoso_metric, size_metric

DEFAULT_ALIGN_BUDGET = 500_000
DEFAULT_CLOSURE_BUDGET = 100_000


class AlignmentResult(NamedTuple):
    """Optimal alignment cost plus the model side's visible word."""

    cost: int
    model_projection: Trace


def alignment_cost(
    trace: Sequence[str], net: PetriNet, budget: int = DEFAULT_ALIGN_BUDGET
) -> AlignmentResult:
    """Optimal insert/delete alignment of a trace against the net.

    Uniform-cost search over (marking, trace position) states. Moves:
    fire a transition matching the next activity (free), fire a silent
    transition (free), fire a visible transition without consuming input
    (cost 1, an insertion), or skip the next input activity (cost 1, a
    deletion). Raises BudgetExceeded naming the trace when over ``budget`` states
    expand, and ValueError when the final marking is not reachable.

    This is ``_align_trie`` on the one-path trie of the trace, where a
    node is a trace position: it pops in the order ``(cost, events left,
    newest push first)`` of the heap search on (marking, pos) tuples that
    ``tests/conftest.py`` keeps as the oracle, so costs, projections and
    budget overruns are the oracle's.
    """
    return _align_trie(prefix_trie([tuple(trace)]), net, budget)[0]


def shortest_visible_path(net: PetriNet, budget: int = DEFAULT_ALIGN_BUDGET) -> int:
    """Fewest visible labels of an accepted word: the empty trace's cost, kept on the net per budget."""
    memo = net.compiled.shortest
    if budget not in memo:
        try:
            memo[budget] = alignment_cost((), net, budget).cost
        except BudgetExceeded:
            raise BudgetExceeded(f"shortest path search on {net!r}", budget) from None
    return memo[budget]


def _events(trace: Trace) -> str:
    """A trace for an error message: its first 8 labels and its length."""
    shown = " ".join(trace[:8]) + (" ..." if len(trace) > 8 else "")
    return f"[{shown}] ({len(trace)} events)"


def variant_alignments(
    log: EventLog, net: PetriNet, budget: int = DEFAULT_ALIGN_BUDGET
) -> dict[Trace, AlignmentResult]:
    """Optimal alignment per variant, in sorted order, from one search over ``log.prefix_trie``.

    The result, budget overruns and errors included, is that of
    ``{t: alignment_cost(t, net, budget) for t in sorted(log.variants)}``:
    each variant's cost and projection are those of its own search
    (``_align_trie``), and when the joint search raises, that loop runs
    instead, so the error names the first sorted variant that fails.
    The one place alignments are reused: each result is kept on
    ``net.compiled`` by (sorted variants, budget), and each call gets its
    own copy. A search that raises keeps nothing.
    """
    trie = log.prefix_trie
    if not trie.traces:
        return {}
    memo, key = net.compiled.alignments, (trie.traces, budget)
    if key not in memo:
        try:
            memo[key] = dict(zip(trie.traces, _align_trie(trie, net, budget)))
        except (BudgetExceeded, ValueError):
            memo[key] = {trace: alignment_cost(trace, net, budget) for trace in trie.traces}
    return dict(memo[key])


def _align_trie(trie: PrefixTrie, net: PetriNet, budget: int) -> list[AlignmentResult]:
    """Optimal alignment of each of the trie's traces, in one search.

    A node stands for the prefix consumed so far, and a state is one
    int, ``marking id * nodes + node``, over the marking ids and moves of
    ``PetriNet.compiled``, which outlive the call. Silent moves (free)
    and insertions (cost 1) stay at the node; a synchronous move (free)
    steps to the child with its label, a deletion (cost 1) to every
    child. A trace is settled when (final, its node) pops. A node with
    no unsettled trace at or below it stays so, and a state there is
    neither pushed nor expanded.

    Every move costs 0 or 1, so a state popped at ``cost`` pushes only
    at ``cost`` or ``cost + 1``, and the queue is a bucket queue (Dial,
    1969) over those two costs: ``now`` holds one LIFO stack per trie
    depth at ``cost``, ``later`` one per depth at ``cost + 1``. The cursor
    ``level`` pops from the deepest stack of ``now``. A state there
    pushes free moves only at ``level`` (silent) or ``level + 1``
    (synchronous), so a synchronous push moves the cursor up, an emptied
    stack moves it down, and when it passes depth 0 the two arrays swap
    and it restarts at the deepest. The pop order is therefore ``(cost,
    deepest first, newest push first)``, with moves pushed in ``moves``
    order (silent, or synchronous then insertion, per transition; the
    deletions last).

    A marking's moves are read once per search, on its first expansion,
    and split into its silent successors and its visible ``(label,
    successor)`` pairs, both times ``nodes``, so a state's move is one
    add. The cost-1 pushes are deferred: each expansion is recorded, and
    when ``now`` runs empty the records replay, in expansion order, the
    insertions and deletions they would have pushed, before the queue is
    tested for emptiness. Silent, synchronous, insertion and deletion
    pushes each go to a stack of their own, and nothing pops from
    ``later`` before the rollover, so every stack receives its pushes in
    the same order as when they were made at once. A push left out is one
    that would have popped stale: a free move reached its state at
    ``cost`` meanwhile (an unreached state reads as ``cost + 1`` to a
    free move, so an earlier cost-1 push changed no free move's test), or
    its node settled. When every trace settles at ``cost``, no cost-1
    move is pushed at all.

    Moves stay at a node or go down to its children, so the states along
    one trace's path are pushed only by states along that path.
    Restricted to that path, the pop order is the order ``(cost, events
    left, newest push first)`` of the search over that trace alone, so
    each trace's cost, projection and expanded states are that search's.
    Expansions are counted per node, and a trace's own count is the sum
    along its path. BudgetExceeded is raised as soon as a trace is sure
    to pass ``budget``: a node expands more than ``budget`` times while a
    trace at or below it is unsettled, a trace settles with more than
    ``budget`` along its path, or all expansions pass ``budget`` per
    trace (for one trace, its own count). An emptied queue with a trace
    unsettled raises ValueError. This is the hot loop of every
    log-versus-model score.
    """
    ordered, up, kids, ends = trie.traces, trie.up, trie.kids, trie.ends
    nodes = len(up)
    live = trie.live.copy()  # unsettled traces at or below each node

    compiled = net.compiled
    moves_of = compiled.moves
    final = compiled.final * nodes  # a state's marking part: marking id * nodes
    # marking part -> its silent successors' and its visible (label, successor's) marking parts
    split: dict[int, tuple[list[int], list[tuple[str, int]]]] = {}
    start = compiled.initial * nodes
    dist: dict[int, int] = {start: 0}
    parent: dict[int, tuple[int, str | None] | None] = {start: None}
    top = max(map(len, ordered))  # the depth of the deepest node
    now: list[list[int]] = [[] for _ in range(top + 2)]  # at cost, by depth
    later: list[list[int]] = [[] for _ in range(top + 2)]  # at cost + 1, by depth
    now[0].append(start)
    level, cost, paid = 0, 0, 1
    # the states expanded at cost, in order, whose cost-1 moves are pushed at the rollover
    deferred: list[tuple[int, int, int, list[tuple[str, int]], dict[str, int]]] = []
    expanded = [0] * nodes
    total, limit = 0, budget * len(ordered)
    results: list[AlignmentResult | None] = [None] * len(ordered)

    while True:
        while level >= 0:
            here, below = now[level], now[level + 1]
            while here:
                state = here.pop()
                if cost > dist[state]:
                    continue
                node = state % nodes
                if not live[node]:
                    continue
                marking = state - node
                if marking == final and ends[node] >= 0:
                    spent = 0
                    cursor = node
                    while cursor >= 0:
                        spent += expanded[cursor]
                        live[cursor] -= 1
                        cursor = up[cursor]
                    if spent > budget:
                        raise _overrun(ordered, budget)
                    projection: list[str] = []
                    step = parent[state]
                    while step is not None:
                        prev, label = step
                        if label is not None:
                            projection.append(label)
                        step = parent[prev]
                    results[ends[node]] = AlignmentResult(cost, tuple(reversed(projection)))
                    if not live[0]:  # the root counts every unsettled trace
                        return results
                    if not live[node]:
                        continue
                expanded[node] += 1
                total += 1
                if total > limit or expanded[node] > budget:
                    raise _overrun(ordered, budget)

                moves = split.get(marking)
                if moves is None:
                    row = moves_of(marking // nodes)
                    moves = split[marking] = (
                        [succ * nodes for _, label, succ in row if label is None],
                        [(label, succ * nodes) for _, label, succ in row if label is not None],
                    )
                silent, visible = moves
                for base in silent:
                    nxt = base + node
                    if cost < dist.get(nxt, paid):
                        dist[nxt] = cost
                        parent[nxt] = (state, None)
                        here.append(nxt)
                children = kids[node]
                for label, base in visible:
                    child = children.get(label)
                    if child is not None and live[child]:  # synchronous
                        sync = base + child
                        if cost < dist.get(sync, paid):
                            dist[sync] = cost
                            parent[sync] = (state, label)
                            below.append(sync)
                deferred.append((state, level, node, visible, children))
                if below:  # empty before this state popped: level was the deepest
                    level += 1
                    break
            else:
                level -= 1
        for state, level, node, visible, children in deferred:
            if not live[node]:  # settled since: a state here would pop only to be skipped
                continue
            inserted = later[level]
            for label, base in visible:  # model-only (insertion)
                nxt = base + node
                if paid < dist.get(nxt, paid + 1):
                    dist[nxt] = paid
                    parent[nxt] = (state, label)
                    inserted.append(nxt)
            deleted = later[level + 1]
            marking = state - node
            for child in children.values():  # trace-only (deletion)
                nxt = marking + child
                if live[child] and paid < dist.get(nxt, paid + 1):
                    dist[nxt] = paid
                    parent[nxt] = (state, None)
                    deleted.append(nxt)
        deferred.clear()
        if not any(later):
            raise ValueError("final marking is not reachable from the initial marking")
        now, later = later, now
        level, cost, paid = top, paid, paid + 1


def _overrun(ordered: Sequence[Trace], budget: int) -> BudgetExceeded:
    """The error of a search over ``ordered`` that passed its budget per trace."""
    what = f"trace {_events(ordered[0])}" if len(ordered) == 1 else f"{len(ordered)} traces"
    return BudgetExceeded(f"alignment search of {what}", budget)


def check_beta(beta: float) -> float:
    """beta if it is non-negative with a finite square, else ValueError (F_beta would be NaN)."""
    if not (beta >= 0 and math.isfinite(beta * beta)):
        raise ValueError(f"beta must be non-negative with a finite square, got {beta}")
    return beta


def f_beta(precision: float, fitness: float, beta: float) -> float:
    """Weighted harmonic combination of precision and fitness.

    beta > 1 raises the weight of fitness, beta < 1 the weight of
    precision; beta = 1 is their plain harmonic mean. Returns 0 when
    either input is 0. A beta ``check_beta`` rejects raises ValueError.
    """
    check_beta(beta)
    for name, value in (("precision", precision), ("fitness", fitness)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    b2 = beta * beta
    denominator = b2 * precision + fitness
    if denominator == 0:
        return 0.0
    return (1 + b2) * (precision * fitness) / denominator


class QualityReport(NamedTuple):
    """All quality numbers for one model against one log."""

    fitness: float
    precision: float
    f_beta: float
    beta: float
    size: int
    cardoso: int
    log_coverage: float
    model_trace_coverage: float

    def to_dict(self) -> dict[str, float | int]:
        return self._asdict()


def compute_report(
    log: EventLog,
    net: PetriNet,
    prototype_list: Sequence[Trace],
    beta: float,
    budget: int = DEFAULT_ALIGN_BUDGET,
    closure_budget: int = DEFAULT_CLOSURE_BUDGET,
) -> QualityReport:
    """Score a net against a log from one alignment per variant.

    Fitness is the frequency-weighted mean of per-variant fitness.
    Precision replays every variant's aligned model projection (for a
    fitting trace, the trace itself), so deviating behaviour counts as
    its closest model word. Log coverage is the share of traces equal to
    a prototype, model trace coverage the share aligning at cost zero.

    The alignments are ``variant_alignments``', reused when that net was
    aligned before. An empty log, or a prototype that is not a variant of
    the log, raises ValueError. The shortest model word is found before
    any variant is aligned, so a net whose final marking is unreachable
    fails fast with ValueError.
    """
    table = log.variants
    total = log.total_traces
    if total == 0:
        raise ValueError("cannot score a model against an empty log")
    selected = {tuple(p) for p in prototype_list}
    unknown = sorted(selected - table.keys())
    if unknown:
        raise ValueError(f"prototype {unknown[0]!r} is not a variant of the log")
    shortest = shortest_visible_path(net)
    alignments = variant_alignments(log, net, budget)
    fit = _log_fitness(table, total, alignments, shortest)
    projected: dict[Trace, int] = {}
    for trace, count in table.items():
        word = alignments[trace].model_projection
        projected[word] = projected.get(word, 0) + count
    precision = _escaping_edges_precision(net, projected, closure_budget)
    log_cov = sum(count for trace, count in table.items() if trace in selected) / total
    model_cov = sum(count for trace, count in table.items() if alignments[trace].cost == 0) / total
    return QualityReport(
        fitness=fit,
        precision=precision,
        f_beta=f_beta(precision, fit, beta),
        beta=beta,
        size=size_metric(net),
        cardoso=cardoso_metric(net),
        log_coverage=log_cov,
        model_trace_coverage=model_cov,
    )


def _log_fitness(
    table: Mapping[Trace, int], total: int, alignments: Mapping[Trace, AlignmentResult], shortest: int
) -> float:
    # 1 - fitness is sum(count * cost / (len(trace) + shortest)) / total;
    # fitting variants add nothing (nor does the empty trace against a
    # model accepting the empty word, the one zero denominator), so only
    # deviating costs are summed per denominator; over the denominators'
    # least common multiple the rational is exact in integers, and int /
    # int true division rounds it once, as float(Fraction) does
    deviation: dict[int, int] = {}
    for trace, count in table.items():
        cost = alignments[trace].cost
        if cost:
            denominator = len(trace) + shortest
            deviation[denominator] = deviation.get(denominator, 0) + count * cost
    common = math.lcm(*deviation)
    scale = common * total
    return (scale - sum(v * (common // d) for d, v in deviation.items())) / scale


def _escaping_edges_precision(
    net: PetriNet, projected: dict[Trace, int], closure_budget: int
) -> float:
    # the replayed words' prefix trie (eventlog.prefix_trie), with per
    # node the traces passing through it, summed bottom-up from the words
    # ending at or below it, and, by subset construction from its
    # parent's set, the id of the set of every marking reachable with
    # exactly that visible word. Sets are interned for the call (keyed on
    # the sets themselves, flower precision ran 8% slower) and each step
    # (set id, label) -> set id is memoised; the nodes are stepped in
    # number order, the order the sorted words first reach them, so a
    # closure overrun names the first prefix in that order
    compiled = net.compiled
    moves = compiled.moves
    set_ids: dict[frozenset[int], int] = {}
    marking_sets: list[frozenset[int]] = []
    enabled: list[frozenset[str]] = []  # per set id, the labels its markings enable
    steps: dict[tuple[int, str], int] = {}

    trie = prefix_trie(projected)
    up, kids = trie.up, trie.kids
    label_of: list[str] = [""] * len(up)  # per node, the label of the edge into it
    for children in kids:
        for label, child in children.items():
            label_of[child] = label

    def closure(node: int, start: Iterable[int]) -> int:
        try:
            reached = frozenset(compiled.silent_closure(start, closure_budget))
        except BudgetExceeded:
            prefix = []
            while node > 0:
                prefix.append(label_of[node])
                node = up[node]
            raise BudgetExceeded(
                f"silent closure after prefix {_events(tuple(reversed(prefix)))}", closure_budget
            ) from None
        set_id = set_ids.get(reached)
        if set_id is None:
            set_id = set_ids[reached] = len(marking_sets)
            marking_sets.append(reached)
            enabled.append(
                frozenset(label for sid in reached for _, label, _ in moves(sid) if label is not None)
            )
        return set_id

    states = [closure(0, [compiled.initial])]
    for node in range(1, len(up)):
        key = (states[up[node]], label_of[node])
        reached = steps.get(key)
        if reached is None:
            before, label = key
            stepped = {nxt for sid in marking_sets[before] for _, step, nxt in moves(sid) if step == label}
            reached = steps[key] = closure(node, stepped)
        states.append(reached)

    weight = [projected[trie.traces[end]] if end >= 0 else 0 for end in trie.ends]
    for node in range(len(up) - 1, 0, -1):  # children before their parents
        weight[up[node]] += weight[node]

    escaping_total = 0
    enabled_total = 0
    for w, observed, set_id in zip(weight, kids, states):
        enabled_labels = enabled[set_id]
        escaping_total += w * len(enabled_labels - observed.keys())
        enabled_total += w * len(enabled_labels)
    if enabled_total == 0:
        return 1.0
    return 1.0 - escaping_total / enabled_total
