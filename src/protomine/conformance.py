"""Alignment-based model quality: fitness, precision, F_beta, coverage.

``alignment_cost`` finds an optimal alignment of one trace over the
synchronous product: synchronous moves and silent model moves are free,
a trace-only move (deleting an activity) or a visible model-only move
(inserting one) costs one. The alignment cost therefore equals the
minimum insert/delete edit distance from the trace to any word of the
model language, and

    fitness(trace, net) = 1 - cost / (len(trace) + shortest_word(net))

so 1 means the trace is a word of the model. The cost ratio is kept as an
exact rational, and a trace deviates (fitness < 1) exactly when its
alignment cost is positive, so no float comparison is involved.

Precision follows the escaping-edges idea: replay the aligned model
projection of every trace, weight each replay state by the traces passing
through it, and compare the activities the model enables against the
activities actually observed leaving the state.

``variant_alignments`` aligns each variant of a log once, and
``compute_report`` derives every metric from those alignments in one
pass: fitness, precision, F_beta and both coverages. No other function
turns alignments into metrics.

Every search here, the alignments and the precision replay alike, runs
on the net's compiled form (``PetriNet.compiled``), so they share one
memo of successors and silent closures per net.

The alignment search encodes a (marking, trace position) state as the
single int ``marking id * (len(trace) + 1) + pos``, using the compiled
net's dense marking ids, so its dicts and heap hash an int instead of a
marking tuple. Its pop order is that of a search on (marking vector,
pos) tuples: heap entries break ties on a unique counter before they
reach the state, so the encoding is never compared, and the moves are
pushed in the same order. Costs, projections and budget overruns are
therefore the same as well.

Log fitness is folded exactly in integers: the deviating variants'
``count * cost`` are summed per denominator ``len(trace) + shortest``,
and one Fraction per distinct denominator gives the same rational as a
per-variant sum.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .eventlog import EventLog, Trace
from .petrinet import (
    BudgetExceeded,
    PetriNet,
    cardoso_metric,
    shortest_visible_path,
    size_metric,
)

DEFAULT_ALIGN_BUDGET = 500_000
DEFAULT_CLOSURE_BUDGET = 100_000


@dataclass(frozen=True)
class AlignmentResult:
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
    deletion). Among equal-cost states the search prefers those with
    more of the trace consumed, which does not affect optimality.
    Raises BudgetExceeded naming the trace when over ``budget`` states expand.

    A state is one int, ``marking id * (len(trace) + 1) + pos``. The
    marking ids and their move lists come from ``PetriNet.compiled``
    (``state_id``, ``moves``) and outlive the call, so every alignment
    against the same net reuses what earlier ones built. Heap entries
    are ``(cost, events left, tie, state)`` with a strictly decreasing
    ``tie``: equal cost and progress pop last-in first-out, diving down
    silent chains first. ``tie`` is unique, so the state is never
    compared and its encoding cannot change the pop order; moves are
    pushed in ``successors`` order (silent, or synchronous then
    insertion, per transition; the deletion last). Costs, projections
    and budget overruns are therefore those of the same search on
    (marking vector, pos) tuples. This is the hot loop of every
    log-versus-model score.
    """
    compiled = net.compiled
    moves_of = compiled.moves
    trace = tuple(trace)
    goal_pos = len(trace)
    width = goal_pos + 1
    start = compiled.state_id(compiled.initial) * width
    goal = compiled.state_id(compiled.final) * width + goal_pos

    dist: dict[int, int] = {start: 0}
    parent: dict[int, tuple[int, str | None] | None] = {start: None}
    heap: list[tuple[int, int, int, int]] = [(0, 0, 0, start)]
    push, pop = heapq.heappush, heapq.heappop
    tie = 0
    expanded = 0

    while heap:
        cost, _, _, state = pop(heap)
        if cost > dist[state]:
            continue
        if state == goal:
            projection: list[str] = []
            step = parent[state]
            while step is not None:
                state, label = step
                if label is not None:
                    projection.append(label)
                step = parent[state]
            return AlignmentResult(cost=cost, model_projection=tuple(reversed(projection)))
        expanded += 1
        if expanded > budget:
            shown = " ".join(trace[:8]) + (" ..." if goal_pos > 8 else "")
            raise BudgetExceeded(f"alignment search of trace [{shown}] ({goal_pos} events)", budget)

        sid, pos = divmod(state, width)
        left = goal_pos - pos
        symbol = trace[pos] if left else None
        paid = cost + 1
        for label, succ in moves_of(sid):
            nxt = succ * width + pos
            if label is None:
                if cost < dist.get(nxt, paid):
                    dist[nxt] = cost
                    parent[nxt] = (state, None)
                    tie -= 1
                    push(heap, (cost, left, tie, nxt))
                continue
            if label == symbol:  # synchronous
                if cost < dist.get(nxt + 1, paid):
                    dist[nxt + 1] = cost
                    parent[nxt + 1] = (state, label)
                    tie -= 1
                    push(heap, (cost, left - 1, tie, nxt + 1))
            if paid < dist.get(nxt, paid + 1):  # model-only (insertion)
                dist[nxt] = paid
                parent[nxt] = (state, label)
                tie -= 1
                push(heap, (paid, left, tie, nxt))
        if left and paid < dist.get(state + 1, paid + 1):  # trace-only (deletion)
            dist[state + 1] = paid
            parent[state + 1] = (state, None)
            tie -= 1
            push(heap, (paid, left - 1, tie, state + 1))

    raise ValueError("net has no accepting firing sequence; final marking unreachable")


def variant_alignments(
    log: EventLog, net: PetriNet, budget: int = DEFAULT_ALIGN_BUDGET
) -> dict[Trace, AlignmentResult]:
    """Optimal alignment per variant (computed once per distinct trace)."""
    return {trace: alignment_cost(trace, net, budget) for trace in sorted(log.variants)}


def f_beta(precision: float, fitness: float, beta: float) -> float:
    """Weighted harmonic combination of precision and fitness.

    beta > 1 raises the weight of fitness, beta < 1 the weight of
    precision; beta = 1 is their plain harmonic mean. Returns 0 when
    either input is 0.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    for name, value in (("precision", precision), ("fitness", fitness)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    b2 = beta * beta
    denominator = b2 * precision + fitness
    if denominator == 0:
        return 0.0
    return (1 + b2) * (precision * fitness) / denominator


@dataclass(frozen=True)
class QualityReport:
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
        return {
            "fitness": self.fitness,
            "precision": self.precision,
            "f_beta": self.f_beta,
            "beta": self.beta,
            "size": self.size,
            "cardoso": self.cardoso,
            "log_coverage": self.log_coverage,
            "model_trace_coverage": self.model_trace_coverage,
        }


def compute_report(
    log: EventLog,
    net: PetriNet,
    prototype_list: Sequence[Trace],
    beta: float,
    budget: int = DEFAULT_ALIGN_BUDGET,
    alignments: Mapping[Trace, AlignmentResult] | None = None,
    closure_budget: int = DEFAULT_CLOSURE_BUDGET,
) -> QualityReport:
    """Score a net against a log from one alignment per variant.

    Fitness is the frequency-weighted mean of per-variant fitness.
    Precision replays every variant's aligned model projection (for a
    fitting trace, the trace itself), so deviating behaviour counts as
    its closest model word. Log coverage is the share of traces equal to
    a prototype, model trace coverage the share aligning at cost zero.

    Callers that already hold per-variant alignments (the selection loop
    does) can pass them in to avoid a second search. An empty log, or a
    prototype that is not a variant of the log, raises ValueError. The
    shortest model word is found before any alignment search runs, so a
    net whose final marking is unreachable fails fast with ValueError.
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
    if alignments is None:
        alignments = variant_alignments(log, net, budget)
    # 1 - fitness is sum(count * cost / (len(trace) + shortest)) / total;
    # fitting variants add nothing (nor does the empty trace against a
    # model accepting the empty word, the one zero denominator), so only
    # deviating costs are summed, one exact Fraction per denominator
    deviation: dict[int, int] = {}
    for trace, count in table.items():
        cost = alignments[trace].cost
        if cost:
            denominator = len(trace) + shortest
            deviation[denominator] = deviation.get(denominator, 0) + count * cost
    fit = 1 - Fraction(sum(Fraction(v, d) for d, v in deviation.items()), total)
    projected: dict[Trace, int] = {}
    for trace, count in table.items():
        word = alignments[trace].model_projection
        projected[word] = projected.get(word, 0) + count
    precision = _escaping_edges_precision(net, projected, closure_budget)
    log_cov = sum(count for trace, count in table.items() if trace in selected) / total
    model_cov = sum(count for trace, count in table.items() if alignments[trace].cost == 0) / total
    return QualityReport(
        fitness=float(fit),
        precision=precision,
        f_beta=f_beta(precision, float(fit), beta),
        beta=beta,
        size=size_metric(net),
        cardoso=cardoso_metric(net),
        log_coverage=log_cov,
        model_trace_coverage=model_cov,
    )


def _escaping_edges_precision(
    net: PetriNet, projected: dict[Trace, int], closure_budget: int
) -> float:
    # prefix tree of the replayed words: weight = traces passing through,
    # observed = activities seen leaving the state
    weight: dict[Trace, int] = {}
    observed: dict[Trace, set[str]] = {}
    for word, count in sorted(projected.items()):
        for i in range(len(word) + 1):
            prefix = word[:i]
            weight[prefix] = weight.get(prefix, 0) + count
            observed.setdefault(prefix, set())
            if i < len(word):
                observed[prefix].add(word[i])

    # subset construction along the prefix tree: the marking set of a
    # prefix is every marking reachable with exactly that visible word
    compiled = net.compiled
    marking_sets: dict[Trace, set[tuple[int, ...]]] = {
        (): compiled.silent_closure([compiled.initial], closure_budget)
    }
    for prefix in sorted(weight, key=len):
        if prefix == ():
            continue
        label = prefix[-1]
        stepped = {
            fired
            for vector in marking_sets[prefix[:-1]]
            for _, step_label, fired in compiled.successors(vector)
            if step_label == label
        }
        marking_sets[prefix] = compiled.silent_closure(stepped, closure_budget)

    escaping_total = 0
    enabled_total = 0
    for prefix, w in weight.items():
        enabled_labels = {
            label
            for vector in marking_sets[prefix]
            for _, label, _ in compiled.successors(vector)
            if label is not None
        }
        escaping = enabled_labels - observed[prefix]
        escaping_total += w * len(escaping)
        enabled_total += w * len(enabled_labels)
    if enabled_total == 0:
        return 1.0
    return 1.0 - escaping_total / enabled_total
