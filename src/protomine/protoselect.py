"""Incremental prototype selection and the baselines it is compared to.

Each iteration of the selection loop clusters its pool of variants (the
whole log in the first iteration, the variants the last model does not
fit after that), adds the medoids to the prototype set, discovers a model
from the prototype log and scores it against the whole log. The loop
stops on the first iteration whose F_beta does not strictly improve on
the best record, the last improving iteration (no_improvement), when the
model fits every variant (no_deviating_traces), or at the iteration cap
(iteration_cap). It has one exit: after the loop, the best record's
model, prototypes and report are returned with the whole history.

Termination is guaranteed without any cap: an iteration that adds no
prototype rediscovers the same model, scores the same F_beta and stops,
so the prototype set grows strictly until then and is bounded by the
number of variants.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .conformance import (
    DEFAULT_ALIGN_BUDGET,
    DEFAULT_CLOSURE_BUDGET,
    QualityReport,
    check_beta,
    compute_report,
    variant_alignments,
)
from .discovery import discover
from .eventlog import EventLog, Trace, variants
from .petrinet import PetriNet
from .tracedist import DistanceMatrix, distance_matrix, kmedoids

STOP_NO_IMPROVEMENT = "no_improvement"
STOP_NO_DEVIATING_TRACES = "no_deviating_traces"
STOP_ITERATION_CAP = "iteration_cap"


class IterationRecord(NamedTuple):
    """One scored iteration of the selection loop."""

    iteration: int
    prototypes_added: tuple[Trace, ...]
    prototype_total: int
    report: QualityReport


class SelectionResult(NamedTuple):
    """The best iteration's model, prototypes and report, and the full iteration history.

    ``best_report`` is the report of the last improving iteration, which
    first reached the highest F_beta of the history. ``distances`` is the
    variant distance matrix the loop clustered on, held once, for callers
    to reuse. The model keeps its alignments itself: scored again on this
    log and budget, it is not aligned again.
    """

    model: PetriNet
    prototypes: tuple[Trace, ...]
    best_report: QualityReport
    history: tuple[IterationRecord, ...]
    stop_reason: str
    distances: DistanceMatrix


def select_incremental(
    log: EventLog,
    k: int,
    beta: float = 1.0,
    max_iterations: int = 20,
    align_budget: int = DEFAULT_ALIGN_BUDGET,
    closure_budget: int = DEFAULT_CLOSURE_BUDGET,
) -> SelectionResult:
    """Run the incremental prototype selection loop on a log.

    Every iteration clusters its pool into min(k, pool size) groups, adds
    the medoids not yet selected, and scores the model discovered from
    the prototypes against the full input log, never the prototype log.
    The pool is every variant in the first iteration and the variants
    with a positive alignment cost after that. The result is built once,
    after the loop, from the best (last improving) iteration.
    """
    ordered = variants(log)
    if k < 1 or k > len(ordered):
        raise ValueError(f"k must lie in 1..{len(ordered)} for this log, got {k}")
    check_beta(beta)
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")

    matrix = distance_matrix([t for t, _ in ordered])
    pool = ordered
    selected: list[Trace] = []
    history: list[IterationRecord] = []
    best: tuple[PetriNet, IterationRecord] | None = None  # the last improving iteration
    stop_reason = STOP_ITERATION_CAP
    for iteration in range(1, max_iterations + 1):
        medoids = kmedoids(pool, min(k, len(pool)), matrix).medoids
        added = tuple(m for m in medoids if m not in selected)
        selected += added
        try:
            net = discover(EventLog({t: log.count(t) for t in selected}))
            alignments = variant_alignments(log, net, align_budget)
            # the report finds these alignments on the net and searches them no more
            report = compute_report(log, net, selected, beta, align_budget, closure_budget)
        except Exception as exc:
            raise RuntimeError(f"prototype selection failed at iteration {iteration}: {exc}") from exc
        record = IterationRecord(iteration, added, len(selected), report)
        history.append(record)
        if best and report.f_beta <= best[1].report.f_beta:
            stop_reason = STOP_NO_IMPROVEMENT
            break
        best = net, record
        pool = [(t, c) for t, c in ordered if alignments[t].cost > 0]  # fitness < 1, exactly
        if not pool:
            stop_reason = STOP_NO_DEVIATING_TRACES
            break

    model, record = best
    prototypes = tuple(selected[: record.prototype_total])
    return SelectionResult(model, prototypes, record.report, tuple(history), stop_reason, matrix)


def baseline_frequency(log: EventLog, n: int) -> list[Trace]:
    """The n most frequent variants, ties broken lexicographically."""
    table = variants(log)
    if n < 0 or n > len(table):
        raise ValueError(f"n must lie in 0..{len(table)}, got {n}")
    return [t for t, _ in table[:n]]


def baseline_random(log: EventLog, n: int, seed: int) -> list[Trace]:
    """n distinct variants drawn uniformly with a seeded generator."""
    table = variants(log)
    if n < 0 or n > len(table):
        raise ValueError(f"n must lie in 0..{len(table)}, got {n}")
    rng = random.Random(seed)
    return rng.sample([t for t, _ in table], n)


def gen_synthetic(net: PetriNet, n_traces: int, noise_rate: float, seed: int) -> EventLog:
    """Simulate a base model into a log, optionally perturbing traces.

    Each trace is a random walk over enabled transitions from the initial
    to the final marking. With probability noise_rate a trace receives
    one to three random edits: deleting a position or re-inserting an
    activity the trace already contains. Deterministic under seed.
    """
    if not 0.0 <= noise_rate <= 1.0:
        raise ValueError("noise_rate must lie in [0, 1]")
    if n_traces < 0:
        raise ValueError("n_traces must be non-negative")
    rng = random.Random(seed)
    traces = []
    for _ in range(n_traces):
        trace = _simulate_trace(net, rng)
        if rng.random() < noise_rate:
            trace = _perturb(trace, rng)
        traces.append(trace)
    return EventLog.from_traces(traces)


# steps a simulated walk may take before it counts as failed and is retried
MAX_STEPS = 1000


def _simulate_trace(net: PetriNet, rng: random.Random) -> Trace:
    compiled = net.compiled
    for _ in range(100):  # retries in case a walk dead-ends
        sid = compiled.initial
        word: list[str] = []
        for _ in range(MAX_STEPS):
            if sid == compiled.final:
                return tuple(word)
            options = compiled.moves(sid)  # in transition_ids (sorted) order
            if not options:
                break
            _, label, sid = rng.choice(options)
            if label is not None:
                word.append(label)
    raise RuntimeError("simulation repeatedly failed to reach the final marking")


def _perturb(trace: Trace, rng: random.Random) -> Trace:
    result = list(trace)
    for _ in range(rng.randint(1, 3)):
        if not result:
            break
        if rng.random() < 0.5:
            del result[rng.randrange(len(result))]
        else:
            activity = rng.choice(result)
            result.insert(rng.randint(0, len(result)), activity)
    return tuple(result)
