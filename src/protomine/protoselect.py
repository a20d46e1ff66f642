"""Incremental prototype selection and the baselines it is compared to.

The driver clusters all log variants, takes the medoids as prototypes,
discovers a model from the prototype sublog and scores it against the
whole log. While the F_beta score keeps strictly improving, it clusters
the currently deviating variants, adds their medoids to the prototype
set, and rediscovers. On the first non-improving iteration the previous
(best) model and prototype set are returned.

Termination is guaranteed without any cap: the prototype set grows
strictly every iteration and is bounded by the number of variants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .clustering import kmedoids
from .clustering import prototypes as cluster_prototypes
from .conformance import (
    DEFAULT_ALIGN_BUDGET,
    DEFAULT_CLOSURE_BUDGET,
    QualityReport,
    compute_report,
    variant_alignments,
)
from .discovery import discover
from .eventlog import EventLog, Sublog, Trace, variants
from .petrinet import PetriNet
from .tracedist import distance_matrix

STOP_NO_IMPROVEMENT = "no_improvement"
STOP_NO_DEVIATING_TRACES = "no_deviating_traces"
STOP_ITERATION_CAP = "iteration_cap"


@dataclass(frozen=True)
class IterationRecord:
    """One scored iteration of the selection loop."""

    iteration: int
    prototypes_added: tuple[Trace, ...]
    prototype_total: int
    report: QualityReport

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "prototypes_added": [list(t) for t in self.prototypes_added],
            "prototype_total": self.prototype_total,
            "report": self.report.to_dict(),
        }


@dataclass(frozen=True)
class SelectionResult:
    """Final model, its prototypes, and the full iteration history."""

    model: PetriNet
    prototypes: tuple[Trace, ...]
    history: tuple[IterationRecord, ...]
    stop_reason: str

    @property
    def best_report(self) -> QualityReport:
        return max(self.history, key=lambda r: r.report.f_beta).report


def select_incremental(
    log: EventLog,
    k: int,
    beta: float = 1.0,
    max_iterations: int = 20,
    align_budget: int = DEFAULT_ALIGN_BUDGET,
    closure_budget: int = DEFAULT_CLOSURE_BUDGET,
) -> SelectionResult:
    """Run the incremental prototype selection loop on a log.

    k is the cluster count of the initial phase and of every incremental
    step (capped by the number of deviating variants). Scores are always
    computed against the full input log, never the prototype sublog.
    """
    ordered = variants(log)
    if k < 1 or k > len(ordered):
        raise ValueError(f"k must lie in 1..{len(ordered)} for this log, got {k}")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")

    matrix = distance_matrix([t for t, _ in ordered])
    selected: list[Trace] = cluster_prototypes(kmedoids(ordered, k, matrix))
    added: list[Trace] = list(selected)
    history: list[IterationRecord] = []
    previous: tuple[PetriNet, tuple[Trace, ...], QualityReport] | None = None

    for iteration in range(1, max_iterations + 1):
        try:
            prototype_log = Sublog({t: log.count(t) for t in selected}, parent=log)
            net = discover(prototype_log)
            alignments = variant_alignments(log, net, align_budget)
            report = compute_report(
                log, net, selected, beta, alignments=alignments, closure_budget=closure_budget
            )
        except Exception as exc:
            raise RuntimeError(f"prototype selection failed at iteration {iteration}: {exc}") from exc
        history.append(
            IterationRecord(
                iteration=iteration,
                prototypes_added=tuple(added),
                prototype_total=len(selected),
                report=report,
            )
        )
        if previous is not None and report.f_beta <= previous[2].f_beta:
            return SelectionResult(
                model=previous[0],
                prototypes=previous[1],
                history=tuple(history),
                stop_reason=STOP_NO_IMPROVEMENT,
            )
        current = (net, tuple(selected), report)

        deviating = [
            (t, c) for t, c in ordered if alignments[t].cost > 0
        ]  # fitness < 1, exactly
        if not deviating:
            return SelectionResult(
                model=net,
                prototypes=tuple(selected),
                history=tuple(history),
                stop_reason=STOP_NO_DEVIATING_TRACES,
            )
        if iteration == max_iterations:
            return SelectionResult(
                model=net,
                prototypes=tuple(selected),
                history=tuple(history),
                stop_reason=STOP_ITERATION_CAP,
            )

        new_medoids = cluster_prototypes(kmedoids(deviating, min(k, len(deviating)), matrix))
        added = [m for m in new_medoids if m not in selected]
        if not added:
            # all medoids already selected (possible with miners that do
            # not replay their own input); growing further cannot help
            return SelectionResult(
                model=net,
                prototypes=tuple(selected),
                history=tuple(history),
                stop_reason=STOP_NO_IMPROVEMENT,
            )
        selected = selected + added
        previous = current

    raise AssertionError("unreachable: loop returns at the iteration cap")


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


def gen_synthetic(
    net: PetriNet,
    n_traces: int,
    noise_rate: float,
    seed: int,
    max_steps: int = 1000,
) -> EventLog:
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
        trace = _simulate_trace(net, rng, max_steps)
        if rng.random() < noise_rate:
            trace = _perturb(trace, rng)
        traces.append(trace)
    return EventLog.from_traces(traces)


def _simulate_trace(net: PetriNet, rng: random.Random, max_steps: int) -> Trace:
    compiled = net.compiled
    for _ in range(100):  # retries in case a walk dead-ends
        sid = compiled.initial
        word: list[str] = []
        for _ in range(max_steps):
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
