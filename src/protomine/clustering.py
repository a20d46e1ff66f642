"""K-Medoids clustering of log variants under edit distance.

Medoids are always input variants, which is what makes them usable as
representative traces downstream: the cluster centre of a trace cluster
is itself a trace of the log. Clustering cost is frequency weighted, so
a variant occurring 50 times pulls a medoid 50 times harder than a
singleton, while distances stay per-variant.

The implementation is Lloyd-style alternation with deterministic
tie-breaking (lowest index everywhere) and greedy farthest-point
initialisation starting at the most frequent variant, so the same input
always gives the same clustering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .eventlog import Trace
from .tracedist import DistanceMatrix

MAX_LLOYD_ROUNDS = 100


@dataclass(frozen=True)
class Clustering:
    """A partition of variants with one medoid per cluster."""

    medoids: tuple[Trace, ...]
    members: tuple[tuple[Trace, ...], ...]
    assignment: dict[Trace, int] = field(repr=False)
    total_cost: int = 0
    iteration_costs: tuple[int, ...] = ()

    @property
    def clusters(self) -> list[tuple[Trace, frozenset[Trace]]]:
        return [(m, frozenset(ms)) for m, ms in zip(self.medoids, self.members)]


def kmedoids(
    variant_counts: Sequence[tuple[Trace, int]],
    k: int,
    matrix: DistanceMatrix,
) -> Clustering:
    """Cluster weighted variants into k groups around medoid traces.

    Alternates (1) assigning every variant to its nearest medoid and
    (2) moving each medoid to the cluster member minimising the
    frequency-weighted distance sum, until assignments stabilise or the
    round cap is hit. The weighted sum of distances to medoids is
    non-increasing from round to round.
    """
    n = len(variant_counts)
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of variants ({n})")
    traces = tuple(t for t, _ in variant_counts)
    if traces != matrix.variant_index:
        raise ValueError("distance matrix is not indexed over the given variants")
    counts = np.array([c for _, c in variant_counts], dtype=np.int64)
    dist = matrix.entries

    # farthest-point init: start at the most frequent variant, then
    # repeatedly take the variant farthest from all chosen medoids
    medoid_idx = [int(np.argmax(counts))]
    while len(medoid_idx) < k:
        nearest = dist[:, medoid_idx].min(axis=1)
        medoid_idx.append(int(np.argmax(nearest)))

    iteration_costs: list[int] = []
    assign = None
    for _ in range(MAX_LLOYD_ROUNDS):
        new_assign = np.argmin(dist[:, medoid_idx], axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        round_cost = 0
        for c in range(k):
            members = np.flatnonzero(assign == c)
            if members.size == 0:  # unreachable for metric distances; keep medoid
                continue
            # weighted cost of each member as the candidate medoid
            candidate_costs = counts[members] @ dist[np.ix_(members, members)]
            best = int(np.argmin(candidate_costs))
            medoid_idx[c] = int(members[best])
            round_cost += int(candidate_costs[best])
        iteration_costs.append(round_cost)
    else:
        # round cap reached: refresh the assignment for the final medoids
        assign = np.argmin(dist[:, medoid_idx], axis=1)

    medoids = tuple(traces[i] for i in medoid_idx)
    members = tuple(
        tuple(traces[i] for i in np.flatnonzero(assign == c)) for c in range(k)
    )
    assignment = {traces[i]: int(assign[i]) for i in range(n)}
    total_cost = int(
        sum(counts[i] * dist[i, medoid_idx[assign[i]]] for i in range(n))
    )
    return Clustering(
        medoids=medoids,
        members=members,
        assignment=assignment,
        total_cost=total_cost,
        iteration_costs=tuple(iteration_costs),
    )


def prototypes(clustering: Clustering) -> list[Trace]:
    """The medoid traces in cluster-index order."""
    return list(clustering.medoids)
