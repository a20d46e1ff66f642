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

The medoid update is the costly step, O(m²) per cluster of m members.
A candidate's cost is summed in two halves, the distances to the
weight-1 members as they are read and the weighted distances to the
rest, since most variants of a log occur once. Candidates whose cost
cannot beat the best one are skipped: by the triangle inequality
C(j) ≥ |W·d(j, m) − C(m)|, with W the cluster's total weight, m its
current medoid and C(m) that medoid's cost, computed first (the
one-medoid bound of trimed, Newling & Fleuret, AISTATS 2017). Members
are visited in order and one is skipped when its bound reaches the best
cost visited so far, so it could at most tie, and ties keep the lowest
index.
"""

from __future__ import annotations

import math
from operator import itemgetter, mul
from typing import Callable, NamedTuple, Sequence

from .eventlog import Trace
from .tracedist import DistanceMatrix

MAX_LLOYD_ROUNDS = 100


class Clustering(NamedTuple):
    """A partition of variants with one medoid per cluster."""

    medoids: tuple[Trace, ...]
    members: tuple[tuple[Trace, ...], ...]
    assignment: dict[Trace, int]
    total_cost: int = 0
    iteration_costs: tuple[int, ...] = ()


def _gatherer(positions: Sequence[int]) -> Callable[[Sequence[int]], Sequence[int]]:
    """Reads the entries at positions from a matrix row, in their order."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        first = positions[0]
        return lambda row: (row[first],)
    return lambda row: ()


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
    non-increasing from round to round. ``matrix`` may index more variants.
    """
    n = len(variant_counts)
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of variants ({n})")
    traces, counts = zip(*variant_counts)
    index = {t: i for i, t in enumerate(matrix.variant_index)}
    positions = [index.get(t, -1) for t in traces]
    if -1 in positions:
        raise ValueError(f"variant {traces[positions.index(-1)]!r} is not in the distance matrix")
    if len(set(positions)) != n:
        raise ValueError("variant list contains duplicates")
    rows = [matrix.entries[p] for p in positions]
    gather = _gatherer(positions)  # row -> distances to the given variants

    # farthest-point init: start at the most frequent variant, then
    # repeatedly take the variant farthest from all chosen medoids
    medoid_idx = [counts.index(max(counts))]
    nearest = gather(rows[medoid_idx[0]])
    while len(medoid_idx) < k:
        medoid_idx.append(nearest.index(max(nearest)))
        nearest = list(map(min, nearest, gather(rows[medoid_idx[-1]])))

    iteration_costs: list[int] = []
    assign: list[int] | None = None
    while True:
        # the matrix is symmetric, so a medoid's row is its column
        columns = [gather(rows[m]) for m in medoid_idx]
        new_assign = [d.index(min(d)) for d in zip(*columns)]
        if new_assign == assign or len(iteration_costs) == MAX_LLOYD_ROUNDS:
            break
        assign = new_assign
        round_cost = 0
        for c in range(k):
            members = [i for i, a in enumerate(assign) if a == c]
            if not members:  # unreachable for metric distances; keep medoid
                continue
            # weighted cost of a member as the candidate medoid
            heavy = [i for i in members if counts[i] != 1]
            gather_ones = _gatherer([positions[i] for i in members if counts[i] == 1])
            gather_rest = _gatherer([positions[i] for i in heavy])
            weights = [counts[i] for i in heavy]

            def cost(i: int) -> int:
                row = rows[i]
                return sum(gather_ones(row)) + sum(map(mul, weights, gather_rest(row)))

            # a member whose bound |W * d(j, m) - C(m)| reaches the best cost
            # visited so far can at most tie it, and ties keep the lower index
            medoid = medoid_idx[c]
            medoid_cost = cost(medoid)
            total_weight = sum(counts[i] for i in members)
            to_medoid = columns[c]
            best, best_cost = medoid, math.inf
            for i in members:
                if i == medoid:
                    candidate = medoid_cost
                elif abs(total_weight * to_medoid[i] - medoid_cost) >= best_cost:
                    continue
                else:
                    candidate = cost(i)
                if candidate < best_cost:
                    best, best_cost = i, candidate
            medoid_idx[c] = best
            round_cost += best_cost
        iteration_costs.append(round_cost)
    assign = new_assign  # differs from the last one only at the round cap

    return Clustering(
        medoids=tuple(traces[i] for i in medoid_idx),
        members=tuple(tuple(t for t, a in zip(traces, assign) if a == c) for c in range(k)),
        assignment=dict(zip(traces, assign)),
        total_cost=sum(
            count * row[positions[medoid_idx[c]]] for count, row, c in zip(counts, rows, assign)
        ),
        iteration_costs=tuple(iteration_costs),
    )
