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
It runs on packed integers, as ``tracedist`` does: each member's matrix
row is one int with one fixed-width field per matrix column, and times
its count it holds that row's weighted distances. The sum of the
members' ints holds in field j the weighted cost of variant j as the
medoid, every candidate at once, and one ``to_bytes`` reads them all.
A field's sum is at most the total weight times the largest distance,
twice the longest variant, so while that bound is below 2**31 the
fields are the 4-byte entries of the matrix's one store
(``DistanceMatrix.packed``), and no field carries into the next; below
2**63 they widen to 8 bytes, packed once per call. A pool whose bound
reaches 2**63, a total weight of 2**62 divided by the longest variant's
length, raises ValueError.
"""

from __future__ import annotations

import sys
from array import array
from operator import itemgetter, mul
from typing import Callable, NamedTuple, Sequence

from .eventlog import Trace
from .tracedist import FIELD, DistanceMatrix

MAX_LLOYD_ROUNDS = 100


class Clustering(NamedTuple):
    """A partition of variants with one medoid per cluster."""

    medoids: tuple[Trace, ...]
    members: tuple[tuple[Trace, ...], ...]
    assignment: dict[Trace, int]
    total_cost: int = 0
    iteration_costs: tuple[int, ...] = ()


def _gatherer(positions: Sequence[int]) -> Callable[[Sequence[int]], Sequence[int]]:
    """Reads the entries at positions (at least one) from a matrix row, in their order."""
    get = itemgetter(*positions)
    return get if len(positions) > 1 else lambda row: (get(row),)


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
    bound = sum(counts) * 2 * max(map(len, matrix.variant_index))  # above every weighted cost
    if bound >= 1 << 63:
        raise ValueError(f"weighted costs up to {bound} do not fit 8-byte fields (2**63)")
    code = FIELD if bound < 1 << 31 else "q"
    index = {t: i for i, t in enumerate(matrix.variant_index)}
    positions = [index.get(t, -1) for t in traces]
    if -1 in positions:
        raise ValueError(f"variant {traces[positions.index(-1)]!r} is not in the distance matrix")
    if len(set(positions)) != n:
        raise ValueError("variant list contains duplicates")
    gather = _gatherer(positions)  # row -> distances to the given variants
    column = lambda i: gather(matrix.row(positions[i]))  # the matrix is symmetric: a row is its column
    # field j of packed[i] holds counts[i] * d(i, j), as wide as an item of code
    if code == FIELD:
        packed = list(map(mul, counts, map(matrix.packed.__getitem__, positions)))
    else:
        packed = [c * int.from_bytes(array(code, matrix.row(p)), sys.byteorder) for c, p in zip(counts, positions)]
    size = len(matrix.variant_index) * array(code).itemsize

    # farthest-point init: start at the most frequent variant, then
    # repeatedly take the variant farthest from all chosen medoids
    medoid_idx = [counts.index(max(counts))]
    nearest = column(medoid_idx[0])
    while len(medoid_idx) < k:
        medoid_idx.append(nearest.index(max(nearest)))
        nearest = list(map(min, nearest, column(medoid_idx[-1])))

    iteration_costs: list[int] = []
    assign: list[int] | None = None
    while True:
        columns = list(map(column, medoid_idx))
        new_assign = [d.index(min(d)) for d in zip(*columns)]
        if new_assign == assign or len(iteration_costs) == MAX_LLOYD_ROUNDS:
            break
        assign = new_assign
        round_cost = 0
        for c in range(k):
            members = [i for i, a in enumerate(assign) if a == c]
            if not members:  # unreachable for metric distances; keep medoid
                continue
            # field j of the sum is variant j's weighted cost as the medoid
            costs = sum(map(packed.__getitem__, members)).to_bytes(size, sys.byteorder)
            candidates = _gatherer([positions[i] for i in members])(memoryview(costs).cast(code))
            best_cost = min(candidates)  # the first least cost wins: ties keep the lowest index
            medoid_idx[c] = members[candidates.index(best_cost)]
            round_cost += best_cost
        iteration_costs.append(round_cost)
    assign = new_assign  # differs from the last one only at the round cap

    return Clustering(
        medoids=tuple(traces[i] for i in medoid_idx),
        members=tuple(tuple(t for t, a in zip(traces, assign) if a == c) for c in range(k)),
        assignment=dict(zip(traces, assign)),
        # each variant's distance to its medoid is the least in its column
        total_cost=sum(map(mul, counts, map(min, zip(*columns)))),
        iteration_costs=tuple(iteration_costs),
    )
