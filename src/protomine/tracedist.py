"""Insert/delete edit distance between traces, and K-Medoids under it.

The only edit operations are deleting an activity or inserting one;
substitution is not allowed, so the minimum edit count reduces to the
longest common subsequence: distance(a, b) = len(a) + len(b) - 2 * lcs(a, b).
The distance is a metric (symmetric, zero only between equal traces,
triangle inequality), and all entries are integers.

LCS runs on the bit-parallel kernel of Allison & Dix (1986) and Hyyrö
(2004), with many patterns packed into one integer as in Hyyrö,
Fredriksson & Navarro (2005):

- Packing. Every trace is a pattern with one bit per position. A trace
  t takes ``len(t) // 8 + 1`` bytes, so each segment is byte-aligned and
  has at least one zero guard bit above it. The traces are packed
  last-first: traces i+1..n-1 fill the bytes below ``start[i]``, so row
  i of the matrix runs on an integer only as wide as the upper triangle
  it needs. One match mask per label (bit set iff that position holds
  the label) covers the whole pack.
- The step. Row i reads trace i once, one step per symbol y, on ``v``,
  which starts with the pattern bits of traces i+1..n-1 set:
  ``u = v & masks[y]; v = ((v + u) | (v ^ u)) & full``. The one-pattern
  kernel writes ``v - u``; as ``u`` is a subset of ``v`` that
  subtraction borrows nowhere and equals ``v ^ u``, a bitwise operation
  that keeps segments apart. A carry out of a segment's ``v + u`` stops
  in its zero guard bit and ``& full`` clears it, so every segment
  evolves exactly as the one-pattern kernel would on that trace alone.
- Read-out. The zero bits of segment j count lcs(t_i, t_j). One
  ``bytes.translate`` turns ``v``'s bytes into twice their popcounts,
  and ``itertools.accumulate`` into prefix sums; a segment's popcount
  ``o`` is half the difference of the sums at its two byte bounds, and
  d(i, j) = len(t_i) - len(t_j) + 2 * o.

``lcs_length`` runs the same kernel on a one-trace pack. Rows are built
in one row-major ``array`` of ``_FIELD`` ints, mirrored by slice copies,
then each is kept as one int of those 4-byte fields (``packed``): the
matrix's one store, 4·V² bytes, which K-Medoids sums and ``row`` reads.

K-Medoids (``kmedoids``) clusters log variants on that matrix. Medoids
are always input variants, which is what makes them usable as
representative traces downstream: the cluster centre of a trace cluster
is itself a trace of the log. Clustering cost is frequency weighted, so
a variant occurring 50 times pulls a medoid 50 times harder than a
singleton, while distances stay per-variant. It is Lloyd-style
alternation with deterministic tie-breaking (lowest index everywhere)
and greedy farthest-point initialisation starting at the most frequent
variant, so the same input always gives the same clustering.

The medoid update is the costly step, O(m²) per cluster of m members.
The sum of the members' packed rows, each times its count as it is
added, holds in field j the weighted cost of variant j as the medoid,
every candidate at once, and one ``to_bytes`` reads them all. A field's
sum is at most the total weight times the largest distance, twice the
longest variant, so while that bound is below 2**31 the rows are summed
in place and no field carries into the next; below 2**63 the fields
widen to 8 bytes, each pool row repacked once per call. A pool whose
bound reaches 2**63, a total weight of 2**62 divided by the longest
variant's length, raises ValueError.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate, compress
from operator import itemgetter, mul
from typing import Callable, NamedTuple, Sequence

from .eventlog import Trace

_FIELD = "i"  # a matrix entry: a 4-byte int in native order, as array and memoryview.cast read it
_TWICE_POPCOUNT = bytes(2 * bin(byte).count("1") for byte in range(256))  # byte -> twice its set bits


class _Pack(NamedTuple):
    """Traces packed last-first into the bytes of one integer."""

    masks: dict[str, int]  # label -> bit set iff that pattern position holds it
    full: int  # every pattern bit set, guard bits clear
    start: list[int]  # start[j]: the byte at which trace j's segment begins


def _pack(traces: Sequence[Sequence[str]]) -> _Pack:
    """Match masks over every trace's segment, trace n - 1 in the lowest bytes."""
    widths = [len(t) // 8 + 1 for t in traces]  # bytes, with a zero guard bit at the top
    start = list(accumulate(reversed(widths[1:]), initial=0))[::-1]
    size = start[0] + widths[0]
    buffers: dict[str, bytearray] = {}
    full = bytearray(size)
    for trace, offset, width in zip(traces, start, widths):
        end = offset + width
        segment: dict[str, int] = {}
        for k, label in enumerate(trace):
            segment[label] = segment.get(label, 0) | (1 << k)
        for label, bits in segment.items():
            if label not in buffers:
                buffers[label] = bytearray(size)
            buffers[label][offset:end] = bits.to_bytes(width, "little")
        full[offset:end] = ((1 << len(trace)) - 1).to_bytes(width, "little")
    masks = {label: int.from_bytes(buf, "little") for label, buf in buffers.items()}
    return _Pack(masks, int.from_bytes(full, "little"), start)


def _sweep(a: Sequence[str], pack: _Pack, v: int) -> int:
    """Read a through the segments v starts with (their pattern bits set); returns v."""
    masks, full = pack.masks, pack.full
    for y in a:
        u = v & masks.get(y, 0)
        v = ((v + u) | (v ^ u)) & full
    return v


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence of a and b."""
    pack = _pack([b])
    return len(b) - _sweep(a, pack, pack.full).bit_count()


def edit_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Minimum number of insertions plus deletions transforming a into b."""
    return len(a) + len(b) - 2 * lcs_length(a, b)


class DistanceMatrix(NamedTuple):
    """Symmetric edit distances between variants, ``row(i)[j]`` for i and j.

    ``packed[i]`` is row i's bytes read as one int, field j (a ``_FIELD``)
    holding d(i, j); ``kmedoids`` sums these rows times counts.
    """

    variant_index: tuple[Trace, ...]
    packed: tuple[int, ...]

    def row(self, i: int) -> memoryview:
        """Distances from variant i, one int per variant in matrix order."""
        size = len(self.packed) * array(_FIELD).itemsize
        return memoryview(self.packed[i].to_bytes(size, sys.byteorder)).cast(_FIELD)


def distance_matrix(variant_list: Sequence[Trace]) -> DistanceMatrix:
    """Pairwise edit distances over a duplicate-free variant list."""
    if not variant_list:
        raise ValueError("variant list must be non-empty")
    traces = tuple(tuple(v) for v in variant_list)
    if len(set(traces)) != len(traces):
        raise ValueError("variant list contains duplicates")
    n = len(traces)
    pack = _pack(traces)
    start = pack.start
    is_bound = bytearray(start[0] + 1)  # 1 at every segment's first byte
    for s in start:
        is_bound[s] = 1
    last_first = [len(t) for t in reversed(traces)]
    flat = array(_FIELD, [0]) * (n * n)  # row-major: entry (i, j) at i * n + j
    for i, a in enumerate(traces[:-1]):
        s = start[i]
        v = _sweep(a, pack, pack.full & ((1 << 8 * s) - 1))  # traces i + 1..n - 1
        # twice the set bits of v below each segment bound, from byte 0 up to start[i]
        sums = accumulate(v.to_bytes(s, "little").translate(_TWICE_POPCOUNT), initial=0)
        bounds = list(compress(sums, is_bound[: s + 1]))
        len_a = len(a)
        row = array(_FIELD, [len_a - len_b + hi - lo for len_b, lo, hi in zip(last_first, bounds, bounds[1:])])
        row.reverse()  # read out from trace n - 1 down to trace i + 1
        flat[i * n + i + 1 : (i + 1) * n] = row  # (i, j) for j > i
        flat[(i + 1) * n + i :: n] = row  # mirrored: (j, i), down column i
    rows = memoryview(flat)
    packed = tuple(int.from_bytes(rows[i * n : (i + 1) * n], sys.byteorder) for i in range(n))
    return DistanceMatrix(variant_index=traces, packed=packed)


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
    code = _FIELD if bound < 1 << 31 else "q"
    index = {t: i for i, t in enumerate(matrix.variant_index)}
    positions = [index.get(t, -1) for t in traces]
    if -1 in positions:
        raise ValueError(f"variant {traces[positions.index(-1)]!r} is not in the distance matrix")
    if len(set(positions)) != n:
        raise ValueError("variant list contains duplicates")
    gather = _gatherer(positions)  # row -> distances to the given variants
    column = lambda i: gather(matrix.row(positions[i]))  # the matrix is symmetric: a row is its column
    # field j of rows[i] holds d(i, j), as wide as an item of code
    if code == _FIELD:
        rows = list(map(matrix.packed.__getitem__, positions))
    else:
        rows = [int.from_bytes(array(code, matrix.row(p)), sys.byteorder) for p in positions]
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
            members = [i for i, a in enumerate(assign) if a == c]  # never empty: medoid c's only 0 is its own
            # field j of the sum is variant j's weighted cost as the medoid
            weighted = map(mul, map(counts.__getitem__, members), map(rows.__getitem__, members))
            costs = sum(weighted).to_bytes(size, sys.byteorder)
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
