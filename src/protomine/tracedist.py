"""Insert/delete edit distance between traces.

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
in one row-major ``array`` of ``FIELD`` ints, mirrored by slice copies,
then each is kept as one int of those 4-byte fields (``packed``): the
matrix's one store, 4·V² bytes, which K-Medoids sums and ``row`` reads.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate, compress
from typing import NamedTuple, Sequence

from .eventlog import Trace

FIELD = "i"  # a matrix entry: a 4-byte int in native order, as array and memoryview.cast read it
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

    ``packed[i]`` is row i's bytes read as one int, field j (a ``FIELD``)
    holding d(i, j); ``clustering.kmedoids`` sums these rows times counts.
    """

    variant_index: tuple[Trace, ...]
    packed: tuple[int, ...]

    def row(self, i: int) -> memoryview:
        """Distances from variant i, one int per variant in matrix order."""
        size = len(self.packed) * array(FIELD).itemsize
        return memoryview(self.packed[i].to_bytes(size, sys.byteorder)).cast(FIELD)


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
    flat = array(FIELD, [0]) * (n * n)  # row-major: entry (i, j) at i * n + j
    for i, a in enumerate(traces[:-1]):
        s = start[i]
        v = _sweep(a, pack, pack.full & ((1 << 8 * s) - 1))  # traces i + 1..n - 1
        # twice the set bits of v below each segment bound, from byte 0 up to start[i]
        sums = accumulate(v.to_bytes(s, "little").translate(_TWICE_POPCOUNT), initial=0)
        bounds = list(compress(sums, is_bound[: s + 1]))
        len_a = len(a)
        row = array(FIELD, [len_a - len_b + hi - lo for len_b, lo, hi in zip(last_first, bounds, bounds[1:])])
        row.reverse()  # read out from trace n - 1 down to trace i + 1
        flat[i * n + i + 1 : (i + 1) * n] = row  # (i, j) for j > i
        flat[(i + 1) * n + i :: n] = row  # mirrored: (j, i), down column i
    rows = memoryview(flat)
    packed = tuple(int.from_bytes(rows[i * n : (i + 1) * n], sys.byteorder) for i in range(n))
    return DistanceMatrix(variant_index=traces, packed=packed)
