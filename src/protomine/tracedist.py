"""Insert/delete edit distance between traces.

The only edit operations are deleting an activity or inserting one;
substitution is not allowed, so the minimum edit count reduces to the
longest common subsequence: distance(a, b) = len(a) + len(b) - 2 * lcs(a, b).
The distance is a metric (symmetric, zero only between equal traces,
triangle inequality), and all entries are integers.

LCS runs on the bit-parallel kernel of Allison & Dix (1986) and Hyyrö
(2004): one bit per position of ``a``, whose match masks are built once,
and one big-integer step per symbol of ``b``, so O(len(a) * len(b) / w)
word operations for word size w. Matrix rows are ``array("i")``, 4 bytes
an entry, mirrored by C-level slice copies with no third-party dependency.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, NamedTuple, Sequence

from .eventlog import Trace


def _lcs_lengths(a: Sequence[str], others: Iterable[Sequence[str]]) -> Iterator[int]:
    """LCS length of a with each trace of others, in order."""
    masks: dict[str, int] = {}  # label -> bit k set iff a[k] is that label
    for k, label in enumerate(a):
        masks[label] = masks.get(label, 0) | (1 << k)
    full = (1 << len(a)) - 1
    for b in others:
        v = full  # the zero bits count the LCS of a and the prefix of b read so far
        for y in b:
            u = v & masks.get(y, 0)
            v = ((v + u) | (v - u)) & full
        yield len(a) - v.bit_count()


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence of a and b."""
    return next(_lcs_lengths(a, [b]))


def edit_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Minimum number of insertions plus deletions transforming a into b."""
    return len(a) + len(b) - 2 * lcs_length(a, b)


class DistanceMatrix(NamedTuple):
    """Symmetric edit distances: ``entries[i][j]`` between variants i and j."""

    variant_index: tuple[Trace, ...]
    entries: tuple[array, ...]


def distance_matrix(variant_list: Sequence[Trace]) -> DistanceMatrix:
    """Pairwise edit distances over a duplicate-free variant list."""
    if not variant_list:
        raise ValueError("variant list must be non-empty")
    traces = tuple(tuple(v) for v in variant_list)
    if len(set(traces)) != len(traces):
        raise ValueError("variant list contains duplicates")
    n = len(traces)
    flat = array("i", [0]) * (n * n)  # row-major: entry (i, j) at i * n + j
    for i, a in enumerate(traces):
        rest = traces[i + 1 :]
        row = array("i", [len(a) + len(b) - 2 * c for b, c in zip(rest, _lcs_lengths(a, rest))])
        flat[i * n + i + 1 : (i + 1) * n] = row  # (i, j) for j > i
        flat[(i + 1) * n + i :: n] = row  # mirrored: (j, i), down column i
    entries = tuple(flat[i * n : (i + 1) * n] for i in range(n))
    return DistanceMatrix(variant_index=traces, entries=entries)
