"""Insert/delete edit distance between traces.

The only edit operations are deleting an activity or inserting one;
substitution is not allowed, so the minimum edit count reduces to the
longest common subsequence: distance(a, b) = len(a) + len(b) - 2 * lcs(a, b).
The distance is a metric (symmetric, zero only between equal traces,
triangle inequality), and all entries are integers.

LCS runs on the bit-parallel kernel of Allison & Dix (1986) and Hyyrö
(2004): one bit per position of ``a``, whose match masks are built once,
and one big-integer step per symbol of ``b``, so O(len(a) * len(b) / w)
word operations for word size w.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

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


@dataclass(frozen=True)
class DistanceMatrix:
    """Dense symmetric matrix of edit distances over a variant list."""

    variant_index: tuple[Trace, ...]
    entries: np.ndarray

    def submatrix(self, indices: Sequence[int]) -> "DistanceMatrix":
        """Restriction to a subset of variants, preserving their order."""
        idx = list(indices)
        return DistanceMatrix(
            variant_index=tuple(self.variant_index[i] for i in idx),
            entries=self.entries[np.ix_(idx, idx)],
        )


def distance_matrix(variant_list: Sequence[Trace]) -> DistanceMatrix:
    """Pairwise edit distances over a duplicate-free variant list."""
    if not variant_list:
        raise ValueError("variant list must be non-empty")
    traces = tuple(tuple(v) for v in variant_list)
    if len(set(traces)) != len(traces):
        raise ValueError("variant list contains duplicates")
    entries = np.zeros((len(traces), len(traces)), dtype=np.int32)
    for i, a in enumerate(traces):
        rest = traces[i + 1 :]
        lcs = _lcs_lengths(a, rest)
        entries[i, i + 1 :] = [len(a) + len(b) - 2 * c for b, c in zip(rest, lcs)]
    entries = entries + entries.T
    return DistanceMatrix(variant_index=traces, entries=entries)
