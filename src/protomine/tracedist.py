"""Insert/delete edit distance between traces.

The only edit operations are deleting an activity or inserting one;
substitution is not allowed. Under that edit set the minimum edit count
reduces to the longest common subsequence:

    distance(a, b) = len(a) + len(b) - 2 * lcs(a, b)

which is what distance computations here use. The distance is a metric
(symmetric, zero only between equal traces, triangle inequality), and all
entries are integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .eventlog import Trace


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence, O(len(a)*len(b))."""
    if not a or not b:
        return 0
    # two-row DP, rows indexed over b
    prev = [0] * (len(b) + 1)
    cur = [0] * (len(b) + 1)
    for x in a:
        for j, y in enumerate(b, start=1):
            if x == y:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev, cur = cur, prev
    return prev[len(b)]


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
    n = len(traces)
    entries = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            d = edit_distance(traces[i], traces[j])
            entries[i, j] = d
            entries[j, i] = d
    return DistanceMatrix(variant_index=traces, entries=entries)
