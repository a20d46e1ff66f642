import random
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protomine import distance_matrix, edit_distance, lcs_length

from .conftest import insert_delete_dp, lcs_oracle, random_trace


class TestEditDistance:
    def test_worked_example(self):
        # two deletions plus two insertions
        assert edit_distance(("a", "c", "f", "e", "d"), ("a", "f", "c", "a", "d")) == 4

    def test_identity(self):
        trace = ("x", "y", "z")
        assert edit_distance(trace, trace) == 0

    def test_no_substitution(self):
        # replacing a by b needs one deletion plus one insertion
        assert edit_distance(("a",), ("b",)) == 2

    def test_distance_to_empty_is_length(self):
        rng = random.Random(7)
        for _ in range(50):
            trace = random_trace(rng, "abc", 15)
            assert edit_distance(trace, ()) == len(trace)
            assert edit_distance((), trace) == len(trace)

    def test_matches_lcs_identity_and_direct_dp(self):
        rng = random.Random(42)
        alphabet = "abcdefghij"
        for _ in range(1000):
            a = random_trace(rng, alphabet, 20)
            b = random_trace(rng, alphabet, 20)
            expected = len(a) + len(b) - 2 * lcs_oracle(a, b)
            assert edit_distance(a, b) == expected
            assert edit_distance(a, b) == insert_delete_dp(a, b)

    def test_metric_axioms(self):
        rng = random.Random(3)
        for _ in range(300):
            a, b, c = (random_trace(rng, "abcd", 10) for _ in range(3))
            assert edit_distance(a, b) == edit_distance(b, a)
            assert (edit_distance(a, b) == 0) == (a == b)
            assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


class TestDistanceMatrix:
    def test_single_variant(self):
        m = distance_matrix([("a",)])
        assert [list(m.row(i)) for i in range(1)] == [[0]]

    def test_single_insertion(self):
        m = distance_matrix([("a",), ("a", "b")])
        assert [list(m.row(i)) for i in range(2)] == [[0, 1], [1, 0]]

    def test_swapped_pair(self):
        # lcs of ab/ba is 1, so distance is 2 + 2 - 2
        m = distance_matrix([("a", "b"), ("b", "a")])
        assert m.row(0)[1] == 2

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            distance_matrix([("a",), ("a",)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distance_matrix([])

    def test_matrix_properties(self):
        rng = random.Random(11)
        traces = list({random_trace(rng, "abc", 8) for _ in range(20)})
        m = distance_matrix(traces)
        n = len(traces)
        rows = [m.row(i) for i in range(n)]
        for i in range(n):
            assert rows[i][i] == 0
            for j in range(n):
                assert rows[i][j] == rows[j][i]
                for k in range(n):
                    assert rows[i][j] <= rows[i][k] + rows[k][j]

    def test_matrix_is_held_once(self):
        # the rows are kept only as packed ints, 4 bytes an entry (and a
        # few per cent of int overhead); the row-major buffer they are
        # read from, another 4 bytes an entry, is gone once it returns
        rng = random.Random(400)
        found = set()
        while len(found) < 400:
            found.add(random_trace(rng, "abcd", 12))
        traces = sorted(found)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            m = distance_matrix(traces)
            held, peak = (size - before for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert held <= 4.5 * len(traces) ** 2
        assert peak <= 8.75 * len(traces) ** 2
        assert m.row(len(traces) - 1)[0] == insert_delete_dp(traces[-1], traces[0])


# labels sharing prefixes catch a kernel that matches on joined strings
LABEL_SETS = {
    "one-label": ["a"],
    "shared-prefixes": ["a", "ab", "b a", "b"],
    "twenty-labels": [f"act{i}" for i in range(20)],
}

hyp_traces = st.lists(st.sampled_from(LABEL_SETS["shared-prefixes"]), max_size=80).map(tuple)


# each trace takes len // 8 + 1 bytes of the packed kernel, so these sit
# on either side of a byte bound and of a 64-bit machine word
BYTE_BOUND_LENGTHS = (0, 7, 8, 9, 15, 16, 17, 63, 64, 65)


def wide_variants(rng: random.Random, labels, count: int) -> list[tuple[str, ...]]:
    """Distinct traces: one of each byte-bound length, short ones, and 65-150 events long."""
    found = {tuple(rng.choice(labels) for _ in range(length)) for length in BYTE_BOUND_LENGTHS}
    while len(found) < count:
        length = rng.randint(65, 150) if len(found) % 2 else rng.randint(1, 64)
        found.add(tuple(rng.choice(labels) for _ in range(length)))
    return sorted(found, key=lambda t: (len(t), t))


class TestBitParallelKernel:
    @pytest.mark.parametrize("labels", list(LABEL_SETS.values()), ids=list(LABEL_SETS))
    def test_matrix_and_lcs_match_oracles(self, labels):
        rng = random.Random(len(labels))
        traces = wide_variants(rng, labels, 20)
        assert set(BYTE_BOUND_LENGTHS) <= set(map(len, traces))
        rng.shuffle(traces)  # segments of every width next to each other in the pack
        m = distance_matrix(traces)
        rows = [m.row(i) for i in range(len(traces))]
        assert [len(row) for row in rows] == [len(traces)] * len(traces)
        # each packed row decodes, 4 bytes a field, to the row that row(i) reads
        width = 4 * len(traces)
        assert [array("i", row.to_bytes(width, sys.byteorder)).tolist() for row in m.packed] == [
            row.tolist() for row in rows
        ]
        for i, a in enumerate(traces):
            for j in range(i, len(traces)):
                b = traces[j]
                assert rows[i][j] == rows[j][i] == insert_delete_dp(a, b)
                assert lcs_length(a, b) == lcs_oracle(a, b) == lcs_length(b, a)

    @settings(deadline=None)
    @given(hyp_traces, hyp_traces)
    def test_pair_matches_oracles(self, a, b):
        assert lcs_length(a, b) == lcs_oracle(a, b)
        assert edit_distance(a, b) == insert_delete_dp(a, b)

    @settings(deadline=None)
    @given(st.lists(hyp_traces, min_size=1, max_size=20, unique=True))
    def test_matrix_matches_direct_dp(self, traces):
        m = distance_matrix(traces)
        for i, a in enumerate(traces):
            row = m.row(i)
            for j, b in enumerate(traces):
                assert row[j] == insert_delete_dp(a, b)

    @settings(deadline=None)
    @given(hyp_traces, hyp_traces, hyp_traces)
    def test_metric_axioms(self, a, b, c):
        assert edit_distance(a, b) == edit_distance(b, a)
        assert (edit_distance(a, b) == 0) == (a == b)
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
