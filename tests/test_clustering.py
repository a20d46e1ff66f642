import itertools
import random
import tracemalloc

import pytest

from protomine import distance_matrix, kmedoids

from .conftest import random_trace, reference_kmedoids

FOUR_VARIANTS = [
    (("a", "b"), 10),
    (("a", "b", "c"), 2),
    (("x", "y"), 5),
    (("x", "y", "z"), 1),
]


def brute_force_best_medoids(variant_counts, k):
    """Exhaustive search over all medoid subsets, minimal weighted cost."""
    traces = [t for t, _ in variant_counts]
    matrix = distance_matrix(traces)
    rows = [matrix.row(i) for i in range(len(traces))]
    best_cost, best = None, None
    for combo in itertools.combinations(range(len(traces)), k):
        cost = sum(
            count * min(rows[i][j] for j in combo)
            for i, (_, count) in enumerate(variant_counts)
        )
        if best_cost is None or cost < best_cost:
            best_cost, best = cost, {traces[j] for j in combo}
    return best, best_cost


def fields(clustering):
    """Every field of a Clustering, as reference_kmedoids returns them."""
    return {
        "medoids": clustering.medoids,
        "members": clustering.members,
        "assignment": clustering.assignment,
        "total_cost": clustering.total_cost,
        "iteration_costs": clustering.iteration_costs,
    }


WEIGHT_REGIMES = {
    "ones": lambda rng: 1,
    "heavy": lambda rng: rng.randint(2, 12),
    "spread": lambda rng: 1 if rng.random() < 0.7 else rng.randint(2, 12),
}


class TestKMedoids:
    def test_worked_example_two_clusters(self):
        expected, expected_cost = brute_force_best_medoids(FOUR_VARIANTS, 2)
        assert expected == {("a", "b"), ("x", "y")}  # oracle sanity
        matrix = distance_matrix([t for t, _ in FOUR_VARIANTS])
        clustering = kmedoids(FOUR_VARIANTS, 2, matrix)
        assert set(clustering.medoids) == expected
        assert clustering.total_cost == expected_cost == 3

    def test_single_cluster_weighted_medoid(self):
        variant_counts = [(("a",), 1), (("a", "b"), 1), (("a", "b", "c"), 1)]
        matrix = distance_matrix([t for t, _ in variant_counts])
        clustering = kmedoids(variant_counts, 1, matrix)
        # candidate costs are 3, 2 and 3
        assert clustering.medoids == (("a", "b"),)
        assert clustering.total_cost == 2

    def test_saturated_clustering_costs_nothing(self):
        variant_counts = [(("a",), 1), (("b",), 1), (("c",), 1)]
        matrix = distance_matrix([t for t, _ in variant_counts])
        clustering = kmedoids(variant_counts, 3, matrix)
        assert set(clustering.medoids) == {("a",), ("b",), ("c",)}
        assert clustering.total_cost == 0

    def test_invalid_k(self):
        matrix = distance_matrix([("a",)])
        with pytest.raises(ValueError):
            kmedoids([(("a",), 1)], 0, matrix)
        with pytest.raises(ValueError):
            kmedoids([(("a",), 1)], 2, matrix)

    def test_deterministic(self):
        rng = random.Random(5)
        traces = sorted({random_trace(rng, "abcd", 8) for _ in range(25)})
        variant_counts = [(t, rng.randint(1, 20)) for t in traces]
        matrix = distance_matrix(traces)
        first = kmedoids(variant_counts, 4, matrix)
        second = kmedoids(variant_counts, 4, matrix)
        assert first.medoids == second.medoids
        assert first.assignment == second.assignment
        assert first.total_cost == second.total_cost

    def test_invariants_on_random_instances(self):
        rng = random.Random(9)
        for _ in range(20):
            traces = sorted({random_trace(rng, "abcde", 10) for _ in range(rng.randint(4, 30))})
            variant_counts = [(t, rng.randint(1, 50)) for t in traces]
            matrix = distance_matrix(traces)
            k = rng.randint(1, len(traces))
            clustering = kmedoids(variant_counts, k, matrix)

            # medoids are input variants, one per cluster, each in its own cluster
            assert set(clustering.medoids) <= set(traces)
            assert len(set(clustering.medoids)) == k
            for index, (medoid, members) in enumerate(zip(clustering.medoids, clustering.members)):
                assert medoid in members
                for member in members:
                    assert clustering.assignment[member] == index

            # clusters partition the variants
            assert sorted(t for ms in clustering.members for t in ms) == sorted(traces)

            # every member sits with its nearest medoid, ties to the lowest index
            position = {t: i for i, t in enumerate(matrix.variant_index)}
            for trace in traces:
                row = [matrix.row(position[trace])[position[m]] for m in clustering.medoids]
                assigned = clustering.assignment[trace]
                assert row[assigned] == min(row)
                assert assigned == row.index(min(row))

            # the weighted cost never increases across Lloyd rounds
            costs = clustering.iteration_costs
            assert all(a >= b for a, b in zip(costs, costs[1:]))
            assert clustering.total_cost == costs[-1]

    def test_matches_reference_on_random_instances(self):
        rng = random.Random(13)
        for trial in range(60):
            # tiny alphabets and short traces force ties in every argmin/argmax
            alphabet, max_len = rng.choice([("ab", 3), ("abc", 4), ("abcde", 8)])
            pool = sorted({random_trace(rng, alphabet, max_len) for _ in range(rng.randint(2, 30))})
            matrix = distance_matrix(pool)
            # a subset of the matrix's variants, in shuffled order
            subset = rng.sample(pool, rng.randint(1, len(pool))) if trial % 2 else pool
            heavy = rng.choice([1, 5])  # equal weights tie the initial medoid
            variant_counts = [(t, rng.choice([1, heavy])) for t in subset]
            for k in range(1, min(4, len(subset)) + 1):
                clustering = kmedoids(variant_counts, k, matrix)
                assert fields(clustering) == reference_kmedoids(variant_counts, k)

    @pytest.mark.parametrize("regime", sorted(WEIGHT_REGIMES))
    def test_weight_split_and_bound_match_reference(self, regime):
        # clusters of weight-1 members only, of heavier members only, and
        # of both
        rng = random.Random(17)
        halves = set()
        for _ in range(30):
            alphabet, max_len = rng.choice([("ab", 3), ("abc", 4), ("abcde", 8)])
            pool = sorted({random_trace(rng, alphabet, max_len) for _ in range(rng.randint(2, 30))})
            matrix = distance_matrix(pool)
            variant_counts = [(t, WEIGHT_REGIMES[regime](rng)) for t in pool]
            count = dict(variant_counts)
            for k in range(1, min(4, len(pool)) + 1):
                clustering = kmedoids(variant_counts, k, matrix)
                assert fields(clustering) == reference_kmedoids(variant_counts, k)
                halves |= {
                    (any(count[t] == 1 for t in members), any(count[t] > 1 for t in members))
                    for members in clustering.members
                }
        expected = {"ones": {(True, False)}, "heavy": {(False, True)}}.get(regime)
        if expected is None:
            assert (True, True) in halves
        else:
            assert halves == expected

    def test_middle_member_with_the_least_weighted_cost_is_the_medoid(self):
        # the members cost 6, 4 and 6 as the medoid: the weight-2 middle
        # one wins, and the first and the last tie above it
        variant_counts = [(("a", "b", "a"), 1), (("b", "b", "a"), 2), (("b", "a", "b"), 1)]
        matrix = distance_matrix([t for t, _ in variant_counts])
        clustering = kmedoids(variant_counts, 1, matrix)
        assert clustering.medoids == (("b", "b", "a"),)
        assert fields(clustering) == reference_kmedoids(variant_counts, 1)

    def test_later_member_tying_the_best_cost_loses(self):
        # the first member (the medoid) and the last both cost 12, and the
        # first least cost wins
        variant_counts = [
            (("b", "a", "b"), 3),
            (("a", "a", "a"), 1),
            (("b", "b", "a"), 1),
            (("a", "b", "b"), 3),
        ]
        matrix = distance_matrix([t for t, _ in variant_counts])
        clustering = kmedoids(variant_counts, 1, matrix)
        assert clustering.medoids == (("b", "a", "b"),)
        assert clustering.total_cost == 12
        assert fields(clustering) == reference_kmedoids(variant_counts, 1)

    def test_weights_past_four_byte_fields_match_reference(self):
        # a weighted cost can pass 2**31, so the packed sums need 8-byte fields
        rng = random.Random(21)
        costs = []
        for _ in range(20):
            pool = sorted({random_trace(rng, "abc", 5) for _ in range(rng.randint(2, 20))})
            matrix = distance_matrix(pool)
            variant_counts = [(t, rng.choice([1, 3 << 30, rng.randint(1, 3 << 40)])) for t in pool]
            assert sum(c for _, c in variant_counts) * 2 * max(map(len, pool)) >= 1 << 31
            for k in range(1, min(3, len(pool)) + 1):
                clustering = kmedoids(variant_counts, k, matrix)
                assert fields(clustering) == reference_kmedoids(variant_counts, k)
                costs.append(clustering.total_cost)
        assert max(costs) >= 1 << 31

    def test_reads_pool_rows_without_a_weighted_copy(self):
        # the medoid sums read the matrix's packed rows in place: a copy of
        # the pool's rows would alone take the matrix's 4 * V**2 bytes
        rng = random.Random(400)
        found = set()
        while len(found) < 400:
            found.add(random_trace(rng, "abcd", 12))
        pool = sorted(found)
        matrix = distance_matrix(pool)
        variant_counts = [(t, rng.randint(1, 5)) for t in pool]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            clustering = kmedoids(variant_counts, 2, matrix)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(pool) ** 2
        assert len(clustering.medoids) == 2

    def test_pool_whose_costs_can_reach_2_to_the_63_rejected(self):
        matrix = distance_matrix([("a",), ("b",)])
        variant_counts = [(("a",), 1 << 61), (("b",), 1 << 61)]
        with pytest.raises(ValueError, match=r"weighted costs up to 9223372036854775808 .*2\*\*63"):
            kmedoids(variant_counts, 1, matrix)
        # one trace less fits the 8-byte fields
        assert kmedoids([(("a",), (1 << 61) - 1), (("b",), 1 << 61)], 1, matrix).total_cost == (1 << 62) - 2

    def test_singleton_clusters_match_reference(self):
        variant_counts = [(("a",), 3), (("b",), 3), (("a", "b"), 1), (("b", "a"), 1)]
        matrix = distance_matrix([t for t, _ in variant_counts] + [("c", "c")])
        for k in (3, 4):
            clustering = kmedoids(variant_counts, k, matrix)
            assert any(len(members) == 1 for members in clustering.members)
            assert fields(clustering) == reference_kmedoids(variant_counts, k)

    def test_subset_of_larger_matrix_in_any_order(self):
        matrix = distance_matrix([("a",), ("a", "b"), ("a", "b", "c"), ("x", "y", "z")])
        variant_counts = [(("a", "b", "c"), 1), (("a",), 2)]
        clustering = kmedoids(variant_counts, 1, matrix)
        assert clustering.medoids == (("a",),)
        assert clustering.total_cost == matrix.row(2)[0] == 2
        assert clustering.assignment == {("a", "b", "c"): 0, ("a",): 0}

    def test_variant_missing_from_matrix_rejected(self):
        matrix = distance_matrix([("a",), ("b",)])
        with pytest.raises(ValueError, match=r"\('c',\) is not in the distance matrix"):
            kmedoids([(("a",), 1), (("c",), 1)], 1, matrix)

    def test_duplicate_variants_rejected(self):
        matrix = distance_matrix([("a",), ("b",)])
        with pytest.raises(ValueError, match="duplicates"):
            kmedoids([(("a",), 1), (("a",), 2)], 1, matrix)


class TestPrototypes:
    def test_cluster_order(self):
        matrix = distance_matrix([t for t, _ in FOUR_VARIANTS])
        clustering = kmedoids(FOUR_VARIANTS, 2, matrix)
        assert clustering.medoids == (("a", "b"), ("x", "y"))

    def test_saturation_returns_all_variants(self):
        variant_counts = [(("a",), 2), (("b",), 1)]
        matrix = distance_matrix([t for t, _ in variant_counts])
        clustering = kmedoids(variant_counts, 2, matrix)
        assert set(clustering.medoids) == {("a",), ("b",)}
