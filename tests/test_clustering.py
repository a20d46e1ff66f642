import itertools
import random

import pytest

from protomine import distance_matrix, kmedoids, prototypes

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
    best_cost, best = None, None
    for combo in itertools.combinations(range(len(traces)), k):
        cost = sum(
            count * min(matrix.entries[i][j] for j in combo)
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
                row = [matrix.entries[position[trace]][position[m]] for m in clustering.medoids]
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
        assert clustering.total_cost == matrix.entries[2][0] == 2
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
        assert prototypes(clustering) == list(clustering.medoids)
        assert set(prototypes(clustering)) == {("a", "b"), ("x", "y")}

    def test_saturation_returns_all_variants(self):
        variant_counts = [(("a",), 2), (("b",), 1)]
        matrix = distance_matrix([t for t, _ in variant_counts])
        clustering = kmedoids(variant_counts, 2, matrix)
        assert set(prototypes(clustering)) == {("a",), ("b",)}
