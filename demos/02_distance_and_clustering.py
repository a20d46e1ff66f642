"""
Edit distance and variant clustering
====================================

Traces are compared by how many single-activity insertions and deletions
turn one into the other (no substitutions). K-Medoids over that distance
groups the variants and elects one real log trace per cluster; those
medoids are the prototypes used for discovery later.
"""

from protomine import distance_matrix, edit_distance, kmedoids

a = ("a", "c", "f", "e", "d")
b = ("a", "f", "c", "a", "d")
print(f"distance {a} vs {b} = {edit_distance(a, b)}")  # two dels, two ins

# a log with two obvious behaviour families and a rare variation of each
variant_counts = [
    (("register", "check", "pay"), 40),
    (("register", "check", "check", "pay"), 3),
    (("order", "ship"), 25),
    (("order", "ship", "ship"), 2),
]
traces = [t for t, _ in variant_counts]
matrix = distance_matrix(traces)
print("\npairwise distances:")
for i, trace in enumerate(traces):
    print(" ", " ".join(f"{d:2d}" for d in matrix.row(i)), " <-", " ".join(trace))

clustering = kmedoids(variant_counts, k=2, matrix=matrix)
print("\nclusters (medoid first):")
for medoid, members in zip(clustering.medoids, clustering.members):
    print("  medoid:", " -> ".join(medoid))
    for member in members:
        print("     member:", " -> ".join(member))
print("weighted cost:", clustering.total_cost)
print("prototypes:", [" ".join(p) for p in clustering.medoids])

# frequency matters: the medoid is pulled toward the heavy variants,
# so each cluster is represented by its common shape, not its outlier
assert set(clustering.medoids) == {("register", "check", "pay"), ("order", "ship")}
