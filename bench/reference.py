"""A fixed pure-Python workload that measures how fast the host runs right now.

    python3 bench/reference.py

The benchmark runs it as a child process before and after every timed
child, and divides each timing by the reference's time around it (see
``run.py``). The work mixes what protomine spends its time on: an LCS
dynamic program over short tuples, a heap-driven shortest-path search
over hashable states, counting in dicts, sorting and ``Fraction`` sums.
It uses only the standard library and never imports protomine, so no
change to the program can change it. It prints a checksum, which the
benchmark compares with ``CHECKSUM``.
"""

import heapq
import random
from collections import Counter
from fractions import Fraction

CHECKSUM = "18192 828 215 2980.2"


def lcs(a: tuple, b: tuple) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def shortest(graph: dict, source: int, target: int) -> int:
    start = (source, frozenset())
    dist = {start: 0}
    heap = [(0, source, frozenset())]
    while heap:
        d, node, marks = heapq.heappop(heap)
        if node == target:
            return d
        if dist[(node, marks)] < d:
            continue
        for succ, label in graph[node]:
            state = (succ, marks | label if len(marks) < 3 else marks)
            if d + len(label) < dist.get(state, 1 << 30):
                dist[state] = d + len(label)
                heapq.heappush(heap, (d + len(label), *state))
    return -1


def work() -> str:
    rng = random.Random(7)
    words = [tuple(rng.choice("abcdefg") for _ in range(rng.randint(2, 12))) for _ in range(120)]
    graph = {
        n: [((n * 7 + k * 13) % 400, frozenset({n % 5, k})) for k in range(4)] for n in range(400)
    }
    common = paths = 0
    counts: Counter = Counter()
    total = Fraction(0)
    for _ in range(2):
        common += sum(lcs(words[i], words[j]) for i in range(0, 120, 2) for j in range(i + 1, 120))
        paths += sum(shortest(graph, s, 399 - s) for s in range(60))
        for w in words * 20:
            counts[w[:3]] += 1
            counts[tuple(sorted(w))] += 1
        total += sum(Fraction(v, len(k) + 1) for k, v in sorted(counts.items())[:300])
    return f"{common} {paths} {len(counts)} {float(total):.1f}"


if __name__ == "__main__":
    print(work())
