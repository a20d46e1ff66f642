"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines alongside the pytest verdicts.
"""

import functools
import random
import time

from protomine import (
    EventLog,
    alignment_cost,
    choice_parallel_net,
    compute_report,
    discover,
    distance_matrix,
    edit_distance,
    f_beta,
    flower_net,
    gen_synthetic,
    kmedoids,
    language_upto,
    select_incremental,
    shortest_visible_path,
    two_group_net,
    variants,
)
from protomine.discovery import leaf, seq, tree_to_net

from .conftest import (
    brute_force_alignment_cost,
    insert_delete_dp,
    lcs_oracle,
    random_acyclic_net,
    random_trace,
)


def criterion(number, title):
    def decorate(test):
        @functools.wraps(test)
        def wrapper(*args, **kwargs):
            try:
                test(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] FAIL {title}")
                raise
            print(f"[criterion {number:2d}] PASS {title}")

        return wrapper

    return decorate


@criterion(1, "edit distance: worked example and LCS identity on 1000 pairs, < 5 s")
def test_c01_edit_distance_fidelity():
    started = time.monotonic()
    assert edit_distance(("a", "c", "f", "e", "d"), ("a", "f", "c", "a", "d")) == 4
    rng = random.Random(1001)
    alphabet = "abcdefghij"
    for _ in range(1000):
        a = random_trace(rng, alphabet, 20)
        b = random_trace(rng, alphabet, 20)
        assert edit_distance(a, b) == len(a) + len(b) - 2 * lcs_oracle(a, b)
        assert edit_distance(a, b) == insert_delete_dp(a, b)
    assert time.monotonic() - started < 5.0


@criterion(2, "reference net language is exactly the four known words, shortest 4")
def test_c02_reference_language():
    net = choice_parallel_net()
    assert language_upto(net, 4) == {
        ("a", "b", "d", "e"),
        ("a", "d", "c", "e"),
        ("a", "c", "d", "e"),
        ("a", "d", "b", "e"),
    }
    assert shortest_visible_path(net) == 4


@criterion(3, "alignment equals brute-force language minimum on 200 random pairs, < 60 s")
def test_c03_alignment_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(1003)
    checked = 0
    while checked < 200:
        net, leaves = random_acyclic_net(rng)
        words = sorted(language_upto(net, leaves))
        trace = random_trace(rng, "abcdefgh", 8)
        if rng.random() < 0.5 and words:
            # mutate a model word so near-fits are exercised too
            base = list(rng.choice(words))
            if base and rng.random() < 0.5:
                del base[rng.randrange(len(base))]
            base.insert(rng.randint(0, len(base)), rng.choice("abcdefgh"))
            trace = tuple(base)
        expected = brute_force_alignment_cost(trace, net, leaves)
        assert alignment_cost(trace, net).cost == expected
        checked += 1
    assert time.monotonic() - started < 60.0


@criterion(4, "F_beta algebra: harmonic reduction, bounds, large-beta limit")
def test_c04_f_beta_algebra():
    grid = [i / 10 for i in range(1, 11)]
    betas = [0.0, 0.5, 1.0, 2.0, 8.0]
    for p in grid:
        for f in grid:
            harmonic = 2 * p * f / (p + f)
            assert abs(f_beta(p, f, 1.0) - harmonic) <= 1e-12
            for beta in betas:
                score = f_beta(p, f, beta)
                assert min(p, f) - 1e-9 <= score <= max(p, f) + 1e-9
            if f > p:
                scores = [f_beta(p, f, beta) for beta in betas]
                assert all(x <= y + 1e-12 for x, y in zip(scores, scores[1:]))
            assert abs(f_beta(p, f, 1e6) - f) <= 1e-9


@criterion(5, "discovery replay guarantee on 50 random logs, < 120 s")
def test_c05_discovery_replay_guarantee():
    started = time.monotonic()
    rng = random.Random(1005)
    for _ in range(50):
        table = {}
        for _ in range(rng.randint(1, 50)):
            t = random_trace(rng, "abcdefgh", 12)
            table[t] = table.get(t, 0) + rng.randint(1, 3)
        log = EventLog(table)
        net = discover(log)
        for trace in log.variants:
            assert alignment_cost(trace, net).cost == 0
    assert time.monotonic() - started < 120.0


@criterion(6, "k-medoids: worked example, monotone cost, determinism")
def test_c06_kmedoids_invariants():
    four = [(("a", "b"), 10), (("a", "b", "c"), 2), (("x", "y"), 5), (("x", "y", "z"), 1)]
    matrix = distance_matrix([t for t, _ in four])
    clustering = kmedoids(four, 2, matrix)
    assert set(clustering.medoids) == {("a", "b"), ("x", "y")}

    rng = random.Random(1006)
    for _ in range(10):
        traces = sorted({random_trace(rng, "abcd", 8) for _ in range(rng.randint(3, 25))})
        counts = [(t, rng.randint(1, 30)) for t in traces]
        m = distance_matrix(traces)
        k = rng.randint(1, len(traces))
        first = kmedoids(counts, k, m)
        second = kmedoids(counts, k, m)
        assert first == second
        assert set(first.medoids) <= set(traces)
        costs = first.iteration_costs
        assert all(a >= b for a, b in zip(costs, costs[1:]))


@criterion(7, "selection loop terminates, grows strictly, returns the best score")
def test_c07_selection_termination_and_best_return():
    group_logs = [
        EventLog({("k", "l", "m"): 30, ("n", "o", "p"): 20, ("q", "r", "s"): 10}),
        EventLog({("k", "l", "m"): 5, ("n", "o", "p"): 5, ("q", "r", "s"): 5}),
        EventLog({("k", "l", "m"): 100, ("n", "o", "p"): 1, ("q", "r", "s"): 1}),
    ]
    for log in group_logs:
        result = select_incremental(log, k=1, beta=1.0)
        assert len(result.history) <= len(log)
        totals = [r.prototype_total for r in result.history]
        assert all(a < b for a, b in zip(totals, totals[1:]))
        best = max(r.report.f_beta for r in result.history)
        returned = next(
            r.report
            for r in result.history
            if r.prototype_total == len(result.prototypes)
        )
        assert returned.f_beta == best
        fits = [r.report.fitness for r in result.history]
        assert all(a <= b + 1e-12 for a, b in zip(fits, fits[1:]))


@criterion(8, "trend on 10 noisy synthetic logs: better F1 at no larger size, >= 7/10, < 5 min")
def test_c08_desk_scale_trend():
    started = time.monotonic()
    base = two_group_net()
    wins = 0
    for seed in range(1, 11):
        log = gen_synthetic(base, 1000, 0.08, seed=seed)
        result = select_incremental(log, k=2, beta=1.0)
        selected = result.best_report
        selected_f1 = f_beta(selected.precision, selected.fitness, 1.0)
        everything = discover(log)
        plain = compute_report(log, everything, [t for t, _ in variants(log)], 1.0)
        if selected_f1 >= plain.f_beta and selected.size <= plain.size:
            wins += 1
    assert wins >= 7, f"trend held in only {wins}/10 seeds"
    assert time.monotonic() - started < 300.0


@criterion(9, "precision orders the exact sequence net above the flower")
def test_c09_precision_ordering():
    log = EventLog({("a", "b"): 1})
    exact = tree_to_net(seq(leaf("a"), leaf("b")))
    assert compute_report(log, exact, [], 1.0).precision == 1.0
    assert compute_report(log, flower_net(["a", "b"]), [], 1.0).precision < 1.0


@criterion(10, "coverage: full selection covers the log, the flower replays it")
def test_c10_coverage_sanity():
    log = EventLog({("a", "b"): 3, ("b",): 2, ("a", "b", "b"): 1})
    net = flower_net(log.activities)
    report = compute_report(log, net, list(log.variants), 1.0)
    assert report.log_coverage == 1.0
    assert report.model_trace_coverage == 1.0
