import csv
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import protomine.eventlog as eventlog_module
import protomine.protoselect as protoselect_module
from protomine import (
    CsvColumns,
    EventLog,
    discover,
    Marking,
    PetriNet,
    alignment_cost,
    baseline_frequency,
    baseline_random,
    choice_parallel_net,
    compute_report,
    distance_matrix,
    export_xes,
    gen_synthetic,
    parse_csv,
    parse_xes,
    select_incremental,
    three_group_net,
    two_group_net,
    variants,
)
from protomine.cli import main

from .conftest import (
    reference_compare,
    reference_kmedoids,
    reference_parse_csv,
    reference_parse_xes,
    reference_select_incremental,
)
from .test_clustering import fields

THREE_GROUP_LOG = EventLog(
    {
        ("k", "l", "m"): 30,
        ("n", "o", "p"): 20,
        ("q", "r", "s"): 10,
    }
)


class TestSelectIncremental:
    def test_single_variant_log_stops_immediately(self):
        log = EventLog({("a", "b"): 7})
        result = select_incremental(log, k=1, beta=1.0)
        assert result.stop_reason == "no_deviating_traces"
        assert len(result.history) == 1
        assert result.prototypes == (("a", "b"),)
        assert result.history[0].report.model_trace_coverage == 1.0

    def test_two_behavior_log(self):
        log = EventLog({("a", "b", "c"): 50, ("x", "y", "z"): 50})
        result = select_incremental(log, k=2, beta=1.0)
        assert set(result.prototypes) == {("a", "b", "c"), ("x", "y", "z")}
        assert result.stop_reason == "no_deviating_traces"
        assert result.history[0].report.fitness == 1.0

    def test_three_groups_incremental_growth(self):
        result = select_incremental(THREE_GROUP_LOG, k=1, beta=1.0)
        totals = [r.prototype_total for r in result.history]
        assert totals == sorted(set(totals))  # strictly increasing
        assert len(result.history) <= len(THREE_GROUP_LOG)
        fitnesses = [r.report.fitness for r in result.history]
        assert all(a <= b + 1e-12 for a, b in zip(fitnesses, fitnesses[1:]))
        best = max(r.report.f_beta for r in result.history)
        returned = next(
            r.report.f_beta
            for r in result.history
            if r.prototype_total == len(result.prototypes)
        )
        assert returned == best
        assert result.stop_reason == "no_deviating_traces"
        assert set(result.prototypes) == set(THREE_GROUP_LOG.variants)

    def test_prototypes_are_log_variants(self):
        net = three_group_net()
        log = gen_synthetic(net, 200, 0.1, seed=3)
        result = select_incremental(log, k=2, beta=1.0)
        for p in result.prototypes:
            assert p in log

    def test_returned_model_has_best_f_beta(self):
        net = choice_parallel_net()
        log = gen_synthetic(net, 300, 0.15, seed=5)
        result = select_incremental(log, k=2, beta=1.0)
        best = max(r.report.f_beta for r in result.history)
        assert result.best_report.f_beta == best

    def test_invalid_k(self):
        log = EventLog({("a",): 1})
        with pytest.raises(ValueError, match="1..1"):
            select_incremental(log, k=2)
        with pytest.raises(ValueError):
            select_incremental(log, k=0)
        with pytest.raises(ValueError, match="max_iterations must be at least 1"):
            select_incremental(log, k=1, max_iterations=0)

    @pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf, 1e200])
    def test_beta_without_a_finite_square_rejected(self, beta):
        with pytest.raises(ValueError, match="beta must be non-negative with a finite square"):
            select_incremental(THREE_GROUP_LOG, k=1, beta=beta)

    def test_iteration_cap(self):
        result = select_incremental(THREE_GROUP_LOG, k=1, beta=1.0, max_iterations=1)
        assert result.stop_reason == "iteration_cap"
        assert len(result.history) == 1

    def test_duplicate_medoid_guard(self, monkeypatch):
        # a miner that never fits anything keeps every variant deviating;
        # an iteration whose medoids are all selected adds none, scores the
        # same net again and stops without improvement
        unfit = PetriNet(
            places=["p1", "p2"],
            transitions={"t": "zzz"},
            arcs=[("p1", "t"), ("t", "p2")],
            initial_marking=Marking.of({"p1": 1}),
            final_marking=Marking.of({"p2": 1}),
        )
        monkeypatch.setattr(protoselect_module, "discover", lambda log: unfit)
        log = EventLog({("a",): 2, ("b",): 1})
        result = select_incremental(log, k=2, beta=1.0)
        assert result.stop_reason == "no_improvement"
        assert set(result.prototypes) == {("a",), ("b",)}
        assert [r.prototypes_added for r in result.history] == [(("a",), ("b",)), ()]
        assert result.history[1].prototype_total == 2

    def test_errors_carry_iteration_context(self):
        log = EventLog({("a", "b"): 2, ("c",): 1})
        with pytest.raises(RuntimeError, match="iteration 1"):
            select_incremental(log, k=1, beta=1.0, align_budget=1)

    def test_noisy_log_returns_previous_model_on_drop(self):
        net = three_group_net()
        log = gen_synthetic(net, 500, 0.1, seed=11)
        result = select_incremental(log, k=3, beta=1.0)
        if result.stop_reason == "no_improvement" and len(result.history) > 1:
            scores = [r.report.f_beta for r in result.history]
            assert scores[-1] <= scores[-2]
            assert result.best_report.f_beta == max(scores)

    def test_best_report_equals_a_fresh_score_of_the_result(self):
        # compare's prototypes row reuses best_report instead of rescoring
        group_logs = [  # the three logs of acceptance criterion 7
            THREE_GROUP_LOG,
            EventLog({("k", "l", "m"): 5, ("n", "o", "p"): 5, ("q", "r", "s"): 5}),
            EventLog({("k", "l", "m"): 100, ("n", "o", "p"): 1, ("q", "r", "s"): 1}),
        ]
        noisy = gen_synthetic(two_group_net(), 200, 0.2, seed=1)
        runs = [(log, 1, 20) for log in group_logs]
        runs += [(log, 1, 2) for log in group_logs]
        runs.append((noisy, 2, 20))
        stop_reasons = set()
        for log, k, cap in runs:
            for beta in (0.5, 1.0, 2.0):
                result = select_incremental(log, k=k, beta=beta, max_iterations=cap)
                fresh = compute_report(log, result.model, list(result.prototypes), beta)
                assert result.best_report == fresh
                stop_reasons.add(result.stop_reason)
        assert stop_reasons == {"no_improvement", "no_deviating_traces", "iteration_cap"}

    @settings(deadline=None, max_examples=150)
    @given(
        st.dictionaries(
            st.lists(st.sampled_from("abcd"), max_size=5).map(tuple),
            st.integers(1, 5),
            min_size=1,
            max_size=8,
        ),
        st.integers(1, 3),
        st.integers(1, 4),
        st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_loop_contract(self, table, k, cap, beta):
        log = EventLog(table)
        result = select_incremental(log, k=min(k, len(log)), beta=beta, max_iterations=cap)
        history = result.history
        assert result.model == discover(EventLog({t: log.count(t) for t in result.prototypes}))
        totals = [r.prototype_total for r in history]
        assert all(a < b for a, b in zip(totals, totals[1:]))
        best = max(history, key=lambda r: r.report.f_beta)
        assert best.prototype_total == len(result.prototypes)
        assert best.report == result.best_report
        for p in result.prototypes:
            assert alignment_cost(p, result.model).cost == 0
        # what the result carries for reuse is the loop's matrix
        assert result.distances == distance_matrix([t for t, _ in variants(log)])
        if result.stop_reason == "no_improvement":
            assert best is history[-2]
        elif result.stop_reason == "no_deviating_traces":
            assert history[-1].report.model_trace_coverage == 1.0
        else:
            assert result.stop_reason == "iteration_cap"
            assert len(history) == cap

    def test_one_run_builds_the_log_trie_once(self, monkeypatch):
        log = gen_synthetic(three_group_net(), 300, noise_rate=0.3, seed=1)
        built, build = [], eventlog_module.prefix_trie

        def counted(traces):
            trie = build(traces)
            built.append(trie.traces)
            return trie

        monkeypatch.setattr(eventlog_module, "prefix_trie", counted)
        result = select_incremental(log, k=2, beta=1.0)
        assert len(result.history) > 1  # each iteration aligns the whole log
        assert built.count(tuple(sorted(log.variants))) == 1


class TestLoopClustering:
    def test_each_round_clusters_a_shrinking_pool_on_one_matrix_as_the_reference(self, monkeypatch):
        # the rows are packed once per matrix, and every round's pool reads them
        log = gen_synthetic(three_group_net(), 300, noise_rate=0.3, seed=3)
        calls, kmedoids = [], protoselect_module.kmedoids

        def recorded(pool, k, matrix):
            calls.append((list(pool), k, matrix, kmedoids(pool, k, matrix)))
            return calls[-1][-1]

        monkeypatch.setattr(protoselect_module, "kmedoids", recorded)
        result = select_incremental(log, k=2)
        sizes = [len(pool) for pool, _, _, _ in calls]
        assert len(calls) >= 4 and sizes == sorted(set(sizes), reverse=True)
        assert all(matrix is result.distances for _, _, matrix, _ in calls)
        for pool, k, _, clustering in calls:
            assert fields(clustering) == reference_kmedoids(pool, k)


# labels that export_xes escapes (&, <, quotes) send their documents past the plain XES path
LOOP_ALPHABETS = ["abcd", ("a", "b c", "it's", "d"), ("a", "&", "<b>", '"c"')]


def loop_tables(labels):
    """Variant tables over labels, some variants long enough to cross the 1/2- and 2/3-byte segment bounds."""
    short = st.lists(st.sampled_from(labels), max_size=6)
    long = st.sampled_from([7, 8, 9, 15, 16, 17]).flatmap(
        lambda n: st.lists(st.sampled_from(labels), min_size=n, max_size=n)
    )
    return st.dictionaries(st.one_of(short, short, short, long).map(tuple), st.integers(1, 6), min_size=1, max_size=12)


def write_csv_log(path, table):
    """The table as CSV rows with a timestamp column, interleaved across cases and last events first."""
    cases = [trace for trace, count in table.items() for _ in range(count)]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["case_id", "activity", "timestamp"])
        for position in reversed(range(max(map(len, cases)))):
            writer.writerows(
                [f"case-{case}", trace[position], f"2024-03-01T10:00:{position:02d}Z"]
                for case, trace in enumerate(cases)
                if position < len(trace)
            )


class TestWholeLoopAgainstReference:
    """The loop and compare's rows from XES or CSV bytes, against the per-layer oracles composed in the plainest form."""

    @settings(deadline=None, max_examples=50)
    @given(
        st.sampled_from(LOOP_ALPHABETS).flatmap(loop_tables),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.integers(0, 3),
        st.sampled_from(["xes", "csv"]),
    )
    # at k = 1 the second model's F_beta equals the first's: the loop stops there
    @example({("a",): 4, ("c", "b", "c"): 2}, 0.5, 0, "xes")
    def test_select_incremental_and_compare_rows_equal_the_reference(self, table, beta, seed, form):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"log.{form}"
            if form == "xes":
                with path.open("wb") as handle:
                    export_xes(EventLog(table), handle)
                options = []
                document = path.read_bytes()
                log, oracle_log = parse_xes(document), reference_parse_xes(document)
            else:
                table = {trace: count for trace, count in table.items() if trace}  # no CSV row holds ()
                assume(table)
                write_csv_log(path, table)
                options = ["--time-col", "timestamp"]
                document, columns = path.read_bytes(), CsvColumns("case_id", "activity", "timestamp")
                log, oracle_log = parse_csv(document, columns), reference_parse_csv(document, columns)
            assert oracle_log == EventLog(table)
            for k in range(1, min(3, len(oracle_log)) + 1):
                result = select_incremental(log, k, beta)
                model, prototypes, history, stop_reason = reference_select_incremental(oracle_log, k, beta)
                assert result.prototypes == prototypes
                assert result.history == history
                assert result.stop_reason == stop_reason
                assert result.model == model
                out = Path(tmp) / f"k{k}"
                argv = ["compare", "--in", path, *options, "--k", k, "--beta", beta, "--seed", seed, "--out", out]
                assert main([str(a) for a in argv]) == 0
                with open(out / "compare.csv", newline="") as handle:
                    assert list(csv.reader(handle))[1:] == reference_compare(oracle_log, k, seed, beta)


class TestBaselines:
    def test_frequency_top(self):
        log = EventLog({("a",): 5, ("b",): 1})
        assert baseline_frequency(log, 1) == [("a",)]

    def test_frequency_all(self):
        log = EventLog({("a",): 5, ("b",): 1})
        assert set(baseline_frequency(log, 2)) == {("a",), ("b",)}

    def test_frequency_tie_break(self):
        log = EventLog({("b",): 2, ("a",): 2})
        assert baseline_frequency(log, 1) == [("a",)]

    def test_random_is_seeded(self):
        log = EventLog({(c,): 1 for c in "abcdefgh"})
        first = baseline_random(log, 3, seed=9)
        second = baseline_random(log, 3, seed=9)
        assert first == second
        assert len(set(first)) == 3

    def test_random_all_and_none(self):
        log = EventLog({("a",): 1, ("b",): 1})
        assert set(baseline_random(log, 2, seed=0)) == {("a",), ("b",)}
        assert baseline_random(log, 0, seed=0) == []

    def test_bounds_checked(self):
        log = EventLog({("a",): 1})
        with pytest.raises(ValueError):
            baseline_frequency(log, 2)
        with pytest.raises(ValueError):
            baseline_random(log, 2, seed=0)


class TestGenSynthetic:
    def test_noise_free_log_fits_base_model(self):
        net = choice_parallel_net()
        log = gen_synthetic(net, 100, 0.0, seed=1)
        assert log.total_traces == 100
        for trace in log.variants:
            assert alignment_cost(trace, net).cost == 0

    def test_full_noise_mostly_deviates(self):
        net = choice_parallel_net()
        log = gen_synthetic(net, 200, 1.0, seed=2)
        deviating = sum(
            count
            for trace, count in log.variants.items()
            if alignment_cost(trace, net).cost > 0
        )
        assert deviating / log.total_traces >= 0.8

    def test_deterministic(self):
        net = three_group_net()
        assert gen_synthetic(net, 50, 0.3, seed=4) == gen_synthetic(net, 50, 0.3, seed=4)

    def test_noise_rate_validated(self):
        with pytest.raises(ValueError):
            gen_synthetic(choice_parallel_net(), 10, 1.5, seed=0)

    def test_negative_trace_count_rejected(self):
        with pytest.raises(ValueError, match="n_traces must be non-negative"):
            gen_synthetic(choice_parallel_net(), -1, 0.0, seed=0)

    def test_walks_that_dead_end_raise(self):
        # t moves the token to p2, where no walk can reach the final marking p1
        net = PetriNet(
            ["p0", "p1", "p2"], {"t": "t"}, [("p0", "t"), ("t", "p2")], Marking.of({"p0": 1}), Marking.of({"p1": 1})
        )
        with pytest.raises(RuntimeError, match="simulation repeatedly failed to reach the final marking"):
            gen_synthetic(net, 1, 0.0, seed=0)
