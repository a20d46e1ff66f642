import itertools
import math
import random
from fractions import Fraction

import pytest

from protomine import (
    AlignmentResult,
    BudgetExceeded,
    EventLog,
    Marking,
    PetriNet,
    alignment_cost,
    choice_parallel_net,
    compute_report,
    discover,
    f_beta,
    flower_net,
    gen_synthetic,
    shortest_visible_path,
    two_group_net,
    variant_alignments,
)
from protomine import conformance
from protomine.conformance import DEFAULT_ALIGN_BUDGET, DEFAULT_CLOSURE_BUDGET
from protomine.discovery import leaf, parallel, seq, tree_to_net, xor

from .conftest import (
    brute_force_alignment_cost,
    language_upto,
    lcs_oracle as _lcs,
    random_acyclic_net,
    random_trace,
    reference_alignment_cost,
    reference_escaping_edges_precision,
    reference_enabled,
    reference_expansions,
    reference_fire,
    reference_silent_closure,
    silent_only_net,
)
from .test_petrinet import differential_nets, reachable_markings, unreachable_final_net


def sequence_net(*labels):
    return tree_to_net(seq(*(leaf(l) for l in labels)))


def fitness_of(trace, net):
    return compute_report(EventLog({tuple(trace): 1}), net, [], 1.0).fitness


def precision_of(log, net, **budgets):
    return compute_report(log, net, [], 1.0, **budgets).precision


def deviating(log, net):
    alignments = variant_alignments(log, net)
    return {t: c for t, c in log.variants.items() if alignments[t].cost > 0}


def _never_called(*args, **kwargs):
    raise AssertionError("input checks must run before any net search")


class TestAlignmentCost:
    def test_fitting_trace(self, fixture_net):
        result = alignment_cost(("a", "d", "c", "e"), fixture_net)
        assert result.cost == 0
        assert result.model_projection == ("a", "d", "c", "e")

    def test_two_moves_missing(self, fixture_net):
        # best LCS against the four model words is 2, so 2 + 4 - 2*2
        assert alignment_cost(("a", "e"), fixture_net).cost == 2

    def test_empty_trace(self, fixture_net):
        # every model word has four visible labels
        result = alignment_cost((), fixture_net)
        assert result.cost == 4
        assert len(result.model_projection) == 4

    def test_zero_cost_iff_in_language(self, fixture_net):
        words = language_upto(fixture_net, 4)
        rng = random.Random(2)
        for _ in range(100):
            trace = random_trace(rng, "abcde", 6)
            cost = alignment_cost(trace, fixture_net).cost
            assert (cost == 0) == (trace in words)

    def test_budget_error_names_budget(self, fixture_net):
        with pytest.raises(BudgetExceeded, match="3"):
            alignment_cost(("a", "b", "d", "e"), fixture_net, budget=3)

    def test_oracle_equivalence_sample(self):
        rng = random.Random(6)
        for _ in range(40):
            net, leaves = random_acyclic_net(rng)
            trace = random_trace(rng, "abcdefgh", 8)
            expected = brute_force_alignment_cost(trace, net, leaves)
            assert alignment_cost(trace, net).cost == expected

    def test_projection_is_an_accepted_model_word(self):
        rng = random.Random(14)
        for _ in range(30):
            net, leaves = random_acyclic_net(rng)
            trace = random_trace(rng, "abcdefgh", 8)
            result = alignment_cost(trace, net)
            words = language_upto(net, leaves)
            assert result.model_projection in words
            # and its cost is consistent with that word
            edit = (
                len(trace)
                + len(result.model_projection)
                - 2 * _lcs(trace, result.model_projection)
            )
            assert edit == result.cost


def _outcome(search, trace, net, budget):
    """A search's result, or the type, message and budget of what it raised."""
    try:
        return search(trace, net, budget)
    except (BudgetExceeded, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "budget", None)


class TestIntStateKernel:
    """``alignment_cost`` against the tuple-keyed reference search in conftest."""

    @staticmethod
    def cases():
        rng = random.Random(31)
        for net in differential_nets():
            alphabet = sorted({l for l in net.transitions.values() if l is not None} | {"z"})
            traces = [()] + [random_trace(rng, alphabet, 7) for _ in range(6)]
            yield from ((trace, net) for trace in traces)
        log = gen_synthetic(two_group_net(), 200, noise_rate=0.4, seed=3)
        # the base net, and a net discovered from the most frequent variant,
        # which most of the log deviates from
        narrow = discover(EventLog({max(log.variants, key=log.variants.get): 1}))
        for net in (two_group_net(), narrow):
            yield from ((trace, net) for trace in sorted(log.variants))
        # long deviating traces over the alphabet plus an unknown label: many
        # cost levels (two-group) and deep runs of free moves (the flower)
        for net in (two_group_net(), flower_net("abc")):
            alphabet = sorted({l for l in net.transitions.values() if l is not None} | {"z"})
            for length in (40, 150):
                yield tuple(rng.choice(alphabet) for _ in range(length)), net

    def test_equal_results_and_budget_boundary(self):
        checked = 0
        for trace, net in self.cases():
            expansions = reference_expansions(trace, net)
            expected = reference_alignment_cost(trace, net, expansions)
            assert alignment_cost(trace, net, expansions) == expected, (trace, net)
            assert alignment_cost(trace, net) == expected
            if expansions:
                overrun = _outcome(alignment_cost, trace, net, expansions - 1)
                assert overrun[0] is BudgetExceeded
                assert overrun == _outcome(reference_alignment_cost, trace, net, expansions - 1)
            checked += 1
        assert checked > 300

    def test_unreachable_final_marking_raises_alike(self):
        net = unreachable_final_net()
        for trace in [(), ("x0",) * 10, ("x1", "y1", "z")]:
            outcome = _outcome(alignment_cost, trace, net, 10_000)
            assert outcome[0] is ValueError
            assert outcome == _outcome(reference_alignment_cost, trace, net, 10_000)
            assert _outcome(alignment_cost, trace, net, 50) == _outcome(reference_alignment_cost, trace, net, 50)


def _log_outcome(align, log, net, budget):
    try:
        return list(align(log, net, budget).items())
    except (BudgetExceeded, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "budget", None)


FLOWER_WORDS = [word for n in range(4) for word in itertools.product("abc", repeat=n)]


def _per_trace_loop(log, net, budget):
    return {trace: reference_alignment_cost(trace, net, budget) for trace in sorted(log.variants)}


class TestJointSearch:
    """``variant_alignments``' one trie search against one reference search per variant."""

    @staticmethod
    def cases():
        rng = random.Random(47)
        for net in differential_nets():
            alphabet = sorted({l for l in net.transitions.values() if l is not None} | {"z"})
            words = [random_trace(rng, alphabet, 7) for _ in range(7)]
            # prefix-heavy: the empty trace, and prefixes of other variants
            words += [word[: rng.randint(0, len(word))] for word in words] + [()]
            yield EventLog.from_traces(words), net
        log = gen_synthetic(two_group_net(), 200, noise_rate=0.4, seed=3)
        narrow = discover(EventLog({max(log.variants, key=log.variants.get): 1}))
        for net in (two_group_net(), narrow):
            yield log, net
        # every variant fits: the search ends at cost 0, before any cost-1 move is pushed
        yield EventLog.from_traces(FLOWER_WORDS), flower_net("abc")

    def test_equal_outcome_at_the_budget_boundary(self):
        checked = tripped = 0
        for log, net in self.cases():
            least = max(reference_expansions(trace, net) for trace in log.variants)
            for budget in sorted({0, least // 2, max(least - 1, 0), least, DEFAULT_ALIGN_BUDGET}):
                expected = _log_outcome(_per_trace_loop, log, net, budget)
                assert _log_outcome(variant_alignments, log, net, budget) == expected, (log, net, budget)
                assert isinstance(expected, list) == (budget >= least)
                tripped += budget < least
            checked += 1
        assert checked > 30 and tripped > 30

    def test_unreachable_final_marking_raises_alike(self):
        net = unreachable_final_net()
        log = EventLog.from_traces([(), ("x0",) * 10, ("x0",), ("x1", "y1", "z")])
        for budget in (0, 10, 50, 10_000):
            expected = _log_outcome(_per_trace_loop, log, net, budget)
            # the empty trace's search exhausts its 16 markings within a budget of 50
            assert expected[0] is (ValueError if budget >= 50 else BudgetExceeded)
            assert _log_outcome(variant_alignments, log, net, budget) == expected

    def test_one_variant_over_budget_stops_the_search_early(self, monkeypatch):
        # a flower over a, b, c whose silent "s_grow" adds a token forever:
        # every word over a, b, c fits, and a search that has to pay for a
        # deviation expands markings p + n q at cost 0 without end
        net = PetriNet(
            ["p", "q", "x"],
            {"a": "a", "b": "b", "c": "c", "s_grow": None, "t_end": None},
            [("p", "a"), ("a", "p"), ("p", "b"), ("b", "p"), ("p", "c"), ("c", "p"),
             ("p", "s_grow"), ("s_grow", "p"), ("s_grow", "q"), ("p", "t_end"), ("t_end", "x")],
            Marking.of({"p": 1}), Marking.of({"x": 1}),
        )
        log = EventLog.from_traces(FLOWER_WORDS + [("c", "d")])
        budget = 60
        assert max(reference_expansions(word, net) for word in FLOWER_WORDS) <= 4
        compiled, expanded, handed_over = net.compiled, [], []
        moves, align = compiled.moves, conformance.alignment_cost
        monkeypatch.setattr(compiled, "moves", lambda sid: expanded.append(sid) or moves(sid))
        monkeypatch.setattr(
            conformance, "alignment_cost",
            lambda *args: handed_over.append(len(expanded)) or align(*args),
        )
        with pytest.raises(BudgetExceeded, match=r"trace \[c d\] \(2 events\)"):
            variant_alignments(log, net, budget)
        # within the budget times the trie depth, not the budget times the 41 variants
        assert len(log.variants) == 41 and handed_over[0] <= budget * 3

    def test_one_move_table_read_per_distinct_expanded_marking(self, monkeypatch):
        # deviating variants: markings are expanded at many nodes and cost levels
        log = gen_synthetic(two_group_net(), 200, noise_rate=0.4, seed=3)
        net = discover(EventLog({max(log.variants, key=log.variants.get): 1}))
        expected = _per_trace_loop(log, net, DEFAULT_ALIGN_BUDGET)
        compiled, asked = net.compiled, []
        moves = compiled.moves
        monkeypatch.setattr(compiled, "moves", lambda sid: asked.append(sid) or moves(sid))
        assert variant_alignments(log, net) == expected
        assert len(asked) == len(set(asked)) > 1
        assert any(result.cost > 1 for result in expected.values())

    def test_one_search_without_per_trace_calls(self, monkeypatch):
        log = gen_synthetic(two_group_net(), 200, noise_rate=0.4, seed=3)
        expected = _per_trace_loop(log, two_group_net(), DEFAULT_ALIGN_BUDGET)
        monkeypatch.setattr(conformance, "alignment_cost", _never_called)
        assert variant_alignments(log, two_group_net()) == expected
        assert variant_alignments(EventLog({}), unreachable_final_net(), 0) == {}


class TestAlignmentMemo:
    """``variant_alignments`` keeps each result on the net's compiled form, per variants and budget."""

    @staticmethod
    def searches(monkeypatch):
        """The variant lists ``_align_trie`` searches from now on."""
        searched, search = [], conformance._align_trie
        monkeypatch.setattr(
            conformance, "_align_trie", lambda trie, *rest: searched.append(list(trie.traces)) or search(trie, *rest)
        )
        return searched

    def test_same_variants_and_budget_search_once(self, monkeypatch):
        log = gen_synthetic(two_group_net(), 200, noise_rate=0.4, seed=3)
        net = two_group_net()
        searched = self.searches(monkeypatch)
        first = variant_alignments(log, net)
        # equal variants under other counts are the same key
        recounted = EventLog({trace: 1 for trace in reversed(list(log.variants))})
        assert variant_alignments(recounted, net) == first
        assert compute_report(log, net, [], 1.0).fitness < 1
        assert searched == [sorted(log.variants), [()]]  # the second is compute_report's shortest word
        assert variant_alignments(log, net, DEFAULT_ALIGN_BUDGET - 1) == first
        assert len(searched) == 3

    def test_smaller_budget_after_a_success_raises_as_on_a_fresh_net(self):
        log = gen_synthetic(two_group_net(), 200, noise_rate=0.4, seed=3)
        net = two_group_net()
        least = max(reference_expansions(trace, net) for trace in log.variants)
        variant_alignments(log, net, least)
        expected = _log_outcome(variant_alignments, log, two_group_net(), least - 1)
        assert expected[0] is BudgetExceeded
        assert _log_outcome(variant_alignments, log, net, least - 1) == expected

    def test_an_overrun_keeps_nothing(self, monkeypatch):
        log = gen_synthetic(two_group_net(), 200, noise_rate=0.4, seed=3)
        net = two_group_net()
        with pytest.raises(BudgetExceeded):
            variant_alignments(log, net, 1)
        assert net.compiled.alignments == {}
        searched = self.searches(monkeypatch)
        assert variant_alignments(log, net) == variant_alignments(log, two_group_net())
        assert len(searched) == 2  # one search per net

    def test_second_report_on_a_net_searches_nothing(self, monkeypatch):
        log = gen_synthetic(two_group_net(), 200, noise_rate=0.4, seed=3)
        net = two_group_net()
        first = compute_report(log, net, [], 1.0)
        searched = self.searches(monkeypatch)
        assert compute_report(log, net, [], 1.0) == first
        assert searched == []  # neither the variants nor the shortest word

    def test_shortest_word_overrun_keeps_nothing(self, monkeypatch):
        net = two_group_net()
        searched = self.searches(monkeypatch)
        for _ in range(2):
            with pytest.raises(BudgetExceeded, match=r"^shortest path search on PetriNet\(") as info:
                shortest_visible_path(net, 1)
            assert info.value.budget == 1
            assert net.compiled.shortest == {}
        assert shortest_visible_path(net) == shortest_visible_path(net) == shortest_visible_path(two_group_net())
        assert searched == [[()]] * 4  # two overruns, then one search per net

    def test_each_call_gets_its_own_dict(self):
        log = gen_synthetic(two_group_net(), 200, noise_rate=0.4, seed=3)
        net = two_group_net()
        first = variant_alignments(log, net)
        expected = dict(first)
        trace = next(iter(first))
        first[trace] = AlignmentResult(99, ())
        del first[sorted(first)[-1]]
        assert variant_alignments(log, net) == expected


class TestTraceFitness:
    def test_perfect(self, fixture_net):
        assert fitness_of(("a", "d", "c", "e"), fixture_net) == 1

    def test_partial(self, fixture_net):
        assert fitness_of(("a", "e"), fixture_net) == 2 / 3

    def test_empty_trace_zero_fitness(self, fixture_net):
        assert fitness_of((), fixture_net) == 0

    def test_degenerate_empty_on_empty_model(self):
        assert fitness_of((), silent_only_net()) == 1

    def test_always_in_unit_interval(self, fixture_net):
        rng = random.Random(8)
        for _ in range(60):
            trace = random_trace(rng, "abcdez", 7)
            fit = fitness_of(trace, fixture_net)
            assert 0 <= fit <= 1
            cost = alignment_cost(trace, fixture_net).cost
            assert (fit == 1) == (cost == 0)


class TestLogFitness:
    def test_all_fitting(self, fixture_net):
        log = EventLog({("a", "b", "d", "e"): 3, ("a", "d", "c", "e"): 2})
        assert compute_report(log, fixture_net, [], 1.0).fitness == 1

    def test_mixed(self, fixture_net):
        log = EventLog({("a", "d", "c", "e"): 1, ("a", "e"): 1})
        assert compute_report(log, fixture_net, [], 1.0).fitness == 5 / 6

    def test_weighting(self, fixture_net):
        log = EventLog({("a", "e"): 3})
        assert compute_report(log, fixture_net, [], 1.0).fitness == 2 / 3

    def test_empty_log_rejected(self, fixture_net):
        with pytest.raises(ValueError):
            compute_report(EventLog({}), fixture_net, [], 1.0)

    def test_empty_trace_on_a_model_accepting_the_empty_word(self):
        # the empty trace has denominator 0 + 0 and fits; ("a",) costs 1 of 1
        log = EventLog({(): 3, ("a",): 1})
        assert compute_report(log, silent_only_net(), [], 1.0).fitness == 0.75

    def test_fold_equals_per_variant_fraction_sum(self):
        rng = random.Random(23)
        nets = [choice_parallel_net(), flower_net(["a", "b"]), silent_only_net()]
        for _ in range(200):
            net = rng.choice(nets)
            shortest = shortest_visible_path(net)
            table = {random_trace(rng, "abcde", 7): rng.randint(1, 1000) for _ in range(rng.randint(1, 12))}
            if rng.random() < 0.3:
                table[()] = rng.randint(1, 50)
            # a cost never exceeds len(trace) + shortest, so it is 0 when that is
            alignments = {t: AlignmentResult(rng.randint(0, len(t) + shortest), ()) for t in table}
            log = EventLog(table)
            expected = Fraction(0)
            for trace, count in table.items():
                denominator = len(trace) + shortest
                if denominator == 0:
                    expected += count
                else:
                    expected += count * (1 - Fraction(alignments[trace].cost, denominator))
            expected /= log.total_traces
            assert conformance._log_fitness(log.variants, log.total_traces, alignments, shortest) == float(expected)


class TestEtcPrecision:
    def test_exact_sequence_is_precise(self):
        log = EventLog({("a", "b"): 1})
        assert precision_of(log, sequence_net("a", "b")) == 1.0

    def test_flower_is_less_precise(self):
        log = EventLog({("a", "b"): 1})
        flower = flower_net(["a", "b", "c"])
        assert precision_of(log, flower) < precision_of(log, sequence_net("a", "b"))
        # escaping/enabled is 7/9 by direct count over the three states
        assert precision_of(log, flower) == pytest.approx(2 / 9)

    def test_observed_equals_enabled(self, fixture_net):
        log = EventLog(
            {
                ("a", "b", "d", "e"): 4,
                ("a", "d", "b", "e"): 3,
                ("a", "c", "d", "e"): 2,
                ("a", "d", "c", "e"): 1,
            }
        )
        assert precision_of(log, fixture_net) == 1.0

    def test_deviating_traces_replay_as_model_words(self, fixture_net):
        # the non-fitting trace contributes its aligned projection
        log = EventLog({("a", "e"): 1})
        value = precision_of(log, fixture_net)
        assert 0.0 < value <= 1.0

    def test_empty_log_rejected(self, fixture_net):
        with pytest.raises(ValueError):
            precision_of(EventLog({}), fixture_net)

    def test_silent_closure_budget_enforced(self):
        log = EventLog({("a",): 1})
        flower = flower_net(["a"])
        # reaching the hub through the opening silent move already needs
        # two closure markings, so a budget of one must trip
        with pytest.raises(
            BudgetExceeded,
            match=r"^silent closure after prefix \[\] \(0 events\) exceeded its state budget of 1$",
        ) as info:
            precision_of(log, flower, closure_budget=1)
        assert info.value.budget == 1

    def test_silent_closure_budget_error_names_the_prefix(self):
        # a, b, then two silent moves: only the closure after [a b] grows
        net = PetriNet(
            places=["p0", "p1", "p2", "p3", "p4"],
            transitions={"ta": "a", "tb": "b", "s1": None, "s2": None},
            arcs=[("p0", "ta"), ("ta", "p1"), ("p1", "tb"), ("tb", "p2"),
                  ("p2", "s1"), ("s1", "p3"), ("p3", "s2"), ("s2", "p4")],
            initial_marking=Marking.of(["p0"]),
            final_marking=Marking.of(["p4"]),
        )
        log = EventLog({("a", "b"): 1})
        assert precision_of(log, net, closure_budget=3) == 1.0
        with pytest.raises(BudgetExceeded, match=r"^silent closure after prefix \[a b\] \(2 events\)") as info:
            precision_of(log, net, closure_budget=2)
        assert info.value.budget == 2

    def test_recurring_overrun_names_its_first_prefix(self):
        # a loops on the start place, so [a] reaches the marking set of []
        # and the step by b overruns under [a b] first, then again under
        # the later sorted word [b]; the first prefix is named
        net = PetriNet(
            places=["p1", "p2", "p3", "p4"],
            transitions={"ta": "a", "tb": "b", "s1": None, "s2": None},
            arcs=[("p1", "ta"), ("ta", "p1"), ("p1", "tb"), ("tb", "p2"),
                  ("p2", "s1"), ("s1", "p3"), ("p3", "s2"), ("s2", "p4")],
            initial_marking=Marking.of(["p1"]),
            final_marking=Marking.of(["p4"]),
        )
        log = EventLog({("a", "b"): 1, ("b",): 2})
        expected = reference_escaping_edges_precision(net, dict(log.variants), 3)
        assert precision_of(log, net, closure_budget=3) == expected
        with pytest.raises(BudgetExceeded, match=r"^silent closure after prefix \[a b\] \(2 events\)") as info:
            precision_of(log, net, closure_budget=2)
        assert info.value.budget == 2


def _precision_outcome(net, table, closure_budget):
    """compute_report's precision over replayed words, or what it raised and its budget.

    ``table`` lists (model word, count) pairs, one log variant each; every
    variant aligns at cost 0 onto its word, which the net may reject, so
    the words are replayed as ``compute_report`` replays projections.
    """
    projected = {}
    for word, count in table:
        projected[word] = projected.get(word, 0) + count
    try:
        return conformance._escaping_edges_precision(net, projected, closure_budget)
    except BudgetExceeded as exc:
        return BudgetExceeded, exc.budget


def _reference_outcome(net, table, closure_budget):
    projected = {}
    for word, count in table:
        projected[word] = projected.get(word, 0) + count
    try:
        return reference_escaping_edges_precision(net, projected, closure_budget)
    except BudgetExceeded as exc:
        return BudgetExceeded, exc.budget


class TestPrecisionAgainstReference:
    """Escaping-edges precision against the prefix-dict replay in conftest."""

    @staticmethod
    def tables():
        rng = random.Random(43)
        long_rng = random.Random(47)
        for net in differential_nets():
            labels = sorted({l for l in net.transitions.values() if l is not None})
            alphabet = labels + ["z"]
            accepted = sorted(language_upto(net, 4))
            # a net accepting a word longer than its visible transitions
            # repeats one: there long words revisit a few marking sets
            flower_like = any(len(word) > len(labels) for word in language_upto(net, len(labels) + 2))
            for _ in range(3):
                words = [()] + [random_trace(rng, alphabet, 5) for _ in range(4)]
                words += rng.sample(accepted, min(4, len(accepted)))
                words.append(rng.choice(words))  # two variants replaying one word
                table = [(word, rng.randint(1, 6)) for word in words]
                if flower_like:
                    table += [(random_trace(long_rng, labels, 10), long_rng.randint(1, 6)) for _ in range(4)]
                yield net, table

    def test_exact_equality_and_budget_boundary(self):
        tripped = 0
        for net, table in self.tables():
            least = 0
            while _reference_outcome(net, table, least) == (BudgetExceeded, least):
                least += 1
            expected = _reference_outcome(net, table, least)
            assert isinstance(expected, float)
            assert _precision_outcome(net, table, least) == expected, (net, table)
            assert _precision_outcome(net, table, DEFAULT_CLOSURE_BUDGET) == expected
            if least:
                assert _precision_outcome(net, table, least - 1) == (BudgetExceeded, least - 1)
                tripped += 1
        assert tripped > 20


def reference_steps(net, words):
    """The distinct (marking set, label) subset steps of the prefixes of ``words``."""
    marking_sets = {(): frozenset(reference_silent_closure(net, {net.initial_marking}))}
    steps = set()
    for word in words:
        for i in range(1, len(word) + 1):
            prefix = word[:i]
            before = marking_sets[prefix[:-1]]
            steps.add((before, prefix[-1]))
            if prefix not in marking_sets:
                marking_sets[prefix] = frozenset(reference_silent_closure(net, {
                    reference_fire(net, marking, t)
                    for marking in before
                    for t in reference_enabled(net, marking)
                    if net.label(t) == prefix[-1]
                }))
    return steps, len(marking_sets)


class TestPrecisionStepMemo:
    """The replay closes each distinct subset step once, however many prefixes take it."""

    def test_one_closure_per_distinct_step(self, monkeypatch):
        rng = random.Random(3)
        net = flower_net(["a", "b", "c"])
        table = [(random_trace(rng, "abc", 30), rng.randint(1, 12)) for _ in range(60)]
        words = [word for word, _ in table]
        steps, prefixes = reference_steps(net, words)
        calls = []
        closure = net.compiled.silent_closure

        def counted(start, budget):
            calls.append(budget)
            return closure(start, budget)

        monkeypatch.setattr(net.compiled, "silent_closure", counted)
        precision = _precision_outcome(net, table, DEFAULT_CLOSURE_BUDGET)
        # two marking sets (before and after the first event) and three labels
        assert len(steps) == 6
        assert len(calls) == len(steps) + 1
        assert prefixes > 500
        assert precision == _reference_outcome(net, table, DEFAULT_CLOSURE_BUDGET)


class TestMemoOrder:
    """Marking ids are identities only: results ignore the order they were assigned in."""

    def test_results_do_not_depend_on_id_order(self):
        def base():
            return tree_to_net(seq(leaf("s"), parallel(leaf("a"), leaf("b"), xor(leaf("c"), leaf("d"))), leaf("e")))

        log = gen_synthetic(base(), 150, noise_rate=0.4, seed=5)
        warm_log = gen_synthetic(base(), 150, noise_rate=0.4, seed=9)
        # the base net, and the larger net discovered from the noisy log
        for build in (base, lambda: discover(log)):
            fresh, warmed = build(), build()
            assert fresh == warmed
            for trace in sorted(warm_log.variants, reverse=True):
                alignment_cost(trace, warmed)
            compute_report(warm_log, warmed, [], 1.0)

            results = [
                (
                    variant_alignments(log, net),
                    compute_report(log, net, sorted(log.variants)[:2], 2.0),
                    shortest_visible_path(net),
                )
                for net in (fresh, warmed)
            ]
            assert results[0] == results[1]
            # the two memos numbered the same markings differently
            markings = reachable_markings(fresh)
            assert [fresh.compiled.state_id(m) for m in markings] != [
                warmed.compiled.state_id(m) for m in markings
            ]


class TestFBeta:
    def test_fixed_point(self):
        for beta in (0.0, 0.5, 1.0, 2.0, 10.0):
            assert f_beta(0.8, 0.8, beta) == pytest.approx(0.8)

    def test_harmonic_mean(self):
        assert f_beta(0.5, 1.0, 1.0) == pytest.approx(2 / 3)

    def test_worked_value(self):
        assert f_beta(0.65, 0.78, 2.0) == pytest.approx(0.75)

    def test_zero_cases(self):
        assert f_beta(0.0, 0.0, 1.0) == 0.0
        assert f_beta(0.0, 0.9, 1.0) == 0.0
        assert f_beta(0.9, 0.0, 1.0) == 0.0

    def test_negative_beta_rejected(self):
        # so are NaN, inf and 1e200, whose square overflows: each makes the score NaN
        for beta in (-1.0, math.nan, math.inf, 1e200):
            with pytest.raises(ValueError, match="beta must be non-negative with a finite square"):
                f_beta(0.5, 0.5, beta)
        assert f_beta(0.5, 0.5, 1e150) == 0.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            f_beta(1.5, 0.5, 1.0)

    def test_bounds_and_symmetry(self):
        values = [i / 10 for i in range(11)]
        for p in values:
            for f in values:
                assert f_beta(p, f, 1.0) == pytest.approx(f_beta(f, p, 1.0))
                for beta in (0.0, 0.5, 1.0, 2.0, 8.0):
                    score = f_beta(p, f, beta)
                    assert min(p, f) - 1e-9 <= score <= max(p, f) + 1e-9

    def test_limit_toward_fitness(self):
        # raising beta moves the score toward fitness
        p, f = 0.4, 0.9
        betas = [0.5, 1.0, 2.0, 4.0, 16.0, 256.0]
        scores = [f_beta(p, f, b) for b in betas]
        assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))
        assert scores[-1] == pytest.approx(f, abs=1e-4)


class TestDeviatingTraces:
    def test_all_fit(self, fixture_net):
        log = EventLog({("a", "b", "d", "e"): 2})
        assert deviating(log, fixture_net) == {}

    def test_partial(self, fixture_net):
        log = EventLog({("a", "d", "c", "e"): 9, ("a", "e"): 2})
        assert deviating(log, fixture_net) == {("a", "e"): 2}

    def test_flower_fits_everything(self):
        log = EventLog({("a", "b"): 1, ("b", "b", "a"): 4})
        assert deviating(log, flower_net(["a", "b"])) == {}

    def test_partition(self, fixture_net):
        log = EventLog({("a", "b", "d", "e"): 2, ("a",): 1, ("z",): 3})
        sub = deviating(log, fixture_net)
        fitting = {t: c for t, c in log.variants.items() if t not in sub}
        merged = dict(sub)
        merged.update(fitting)
        assert merged == log.variants


class TestCoverage:
    def test_all_variants_selected(self, fixture_net):
        log = EventLog({("a", "b", "d", "e"): 2, ("a", "e"): 1})
        report = compute_report(log, fixture_net, list(log.variants), 1.0)
        assert report.log_coverage == 1.0

    def test_fitting_net_full_model_coverage(self, fixture_net):
        log = EventLog({("a", "b", "d", "e"): 2, ("a", "d", "c", "e"): 1})
        report = compute_report(log, fixture_net, [("a", "b", "d", "e")], 1.0)
        assert report.model_trace_coverage == 1.0

    def test_partial_counts(self, fixture_net):
        log = EventLog({("a", "b", "d", "e"): 3, ("a", "e"): 1})
        report = compute_report(log, fixture_net, [("a", "b", "d", "e")], 1.0)
        assert report.log_coverage == 0.75
        assert report.model_trace_coverage == 0.75

    def test_unknown_prototype_rejected(self, fixture_net):
        log = EventLog({("a", "e"): 1})
        with pytest.raises(ValueError, match="not a variant"):
            compute_report(log, fixture_net, [("z",)], 1.0)


class TestQualityReport:
    def test_empty_log_rejected_before_any_search(self, fixture_net, monkeypatch):
        monkeypatch.setattr(conformance, "shortest_visible_path", _never_called)
        monkeypatch.setattr(conformance, "alignment_cost", _never_called)
        monkeypatch.setattr(conformance, "variant_alignments", _never_called)
        with pytest.raises(ValueError, match="empty log"):
            compute_report(EventLog({}), fixture_net, [], 1.0)

    def test_unknown_prototype_rejected_before_any_search(self, fixture_net, monkeypatch):
        log = EventLog({("a", "e"): 1})
        monkeypatch.setattr(conformance, "shortest_visible_path", _never_called)
        monkeypatch.setattr(conformance, "alignment_cost", _never_called)
        monkeypatch.setattr(conformance, "variant_alignments", _never_called)
        with pytest.raises(ValueError, match=r"\('z',\) is not a variant of the log"):
            compute_report(log, fixture_net, [("a", "e"), ("z",)], 1.0)

    def test_unreachable_final_marking_fails_before_aligning(self):
        # four independent two-place cycles: 16 markings, all visited by the
        # shortest-path check, while aligning a 10-event trace has 176
        # product states, more than the alignment budget below
        net = unreachable_final_net()
        trace = ("x0",) * 10
        with pytest.raises(BudgetExceeded):
            alignment_cost(trace, net, budget=50)
        with pytest.raises(ValueError, match="not reachable"):
            compute_report(EventLog({trace: 1}), net, [], 1.0, budget=50)

    def test_alignment_budget_error_names_the_trace(self, fixture_net):
        with pytest.raises(BudgetExceeded, match=r"alignment search of trace \[a b d e\] \(4 events\)") as info:
            compute_report(EventLog({("a", "b", "d", "e"): 1}), fixture_net, [], 1.0, budget=1)
        assert info.value.budget == 1
        long_trace = tuple(f"act{i}" for i in range(40))
        with pytest.raises(BudgetExceeded, match=r"\[act0 act1 .* \.\.\.\] \(40 events\)") as info:
            compute_report(EventLog({long_trace: 1}), fixture_net, [], 1.0, budget=1)
        assert len(str(info.value)) < 140
        assert info.value.budget == 1

    def test_report_fields_and_json_names(self, fixture_net):
        log = EventLog({("a", "b", "d", "e"): 1, ("a", "e"): 1})
        report = compute_report(log, fixture_net, [("a", "b", "d", "e")], beta=2.0)
        payload = report.to_dict()
        assert list(payload) == [
            "fitness",
            "precision",
            "f_beta",
            "beta",
            "size",
            "cardoso",
            "log_coverage",
            "model_trace_coverage",
        ]
        assert payload["beta"] == 2.0
        assert payload["fitness"] == pytest.approx(5 / 6)
        assert payload["size"] == 23
        assert 0.0 <= payload["precision"] <= 1.0
        assert payload["log_coverage"] == 0.5
        assert payload["model_trace_coverage"] == 0.5
