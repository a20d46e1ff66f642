import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protomine import (
    BudgetExceeded,
    Marking,
    PetriNet,
    cardoso_metric,
    choice_parallel_net,
    enabled,
    export_pnml,
    fire,
    flower_net,
    language_upto,
    parse_pnml,
    shortest_visible_path,
    size_metric,
    two_group_net,
)
from protomine.builtin_models import silent_only_net
from protomine.discovery import leaf, loop, parallel, seq, silent_leaf, tree_to_net

from .conftest import (
    random_acyclic_net,
    reference_alignment_cost,
    reference_enabled,
    reference_expansions,
    reference_fire,
    reference_silent_closure,
    xml_char,
)


def single_transition_net(label="a"):
    return PetriNet(
        places=["p1", "p2"],
        transitions={"t1": label},
        arcs=[("p1", "t1"), ("t1", "p2")],
        initial_marking=Marking.of({"p1": 1}),
        final_marking=Marking.of({"p2": 1}),
    )


class TestMarking:
    def test_canonical_and_hashable(self):
        assert Marking.of({"b": 1, "a": 2}) == Marking.of(["a", "a", "b"])
        assert hash(Marking.of({"a": 1})) == hash(Marking.of(["a"]))
        assert Marking.of({"a": 0}) == Marking.of({})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Marking.of({"a": -1})


class TestEnabledAndFire:
    def test_single_input(self):
        net = single_transition_net()
        assert enabled(net, Marking.of({"p1": 1})) == {"t1"}
        assert enabled(net, Marking.of({})) == set()

    def test_partial_marking_disables(self):
        net = PetriNet(
            places=["p1", "p2", "p3"],
            transitions={"t": "a"},
            arcs=[("p1", "t"), ("p2", "t"), ("t", "p3")],
            initial_marking=Marking.of({"p1": 1}),
            final_marking=Marking.of({"p3": 1}),
        )
        assert enabled(net, Marking.of({"p1": 1})) == set()

    def test_fire_moves_token(self):
        net = single_transition_net()
        assert fire(net, Marking.of({"p1": 1}), "t1") == Marking.of({"p2": 1})

    def test_fire_self_loop(self):
        net = PetriNet(
            places=["p"],
            transitions={"t": "a"},
            arcs=[("p", "t"), ("t", "p")],
            initial_marking=Marking.of({"p": 1}),
            final_marking=Marking.of({"p": 1}),
        )
        assert fire(net, Marking.of({"p": 1}), "t") == Marking.of({"p": 1})

    def test_fire_consumes_one_token_per_arc(self):
        net = PetriNet(
            places=["p", "q"],
            transitions={"t": "a"},
            arcs=[("p", "t"), ("t", "q")],
            initial_marking=Marking.of({"p": 2}),
            final_marking=Marking.of({"q": 1}),
        )
        assert fire(net, Marking.of({"p": 2}), "t") == Marking.of({"p": 1, "q": 1})

    def test_fire_disabled_raises(self):
        net = single_transition_net()
        with pytest.raises(ValueError, match="not enabled"):
            fire(net, Marking.of({}), "t1")

    def test_token_conservation_on_random_nets(self):
        rng = random.Random(13)
        for _ in range(25):
            net, _ = random_acyclic_net(rng)
            marking = net.initial_marking
            for _ in range(30):
                options = sorted(enabled(net, marking))
                if not options:
                    break
                t = rng.choice(options)
                nxt = fire(net, marking, t)
                for place in net.places:
                    delta = nxt.as_dict().get(place, 0) - marking.as_dict().get(place, 0)
                    outdeg = net.outputs(t).count(place)
                    indeg = net.inputs(t).count(place)
                    assert delta == outdeg - indeg
                marking = nxt


def producer_net():
    """Unbounded: the visible ``make`` adds a token to q, the silent ``move`` shifts it to r."""
    return PetriNet(
        places=["p", "q", "r", "end"],
        transitions={"make": "m", "move": None, "take": "t", "stop": None},
        arcs=[
            ("p", "make"), ("make", "p"), ("make", "q"),
            ("q", "move"), ("move", "r"),
            ("r", "take"), ("take", "q"),
            ("p", "stop"), ("stop", "end"),
        ],
        initial_marking=Marking.of({"p": 1}),
        final_marking=Marking.of({"end": 1}),
    )


def differential_nets():
    """Random acyclic nets plus flower, silent-only, cyclic and multi-token nets."""
    rng = random.Random(7)
    nets = [random_acyclic_net(rng)[0] for _ in range(25)]
    nets += [
        flower_net(["a", "b", "c"]),
        silent_only_net(),
        choice_parallel_net(),
        two_group_net(),
        tree_to_net(loop(seq(leaf("a"), leaf("b")), leaf("c"))),
        tree_to_net(loop(silent_leaf(), parallel(leaf("a"), leaf("b")), leaf("c"))),
        producer_net(),
        PetriNet([], {}, [], Marking.of({}), Marking.of({})),
    ]
    return nets


def unreachable_final_net():
    """Four independent two-place cycles whose final marking is never reached."""
    places, transitions, arcs = ["end"], {}, []
    for i in range(4):
        a, b = f"c{i}a", f"c{i}b"
        places += [a, b]
        transitions.update({f"f{i}": f"x{i}", f"g{i}": f"y{i}"})
        arcs += [(a, f"f{i}"), (f"f{i}", b), (b, f"g{i}"), (f"g{i}", a)]
    return PetriNet(
        places=places,
        transitions=transitions,
        arcs=arcs,
        initial_marking=Marking.of([f"c{i}a" for i in range(4)]),
        final_marking=Marking.of({"end": 1}),
    )


def reachable_markings(net, bound=150):
    """Markings reachable under the reference interpreter, breadth first, at most ``bound``."""
    seen = [net.initial_marking]
    index = 0
    while index < len(seen) and len(seen) < bound:
        marking = seen[index]
        index += 1
        for t in sorted(reference_enabled(net, marking)):
            nxt = reference_fire(net, marking, t)
            if nxt not in seen:
                seen.append(nxt)
    return seen


class TestCompiledNetAgainstReference:
    def test_moves_match_reference(self):
        for net in differential_nets():
            compiled = net.compiled
            assert compiled.marking(compiled.initial) == net.initial_marking
            assert compiled.marking(compiled.final) == net.final_marking
            for marking in reachable_markings(net):
                sid = compiled.state_id(marking)
                assert compiled.marking(sid) == marking
                assert compiled.state_id(compiled.marking(sid)) == sid
                expected = reference_enabled(net, marking)
                moves = compiled.moves(sid)
                assert [t for t, _, _ in moves] == sorted(expected)
                assert enabled(net, marking) == expected
                for t, label, fired in moves:
                    assert label == net.label(t)
                    assert compiled.marking(fired) == reference_fire(net, marking, t)
                    assert fire(net, marking, t) == reference_fire(net, marking, t)

    def test_silent_closures_match_reference(self):
        for net in differential_nets():
            compiled = net.compiled
            markings = reachable_markings(net, bound=40)
            for marking in markings:
                closure = compiled.silent_closure([compiled.state_id(marking)], 10_000)
                assert {compiled.marking(s) for s in closure} == reference_silent_closure(net, [marking])
            pair = markings[-2:]
            union = compiled.silent_closure([compiled.state_id(m) for m in pair], 10_000)
            assert {compiled.marking(s) for s in union} == reference_silent_closure(net, pair)

    def test_closure_budget_trips_exactly_past_the_union(self):
        # two start markings of a flower: p_in closes over the hub and
        # p_out, the hub over p_out; the union has three markings
        net = flower_net(["a"])
        compiled = net.compiled
        start = [compiled.state_id(Marking.of(["p_in"])), compiled.state_id(Marking.of(["hub"]))]
        assert len(compiled.silent_closure(start, 3)) == 3
        with pytest.raises(BudgetExceeded, match="silent closure"):
            compiled.silent_closure(start, 2)
        # a start set larger than the budget is not an overrun by itself
        end = compiled.state_id(Marking.of(["p_out"]))
        assert compiled.silent_closure([end], 0) == {end}

    def test_marking_with_unknown_place_rejected(self):
        with pytest.raises(ValueError, match="unknown places"):
            enabled(single_transition_net(), Marking.of({"zz": 1}))


class TestLanguage:
    def test_fixture_language(self, fixture_net):
        expected = {
            ("a", "b", "d", "e"),
            ("a", "d", "c", "e"),
            ("a", "c", "d", "e"),
            ("a", "d", "b", "e"),
        }
        assert language_upto(fixture_net, 4) == expected

    def test_single_transition(self):
        assert language_upto(single_transition_net(), 1) == {("a",)}

    def test_flower_up_to_two(self):
        expected = {(), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}
        assert language_upto(flower_net(["a", "b"]), 2) == expected

    def test_budget_enforced(self, fixture_net):
        with pytest.raises(BudgetExceeded, match="2"):
            language_upto(fixture_net, 4, max_states=2)

    def test_budget_error_names_the_search(self, fixture_net):
        shape = rf"PetriNet\({len(fixture_net.places)} places, {len(fixture_net.transitions)} transitions, "
        with pytest.raises(BudgetExceeded, match=rf"^language enumeration of words up to length 4 on {shape}") as info:
            language_upto(fixture_net, 4, max_states=2)
        assert info.value.budget == 2

    def test_prefix_consistency(self):
        rng = random.Random(21)
        for _ in range(15):
            net, leaves = random_acyclic_net(rng)
            words = language_upto(net, leaves)
            for word in words:
                # replaying the word must be possible step by step
                markings = {net.initial_marking}
                for symbol in word:
                    nxt = set()
                    frontier = list(markings)
                    seen = set(markings)
                    while frontier:
                        m = frontier.pop()
                        for t in enabled(net, m):
                            if net.label(t) is None:
                                fired = fire(net, m, t)
                                if fired not in seen:
                                    seen.add(fired)
                                    frontier.append(fired)
                            elif net.label(t) == symbol:
                                nxt.add(fire(net, m, t))
                    assert nxt, f"word {word} not replayable at symbol {symbol}"
                    markings = nxt


class TestShortestVisiblePath:
    def test_fixture(self, fixture_net):
        assert shortest_visible_path(fixture_net) == 4

    def test_silent_only(self):
        assert shortest_visible_path(silent_only_net()) == 0

    def test_flower_accepts_empty_word(self):
        assert shortest_visible_path(flower_net(["a", "b"])) == 0

    def test_unreachable_final(self):
        net = PetriNet(
            places=["p1", "p2", "p3"],
            transitions={"t": "a"},
            arcs=[("p1", "t"), ("t", "p2")],
            initial_marking=Marking.of({"p1": 1}),
            final_marking=Marking.of({"p3": 1}),
        )
        with pytest.raises(ValueError, match="not reachable"):
            shortest_visible_path(net)

    def test_budget_error_names_the_search(self, fixture_net):
        shape = rf"PetriNet\({len(fixture_net.places)} places, {len(fixture_net.transitions)} transitions, "
        with pytest.raises(BudgetExceeded, match=rf"^shortest path search on {shape}") as info:
            shortest_visible_path(fixture_net, budget=2)
        assert info.value.budget == 2

    def test_equals_reference_empty_trace_alignment(self):
        # the shortest word is the empty trace's alignment cost, the least
        # budget included, on random acyclic, cyclic, unbounded and
        # unreachable-final nets (test_matches_language_minimum checks the
        # value against the language of acyclic nets)
        unreachable = 0
        for net in differential_nets() + [unreachable_final_net()]:
            try:
                expansions = reference_expansions((), net)
            except ValueError as exc:  # the final marking is unreachable
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    shortest_visible_path(net)
                unreachable += 1
                continue
            expected = reference_alignment_cost((), net, expansions).cost
            assert shortest_visible_path(net) == shortest_visible_path(net, expansions) == expected, net
            if expansions:
                with pytest.raises(BudgetExceeded, match=r"^shortest path search on PetriNet\(") as info:
                    shortest_visible_path(net, expansions - 1)
                assert info.value.budget == expansions - 1
        assert unreachable == 1

    def test_matches_language_minimum(self):
        rng = random.Random(33)
        for _ in range(15):
            net, leaves = random_acyclic_net(rng)
            shortest = shortest_visible_path(net)
            words = language_upto(net, leaves)
            assert shortest == min(len(w) for w in words)


class TestSimplicityMetrics:
    def test_size_chain(self):
        assert size_metric(single_transition_net()) == 5

    def test_size_empty(self):
        empty = PetriNet([], {}, [], Marking.of({}), Marking.of({}))
        assert size_metric(empty) == 0

    def test_size_fixture_manual_count(self, fixture_net):
        # 6 places, 5 transitions, 12 arcs, counted off the fixture diagram
        assert size_metric(fixture_net) == 6 + 5 + 12 == 23

    def test_cardoso_sequence_is_zero(self):
        net = PetriNet(
            places=["p1", "p2", "p3"],
            transitions={"t1": "a", "t2": "b"},
            arcs=[("p1", "t1"), ("t1", "p2"), ("p2", "t2"), ("t2", "p3")],
            initial_marking=Marking.of({"p1": 1}),
            final_marking=Marking.of({"p3": 1}),
        )
        assert cardoso_metric(net) == 0

    def test_cardoso_place_split(self):
        net = PetriNet(
            places=["p1", "p2"],
            transitions={"t1": "a", "t2": "b"},
            arcs=[("p1", "t1"), ("p1", "t2"), ("t1", "p2"), ("t2", "p2")],
            initial_marking=Marking.of({"p1": 1}),
            final_marking=Marking.of({"p2": 1}),
        )
        assert cardoso_metric(net) == 1

    def test_cardoso_transition_split(self):
        net = PetriNet(
            places=["p0", "p1", "p2", "p3"],
            transitions={"t": "a", "u1": "b", "u2": "c", "u3": "d"},
            arcs=[
                ("p0", "t"),
                ("t", "p1"),
                ("t", "p2"),
                ("t", "p3"),
                ("p1", "u1"),
                ("p2", "u2"),
                ("p3", "u3"),
                ("u1", "p0"),
                ("u2", "p0"),
                ("u3", "p0"),
            ],
            initial_marking=Marking.of({"p0": 1}),
            final_marking=Marking.of({"p1": 1}),
        )
        # the three-way transition split counts 2; nothing else branches
        assert cardoso_metric(net) == 2


class TestPnml:
    def test_round_trip_fixture(self, fixture_net):
        assert parse_pnml(export_pnml(fixture_net)) == fixture_net

    def test_round_trip_with_silent_transitions(self):
        net = silent_only_net()
        again = parse_pnml(export_pnml(net))
        assert again == net
        assert again.label("t_skip") is None

    def test_round_trip_empty_net(self):
        empty = PetriNet([], {}, [], Marking.of({}), Marking.of({}))
        assert parse_pnml(export_pnml(empty)) == empty

    def test_round_trip_random_nets(self):
        rng = random.Random(55)
        for _ in range(10):
            net, _ = random_acyclic_net(rng)
            assert parse_pnml(export_pnml(net)) == net

    @pytest.mark.parametrize("label", ["a\rb", "a\r\nb"])
    def test_carriage_return_in_a_label_survives(self, label):
        # XML parsing reads a raw CR, or CR LF, in text as one LF
        net = single_transition_net(label)
        document = export_pnml(net)
        assert b"\r" not in document
        assert parse_pnml(document).label("t1") == label

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_generated_nets(self, data):
        # silent transitions, multi-token markings and labels of any XML 1.0
        # characters, with the ones XML escapes or rewrites drawn often
        places = [f"p{i}" for i in range(data.draw(st.integers(1, 4)))]
        some_places = st.lists(st.sampled_from(places), min_size=1, unique=True)
        labels = st.none() | st.text(st.sampled_from("\r\n\t&<>\"' a") | st.characters().filter(xml_char),
                                     min_size=1, max_size=5)
        transitions, arcs = {}, []
        for i in range(data.draw(st.integers(0, 4))):
            transitions[f"t{i}"] = data.draw(labels)
            arcs += [(p, f"t{i}") for p in data.draw(some_places)]
            arcs += [(f"t{i}", p) for p in data.draw(some_places)]
        markings = st.dictionaries(st.sampled_from(places), st.integers(1, 3)).map(Marking.of)
        net = PetriNet(places, transitions, arcs, data.draw(markings), data.draw(markings))
        assert parse_pnml(export_pnml(net)) == net

    def test_invalid_document(self):
        with pytest.raises(ValueError):
            parse_pnml(b"not xml at all")
        with pytest.raises(ValueError):
            parse_pnml(b"<pnml></pnml>")


class TestValidation:
    def test_arc_must_be_bipartite(self):
        with pytest.raises(ValueError, match="arc"):
            PetriNet(
                places=["p1", "p2"],
                transitions={"t": "a"},
                arcs=[("p1", "p2"), ("p1", "t"), ("t", "p2")],
                initial_marking=Marking.of({"p1": 1}),
                final_marking=Marking.of({"p2": 1}),
            )

    def test_marking_must_reference_places(self):
        with pytest.raises(ValueError, match="unknown places"):
            PetriNet(
                places=["p1", "p2"],
                transitions={"t": "a"},
                arcs=[("p1", "t"), ("t", "p2")],
                initial_marking=Marking.of({"zz": 1}),
                final_marking=Marking.of({"p2": 1}),
            )

    def test_transition_needs_input_and_output(self):
        with pytest.raises(ValueError, match="at least one input"):
            PetriNet(
                places=["p1"],
                transitions={"t": "a"},
                arcs=[("p1", "t")],
                initial_marking=Marking.of({"p1": 1}),
                final_marking=Marking.of({}),
            )
