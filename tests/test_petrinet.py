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
    export_pnml,
    flower_net,
    parse_pnml,
    shortest_visible_path,
    size_metric,
    two_group_net,
)
from protomine.petrinet import PNML_NAMESPACE
from protomine.discovery import leaf, loop, parallel, seq, silent_leaf, tree_to_net

from .conftest import (
    language_upto,
    random_acyclic_net,
    reference_alignment_cost,
    reference_enabled,
    reference_expansions,
    reference_export_pnml,
    reference_fire,
    reference_parse_pnml,
    reference_silent_closure,
    silent_only_net,
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


def moves_at(net, marking):
    """The compiled moves at a marking, as transition -> successor marking."""
    compiled = net.compiled
    return {t: compiled.marking(fired) for t, _, fired in compiled.moves(compiled.state_id(marking))}


class TestEnabledAndFire:
    # the firing rule, through the compiled move table: the enabled
    # transitions are the keys of moves_at, firing one gives its value
    def test_single_input(self):
        net = single_transition_net()
        assert set(moves_at(net, Marking.of({"p1": 1}))) == {"t1"}
        assert set(moves_at(net, Marking.of({}))) == set()

    def test_partial_marking_disables(self):
        net = PetriNet(
            places=["p1", "p2", "p3"],
            transitions={"t": "a"},
            arcs=[("p1", "t"), ("p2", "t"), ("t", "p3")],
            initial_marking=Marking.of({"p1": 1}),
            final_marking=Marking.of({"p3": 1}),
        )
        assert set(moves_at(net, Marking.of({"p1": 1}))) == set()

    def test_fire_moves_token(self):
        net = single_transition_net()
        assert moves_at(net, Marking.of({"p1": 1}))["t1"] == Marking.of({"p2": 1})

    def test_fire_self_loop(self):
        net = PetriNet(
            places=["p"],
            transitions={"t": "a"},
            arcs=[("p", "t"), ("t", "p")],
            initial_marking=Marking.of({"p": 1}),
            final_marking=Marking.of({"p": 1}),
        )
        assert moves_at(net, Marking.of({"p": 1}))["t"] == Marking.of({"p": 1})

    def test_fire_consumes_one_token_per_arc(self):
        net = PetriNet(
            places=["p", "q"],
            transitions={"t": "a"},
            arcs=[("p", "t"), ("t", "q")],
            initial_marking=Marking.of({"p": 2}),
            final_marking=Marking.of({"q": 1}),
        )
        assert moves_at(net, Marking.of({"p": 2}))["t"] == Marking.of({"p": 1, "q": 1})

    def test_disabled_transition_has_no_move(self):
        net = single_transition_net()
        compiled = net.compiled
        assert compiled.moves(compiled.state_id(Marking.of({}))) == []

    def test_token_conservation_on_random_nets(self):
        rng = random.Random(13)
        for _ in range(25):
            net, _ = random_acyclic_net(rng)
            marking = net.initial_marking
            for _ in range(30):
                moves = moves_at(net, marking)
                if not moves:
                    break
                t = rng.choice(sorted(moves))
                nxt = moves[t]
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
                for t, label, fired in moves:
                    assert label == net.label(t)
                    assert compiled.marking(fired) == reference_fire(net, marking, t)

    def test_self_loop_and_several_tokens(self):
        # "keep" takes and gives back p's token (delta 0 at p) and adds one to q;
        # "spend" moves a token from p to r; p starts with two tokens
        net = PetriNet(
            ["p", "q", "r"],
            {"keep": "k", "spend": None},
            [("p", "keep"), ("keep", "p"), ("keep", "q"), ("p", "spend"), ("spend", "r")],
            Marking.of({"p": 2}), Marking.of({"r": 2}),
        )
        compiled = net.compiled
        for counts in ({"p": 2}, {"p": 2, "q": 3}, {"p": 1, "q": 1, "r": 1}, {"q": 2, "r": 2}):
            marking = Marking.of(counts)
            moves = compiled.moves(compiled.state_id(marking))
            assert [t for t, _, _ in moves] == sorted(reference_enabled(net, marking))
            for t, _, fired in moves:
                assert compiled.marking(fired) == reference_fire(net, marking, t)
        # p empty: the self-loop adds nothing to p, yet it needs p's token
        assert compiled.moves(compiled.state_id(Marking.of({"q": 2, "r": 2}))) == []
        keep = compiled.moves(compiled.state_id(Marking.of({"p": 2})))[0]
        assert compiled.marking(keep[2]) == Marking.of({"p": 2, "q": 1})

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

    def test_closure_budget_boundary_on_random_start_sets(self):
        # a budget of the closure's size holds it; one less overruns,
        # unless the start set alone is that large, and so does a budget
        # below the start set's size when the set grows
        rng = random.Random(11)
        for net in differential_nets():
            compiled = net.compiled
            markings = reachable_markings(net, bound=40)
            for _ in range(8):
                start = rng.sample(markings, rng.randint(1, min(3, len(markings))))
                expected = reference_silent_closure(net, start)
                n = len(expected)
                sids = [compiled.state_id(m) for m in start]
                assert {compiled.marking(s) for s in compiled.silent_closure(sids, n)} == expected
                if len(start) < n:
                    for budget in (n - 1, len(start) - 1):
                        with pytest.raises(BudgetExceeded, match=f"^silent closure exceeded its state budget of {budget}$"):
                            compiled.silent_closure(sids, budget)
                else:
                    assert {compiled.marking(s) for s in compiled.silent_closure(sids, n - 1)} == expected

    def test_marking_with_unknown_place_rejected(self):
        with pytest.raises(ValueError, match="unknown places"):
            single_transition_net().compiled.state_id(Marking.of({"zz": 1}))


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
                # replaying the word on the reference interpreter must be
                # possible step by step
                markings = {net.initial_marking}
                for symbol in word:
                    nxt = set()
                    frontier = list(markings)
                    seen = set(markings)
                    while frontier:
                        m = frontier.pop()
                        for t in reference_enabled(net, m):
                            if net.label(t) is None:
                                fired = reference_fire(net, m, t)
                                if fired not in seen:
                                    seen.add(fired)
                                    frontier.append(fired)
                            elif net.label(t) == symbol:
                                nxt.add(reference_fire(net, m, t))
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

    def test_unreachable_final_on_an_unbounded_net_overruns_the_budget(self):
        # t puts the token back on p1 and one more on p2 at each firing, so
        # the markings never run out: the search stops at its budget
        net = PetriNet(
            places=["p1", "p2", "p3"],
            transitions={"t": "a"},
            arcs=[("p1", "t"), ("t", "p1"), ("t", "p2")],
            initial_marking=Marking.of({"p1": 1}),
            final_marking=Marking.of({"p3": 1}),
        )
        with pytest.raises(BudgetExceeded, match=r"^shortest path search on PetriNet\(") as info:
            shortest_visible_path(net, budget=10)
        assert info.value.budget == 10

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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_export_equals_the_element_tree_writer(self, data):
        # ids and labels from the characters XML escapes, non-ASCII text
        # and lone surrogates (character references in both writers);
        # markings empty, leaving places unmarked, or holding many tokens
        chars = st.sampled_from("&<>\"'\r\n\t a\ud800\udfff") | st.characters(min_codepoint=0x80)
        ids = st.text(chars, max_size=4)
        places = data.draw(st.lists(ids.map("p".__add__), min_size=1, max_size=4, unique=True))
        some_places = st.lists(st.sampled_from(places), min_size=1, unique=True)
        labels = st.none() | st.text(chars, min_size=1, max_size=4)
        transitions, arcs = {}, []
        for t in data.draw(st.lists(ids.map("t".__add__), max_size=4, unique=True)):
            transitions[t] = data.draw(labels)
            arcs += [(p, t) for p in data.draw(some_places)]
            arcs += [(t, p) for p in data.draw(some_places)]
        markings = st.dictionaries(st.sampled_from(places), st.integers(0, 3)).map(Marking.of)
        net = PetriNet(places, transitions, arcs, data.draw(markings), data.draw(markings))
        document = export_pnml(net)
        assert document == reference_export_pnml(net)
        text = "".join(places) + "".join(transitions) + "".join(filter(None, transitions.values()))
        if all(map(xml_char, text)):  # a surrogate's reference is no XML character
            assert parse_pnml(document) == net

    def test_invalid_document(self):
        with pytest.raises(ValueError):
            parse_pnml(b"not xml at all")
        with pytest.raises(ValueError):
            parse_pnml(b"<pnml></pnml>")

    def test_duplicate_place_id(self):
        page = (b'<place id="a"><initialMarking><text>1</text></initialMarking></place>'
                b'<place id="a"><initialMarking><text>2</text></initialMarking></place>')
        with pytest.raises(ValueError, match="duplicate place id 'a'"):
            parse_pnml(b"<pnml><net><page>" + page + b"</page></net></pnml>")

    def test_duplicate_transition_id(self):
        page = b'<transition id="t"/><transition id="t"><name><text>x</text></name></transition>'
        with pytest.raises(ValueError, match="duplicate transition id 't'"):
            parse_pnml(b"<pnml><net><page>" + page + b"</page></net></pnml>")

    @pytest.mark.parametrize("text", ["1.5", "one"])
    def test_marking_that_is_no_integer(self, text):
        initial = f'<place id="p"><initialMarking><text>{text}</text></initialMarking></place>'
        final = (f'<place id="p"/><finalmarkings><marking>'
                 f'<place idref="p"><text>{text}</text></place></marking></finalmarkings>')
        with pytest.raises(ValueError, match=f"initial marking of place 'p' is not an integer: '{text}'"):
            parse_pnml(f"<pnml><net><page>{initial}</page></net></pnml>".encode())
        with pytest.raises(ValueError, match=f"final marking of place 'p' is not an integer: '{text}'"):
            parse_pnml(f"<pnml><net><page></page>{final}</net></pnml>".encode())

    def test_weighted_arc_is_rejected_naming_it(self):
        # read as weight 1, the arc would leave a token in p0 and the final
        # marking would be unreachable: the net would be scored wrongly
        message = "^arc 'p0' -> 't' has weight '2': only unit-weight arcs are supported$"
        with pytest.raises(ValueError, match=message):
            parse_pnml(arc_weight_pnml("2"))

    def test_unit_inscription_is_read(self):
        assert parse_pnml(arc_weight_pnml("1")).arcs == frozenset({("p0", "t"), ("t", "p1")})

    def test_repeated_arc_is_rejected_naming_it(self):
        # two parallel arcs p0 -> t stand for weight 2: read as one unit
        # arc, firing t would leave a token in p0, and p1 alone is final
        document = arc_weight_pnml("1").replace(b"<arc id='a1'", b"<arc id='a2' source='p0' target='t'/><arc id='a1'")
        message = "^arc 'p0' -> 't' is given twice: only unit-weight arcs are supported$"
        with pytest.raises(ValueError, match=message):
            parse_pnml(document)
        with pytest.raises(ValueError, match=message):
            reference_parse_pnml(document)


def arc_weight_pnml(inscription: str) -> bytes:
    """p0 holds 2 tokens, an arc with this inscription feeds t (label a), and t outputs to p1, the final marking."""
    return (
        "<pnml><net><page>"
        "<place id='p0'><initialMarking><text>2</text></initialMarking></place><place id='p1'/>"
        "<transition id='t'><name><text>a</text></name></transition>"
        f"<arc id='a0' source='p0' target='t'><inscription><text>{inscription}</text></inscription></arc>"
        "<arc id='a1' source='t' target='p1'/>"
        "</page><finalmarkings><marking><place idref='p1'><text>1</text></place></marking></finalmarkings>"
        "</net></pnml>"
    ).encode()


MISSING_IDREF = "final marking <place> without idref"


def draw_pnml(data) -> tuple[bytes, bool]:
    """A generated PNML document, and whether it holds a final ``<place>`` without idref.

    The document renders a small net, each tag in the default namespace,
    in no namespace or in another one, spread over nested ``<page>`` and
    ``<net>`` containers in a shuffled order. Elements may carry repeated
    ``<initialMarking>``, ``<name>`` and ``<text>`` children, and a
    missing or empty ``<text>``. A quarter of the documents also drop
    attributes and hold markings that are no integers; reused ids, a
    repeated arc, final places without idref and subtrees no reader looks
    into turn up in any of them.
    """
    draw = data.draw
    some = st.integers(0, 2)
    lossy = draw(st.integers(0, 3)) == 0

    def el(name: str, attrs: dict[str, str | None], *children: str) -> str:
        tag = draw(st.sampled_from(("", "p:", "q:"))) + name
        head = tag + "".join(f' {k}="{v}"' for k, v in attrs.items() if v is not None)
        if children or draw(st.booleans()):
            return f"<{head}>{''.join(children)}</{tag}>"
        return f"<{head}/>"

    def maybe(value: str) -> str | None:
        return draw(st.sampled_from((value, value, value, None))) if lossy else value

    def texts(value: str) -> list[str]:
        """``<text>`` children, the first holding ``value``; an empty one may be left out."""
        if not value and draw(st.booleans()):
            return []
        noise = st.sampled_from(("", "0", "x", "b"))
        values = [value] + [draw(noise) for _ in range(draw(some))]
        return [el("text", {}, *filter(None, [text])) for text in values]

    def wrapped(wrapper: str, value: str | None) -> list[str]:
        """``wrapper`` children, the first holding ``value`` (None: no wrapper at all)."""
        if value is None:
            return []
        return [el(wrapper, {}, *texts(value))] + [el(wrapper, {}, *texts("7")) for _ in range(draw(some))]

    bad = ["x", "1.5", "-1"] if lossy else []
    count_text = {0: [None, "", "0"], 1: ["1", "", " 1 "], 2: ["2"], 3: ["3", "\n 3 \n"]}
    places = [f"p{i}" for i in range(draw(st.integers(1, 3)))]
    some_places = st.lists(st.sampled_from(places), min_size=1, unique=True)
    counts = st.dictionaries(st.sampled_from(places), st.integers(1, 3))
    initial, final = draw(counts), draw(counts)
    items = []
    for p in places:
        text = draw(st.sampled_from(count_text[initial.get(p, 0)] + bad))
        items.append(el("place", {"id": maybe(p)}, *wrapped("initialMarking", text)))
    for i in range(draw(st.integers(0, 3))):
        t = f"t{i}"
        label = draw(st.sampled_from((None, "", "a", "b")))
        items.append(el("transition", {"id": maybe(t)}, *wrapped("name", label)))
        arcs = [(p, t) for p in draw(some_places)] + [(t, p) for p in draw(some_places)]
        items += [el("arc", {"source": maybe(a), "target": maybe(b)}) for a, b in arcs]
    refs = [(draw(st.sampled_from((p,) * 7 + (None,))), draw(st.sampled_from(count_text[n] + bad)))
            for p, n in final.items()]
    marking = el("marking", {}, *[el("place", {"idref": idref}, *texts(text)) for idref, text in refs])
    items.append(el("finalmarkings", {}, marking, *[el("toolspecific", {}) for _ in range(draw(some))]))
    for _ in range(draw(some)):  # a reused id, or elements no reader looks into
        items.append(draw(st.sampled_from((
            el("place", {"id": draw(st.sampled_from(places + ["t0"]))}),
            el("transition", {"id": draw(st.sampled_from(("t0", "p0")))}),
            el("toolspecific", {}, el("place", {"id": "ignored"})),
            el("arc", {"source": "p0", "target": "t0"}),
            el("name", {}, el("text", {}, "net")),
        ))))

    body, open_tags = [], []
    for item in draw(st.permutations(items)):
        for _ in range(draw(some)):
            open_tags.append(draw(st.sampled_from(("", "p:", "q:"))) + draw(st.sampled_from(("page", "net"))))
            body.append(f"<{open_tags[-1]}>")
        body.append(item)
        for _ in range(draw(st.integers(0, len(open_tags)))):
            body.append(f"</{open_tags.pop()}>")
    body += [f"</{tag}>" for tag in reversed(open_tags)]
    namespaces = {"xmlns:p": PNML_NAMESPACE, "xmlns:q": "urn:elsewhere",
                  "xmlns": draw(st.sampled_from((None, PNML_NAMESPACE)))}
    if draw(st.booleans()):
        document = el("net", {"id": "n", **namespaces}, *body)
    else:
        document = el("pnml", namespaces, el("net", {"id": "n"}, *body))
    return document.encode(), any(idref is None for idref, _ in refs)


class TestPnmlReader:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reads_as_the_reference_reader(self, data):
        document, missing_idref = draw_pnml(data)
        try:
            expected = reference_parse_pnml(document)
        except ValueError as exc:
            expected = exc
        try:
            got = parse_pnml(document)
        except ValueError as exc:
            got = exc
        if isinstance(expected, ValueError):
            # the reference skips a final <place> without idref, so an error
            # it meets later can come second to the reader's
            allowed = {str(expected), MISSING_IDREF} if missing_idref else {str(expected)}
            assert isinstance(got, ValueError) and str(got) in allowed, (got, expected)
        elif missing_idref:
            assert isinstance(got, ValueError) and str(got) == MISSING_IDREF, got
        else:
            assert got == expected

    def test_pages_nest_to_any_depth(self, fixture_net):
        flat = export_pnml(fixture_net)
        deep = flat.replace(b'<page id="page1">', b"<page>" * 3000).replace(b"</page>", b"</page>" * 3000)
        assert parse_pnml(deep) == fixture_net

    def test_final_place_without_idref(self):
        final = b"<finalmarkings><marking><place><text>1</text></place></marking></finalmarkings>"
        with pytest.raises(ValueError, match=f"^{MISSING_IDREF}$"):
            parse_pnml(b"<net><place id='p'/>" + final + b"</net>")

    @pytest.mark.parametrize("element, message", [
        ("<place/>", "place without id"),
        ("<transition/>", "transition without id"),
        ("<arc source='p'/>", "arc without source/target"),
        ("<arc target='t'/>", "arc without source/target"),
    ])
    def test_element_without_an_id_attribute(self, element, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_pnml(f"<pnml><net><page>{element}</page></net></pnml>".encode())

    def test_unknown_declared_encoding_is_malformed(self):
        document = b"<?xml version='1.0' encoding='bogus'?><pnml><net/></pnml>"
        for read in (parse_pnml, reference_parse_pnml):
            with pytest.raises(ValueError, match="^malformed PNML XML: unknown encoding: bogus$"):
                read(document)


class TestValidation:
    def test_a_net_equals_only_nets(self):
        assert (two_group_net() == 1) is False
        assert two_group_net() == two_group_net()

    @pytest.mark.parametrize("label", ["", 7])
    def test_label_is_a_non_empty_string_or_silent(self, label):
        with pytest.raises(ValueError, match="transition labels must be non-empty or silent"):
            single_transition_net(label)

    def test_id_is_a_place_or_a_transition(self):
        with pytest.raises(ValueError, match=r"^ids used as both place and transition: \['p1'\]$"):
            PetriNet(["p1", "p2"], {"p1": "a"}, [], Marking.of({}), Marking.of({}))

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
