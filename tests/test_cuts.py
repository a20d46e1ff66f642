"""Direct checks of the cut detectors on hand-analysable graphs, and of the
closure the sequence cut reads against a search from every node."""

from hypothesis import given, settings
from hypothesis import strategies as st

from protomine import EventLog, alignment_cost, discover, discover_tree
from protomine.discovery import (
    _dfg_from_table,
    _loop_cut,
    _parallel_cut,
    _reachability,
    _sequence_cut,
    _xor_cut,
)

from .conftest import language_upto, reference_reachability


def graph_of(table):
    return _dfg_from_table(table)


class TestXorCut:
    def test_disconnected_alphabets_split(self):
        graph = graph_of({("a", "b"): 1, ("x", "y"): 1})
        assert _xor_cut(graph) == [frozenset("ab"), frozenset("xy")]

    def test_connected_graph_has_none(self):
        graph = graph_of({("a", "b"): 1, ("b", "x"): 1})
        assert _xor_cut(graph) is None


class TestReachability:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.lists(st.sampled_from("abcde"), max_size=8).map(tuple), st.integers(1, 3),
                           min_size=1, max_size=8))
    def test_matches_a_search_from_every_node(self, table):
        # self-loops and the empty trace are drawn too; only a node on a
        # cycle reaches itself
        graph = graph_of(table)
        assert _reachability(graph) == reference_reachability(graph)


class TestSequenceCut:
    def test_plain_chain(self):
        graph = graph_of({("a", "b", "c"): 1})
        assert _sequence_cut(graph) == [frozenset("a"), frozenset("b"), frozenset("c")]

    def test_choice_inside_sequence_merges_incomparable(self):
        # a and b never reach each other but both precede c
        graph = graph_of({("a", "c"): 1, ("b", "c"): 1})
        assert _sequence_cut(graph) == [frozenset("ab"), frozenset("c")]

    def test_cycle_collapses_to_one_group(self):
        graph = graph_of({("a", "b", "a"): 1})
        assert _sequence_cut(graph) is None

    def test_group_level_tournament_cycle_is_rejected(self):
        # pairwise one-directional reachability that cannot be ordered:
        # a1->b1, b2->c1, c2->a2 forms a cycle between merged groups
        graph = graph_of({("a1", "b1"): 1, ("b2", "c1"): 1, ("c2", "a2"): 1})
        assert _sequence_cut(graph) is None

    def test_discovery_still_replays_unorderable_log(self):
        log = EventLog({("a1", "b1"): 1, ("b2", "c1"): 1, ("c2", "a2"): 1})
        net = discover(log)
        for trace in log.variants:
            assert alignment_cost(trace, net).cost == 0


class TestParallelCut:
    def test_two_independent_activities(self):
        graph = graph_of({("a", "b"): 1, ("b", "a"): 1})
        assert _parallel_cut(graph) == [frozenset("a"), frozenset("b")]

    def test_missing_direction_blocks(self):
        graph = graph_of({("a", "b"): 1})
        assert _parallel_cut(graph) is None

    def test_component_without_start_is_merged(self):
        # b and c interleave with a but d never starts or ends a trace;
        # d's component has to fold into a valid one
        table = {
            ("a", "b"): 2,
            ("b", "a"): 2,
            ("a", "d", "b"): 1,
            ("b", "d", "a"): 1,
        }
        graph = graph_of(table)
        parts = _parallel_cut(graph)
        if parts is not None:
            starts, ends = set(graph.start_activities), set(graph.end_activities)
            assert all(p & starts and p & ends for p in parts)


class TestLoopCut:
    def test_single_redo(self):
        graph = graph_of({("a",): 1, ("a", "b", "a"): 1})
        assert _loop_cut(graph) == [frozenset("a"), frozenset("b")]

    def test_two_redo_parts(self):
        table = {("a",): 2, ("a", "b", "a"): 1, ("a", "c", "a"): 1}
        graph = graph_of(table)
        assert _loop_cut(graph) == [frozenset("a"), frozenset("b"), frozenset("c")]
        tree = discover_tree(EventLog(table))
        assert tree.operator == "loop"
        net = discover(EventLog(table))
        words = language_upto(net, 5)
        assert {("a",), ("a", "b", "a"), ("a", "c", "a"), ("a", "b", "a", "c", "a")} <= words

    def test_redo_entered_from_non_end_is_rejected(self):
        # b is entered straight from the start activity a, but a is also
        # an end only via the short trace; edge a->b must come from an
        # end activity, which holds, while b->c->b style noise does not
        graph = graph_of({("a", "b", "c"): 1, ("c",): 1})
        cut = _loop_cut(graph)
        assert cut is None or frozenset("b") not in cut[1:]

    def test_everything_start_or_end_blocks(self):
        graph = graph_of({("a", "b"): 1, ("b", "a"): 1})
        assert _loop_cut(graph) is None
