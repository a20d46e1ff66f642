import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protomine import (
    EventLog,
    alignment_cost,
    dfg,
    discover,
    discover_tree,
    export_pnml,
    gen_synthetic,
    tree_to_net,
    variant_alignments,
    variants,
)
from protomine.builtin_models import MODELS
from protomine.discovery import ProcessTree, flower, leaf, loop, parallel, seq, silent_leaf, simplify_tree, xor

from .conftest import language_upto, random_trace, reference_simplify_tree


class TestDfg:
    def test_repeated_variant(self):
        graph = dfg(EventLog({("a", "b"): 2}))
        assert graph.edges == {("a", "b"): 2}
        assert graph.start_activities == {"a": 2}
        assert graph.end_activities == {"b": 2}

    def test_single_activity(self):
        graph = dfg(EventLog({("a",): 1}))
        assert graph.edges == {}
        assert graph.start_activities == {"a": 1}
        assert graph.end_activities == {"a": 1}

    def test_self_loop(self):
        graph = dfg(EventLog({("a", "a"): 1}))
        assert graph.edges == {("a", "a"): 1}


class TestProcessTree:
    def test_operator_arity(self):
        with pytest.raises(ValueError):
            ProcessTree(operator="seq", children=(leaf("a"),))
        with pytest.raises(ValueError):
            ProcessTree(operator="nope", children=(leaf("a"), leaf("b")))
        with pytest.raises(ValueError):
            ProcessTree(label="a", children=(leaf("b"),))
        with pytest.raises(ValueError, match="operator nodes carry no label"):
            ProcessTree("seq", "a", (leaf("a"), leaf("b")))

    def test_repr_reads_like_a_term(self):
        tree = seq(leaf("a"), xor(leaf("b"), silent_leaf()))
        assert repr(tree) == "seq(a, xor(b, tau))"


class TestTreeToNet:
    def test_leaf(self):
        net = tree_to_net(leaf("a"))
        assert language_upto(net, 1) == {("a",)}
        assert len(net.transitions) == 1

    def test_sequence(self):
        net = tree_to_net(seq(leaf("a"), leaf("b")))
        assert language_upto(net, 2) == {("a", "b")}

    def test_loop(self):
        net = tree_to_net(loop(leaf("a"), leaf("b")))
        words = language_upto(net, 5)
        assert ("a",) in words
        assert ("a", "b", "a") in words
        assert ("a", "b", "a", "b", "a") in words
        assert all(w[0] == "a" and w[-1] == "a" for w in words)

    def test_parallel_interleavings(self):
        net = tree_to_net(parallel(leaf("a"), leaf("b")))
        assert language_upto(net, 2) == {("a", "b"), ("b", "a")}

    def test_flower_language(self):
        net = tree_to_net(flower(["a", "b"]))
        assert language_upto(net, 2) == {
            (),
            ("a",),
            ("b",),
            ("a", "a"),
            ("a", "b"),
            ("b", "a"),
            ("b", "b"),
        }


class TestDiscover:
    def test_parallel_tail(self):
        log = EventLog({("a", "b", "c"): 1, ("a", "c", "b"): 1})
        net = discover(log)
        assert language_upto(net, 3) == {("a", "b", "c"), ("a", "c", "b")}

    def test_single_variant_single_activity(self):
        net = discover(EventLog({("a",): 5}))
        visible = [t for t in net.transitions if net.label(t) is not None]
        assert len(visible) == 1 and len(net.transitions) == 1
        assert language_upto(net, 1) == {("a",)}

    def test_unstructured_log_replays_everything(self):
        # no single block structure fits this log exactly; whatever the
        # recursion lands on must still replay every trace at cost zero
        log = EventLog({("a", "b", "c"): 1, ("c", "b", "a"): 1, ("b",): 1, ("a", "c"): 1})
        net = discover(log)
        for trace in log.variants:
            assert alignment_cost(trace, net).cost == 0

    def test_flower_fall_through(self):
        # a three-cycle with all activities as starts and ends defeats
        # every cut, so the fall-through flower must kick in
        log = EventLog({("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1})
        tree = discover_tree(log)
        assert tree.operator == "loop"
        assert tree.children[0].label is None and tree.children[0].operator is None
        net = tree_to_net(tree)
        for trace in log.variants:
            assert alignment_cost(trace, net).cost == 0

    def test_empty_trace_handling(self):
        log = EventLog({(): 2, ("a",): 3})
        net = discover(log)
        assert language_upto(net, 1) == {(), ("a",)}

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError, match="empty log"):
            discover(EventLog({}))

    def test_choice_of_sequences(self):
        log = EventLog({("a", "b"): 3, ("x", "y"): 2})
        net = discover(log)
        assert language_upto(net, 2) == {("a", "b"), ("x", "y")}

    def test_loop_rediscovery(self):
        log = EventLog({("a",): 4, ("a", "b", "a"): 2, ("a", "b", "a", "b", "a"): 1})
        net = discover(log)
        words = language_upto(net, 5)
        assert {("a",), ("a", "b", "a"), ("a", "b", "a", "b", "a")} <= words

    def test_visible_labels_equal_log_alphabet(self):
        rng = random.Random(77)
        for _ in range(20):
            table = {}
            for _ in range(rng.randint(1, 20)):
                t = random_trace(rng, "abcdef", 8)
                table[t] = table.get(t, 0) + rng.randint(1, 5)
            if not any(table):
                continue
            log = EventLog(table)
            net = discover(log)
            visible = {net.label(t) for t in net.transition_ids if net.label(t) is not None}
            assert visible == log.activities

    def test_replay_guarantee_random_logs(self):
        rng = random.Random(101)
        for _ in range(15):
            table = {}
            for _ in range(rng.randint(1, 30)):
                t = random_trace(rng, "abcdefgh", 12)
                table[t] = table.get(t, 0) + 1
            log = EventLog(table)
            net = discover(log)
            for trace in log.variants:
                assert alignment_cost(trace, net).cost == 0, (trace, table)

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.lists(st.sampled_from("abcdefgh"), max_size=12).map(tuple), st.integers(1, 3),
                           min_size=1, max_size=30).map(EventLog))
    def test_replay_guarantee_shrinks_a_failing_log(self, log):
        # the guarantee above, drawn so that a log it fails on shrinks
        alignments = variant_alignments(log, discover(log))
        assert {trace: result.cost for trace, result in alignments.items()} == dict.fromkeys(log.variants, 0)

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.lists(st.sampled_from("abcdefgh"), max_size=12).map(tuple), st.integers(1, 3),
                           min_size=1, max_size=30).map(EventLog))
    def test_counts_reach_no_cut(self, log):
        # without infrequency filtering every cut reads which variants
        # occur, not how often: the variant set alone fixes the net
        assert export_pnml(discover(log)) == export_pnml(discover(EventLog(dict.fromkeys(log.variants, 1))))

    def test_determinism_under_insertion_order(self):
        items = [(("a", "b", "c"), 2), (("a", "c", "b"), 1), (("d",), 4)]
        forward = EventLog(dict(items))
        backward = EventLog(dict(reversed(items)))
        assert export_pnml(discover(forward)) == export_pnml(discover(backward))


# sha256 of export_pnml over every net of pinned_corpus(): a change to
# any cut, split or compilation step that alters one net changes it
PINNED_DIGEST = "28b9fa64eac07c38d6d257f13f5bb7770b39c609b72ec6cdd1deed7510b31c5c"


def pinned_corpus():
    """Variant tables: every prefix of simulated logs, then random tables."""
    for _, build in sorted(MODELS.items()):
        for noise in (0.0, 0.1, 0.3):
            for seed in range(4):
                table = variants(gen_synthetic(build(), 60, noise, seed))
                for i in range(1, len(table) + 1):
                    yield dict(table[:i])
    rng = random.Random(18)
    for _ in range(200):
        alphabet = "abcdefg"[: rng.randint(1, 7)]
        table = {}
        for _ in range(rng.randint(1, 8)):
            trace = random_trace(rng, alphabet, 7)  # lengths 0-7, the empty trace too
            table[trace] = table.get(trace, 0) + rng.randint(1, 3)
        yield table


class TestPinnedNets:
    def test_corpus_nets_are_byte_identical(self):
        digest = hashlib.sha256()
        for table in pinned_corpus():
            digest.update(export_pnml(discover(EventLog(table))))
        assert digest.hexdigest() == PINNED_DIGEST

    def test_corpus_trees_are_in_normal_form(self):
        # the miner builds every node in normal form: normalising its tree
        # again, by either normaliser, changes nothing
        for table in pinned_corpus():
            tree = discover_tree(EventLog(table))
            assert simplify_tree(tree) == tree == reference_simplify_tree(tree), table
