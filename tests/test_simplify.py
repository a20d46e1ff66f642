"""Randomised safety net for the tree normalisation: languages must not move."""

import random

import pytest

from protomine import tree_to_net
from protomine.discovery import (
    ProcessTree,
    flower,
    leaf,
    loop,
    parallel,
    seq,
    silent_leaf,
    simplify_tree,
    tree_alphabet,
    xor,
)

from .conftest import language_upto


def random_tree(rng: random.Random, budget: int) -> ProcessTree:
    """Random tree over a tiny alphabet, loops included, heavy on taus."""
    if budget <= 1:
        return silent_leaf() if rng.random() < 0.4 else leaf(rng.choice("abc"))
    op = rng.choice((seq, xor, parallel, loop, flower_like))
    n = rng.randint(2, 3)
    children = [random_tree(rng, (budget - 1) // n + 1) for _ in range(n)]
    return op(*children)


def flower_like(*children: ProcessTree) -> ProcessTree:
    return loop(silent_leaf(), *children)


class TestSimplifyTree:
    def test_language_preserved_on_random_trees(self):
        rng = random.Random(2024)
        for _ in range(120):
            tree = random_tree(rng, rng.randint(1, 8))
            simplified = simplify_tree(tree)
            before = language_upto(tree_to_net(tree), 4, max_states=200_000)
            after = language_upto(tree_to_net(simplified), 4, max_states=200_000)
            assert before == after, (tree, simplified)

    def test_idempotent(self):
        rng = random.Random(77)
        for _ in range(60):
            once = simplify_tree(random_tree(rng, rng.randint(1, 8)))
            assert simplify_tree(once) == once

    def test_alphabet_preserved(self):
        rng = random.Random(5)
        for _ in range(60):
            tree = random_tree(rng, rng.randint(1, 8))
            assert tree_alphabet(simplify_tree(tree)) == tree_alphabet(tree)

    @pytest.mark.parametrize(
        "tree, expected",
        [
            # shuffle of single-activity stars is one flat flower
            (parallel(flower(["a"]), flower(["b"])), flower(["a", "b"])),
            # optional around an empty-accepting subtree is redundant
            (xor(silent_leaf(), flower(["a", "b"])), flower(["a", "b"])),
            # associative operators flatten
            (seq(seq(leaf("a"), leaf("b")), leaf("c")), seq(leaf("a"), leaf("b"), leaf("c"))),
            (xor(xor(leaf("a"), leaf("b")), leaf("c")), xor(leaf("a"), leaf("b"), leaf("c"))),
            # silent children are identities of seq and shuffle
            (seq(leaf("a"), silent_leaf(), leaf("b")), seq(leaf("a"), leaf("b"))),
            (parallel(leaf("a"), silent_leaf()), leaf("a")),
            # duplicate choice branches collapse
            (xor(leaf("a"), leaf("a")), leaf("a")),
            # a* b* is not {a,b}* and must stay structured
            (
                seq(flower(["a"]), flower(["b"])),
                seq(flower(["a"]), flower(["b"])),
            ),
            # (ab)* is not {a,b}* either
            (
                flower_like(seq(leaf("a"), leaf("b"))),
                flower_like(seq(leaf("a"), leaf("b"))),
            ),
        ],
    )
    def test_specific_rewrites(self, tree, expected):
        assert simplify_tree(tree) == expected

    def test_keeps_optional_choice(self):
        # xor(tau, a) accepts only "" and "a": nothing to simplify
        tree = xor(silent_leaf(), leaf("a"))
        assert simplify_tree(tree) == tree
