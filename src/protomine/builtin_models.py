"""Small reference nets used by tests, demos and the log generator.

``choice_parallel_net`` is the running example model of the docs: after
``a``, a choice between ``b`` and ``c`` runs in parallel with ``d``, then
``e`` closes. Its full language is the four words abde, acde, adbe, adce.

The group models combine independent behaviour families behind an
exclusive choice; they are the base models for synthetic logs whose
ground truth is known.
"""

from __future__ import annotations

from typing import Iterable

from .discovery import leaf, parallel, seq, tree_to_net, xor
from .petrinet import Marking, PetriNet


def choice_parallel_net() -> PetriNet:
    """a, then (b|c) interleaved with d, then e; language of four words."""
    places = ["start", "c1", "c2", "d1", "d2", "end"]
    transitions = {"a": "a", "b": "b", "c": "c", "d": "d", "e": "e"}
    arcs = [
        ("start", "a"),
        ("a", "c1"),
        ("a", "d1"),
        ("c1", "b"),
        ("c1", "c"),
        ("b", "c2"),
        ("c", "c2"),
        ("d1", "d"),
        ("d", "d2"),
        ("c2", "e"),
        ("d2", "e"),
        ("e", "end"),
    ]
    return PetriNet(
        places=places,
        transitions=transitions,
        arcs=arcs,
        initial_marking=Marking.of({"start": 1}),
        final_marking=Marking.of({"end": 1}),
    )


def flower_net(alphabet: Iterable[str]) -> PetriNet:
    """Any sequence over the alphabet, including the empty one."""
    labels = sorted(alphabet)
    places = ["p_in", "hub", "p_out"]
    transitions: dict[str, str | None] = {"t_open": None, "t_close": None}
    arcs = [("p_in", "t_open"), ("t_open", "hub"), ("hub", "t_close"), ("t_close", "p_out")]
    for i, label in enumerate(labels):
        tid = f"t_{i}"
        transitions[tid] = label
        arcs.append(("hub", tid))
        arcs.append((tid, "hub"))
    return PetriNet(
        places=places,
        transitions=transitions,
        arcs=arcs,
        initial_marking=Marking.of({"p_in": 1}),
        final_marking=Marking.of({"p_out": 1}),
    )


def two_group_net() -> PetriNet:
    """Two disjoint behaviour families behind an exclusive choice.

    Family one is the choice/parallel pattern of choice_parallel_net;
    family two is u, then v or w, then x.
    """
    tree = xor(
        seq(leaf("a"), parallel(xor(leaf("b"), leaf("c")), leaf("d")), leaf("e")),
        seq(leaf("u"), xor(leaf("v"), leaf("w")), leaf("x")),
    )
    return tree_to_net(tree)


def three_group_net() -> PetriNet:
    """Three disjoint straight-line behaviour families."""
    tree = xor(
        seq(leaf("k"), leaf("l"), leaf("m")),
        seq(leaf("n"), leaf("o"), leaf("p")),
        seq(leaf("q"), leaf("r"), leaf("s")),
    )
    return tree_to_net(tree)


MODELS = {
    "choice-parallel": choice_parallel_net,
    "two-group": two_group_net,
    "three-group": three_group_net,
    "flower": lambda: flower_net(("a", "b", "c")),
}
