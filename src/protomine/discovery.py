"""Process discovery: directly-follows graphs, process trees, Petri nets.

The one miner is a basic inductive-style recursion over the log's variant
set: a loop over ``_CUTS`` tries each cut of the directly-follows graph
(DFG) in turn, splits the traces with the first that applies and recurses
under its operator, and otherwise falls through to the flower model over
the sub-log's alphabet. Each cut is taken over one relation or fixpoint:

- exclusive choice: the connected components of "a DFG edge in either
  direction";
- sequence: the fixpoint of merging, first pair first, any two parts that
  reach each other both ways or neither way in the DFG's transitive
  closure (Warshall's rule); it is a cut when the parts left are reachable
  in one total order;
- parallel: the components of "not directly-following both ways", those
  without both a start and an end activity folded into the first that has;
- loop: the redo parts are the components of "a DFG edge in either
  direction" among the activities that neither start nor end a trace; the
  body, first the start and end activities, absorbs redo parts until the
  fixpoint where every one left is entered only from end activities and
  left only for start activities.

Trees are normalised as they are mined: ``_node`` builds each node from
children already in normal form, so no second pass walks the tree.
Any-star, a node accepting every word over its alphabet and replaced by
the flat flower, is read from the children's shapes, since in normal
form such a tree is tau or a flat flower.

No infrequency filtering is applied, which yields the central guarantee
used downstream: every trace of the input log replays on the discovered
net with alignment cost zero. It also means every cut reads only the DFG's
edges and its start and end activities, which depend on which variants
occur, not on how often: counts reach no cut.

Discovery is deterministic, and the net does not depend on edge order:
no cut reads the order of the DFG's edges or of its start and end
activities, so logs with the same variants give identical nets.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, groupby
from typing import Callable, Iterable, Mapping, NamedTuple

from .eventlog import EventLog, Trace
from .petrinet import Marking, PetriNet


class DirectlyFollowsGraph(NamedTuple):
    """Activity adjacency counts plus start/end activity frequencies."""

    nodes: frozenset[str]
    edges: dict[tuple[str, str], int]
    start_activities: dict[str, int]
    end_activities: dict[str, int]


def _dfg_from_table(table: Mapping[Trace, int]) -> DirectlyFollowsGraph:
    edges: dict[tuple[str, str], int] = {}
    starts: dict[str, int] = {}
    ends: dict[str, int] = {}
    nodes: set[str] = set()
    for trace, count in table.items():
        nodes.update(trace)
        if not trace:
            continue
        starts[trace[0]] = starts.get(trace[0], 0) + count
        ends[trace[-1]] = ends.get(trace[-1], 0) + count
        for a, b in zip(trace, trace[1:]):
            edges[(a, b)] = edges.get((a, b), 0) + count
    return DirectlyFollowsGraph(
        nodes=frozenset(nodes), edges=edges, start_activities=starts, end_activities=ends
    )


def dfg(log: EventLog) -> DirectlyFollowsGraph:
    """Directly-follows graph of a log, counts weighted by trace counts."""
    return _dfg_from_table(log.variants)


# --- process trees -----------------------------------------------------

OPERATORS = ("seq", "xor", "and", "loop")


class ProcessTree(namedtuple("ProcessTree", "operator label children")):
    """Block-structured model: activity/silent leaves under seq/xor/and/loop."""

    __slots__ = ()

    def __new__(cls, operator: str | None = None, label: str | None = None, children: tuple = ()):
        if operator is None:
            if children:
                raise ValueError("leaves cannot have children")
        else:
            if operator not in OPERATORS:
                raise ValueError(f"unknown operator {operator!r}")
            if label is not None:
                raise ValueError("operator nodes carry no label")
            if len(children) < 2:
                raise ValueError(f"{operator} needs at least two children")
        return super().__new__(cls, operator, label, children)

    def __repr__(self) -> str:
        if self.operator is None:
            return "tau" if self.label is None else self.label
        return f"{self.operator}({', '.join(map(repr, self.children))})"


_TAU = ProcessTree()


def leaf(label: str) -> ProcessTree:
    return ProcessTree(label=label)


def silent_leaf() -> ProcessTree:
    return ProcessTree()


def seq(*children: ProcessTree) -> ProcessTree:
    return ProcessTree(operator="seq", children=children)


def xor(*children: ProcessTree) -> ProcessTree:
    return ProcessTree(operator="xor", children=children)


def parallel(*children: ProcessTree) -> ProcessTree:
    return ProcessTree(operator="and", children=children)


def loop(*children: ProcessTree) -> ProcessTree:
    return ProcessTree(operator="loop", children=children)


def flower(alphabet: Iterable[str]) -> ProcessTree:
    """Any sequence over the alphabet, including the empty one."""
    return loop(silent_leaf(), *(leaf(a) for a in sorted(alphabet)))


# --- cut detection ------------------------------------------------------


def _components(nodes: Iterable[str], linked: Callable[[str, str], bool]) -> list[frozenset[str]]:
    """Connected components of a symmetric relation, sorted by least member."""
    remaining = set(nodes)
    components = []
    while remaining:
        component = set()
        frontier = [remaining.pop()]
        while frontier:
            u = frontier.pop()
            component.add(u)
            reached = {v for v in remaining if linked(u, v)}
            remaining -= reached
            frontier.extend(reached)
        components.append(frozenset(component))
    return sorted(components, key=min)


def _xor_cut(graph: DirectlyFollowsGraph) -> list[frozenset[str]] | None:
    components = _components(graph.nodes, lambda a, b: (a, b) in graph.edges or (b, a) in graph.edges)
    return components if len(components) >= 2 else None


def _reachability(graph: DirectlyFollowsGraph) -> dict[str, set[str]]:
    """Transitive closure over DFG edges (paths of length >= 1), by Warshall's rule."""
    reach: dict[str, set[str]] = {n: set() for n in graph.nodes}
    for a, b in graph.edges:
        reach[a].add(b)
    for via in graph.nodes:
        for targets in reach.values():
            if via in targets:
                targets |= reach[via]
    return reach


def _sequence_cut(graph: DirectlyFollowsGraph) -> list[frozenset[str]] | None:
    reach = _reachability(graph)

    def reaches(a_part: frozenset[str], b_part: frozenset[str]) -> bool:
        return any(b in reach[a] for a in a_part for b in b_part)

    # fold part y into part x for the first pair (x, y) that is mutually
    # reachable (same cycle) or mutually unreachable (not orderable by
    # sequence); the merge is not confluent, so this order is part of the
    # result. x's least member stays the merged part's, so parts stay sorted
    parts = [frozenset((n,)) for n in sorted(graph.nodes)]
    while pair := next(
        ((x, y) for x, y in combinations(range(len(parts)), 2)
         if reaches(parts[x], parts[y]) == reaches(parts[y], parts[x])),
        None,
    ):
        x, y = pair
        parts[x] |= parts.pop(y)

    # every remaining pair is ordered one way; the order must be total
    ordered = sorted(parts, key=lambda p: (-sum(reaches(p, q) for q in parts if q is not p), min(p)))
    if len(ordered) < 2 or any(reaches(later, earlier) for earlier, later in combinations(ordered, 2)):
        return None
    return ordered


def _parallel_cut(graph: DirectlyFollowsGraph) -> list[frozenset[str]] | None:
    # activities that are not directly-following both ways cannot be in
    # different parallel branches
    components = _components(graph.nodes, lambda a, b: not ((a, b) in graph.edges and (b, a) in graph.edges))
    starts, ends = graph.start_activities.keys(), graph.end_activities.keys()
    valid, invalid = [], []
    for c in components:
        (valid if c & starts and c & ends else invalid).append(c)
    return sorted([valid[0].union(*invalid), *valid[1:]], key=min) if len(valid) >= 2 else None


def _loop_cut(graph: DirectlyFollowsGraph) -> list[frozenset[str]] | None:
    starts, ends = set(graph.start_activities), set(graph.end_activities)
    body = starts | ends
    candidates = _components(graph.nodes - body, lambda a, b: (a, b) in graph.edges or (b, a) in graph.edges)

    def valid_redo(component: frozenset[str]) -> bool:
        for a, b in graph.edges:
            if a in body and b in component and a not in ends:
                return False
            if a in component and b in body and b not in starts:
                return False
        return True

    # a growing body only invalidates more parts, so any merge order
    # reaches the same fixpoint
    while invalid := next((c for c in candidates if not valid_redo(c)), None):
        body |= invalid
        candidates.remove(invalid)
    if not candidates:
        return None
    return [frozenset(body)] + candidates


# --- log splitting ------------------------------------------------------


def _split_runs(traces: set[Trace], parts: list[frozenset[str]]) -> list[set[Trace]]:
    """Each run of a trace's activities from one part, in that part's sub-log.

    Serves the xor cut, whose parts hold whole traces (consecutive
    activities share a DFG edge), and the loop cut, whose runs alternate
    between the body, which holds every start and end activity, and a redo.
    """
    part_of = {a: i for i, part in enumerate(parts) for a in part}
    sublogs: list[set[Trace]] = [set() for _ in parts]
    for trace in traces:
        for i, run in groupby(trace, part_of.__getitem__):
            sublogs[i].add(tuple(run))
    return sublogs


def _split_by_projection(traces: set[Trace], parts: list[frozenset[str]]) -> list[set[Trace]]:
    return [{tuple(a for a in trace if a in part) for trace in traces} for part in parts]


# each cut, in the order tried, with the splitter of its parts and its operator
_CUTS = (
    (_xor_cut, _split_runs, "xor"),
    (_sequence_cut, _split_by_projection, "seq"),
    (_parallel_cut, _split_by_projection, "and"),
    (_loop_cut, _split_runs, "loop"),
)


# --- the miner ----------------------------------------------------------


def discover_tree(log: EventLog) -> ProcessTree:
    """Discover a process tree; every log trace is replayable on it."""
    if len(log) == 0:
        raise ValueError("cannot discover a model from an empty log")
    return _discover(set(log.variants))


def tree_alphabet(tree: ProcessTree) -> frozenset[str]:
    """All activity labels occurring in the tree."""
    if tree.operator is None:
        return frozenset() if tree.label is None else frozenset((tree.label,))
    return frozenset().union(*(tree_alphabet(c) for c in tree.children))


def _skips_and_singletons(tree: ProcessTree) -> tuple[bool, bool]:
    """Whether the tree accepts the empty word, and each of its letters as a one-letter word."""
    if tree.operator is None:
        return tree.label is None, True  # {a} for a visible leaf, vacuous for tau
    if tree.operator == "loop":
        skips, singletons = _skips_and_singletons(tree.children[0])
        return skips, skips and singletons and all(_skips_and_singletons(c)[1] for c in tree.children[1:])
    traits = [_skips_and_singletons(c) for c in tree.children]
    if tree.operator == "xor":
        return any(s for s, _ in traits), all(o for _, o in traits)
    # seq/and: a lone letter needs every sibling to be skippable
    return all(s for s, _ in traits), all(s and o for s, o in traits)


def _star_alphabet(tree: ProcessTree) -> frozenset[str] | None:
    """The alphabet of a normal-form tau or flat flower, else None."""
    if tree == _TAU:
        return frozenset()
    if tree.operator == "loop" and tree.children[0] == _TAU and all(c.operator is None for c in tree.children):
        return frozenset(c.label for c in tree.children[1:])
    return None


def _node(operator: str, children: list[ProcessTree]) -> ProcessTree:
    """The normal form of an operator over children already in normal form.

    Flattens nested seq/xor/and, drops redundant taus and repeated choice
    branches, collapses a lone child, and turns a node accepting every
    word over its alphabet into the flat flower over it (tau if letterless).
    """
    if operator == "loop":
        # the loop stars its parts: redo children only need their letters
        # available as one-letter words
        star = _star_alphabet(children[0]) is not None and all(
            _skips_and_singletons(c)[1] for c in children[1:]
        )
    else:
        children = [g for c in children for g in (c.children if c.operator == operator else (c,))]
        if operator == "xor":
            children = list(dict.fromkeys(children))
            if _TAU in children and any(c != _TAU and _skips_and_singletons(c)[0] for c in children):
                children.remove(_TAU)
        else:  # the empty word is the identity of concatenation and shuffle
            children = [c for c in children if c != _TAU] or [_TAU]
        if len(children) == 1:
            return children[0]
        # stars shuffle to a star, and choose one when a branch holds every
        # letter; seq children have letters, and a* b* is not {a,b}*
        alphabets = list(map(_star_alphabet, children))
        star = operator != "seq" and None not in alphabets and (
            operator == "and" or frozenset().union(*alphabets) in alphabets
        )
    if not star:
        return ProcessTree(operator=operator, children=tuple(children))
    alphabet = frozenset().union(*map(tree_alphabet, children))
    return flower(alphabet) if alphabet else _TAU


def simplify_tree(tree: ProcessTree) -> ProcessTree:
    """Language-preserving normalisation of an arbitrary process tree.

    Unnormalised trees on unstructured logs nest parallel and loop gadgets
    whose state space is exponentially larger than the flower with the same
    language, which hurts both alignment search and the simplicity metrics.
    The miner builds its trees in this normal form through the same ``_node``.
    """
    if tree.operator is None:
        return tree
    return _node(tree.operator, [simplify_tree(c) for c in tree.children])


def _discover(traces: set[Trace]) -> ProcessTree:
    nonempty = traces - {()}
    if not nonempty:
        return _TAU
    if nonempty != traces:
        return _node("xor", [_TAU, _discover(nonempty)])
    alphabet = sorted({a for t in traces for a in t})
    if traces == {(alphabet[0],)}:
        return leaf(alphabet[0])

    graph = _dfg_from_table(dict.fromkeys(traces, 1))
    for cut, split, operator in _CUTS:
        if parts := cut(graph):
            return _node(operator, [_discover(s) for s in split(traces, parts)])
    return flower(alphabet)


def discover(log: EventLog) -> PetriNet:
    """Discover a Petri net; every log trace replays with cost zero."""
    return tree_to_net(discover_tree(log))


# --- tree compilation ---------------------------------------------------


def tree_to_net(tree: ProcessTree) -> PetriNet:
    """Compile a process tree to a net with one initial and one final place."""
    places: list[str] = []
    transitions: dict[str, str | None] = {}
    arcs: list[tuple[str, str]] = []

    def new_place() -> str:
        places.append(f"p{len(places)}")
        return places[-1]

    def new_transition(label: str | None) -> str:
        name = f"t{len(transitions)}"
        transitions[name] = label
        return name

    def compile_node(node: ProcessTree, p_in: str, p_out: str) -> None:
        if node.operator is None:
            t = new_transition(node.label)
            arcs.append((p_in, t))
            arcs.append((t, p_out))
        elif node.operator == "seq":
            cursor = p_in
            for i, child in enumerate(node.children):
                nxt = p_out if i == len(node.children) - 1 else new_place()
                compile_node(child, cursor, nxt)
                cursor = nxt
        elif node.operator == "xor":
            for child in node.children:
                compile_node(child, p_in, p_out)
        elif node.operator == "and":
            split = new_transition(None)
            join = new_transition(None)
            arcs.append((p_in, split))
            arcs.append((join, p_out))
            for child in node.children:
                c_in, c_out = new_place(), new_place()
                arcs.append((split, c_in))
                arcs.append((c_out, join))
                compile_node(child, c_in, c_out)
        else:  # loop
            body_in, body_out = new_place(), new_place()
            enter = new_transition(None)
            leave = new_transition(None)
            arcs.append((p_in, enter))
            arcs.append((enter, body_in))
            arcs.append((body_out, leave))
            arcs.append((leave, p_out))
            compile_node(node.children[0], body_in, body_out)
            for redo in node.children[1:]:
                compile_node(redo, body_out, body_in)

    source = new_place()
    sink = new_place()
    compile_node(tree, source, sink)
    return PetriNet(
        places=places,
        transitions=transitions,
        arcs=arcs,
        initial_marking=Marking.of({source: 1}),
        final_marking=Marking.of({sink: 1}),
    )
