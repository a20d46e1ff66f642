"""Process discovery: directly-follows graphs, process trees, Petri nets.

The one miner is a basic inductive-style
recursion: detect a cut of the directly-follows graph (exclusive choice,
then sequence, then parallel, then loop), split the log accordingly and
recurse; when no cut applies, fall through to the flower model over the
sub-log's alphabet. No infrequency filtering is applied, which yields the
central guarantee used downstream: every trace of the input log replays
on the discovered net with alignment cost zero.

Discovery is deterministic: all internal orderings are fixed
lexicographically, so equal logs give identical nets.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Mapping, NamedTuple

from .eventlog import EventLog, Trace
from .petrinet import Marking, PetriNet

VariantTable = dict[Trace, int]


class DirectlyFollowsGraph(NamedTuple):
    """Activity adjacency counts plus start/end activity frequencies."""

    nodes: frozenset[str]
    edges: dict[tuple[str, str], int]
    start_activities: dict[str, int]
    end_activities: dict[str, int]

    def has_edge(self, a: str, b: str) -> bool:
        return (a, b) in self.edges


def _dfg_from_table(table: Mapping[Trace, int]) -> DirectlyFollowsGraph:
    edges: dict[tuple[str, str], int] = {}
    starts: dict[str, int] = {}
    ends: dict[str, int] = {}
    nodes: set[str] = set()
    for trace, count in sorted(table.items()):
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


def _undirected_components(nodes: list[str], pairs: set[frozenset[str]]) -> list[frozenset[str]]:
    """Connected components; pairs are undirected edges over nodes."""
    remaining = set(nodes)
    components = []
    for start in nodes:
        if start not in remaining:
            continue
        component = {start}
        frontier = [start]
        remaining.discard(start)
        while frontier:
            u = frontier.pop()
            for v in list(remaining):
                if frozenset((u, v)) in pairs:
                    component.add(v)
                    remaining.discard(v)
                    frontier.append(v)
        components.append(frozenset(component))
    return sorted(components, key=min)


def _xor_cut(graph: DirectlyFollowsGraph) -> list[frozenset[str]] | None:
    nodes = sorted(graph.nodes)
    pairs = {frozenset((a, b)) for a, b in graph.edges if a != b}
    components = _undirected_components(nodes, pairs)
    return components if len(components) >= 2 else None


def _reachability(graph: DirectlyFollowsGraph) -> dict[str, set[str]]:
    """Transitive closure over DFG edges (paths of length >= 1)."""
    succ: dict[str, set[str]] = {n: set() for n in graph.nodes}
    for a, b in graph.edges:
        succ[a].add(b)
    reach: dict[str, set[str]] = {}
    for start in graph.nodes:
        seen: set[str] = set()
        frontier = list(succ[start])
        while frontier:
            u = frontier.pop()
            if u in seen:
                continue
            seen.add(u)
            frontier.extend(succ[u])
        reach[start] = seen
    return reach


def _sequence_cut(graph: DirectlyFollowsGraph) -> list[frozenset[str]] | None:
    nodes = sorted(graph.nodes)
    if len(nodes) < 2:
        return None
    reach = _reachability(graph)

    # group activities that are mutually reachable (same cycle) or
    # mutually unreachable (not orderable by sequence)
    group_of = {n: i for i, n in enumerate(nodes)}

    def merge(i: int, j: int) -> None:
        for n, g in group_of.items():
            if g == j:
                group_of[n] = i

    changed = True
    while changed:
        changed = False
        groups: dict[int, list[str]] = {}
        for n, g in group_of.items():
            groups.setdefault(g, []).append(n)
        ids = sorted(groups)
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                a_nodes, b_nodes = groups[ids[x]], groups[ids[y]]
                fwd = any(b in reach[a] for a in a_nodes for b in b_nodes)
                bwd = any(a in reach[b] for a in a_nodes for b in b_nodes)
                if fwd == bwd:
                    merge(ids[x], ids[y])
                    changed = True
                    break
            if changed:
                break

    groups = {}
    for n, g in group_of.items():
        groups.setdefault(g, []).append(n)
    parts = [frozenset(v) for v in groups.values()]
    if len(parts) < 2:
        return None

    def reaches(a_part: frozenset[str], b_part: frozenset[str]) -> bool:
        return any(b in reach[a] for a in a_part for b in b_part)

    ordered = sorted(parts, key=lambda p: (-sum(reaches(p, q) for q in parts if q is not p), min(p)))
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            if not reaches(ordered[i], ordered[j]) or reaches(ordered[j], ordered[i]):
                return None
    return ordered


def _parallel_cut(graph: DirectlyFollowsGraph) -> list[frozenset[str]] | None:
    nodes = sorted(graph.nodes)
    if len(nodes) < 2:
        return None
    # activities that are not mutually directly-following cannot be in
    # different parallel branches: connect them in the negated graph
    pairs = set()
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if not (graph.has_edge(a, b) and graph.has_edge(b, a)):
                pairs.add(frozenset((a, b)))
    components = _undirected_components(nodes, pairs)
    if len(components) < 2:
        return None
    starts, ends = set(graph.start_activities), set(graph.end_activities)
    valid = [c for c in components if c & starts and c & ends]
    if not valid:
        return None
    invalid = [c for c in components if not (c & starts and c & ends)]
    if invalid:
        merged = valid[0].union(*invalid)
        components = sorted([merged] + valid[1:], key=min)
    if len(components) < 2:
        return None
    return components


def _loop_cut(graph: DirectlyFollowsGraph) -> list[frozenset[str]] | None:
    starts, ends = set(graph.start_activities), set(graph.end_activities)
    body = set(starts | ends)
    rest = sorted(graph.nodes - body)
    if not rest:
        return None
    pairs = {frozenset((a, b)) for a, b in graph.edges if a in rest and b in rest and a != b}
    candidates = _undirected_components(rest, pairs)

    def valid_redo(component: frozenset[str]) -> bool:
        for a, b in graph.edges:
            if a in body and b in component and a not in ends:
                return False
            if a in component and b in body and b not in starts:
                return False
        return True

    changed = True
    while changed:
        changed = False
        for component in list(candidates):
            if not valid_redo(component):
                body |= component
                candidates.remove(component)
                changed = True
    if not candidates:
        return None
    return [frozenset(body)] + sorted(candidates, key=min)


# --- log splitting ------------------------------------------------------


def _split_by_first(table: VariantTable, parts: list[frozenset[str]]) -> list[VariantTable]:
    part_of = {a: i for i, part in enumerate(parts) for a in part}
    sublogs: list[VariantTable] = [{} for _ in parts]
    for trace, count in sorted(table.items()):
        i = part_of[trace[0]]
        sublogs[i][trace] = sublogs[i].get(trace, 0) + count
    return sublogs


def _split_by_projection(table: VariantTable, parts: list[frozenset[str]]) -> list[VariantTable]:
    sublogs: list[VariantTable] = [{} for _ in parts]
    for trace, count in sorted(table.items()):
        for i, part in enumerate(parts):
            projected = tuple(a for a in trace if a in part)
            sublogs[i][projected] = sublogs[i].get(projected, 0) + count
    return sublogs


def _split_loop(table: VariantTable, parts: list[frozenset[str]]) -> list[VariantTable]:
    part_of = {a: i for i, part in enumerate(parts) for a in part}
    sublogs: list[VariantTable] = [{} for _ in parts]

    def add(i: int, segment: tuple[str, ...], count: int) -> None:
        sublogs[i][segment] = sublogs[i].get(segment, 0) + count

    for trace, count in sorted(table.items()):
        current = 0  # the body part opens every trace
        segment: list[str] = []
        for activity in trace:
            target = part_of[activity]
            if target != current:
                add(current, tuple(segment), count)
                segment = []
                current = target
            segment.append(activity)
        add(current, tuple(segment), count)
        if current != 0:  # trace ended inside a redo part: close the loop body
            add(0, (), count)
    return sublogs


# --- the miner ----------------------------------------------------------


def discover_tree(log: EventLog) -> ProcessTree:
    """Discover a process tree; every log trace is replayable on it."""
    if len(log) == 0:
        raise ValueError("cannot discover a model from an empty log")
    return simplify_tree(_discover(log.variants))


def tree_alphabet(tree: ProcessTree) -> frozenset[str]:
    """All activity labels occurring in the tree."""
    if tree.operator is None:
        return frozenset() if tree.label is None else frozenset((tree.label,))
    return frozenset().union(*(tree_alphabet(c) for c in tree.children))


def _accepts_empty(tree: ProcessTree) -> bool:
    if tree.operator is None:
        return tree.label is None
    if tree.operator == "xor":
        return any(_accepts_empty(c) for c in tree.children)
    if tree.operator == "loop":
        return _accepts_empty(tree.children[0])
    return all(_accepts_empty(c) for c in tree.children)  # seq, and


def _covers_singletons(tree: ProcessTree) -> bool:
    """True when every alphabet letter occurs as a one-letter word of the tree."""
    if tree.operator is None:
        return True  # {a} for a visible leaf, vacuous for tau
    if tree.operator == "xor":
        return all(_covers_singletons(c) for c in tree.children)
    if tree.operator == "loop":
        return _accepts_empty(tree.children[0]) and all(
            _covers_singletons(c) for c in tree.children
        )
    # seq/and: a lone letter needs every sibling to be skippable
    return all(_covers_singletons(c) and _accepts_empty(c) for c in tree.children)


def _is_anystar(tree: ProcessTree) -> bool:
    """True when the tree's language is every word over its own alphabet."""
    if tree.operator is None:
        return tree.label is None  # tau accepts exactly the empty word
    if tree.operator == "loop":
        # the loop stars its parts: redo children only need their letters
        # available as one-letter words
        return _is_anystar(tree.children[0]) and all(
            _covers_singletons(c) for c in tree.children[1:]
        )
    if not all(_is_anystar(c) for c in tree.children):
        return False
    if tree.operator == "and":
        return True
    union = tree_alphabet(tree)
    if tree.operator == "xor":
        return any(tree_alphabet(c) == union for c in tree.children)
    # seq of any-star children collapses only around one non-trivial child
    nontrivial = [c for c in tree.children if tree_alphabet(c)]
    return len(nontrivial) <= 1


def simplify_tree(tree: ProcessTree) -> ProcessTree:
    """Language-preserving normalisation of a process tree.

    Flattens nested seq/xor/and, drops redundant silent children, and
    replaces any subtree accepting every word over its alphabet by the
    flat flower. Discovery output on unstructured logs otherwise nests
    parallel and loop gadgets whose state space is exponentially larger
    than the flower with the same language, which hurts both alignment
    search and the simplicity metrics.
    """
    if tree.operator is None:
        return tree
    children = [simplify_tree(c) for c in tree.children]

    if tree.operator in ("seq", "xor", "and"):
        flat: list[ProcessTree] = []
        for child in children:
            if child.operator == tree.operator:
                flat.extend(child.children)
            else:
                flat.append(child)
        children = flat

    is_tau = lambda c: c.operator is None and c.label is None
    if tree.operator in ("seq", "and"):
        # the empty word is the identity of concatenation and shuffle
        children = [c for c in children if not is_tau(c)] or [silent_leaf()]
    elif tree.operator == "xor":
        dedup: list[ProcessTree] = []
        for child in children:
            if child not in dedup:
                dedup.append(child)
        children = dedup
        if any(not is_tau(c) and _accepts_empty(c) for c in children):
            children = [c for c in children if not is_tau(c)]

    if tree.operator != "loop" and len(children) == 1:
        result = children[0]
    else:
        result = ProcessTree(operator=tree.operator, children=tuple(children))

    if _is_anystar(result):
        alphabet = tree_alphabet(result)
        return flower(alphabet) if alphabet else silent_leaf()
    return result


def _discover(table: VariantTable) -> ProcessTree:
    if not table:
        return silent_leaf()
    nonempty = {t: c for t, c in table.items() if t}
    if not nonempty:
        return silent_leaf()
    if len(nonempty) < len(table):
        return xor(silent_leaf(), _discover(nonempty))
    alphabet = sorted({a for t in table for a in t})
    if len(alphabet) == 1 and all(t == (alphabet[0],) for t in table):
        return leaf(alphabet[0])

    graph = _dfg_from_table(table)
    parts = _xor_cut(graph)
    if parts:
        return xor(*(_discover(s) for s in _split_by_first(table, parts)))
    parts = _sequence_cut(graph)
    if parts:
        return seq(*(_discover(s) for s in _split_by_projection(table, parts)))
    parts = _parallel_cut(graph)
    if parts:
        return parallel(*(_discover(s) for s in _split_by_projection(table, parts)))
    parts = _loop_cut(graph)
    if parts:
        return loop(*(_discover(s) for s in _split_loop(table, parts)))
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
    counter = {"p": 0, "t": 0}

    def new_place() -> str:
        name = f"p{counter['p']}"
        counter["p"] += 1
        places.append(name)
        return name

    def new_transition(label: str | None) -> str:
        name = f"t{counter['t']}"
        counter["t"] += 1
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
        elif node.operator == "loop":
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
        else:  # pragma: no cover - ProcessTree validates operators
            raise ValueError(f"unknown operator {node.operator!r}")

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
