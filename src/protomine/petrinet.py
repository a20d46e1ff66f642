"""Labeled Petri nets with explicit initial and final markings.

A net carries places, transitions (labeled with an activity or silent),
and unit-weight arcs between opposite node kinds. Its language is the set
of visible-label sequences along firing sequences from the initial to the
final marking; silent transitions route tokens without emitting a label.
Acceptance is reaching the final marking exactly, not deadlock.

Nets and markings are immutable values. Every search runs on the net's
compiled form (``PetriNet.compiled``, a ``CompiledNet``): markings as
count vectors over the sorted places, and a successor map that is filled
on demand and shared by every later search on the same net. ``Marking``
appears only at the API boundary; ``enabled`` and ``fire`` are thin
wrappers over the compiled form, so the package has one implementation
of the firing rule. Results depend only on the arguments, never on what
earlier searches left in the memo. Enumeration and search operations
take explicit state budgets so that misuse on oversized nets fails
loudly instead of hanging.

PNML serialisation covers the place/transition subset: ``<place>`` with
``<initialMarking>``, ``<transition>`` with a ``<name>`` only when the
transition is visible, ``<arc>``, and a ``<finalmarkings>`` extension
block holding the final marking.
"""

from __future__ import annotations

import heapq
import io
import xml.etree.ElementTree as ET
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .eventlog import Trace, _local

PNML_NAMESPACE = "http://www.pnml.org/version-2009/grammar/pnml"
PTNET_TYPE = "http://www.pnml.org/version-2009/grammar/ptnet"


class BudgetExceeded(RuntimeError):
    """A bounded search visited more states than its budget allows."""

    def __init__(self, what: str, budget: int):
        super().__init__(f"{what} exceeded its state budget of {budget}")
        self.budget = budget


@dataclass(frozen=True)
class Marking:
    """Immutable multiset over place ids, canonically sorted."""

    tokens: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def of(places: Mapping[str, int] | Iterable[str]) -> "Marking":
        counts: dict[str, int] = {}
        if isinstance(places, Mapping):
            counts.update(places)
        else:
            for p in places:
                counts[p] = counts.get(p, 0) + 1
        for place, n in counts.items():
            if n < 0:
                raise ValueError(f"negative multiplicity for place {place!r}")
        return Marking(tuple(sorted((p, n) for p, n in counts.items() if n > 0)))

    def as_dict(self) -> dict[str, int]:
        return dict(self.tokens)

    def places(self) -> frozenset[str]:
        return frozenset(p for p, _ in self.tokens)

    def __bool__(self) -> bool:
        return bool(self.tokens)


class PetriNet:
    """A labeled place/transition net with initial and final markings."""

    def __init__(
        self,
        places: Iterable[str],
        transitions: Mapping[str, str | None],
        arcs: Iterable[tuple[str, str]],
        initial_marking: Marking,
        final_marking: Marking,
    ):
        self.places = frozenset(places)
        self.transitions = dict(transitions)
        self.arcs = frozenset(arcs)
        self.initial_marking = initial_marking
        self.final_marking = final_marking

        overlap = self.places & self.transitions.keys()
        if overlap:
            raise ValueError(f"ids used as both place and transition: {sorted(overlap)}")
        for label in self.transitions.values():
            if label is not None and (not isinstance(label, str) or not label):
                raise ValueError(f"transition labels must be non-empty or silent, got {label!r}")

        self._inputs: dict[str, list[str]] = {t: [] for t in self.transitions}
        self._outputs: dict[str, list[str]] = {t: [] for t in self.transitions}
        for source, target in sorted(self.arcs):
            if source in self.places and target in self.transitions:
                self._inputs[target].append(source)
            elif source in self.transitions and target in self.places:
                self._outputs[source].append(target)
            else:
                raise ValueError(f"arc {source!r} -> {target!r} does not connect a place and a transition")
        for t in self.transitions:
            if not self._inputs[t] or not self._outputs[t]:
                raise ValueError(f"transition {t!r} must have at least one input and one output arc")
        for marking in (initial_marking, final_marking):
            missing = marking.places() - self.places
            if missing:
                raise ValueError(f"marking references unknown places: {sorted(missing)}")

        # deterministic iteration order for searches
        self.transition_ids: tuple[str, ...] = tuple(sorted(self.transitions))

    def label(self, transition: str) -> str | None:
        return self.transitions[transition]

    def inputs(self, transition: str) -> tuple[str, ...]:
        return tuple(self._inputs[transition])

    def outputs(self, transition: str) -> tuple[str, ...]:
        return tuple(self._outputs[transition])

    @cached_property
    def compiled(self) -> "CompiledNet":
        """The vector form every search runs on, built on first use."""
        return CompiledNet(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PetriNet):
            return NotImplemented
        return (
            self.places == other.places
            and self.transitions == other.transitions
            and self.arcs == other.arcs
            and self.initial_marking == other.initial_marking
            and self.final_marking == other.final_marking
        )

    def __repr__(self) -> str:
        return (
            f"PetriNet({len(self.places)} places, {len(self.transitions)} transitions, "
            f"{len(self.arcs)} arcs)"
        )


Vector = tuple[int, ...]
# one enabled transition at a vector: (transition id, label, successor vector)
Step = tuple[str, str | None, Vector]


class CompiledNet:
    """A net's firing rule over count vectors, with memoised successors.

    Places are indexed in sorted order and transitions kept in
    ``transition_ids`` order as (id, label, input indices, output
    indices). The successors of a vector and the silent closure of a
    single vector are computed once and kept for every later query, so
    all alignments, the precision replay and the path searches on one
    net share that work. The memo grows with the states the searches
    visit and lives as long as the net.

    For searches that only need a state's identity, ``state_id`` numbers
    each vector densely (0, 1, 2, ... in order of first request) and
    ``moves`` lists, per id, the ``(label, successor id)`` pair of every
    enabled transition in ``successors`` order. An int hashes in
    constant time where a vector tuple rehashes every count, so these
    two id tables are what the alignment search keys its states on. Ids
    depend on the order earlier searches reached the vectors, so a
    search may use them only as identities, never to order states.
    """

    def __init__(self, net: PetriNet):
        self.places: tuple[str, ...] = tuple(sorted(net.places))
        index = {p: i for i, p in enumerate(self.places)}
        self.transitions = tuple(
            (
                t,
                net.label(t),
                tuple(index[p] for p in net.inputs(t)),
                tuple(index[p] for p in net.outputs(t)),
            )
            for t in net.transition_ids
        )
        self._successors: dict[Vector, list[Step]] = {}
        self._closures: dict[Vector, frozenset[Vector]] = {}
        self._ids: dict[Vector, int] = {}
        self._vectors: list[Vector] = []  # id -> vector
        self._moves: list[list[tuple[str | None, int]] | None] = []  # id -> moves, None until asked
        self.initial = self.vector(net.initial_marking)
        self.final = self.vector(net.final_marking)

    def vector(self, marking: Marking) -> Vector:
        unknown = marking.places().difference(self.places)
        if unknown:
            raise ValueError(f"marking references unknown places: {sorted(unknown)}")
        counts = marking.as_dict()
        return tuple(counts.get(p, 0) for p in self.places)

    def marking(self, vector: Vector) -> Marking:
        return Marking(tuple((p, n) for p, n in zip(self.places, vector) if n))

    def successors(self, vector: Vector) -> list[Step]:
        """Every enabled transition with its successor, in transition_ids order.

        A transition is enabled when each input place holds a token;
        firing takes one token per input arc and adds one per output arc.
        The returned list is shared: callers must not mutate it.
        """
        steps = self._successors.get(vector)
        if steps is None:
            steps = []
            for t, label, inputs, outputs in self.transitions:
                if all(vector[i] for i in inputs):
                    fired = list(vector)
                    for i in inputs:
                        fired[i] -= 1
                    for i in outputs:
                        fired[i] += 1
                    steps.append((t, label, tuple(fired)))
            self._successors[vector] = steps
        return steps

    def state_id(self, vector: Vector) -> int:
        """The dense int id of a vector, assigned on first request."""
        sid = self._ids.get(vector)
        if sid is None:
            sid = self._ids[vector] = len(self._vectors)
            self._vectors.append(vector)
            self._moves.append(None)
        return sid

    def moves(self, sid: int) -> list[tuple[str | None, int]]:
        """``(label, successor id)`` per enabled transition of a state id.

        The same transitions in the same order as ``successors`` of the
        id's vector. The returned list is shared: callers must not mutate it.
        """
        moves = self._moves[sid]
        if moves is None:
            moves = self._moves[sid] = [
                (label, self.state_id(fired)) for _, label, fired in self.successors(self._vectors[sid])
            ]
        return moves

    def silent_closure(self, vectors: Iterable[Vector], budget: int) -> set[Vector]:
        """All vectors reachable from the given ones by silent firings only.

        The union of the memoised closures of each start vector. Raises
        BudgetExceeded when the closure grows past ``budget`` states; a
        start set that is itself larger than the budget is not an overrun.
        """
        start = set(vectors)
        limit = max(budget, len(start))
        closure = set(start)
        for vector in start:
            closure |= self._single_closure(vector, limit, budget)
            if len(closure) > limit:
                raise BudgetExceeded("silent closure", budget)
        return closure

    def _single_closure(self, vector: Vector, limit: int, budget: int) -> frozenset[Vector]:
        closure = self._closures.get(vector)
        if closure is None:
            seen = {vector}
            frontier = [vector]
            while frontier:
                for _, label, nxt in self.successors(frontier.pop()):
                    if label is None and nxt not in seen:
                        seen.add(nxt)
                        if len(seen) > limit:
                            raise BudgetExceeded("silent closure", budget)
                        frontier.append(nxt)
            closure = self._closures[vector] = frozenset(seen)
        return closure


def enabled(net: PetriNet, marking: Marking) -> set[str]:
    """Transitions whose every input place holds at least one token."""
    compiled = net.compiled
    return {t for t, _, _ in compiled.successors(compiled.vector(marking))}


def fire(net: PetriNet, marking: Marking, transition: str) -> Marking:
    """Fire a transition: one token per input arc in, one per output arc out."""
    compiled = net.compiled
    for t, _, fired in compiled.successors(compiled.vector(marking)):
        if t == transition:
            return compiled.marking(fired)
    raise ValueError(f"transition {transition!r} is not enabled at {marking}")


def language_upto(net: PetriNet, max_len: int, max_states: int = 100_000) -> set[Trace]:
    """All visible words of length <= max_len accepted by the net.

    Breadth-first walk over (marking, word) pairs; silent transitions
    extend the firing sequence but not the word. The budget counts
    distinct markings, so nets whose reachability graph is too large for
    brute-force enumeration raise instead of hanging.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    compiled = net.compiled
    words: set[Trace] = set()
    start = (compiled.initial, ())
    seen_pairs = {start}
    seen_vectors = {compiled.initial}
    queue = deque([start])
    while queue:
        vector, word = queue.popleft()
        if vector == compiled.final:
            words.add(word)
        for _, label, fired in compiled.successors(vector):
            next_word = word if label is None else word + (label,)
            if len(next_word) > max_len:
                continue
            state = (fired, next_word)
            if state in seen_pairs:
                continue
            seen_pairs.add(state)
            if fired not in seen_vectors:
                seen_vectors.add(fired)
                if len(seen_vectors) > max_states:
                    raise BudgetExceeded("language enumeration", max_states)
            queue.append(state)
    return words


def shortest_visible_path(net: PetriNet, max_states: int = 100_000) -> int:
    """Minimum number of visible labels on any accepting firing sequence.

    Uniform-cost search over markings; silent moves cost nothing.
    """
    compiled = net.compiled
    dist: dict[Vector, int] = {compiled.initial: 0}
    heap: list[tuple[int, int, Vector]] = [(0, 0, compiled.initial)]
    tie = 0
    while heap:
        cost, _, vector = heapq.heappop(heap)
        if cost > dist.get(vector, cost):
            continue
        if vector == compiled.final:
            return cost
        for _, label, nxt in compiled.successors(vector):
            step = 0 if label is None else 1
            if cost + step < dist.get(nxt, cost + step + 1):
                if nxt not in dist and len(dist) >= max_states:
                    raise BudgetExceeded("shortest path search", max_states)
                dist[nxt] = cost + step
                tie += 1
                heapq.heappush(heap, (cost + step, tie, nxt))
    raise ValueError("final marking is not reachable from the initial marking")


def size_metric(net: PetriNet) -> int:
    """Model size: places + transitions + arcs."""
    return len(net.places) + len(net.transitions) + len(net.arcs)


def cardoso_metric(net: PetriNet) -> int:
    """Split-construct complexity: fan-out beyond one at places and transitions.

    Each place with d outgoing arcs contributes max(0, d - 1) (an
    exclusive split of degree d), each transition likewise (a parallel
    split). Pure sequences score zero. This is one concrete reading of
    the split-counting complexity family; absolute values are not
    comparable across tools using other readings.
    """
    place_out: dict[str, int] = {p: 0 for p in net.places}
    trans_out: dict[str, int] = {t: 0 for t in net.transitions}
    for source, _ in net.arcs:
        if source in place_out:
            place_out[source] += 1
        else:
            trans_out[source] += 1
    score = sum(max(0, d - 1) for d in place_out.values())
    score += sum(max(0, d - 1) for d in trans_out.values())
    return score


def export_pnml(net: PetriNet) -> bytes:
    """Serialise a net (with both markings) to PNML."""
    root = ET.Element("pnml", {"xmlns": PNML_NAMESPACE})
    net_el = ET.SubElement(root, "net", {"id": "net1", "type": PTNET_TYPE})
    page = ET.SubElement(net_el, "page", {"id": "page1"})
    initial = net.initial_marking.as_dict()
    for place in sorted(net.places):
        place_el = ET.SubElement(page, "place", {"id": place})
        if initial.get(place, 0) > 0:
            marking_el = ET.SubElement(place_el, "initialMarking")
            ET.SubElement(marking_el, "text").text = str(initial[place])
    for t in sorted(net.transitions):
        t_el = ET.SubElement(page, "transition", {"id": t})
        label = net.transitions[t]
        if label is not None:
            name_el = ET.SubElement(t_el, "name")
            ET.SubElement(name_el, "text").text = label
    for i, (source, target) in enumerate(sorted(net.arcs)):
        ET.SubElement(page, "arc", {"id": f"arc{i}", "source": source, "target": target})
    final_el = ET.SubElement(net_el, "finalmarkings")
    marking_el = ET.SubElement(final_el, "marking")
    for place, count in net.final_marking.tokens:
        ref = ET.SubElement(marking_el, "place", {"idref": place})
        ET.SubElement(ref, "text").text = str(count)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    buf = io.BytesIO()
    tree.write(buf, encoding="UTF-8", xml_declaration=True)
    return buf.getvalue()


def _find_child(element: ET.Element, name: str) -> ET.Element | None:
    for child in element:
        if _local(child.tag) == name:
            return child
    return None


def parse_pnml(document: bytes) -> PetriNet:
    """Parse a PNML document written by export_pnml (or compatible)."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise ValueError(f"malformed PNML XML: {exc}") from exc
    net_el = root if _local(root.tag) == "net" else _find_child(root, "net")
    if net_el is None:
        raise ValueError("PNML document has no <net> element")

    places: list[str] = []
    transitions: dict[str, str | None] = {}
    arcs: list[tuple[str, str]] = []
    initial: dict[str, int] = {}
    final: dict[str, int] = {}

    def walk(element: ET.Element) -> None:
        for child in element:
            kind = _local(child.tag)
            if kind == "place":
                pid = child.get("id")
                if pid is None:
                    raise ValueError("place without id")
                places.append(pid)
                marking_el = _find_child(child, "initialMarking")
                if marking_el is not None:
                    text_el = _find_child(marking_el, "text")
                    if text_el is not None and text_el.text:
                        initial[pid] = int(text_el.text)
            elif kind == "transition":
                tid = child.get("id")
                if tid is None:
                    raise ValueError("transition without id")
                label: str | None = None
                name_el = _find_child(child, "name")
                if name_el is not None:
                    text_el = _find_child(name_el, "text")
                    if text_el is not None and text_el.text:
                        label = text_el.text
                transitions[tid] = label
            elif kind == "arc":
                source, target = child.get("source"), child.get("target")
                if source is None or target is None:
                    raise ValueError("arc without source/target")
                arcs.append((source, target))
            elif kind == "finalmarkings":
                for marking_el in child:
                    for ref in marking_el:
                        if _local(ref.tag) != "place":
                            continue
                        pid = ref.get("idref")
                        text_el = _find_child(ref, "text")
                        count = int(text_el.text) if text_el is not None and text_el.text else 1
                        if pid is not None:
                            final[pid] = count
            elif kind in ("page", "net"):
                walk(child)

    walk(net_el)
    return PetriNet(
        places=places,
        transitions=transitions,
        arcs=arcs,
        initial_marking=Marking.of(initial),
        final_marking=Marking.of(final),
    )
