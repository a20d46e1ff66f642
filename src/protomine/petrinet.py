"""Labeled Petri nets with explicit initial and final markings.

A net carries places, transitions (labeled with an activity or silent),
and unit-weight arcs between opposite node kinds. Its language is the set
of visible-label sequences along firing sequences from the initial to the
final marking; silent transitions route tokens without emitting a label.
Acceptance is reaching the final marking exactly, not deadlock.

Nets and markings are immutable values. Every search runs on the net's
compiled form (``PetriNet.compiled``, a ``CompiledNet``): each reached
marking gets a dense int id, and one move table per id, filled on demand,
is shared by every later search on the same net. ``Marking`` appears
only at the API boundary (``state_id``, ``marking``); ``enabled`` and
``fire`` are thin wrappers over the compiled form, so the package has
one implementation of the firing rule. Results depend only on the
arguments, never on what earlier searches left in the memo or on the
order in which they numbered the markings. ``language_upto`` takes a
state budget, so oversized nets fail loudly instead of hanging; the
shortest accepted word is an alignment, found in ``conformance``.

PNML serialisation covers the place/transition subset: ``<place>`` with
``<initialMarking>``, ``<transition>`` with a ``<name>`` only when the
transition is visible, ``<arc>``, and a ``<finalmarkings>`` extension
block holding the final marking.
"""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET
from collections import deque
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .eventlog import Trace

PNML_NAMESPACE = "http://www.pnml.org/version-2009/grammar/pnml"
PTNET_TYPE = "http://www.pnml.org/version-2009/grammar/ptnet"


class BudgetExceeded(RuntimeError):
    """A bounded search visited more states than its budget allows."""

    def __init__(self, what: str, budget: int):
        super().__init__(f"{what} exceeded its state budget of {budget}")
        self.budget = budget


class Marking(NamedTuple):
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
        """The marking-id form every search runs on, built on first use."""
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


# one enabled transition at a marking id: (transition id, label, successor id)
Move = tuple[str, str | None, int]


class CompiledNet:
    """A net's firing rule over dense marking ids, with memoised moves.

    Places are indexed in sorted order and transitions kept in
    ``transition_ids`` order as (id, label, input indices, output
    indices). Each reached marking is stored once as a count vector over
    the places and numbered densely (0, 1, 2, ... in order of first
    reach); ``state_id`` and ``marking`` convert between ``Marking`` and
    id at the API boundary, and every search keys its states on the ids,
    which hash in constant time where a vector rehashes every count.

    One table, ``moves``, lists per id the ``(transition, label,
    successor id)`` triple of every enabled transition, and one table
    holds the silent closure of each single id. Both are filled on
    demand and kept for every later query, so all alignments, the
    precision replay and ``language_upto`` on one net share that work;
    the memo grows with the states the searches visit and lives as long
    as the net. Ids depend on the order earlier searches reached the
    markings, so a search may use them only as identities, never to
    order states.
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
        self._ids: dict[tuple[int, ...], int] = {}
        self._vectors: list[tuple[int, ...]] = []  # id -> count vector
        self._moves: list[list[Move] | None] = []  # id -> moves, None until asked
        self._closures: dict[int, frozenset[int]] = {}
        self.initial = self.state_id(net.initial_marking)
        self.final = self.state_id(net.final_marking)

    def state_id(self, marking: Marking) -> int:
        """The id of a marking, assigned on first request."""
        unknown = marking.places().difference(self.places)
        if unknown:
            raise ValueError(f"marking references unknown places: {sorted(unknown)}")
        counts = marking.as_dict()
        return self._id(tuple(counts.get(p, 0) for p in self.places))

    def _id(self, vector: tuple[int, ...]) -> int:
        sid = self._ids.get(vector)
        if sid is None:
            sid = self._ids[vector] = len(self._vectors)
            self._vectors.append(vector)
            self._moves.append(None)
        return sid

    def marking(self, sid: int) -> Marking:
        return Marking(tuple((p, n) for p, n in zip(self.places, self._vectors[sid]) if n))

    def moves(self, sid: int) -> list[Move]:
        """Every enabled transition of a marking id with its successor id.

        In ``transition_ids`` order. A transition is enabled when each
        input place holds a token; firing takes one token per input arc
        and adds one per output arc. The returned list is shared: callers
        must not mutate it.
        """
        moves = self._moves[sid]
        if moves is None:
            vector = self._vectors[sid]
            moves = []
            for t, label, inputs, outputs in self.transitions:
                if all(vector[i] for i in inputs):
                    fired = list(vector)
                    for i in inputs:
                        fired[i] -= 1
                    for i in outputs:
                        fired[i] += 1
                    moves.append((t, label, self._id(tuple(fired))))
            self._moves[sid] = moves
        return moves

    def silent_closure(self, sids: Iterable[int], budget: int) -> set[int]:
        """All marking ids reachable from the given ones by silent firings only.

        The union of the memoised closures of each start id. Raises
        BudgetExceeded when the closure grows past ``budget`` states; a
        start set that is itself larger than the budget is not an overrun.
        """
        start = set(sids)
        limit = max(budget, len(start))
        closure = set(start)
        for sid in start:
            closure |= self._single_closure(sid, limit, budget)
            if len(closure) > limit:
                raise BudgetExceeded("silent closure", budget)
        return closure

    def _single_closure(self, sid: int, limit: int, budget: int) -> frozenset[int]:
        closure = self._closures.get(sid)
        if closure is None:
            seen = {sid}
            frontier = [sid]
            while frontier:
                for _, label, nxt in self.moves(frontier.pop()):
                    if label is None and nxt not in seen:
                        seen.add(nxt)
                        if len(seen) > limit:
                            raise BudgetExceeded("silent closure", budget)
                        frontier.append(nxt)
            closure = self._closures[sid] = frozenset(seen)
        return closure


def enabled(net: PetriNet, marking: Marking) -> set[str]:
    """Transitions whose every input place holds at least one token."""
    compiled = net.compiled
    return {t for t, _, _ in compiled.moves(compiled.state_id(marking))}


def fire(net: PetriNet, marking: Marking, transition: str) -> Marking:
    """Fire a transition: one token per input arc in, one per output arc out."""
    compiled = net.compiled
    for t, _, fired in compiled.moves(compiled.state_id(marking)):
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
    seen_ids = {compiled.initial}
    queue = deque([start])
    while queue:
        sid, word = queue.popleft()
        if sid == compiled.final:
            words.add(word)
        for _, label, fired in compiled.moves(sid):
            next_word = word if label is None else word + (label,)
            if len(next_word) > max_len:
                continue
            state = (fired, next_word)
            if state in seen_pairs:
                continue
            seen_pairs.add(state)
            if fired not in seen_ids:
                seen_ids.add(fired)
                if len(seen_ids) > max_states:
                    what = f"language enumeration of words up to length {max_len} on {net!r}"
                    raise BudgetExceeded(what, max_states)
            queue.append(state)
    return words


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
    """Serialise a net (with both markings) to PNML.

    ElementTree escapes a carriage return in an attribute but writes it
    raw in text, where XML parsing would turn it into a line feed, so the
    raw ones left in the output, all in label text, become ``&#13;``.
    """
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
    return buf.getvalue().replace(b"\r", b"&#13;")


def _local(tag: str) -> str:
    """Tag name with any XML namespace stripped."""
    return tag.rsplit("}", 1)[-1]


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
