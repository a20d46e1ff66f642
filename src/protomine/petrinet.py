"""Labeled Petri nets with explicit initial and final markings.

A net carries places, transitions (labeled with an activity or silent),
and unit-weight arcs between opposite node kinds. Its language is the set
of visible-label sequences along firing sequences from the initial to the
final marking; silent transitions route tokens without emitting a label.
Acceptance is reaching the final marking exactly, not deadlock.

Nets and markings are immutable values. Every search runs on the net's
compiled form (``PetriNet.compiled``, a ``CompiledNet``), the package's
one implementation of the firing rule: each reached marking gets a dense
int id, and one move table per id, filled on demand, is shared by every
later search on the same net. ``Marking`` appears only at the API
boundary (``state_id``, ``marking``). Results depend only on the
arguments, never on what earlier searches left in the memo or on the
order in which they numbered the markings. The shortest accepted word is
an alignment, found in ``conformance``.

PNML serialisation covers the place/transition subset: ``<place>`` with
``<initialMarking>``, ``<transition>`` with a ``<name>`` only when the
transition is visible, ``<arc>``, and a ``<finalmarkings>`` extension
block holding the final marking. ``export_pnml`` writes the document as
text; ElementTree is imported only to read one, in ``parse_pnml``.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from operator import add
from typing import Iterable, Mapping, NamedTuple

from .eventlog import _ATTRIBUTE_ESCAPES

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
    ``transition_ids`` order as (id, label, input indices, delta), the
    delta one count per place, tokens added minus tokens taken, so
    firing is one vector addition. Each reached marking is stored once
    as a count vector over the places and numbered densely (0, 1, 2, ...
    in order of first reach); ``state_id`` and ``marking`` convert between ``Marking`` and
    id at the API boundary, and every search keys its states on the ids,
    which hash in constant time where a vector rehashes every count.

    One table, ``moves``, lists per id the ``(transition, label,
    successor id)`` triple of every enabled transition. It is filled on
    demand and kept for every later query, so all alignments and the
    precision replay on one net share that work; the memo grows with the
    states the searches visit and lives as long as the net, as does
    ``alignments``, the memo of ``conformance``. Ids depend on the order
    earlier searches reached the markings, so a search may use them only
    as identities, never to order states.
    """

    def __init__(self, net: PetriNet):
        self.places: tuple[str, ...] = tuple(sorted(net.places))
        index = {p: i for i, p in enumerate(self.places)}
        transitions = []
        for t in net.transition_ids:
            inputs, outputs = net.inputs(t), net.outputs(t)
            # per place, tokens added minus tokens taken: 0 on a self-loop, whose input still needs its token
            delta = tuple((p in outputs) - (p in inputs) for p in self.places)
            transitions.append((t, net.label(t), tuple(map(index.__getitem__, inputs)), delta))
        self.transitions = tuple(transitions)
        self._ids: dict[tuple[int, ...], int] = {}
        self._vectors: list[tuple[int, ...]] = []  # id -> count vector
        self._moves: list[list[Move] | None] = []  # id -> moves, None until asked
        self.alignments: dict[tuple, dict] = {}
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
        and adds one per output arc, which is adding the transition's
        delta to the count vector. The returned list is shared: callers
        must not mutate it.
        """
        moves = self._moves[sid]
        if moves is None:
            vector = self._vectors[sid]
            holds = vector.__getitem__
            moves = self._moves[sid] = [
                (t, label, self._id(tuple(map(add, vector, delta))))
                for t, label, inputs, delta in self.transitions
                if all(map(holds, inputs))
            ]
        return moves

    def silent_closure(self, sids: Iterable[int], budget: int) -> set[int]:
        """All marking ids reachable from the given ones by silent firings only.

        One search from the whole start set over the memoised moves.
        Raises BudgetExceeded when the closure grows past ``budget``
        states; the size is checked only as the set grows, so a start set
        that is itself larger than the budget is not an overrun.
        """
        closure = set(sids)
        frontier = list(closure)
        for sid in frontier:  # grows as the search reaches new ids
            for _, label, nxt in self.moves(sid):
                if label is None and nxt not in closure:
                    closure.add(nxt)
                    if len(closure) > budget:
                        raise BudgetExceeded("silent closure", budget)
                    frontier.append(nxt)
        return closure


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
    fan_out = Counter(source for source, _ in net.arcs)
    return sum(d - 1 for d in fan_out.values() if d > 1)


# ElementTree's text escapes, with the carriage return that XML parsing would read as a line feed
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"})


def _element(depth: int, tag: str, attrs: dict[str, str], *children: str, text: str | None = None) -> str:
    """One element as ElementTree writes it after ``ET.indent``, from the newline before it."""
    pad = "\n" + "  " * depth
    head = pad + "<" + tag + "".join(f' {k}="{v.translate(_ATTRIBUTE_ESCAPES)}"' for k, v in attrs.items())
    if children:
        return f"{head}>{''.join(children)}{pad}</{tag}>"
    if text is not None:
        return f"{head}>{text.translate(_TEXT_ESCAPES)}</{tag}>"
    return head + " />"


def export_pnml(net: PetriNet) -> bytes:
    """Serialise a net (with both markings) to PNML.

    Writes ElementTree's bytes itself: those of ``ET.indent`` and a UTF-8
    ``write`` with declaration, except that a carriage return in label
    text becomes ``&#13;``, since XML parsing would read a raw one as a
    line feed.
    """
    initial = net.initial_marking.as_dict()
    page = []
    for place in sorted(net.places):
        count = initial.get(place, 0)
        marking = [_element(4, "initialMarking", {}, _element(5, "text", {}, text=str(count)))] if count > 0 else []
        page.append(_element(3, "place", {"id": place}, *marking))
    for t in sorted(net.transitions):
        label = net.transitions[t]
        name = [_element(4, "name", {}, _element(5, "text", {}, text=label))] if label is not None else []
        page.append(_element(3, "transition", {"id": t}, *name))
    for i, (source, target) in enumerate(sorted(net.arcs)):
        page.append(_element(3, "arc", {"id": f"arc{i}", "source": source, "target": target}))
    final = [
        _element(4, "place", {"idref": place}, _element(5, "text", {}, text=str(count)))
        for place, count in net.final_marking.tokens
    ]
    net_el = _element(
        1, "net", {"id": "net1", "type": PTNET_TYPE},
        _element(2, "page", {"id": "page1"}, *page),
        _element(2, "finalmarkings", {}, _element(3, "marking", {}, *final)),
    )
    root = _element(0, "pnml", {"xmlns": PNML_NAMESPACE}, net_el)
    return ("<?xml version='1.0' encoding='UTF-8'?>" + root).encode("utf-8", "xmlcharrefreplace")


def _local(tag: str) -> str:
    """Tag name with any XML namespace stripped."""
    return tag.rsplit("}", 1)[-1]


def parse_pnml(document: bytes) -> PetriNet:
    """Parse a PNML document written by export_pnml (or compatible).

    Tags match in any namespace or in none, and ``<page>`` and ``<net>``
    containers nest to any depth. Of repeated children the first counts.
    Arcs have unit weight: an ``<inscription>`` other than 1 is rejected,
    and so is a second arc with the same source and target, which would
    stand for weight 2.
    """
    import xml.etree.ElementTree as ET

    try:  # LookupError: the XML declaration names an encoding Python's codecs do not know
        root = ET.fromstring(document)
    except (ET.ParseError, LookupError) as exc:
        raise ValueError(f"malformed PNML XML: {exc}") from exc
    net_el = root if _local(root.tag) == "net" else root.find("{*}net")
    if net_el is None:
        raise ValueError("PNML document has no <net> element")

    places: set[str] = set()
    transitions: dict[str, str | None] = {}
    arcs: set[tuple[str, str]] = set()
    initial: dict[str, int] = {}
    final: dict[str, int] = {}

    def tokens(text: str, pid: str, which: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"{which} marking of place {pid!r} is not an integer: {text!r}") from None

    def first_text(element: ET.Element, tag: str) -> str | None:
        child = element.find(tag)
        return None if child is None else child.findtext("{*}text")

    # one iterator per open container: a page resumes where its subpage left it
    stack = [iter(net_el)]
    while stack:
        for child in stack[-1]:
            kind = _local(child.tag)
            if kind == "place":
                pid = child.get("id")
                if pid is None:
                    raise ValueError("place without id")
                if pid in places:
                    raise ValueError(f"duplicate place id {pid!r}")
                places.add(pid)
                text = first_text(child, "{*}initialMarking")
                if text:
                    initial[pid] = tokens(text, pid, "initial")
            elif kind == "transition":
                tid = child.get("id")
                if tid is None:
                    raise ValueError("transition without id")
                if tid in transitions:
                    raise ValueError(f"duplicate transition id {tid!r}")
                transitions[tid] = first_text(child, "{*}name") or None
            elif kind == "arc":
                source, target = child.get("source"), child.get("target")
                if source is None or target is None:
                    raise ValueError("arc without source/target")
                weight = first_text(child, "{*}inscription")
                if weight is not None and weight.strip() != "1":
                    raise ValueError(
                        f"arc {source!r} -> {target!r} has weight {weight.strip()!r}: only unit-weight arcs are supported"
                    )
                if (source, target) in arcs:
                    raise ValueError(
                        f"arc {source!r} -> {target!r} is given twice: only unit-weight arcs are supported"
                    )
                arcs.add((source, target))
            elif kind == "finalmarkings":
                for ref in child.iterfind("*/{*}place"):
                    pid = ref.get("idref")
                    if pid is None:
                        raise ValueError("final marking <place> without idref")
                    text = ref.findtext("{*}text")
                    final[pid] = tokens(text, pid, "final") if text else 1
            elif kind in ("page", "net"):
                stack.append(iter(child))
                break
        else:
            stack.pop()
    return PetriNet(
        places=places,
        transitions=transitions,
        arcs=arcs,
        initial_marking=Marking.of(initial),
        final_marking=Marking.of(final),
    )
