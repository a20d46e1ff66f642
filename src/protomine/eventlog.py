"""Event logs as variant-compressed multisets of activity traces.

A trace is a tuple of activity labels (non-empty strings). An event log
stores one entry per distinct trace ("variant") together with its
occurrence count; downstream distance, clustering and conformance work is
per-variant and frequency-weighted, so the expanded multiset is never
materialised. Logs are immutable after construction and safe to share.

Supported file formats: an XES subset (``<trace>``/``<event>`` elements
whose events carry a ``<string key="concept:name" value=.../>``
attribute) and RFC-4180 CSV with a mandatory header row. The XES reader
builds no element tree, and takes one of two paths. A document in the
plain shape that ``export_xes`` and common XES writers produce is
checked by one expat pass with no element handlers and read from its
bytes by C-level scans, with no Python call per element. The plain
shape: a ``<log`` root; no declared encoding but UTF-8 (any case) and
no UTF-16/32 byte-order mark; no ``&``; no ``<!`` and no ``<?`` past
the declaration; no ``xmlns:`` and no ``<xml:``; every ``<trace`` tag a
bare ``<trace>`` or empty ``<trace/>`` child of the root; every
``<event`` tag a bare ``<event>`` child of a trace, whose first child
is ``<string key="concept:name" value="...">`` (key first, double
quotes, no tab, CR or LF in the value); no element but an event holding
children inside a trace. Any other document is read by expat's
handlers, one Python call per element. Both paths give the same log and
the same errors, and memory follows the variant table, not the
document. The CSV reader holds no copy of the text: it decodes the
document 8 KiB at a time. The XES writer writes to a binary stream in
chunks, so it never holds the document either.
"""

from __future__ import annotations

import io
import math
import re
from functools import cached_property
from operator import itemgetter
from typing import BinaryIO, Iterable, Mapping, NamedTuple, Sequence
from xml.parsers import expat

Trace = tuple[str, ...]

XES_NAMESPACE = "http://www.xes-standard.org/"


class LogFormatError(ValueError):
    """Raised when an input document cannot be read as an event log."""


def _check_trace(trace: Sequence[str]) -> Trace:
    t = tuple(trace)
    for label in t:
        if not isinstance(label, str) or not label:
            raise ValueError(f"activity labels must be non-empty strings, got {label!r}")
    return t


class EventLog:
    """A multiset of traces, stored as variant -> count."""

    def __init__(self, variants: Mapping[Trace, int]):
        table: dict[Trace, int] = {}
        for trace, count in variants.items():
            if not isinstance(count, int) or count < 1:
                raise ValueError(f"variant count must be a positive integer, got {count!r}")
            t = _check_trace(trace)
            table[t] = table.get(t, 0) + count
        self._variants = table

    @classmethod
    def from_traces(cls, traces: Iterable[Sequence[str]]) -> "EventLog":
        """Collapse an iterable of raw traces into a variant table."""
        table: dict[Trace, int] = {}
        for trace in traces:
            t = tuple(trace)
            table[t] = table.get(t, 0) + 1
        return cls(table)

    @property
    def variants(self) -> dict[Trace, int]:
        return dict(self._variants)

    @property
    def total_traces(self) -> int:
        return sum(self._variants.values())

    @property
    def activities(self) -> frozenset[str]:
        """The activity universe: every label occurring in the log."""
        return frozenset(a for trace in self._variants for a in trace)

    @cached_property
    def prefix_trie(self) -> "PrefixTrie":
        """The prefix trie of the sorted variants, built on first use."""
        return prefix_trie(self._variants)

    def count(self, trace: Sequence[str]) -> int:
        return self._variants.get(tuple(trace), 0)

    def __contains__(self, trace: object) -> bool:
        return trace in self._variants

    def __len__(self) -> int:
        """Number of distinct variants."""
        return len(self._variants)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return self._variants == other._variants

    def __hash__(self) -> int:
        return hash(frozenset(self._variants.items()))

    def __repr__(self) -> str:
        return f"EventLog({len(self)} variants, {self.total_traces} traces)"


class PrefixTrie(NamedTuple):
    """The prefix trie of sorted, distinct traces; node 0 is the empty prefix, parents come first."""

    traces: tuple[Trace, ...]
    up: list[int]  # per node, its parent (-1 at the root)
    kids: list[dict[str, int]]  # per node, its children by label
    ends: list[int]  # per node, the index in traces of the trace ending there, or -1
    live: list[int]  # per node, the traces ending at or below it
    depth: list[int]  # per node, the length of its prefix
    edge: list[str]  # per node, the label of the edge into it ("" at the root)


def prefix_trie(traces: Iterable[Trace]) -> PrefixTrie:
    """The prefix trie of distinct traces, which it sorts."""
    ordered = tuple(sorted(traces))
    up, kids, ends, live, depth, edge = [-1], [{}], [-1], [len(ordered)], [0], [""]
    for index, trace in enumerate(ordered):
        node = 0
        for label in trace:
            child = kids[node].get(label)
            if child is None:
                child = kids[node][label] = len(up)
                up.append(node)
                kids.append({})
                ends.append(-1)
                live.append(0)
                depth.append(depth[node] + 1)
                edge.append(label)
            node = child
            live[node] += 1
        ends[node] = index
    return PrefixTrie(ordered, up, kids, ends, live, depth, edge)


def variants(log: EventLog) -> list[tuple[Trace, int]]:
    """Variant table sorted by descending count, ties lexicographic."""
    return sorted(log.variants.items(), key=lambda item: (-item[1], item[0]))


def _xml_error(exc: Exception, document: bytes) -> str:
    """The words of an XML reader's error on a document, with a multi-byte encoding named.

    expat asks Python's codecs for a declared encoding it does not know itself: an unknown or
    non-text codec raises LookupError ("unknown encoding: bogus"), a multi-byte one a ValueError
    that leaves the name out, so it is read back from the declaration, which the first ">" ends.
    """
    if isinstance(exc, ValueError):
        # a UTF-16 declaration reads as ASCII once its zero bytes go
        declaration = document[: document.find(b">") + 1].replace(b"\x00", b"")
        declared = re.search(rb"encoding\s*=\s*[\"']([^\"']*)", declaration)
        if declared is not None:
            return f"multi-byte encoding not supported: {declared[1].decode('latin-1')}"
    return str(exc)


def parse_xes(document: bytes) -> EventLog:
    """Parse an XES document into an event log, without building an element tree.

    One trace per ``<trace>`` child of the ``<log>`` root, activities taken
    from each ``<event>`` child's first ``<string key="concept:name">``
    child in document order. Other elements and attributes are skipped,
    and so are elements at other depths. A document in the plain shape
    (see the module docstring) is read by ``_read_plain_xes``, any other
    by ``_read_xes``; both give the same log.

    Raises LogFormatError, first for malformed XML (with expat's line and
    column) or an XML declaration naming an encoding Python cannot
    decode, then for a root other than ``<log>``, then for the first event
    without a non-empty name (with its trace index): the last two are
    raised only once the whole document has parsed. Only ``_read_xes``
    raises, so every message is the same on both paths.
    """
    counts = _read_plain_xes(document)
    return _read_xes(document) if counts is None else EventLog(counts)


# the plain path's patterns, compiled on first use through re's cache, so a run that reads only
# CSV never compiles them. The prolog: an optional UTF-8 byte-order mark and XML declaration, with
# the encoding it declares, then the <log root; any other start, UTF-16 or UTF-32 included, is
# not plain. A declaration holds no "?" or ">" before its "?>", so a scan stops at the first
_PLAIN_PROLOG = rb"(?:\xef\xbb\xbf)?(?:<\?xml\s(?:[^?>]*?encoding\s*=\s*[\"']([^\"']*))?[^?>]*\?>)?\s*<log[\s/>]"
# a plain event: its first child names it, in a value attribute-value normalisation leaves as
# written, and its first end tag is its own
_PLAIN_EVENT = rb'<event>[^<]*<string key="concept:name" value="([^"\t\r\n]+)"[^<]*(?:<[^/][^<]*)*</event>'


def _read_plain_xes(document: bytes) -> dict[Trace, int] | None:
    """The variant counts of a document in the plain shape, else None; read from the bytes.

    C-level scans read the document itself: per trace, one ``find`` for its
    end and one ``findall`` for its names, which must number its ``<event``
    tags. A trace holding an ``<event`` the pattern does not read ends the
    scan there, so a log whose events are named by a later child costs
    about one trace before the handler reader runs. So the document's
    ``<event`` count equals the names exactly when no event lies outside a
    trace. Once the scans find the plain shape, one expat pass with no
    element handlers must find the document well-formed.

    Why the counts prove the depths: an element's ancestors close after
    it. Each event's ``</event>`` is the first end tag past its start, and
    no other ``<event`` lies in a trace's span, so events do not nest. Past
    the first trace, the only end tags are the events' own, the traces' own
    and one more, which must be the root's ``</log>``: so every trace is a
    child of the root, every event a child of its trace, and every other
    element in a trace is empty.
    """
    prolog = re.match(_PLAIN_PROLOG, document)
    if prolog is None or prolog[1] is not None and prolog[1].lower() != b"utf-8":
        return None
    find, count, body = document.find, document.count, prolog.end()
    # "!" and "?" are single bytes, which memchr finds far faster than the pairs; the pairs are
    # scanned for only where they occur
    if (
        b"&" in document
        or b"!" in document and b"<!" in document
        or find(b"?", body) != -1 and find(b"<?", body) != -1
    ):
        return None
    names = re.compile(_PLAIN_EVENT).findall
    counts: dict[tuple[bytes, ...], int] = {}
    empty = 0  # traces written as an empty tag, which have no end tag
    first = at = find(b"<trace", body)
    while at != -1:
        if document.startswith(b"<trace>", at):
            end = find(b"</trace>", at)
            if end == -1:
                return None
            trace = tuple(names(document, at, end))
            if len(trace) != count(b"<event", at, end):
                return None
        elif document.startswith((b"<trace/>", b"<trace />"), at):
            trace, end = (), find(b">", at) + 1
            empty += 1
        else:
            return None
        counts[trace] = counts.get(trace, 0) + 1
        at = find(b"<trace", end)
    traces = sum(counts.values())
    events = sum(len(trace) * n for trace, n in counts.items())
    if (
        events != count(b"<event")  # an event outside a trace
        or traces != count(b"<trace")
        or traces and count(b"</", first) != events + traces - empty + 1
        or b"xmlns:" in document
        or b"<xml:" in document
    ):
        return None
    try:
        expat.ParserCreate(namespace_separator="}").Parse(document, True)
    except expat.ExpatError:
        return None
    return {tuple(name.decode() for name in trace): n for trace, n in counts.items()}


def _read_xes(document: bytes) -> EventLog:
    """Any XES document, read in one pass by expat's handlers, which count each variant as its
    ``</trace>`` closes; ``parse_xes`` states what it reads and raises."""
    parser = expat.ParserCreate(namespace_separator="}")
    counts: dict[Trace, int] = {}
    problem: str | None = None  # the first wrong root or nameless event
    depth = 0
    traces = 0  # traces closed so far: the index of the open one
    activities: list[str] | None = None  # of the open trace
    in_event = named = False
    name: str | None = None

    def start(tag: str, attrs: dict[str, str]) -> None:
        nonlocal depth, problem, activities, in_event, named, name
        depth += 1
        if depth == 4:
            if in_event and not named and attrs.get("key") == "concept:name" and tag.rsplit("}", 1)[-1] == "string":
                named = True
                name = attrs.get("value")
        elif depth == 3:
            if activities is not None and tag.rsplit("}", 1)[-1] == "event":
                in_event, named, name = True, False, None
        elif depth == 2:
            if tag.rsplit("}", 1)[-1] == "trace":
                activities = []
        elif depth == 1:
            root = tag.rsplit("}", 1)[-1]
            if root != "log":
                problem = f"expected <log> root element, got <{root}>"

    def end(tag: str) -> None:
        nonlocal depth, problem, activities, traces, in_event
        depth -= 1
        if depth == 2 and in_event:
            in_event = False
            if name:
                activities.append(name)
            elif problem is None:
                problem = f"trace {traces}: event without a concept:name attribute"
        elif depth == 1 and activities is not None:
            trace = tuple(activities)
            counts[trace] = counts.get(trace, 0) + 1
            traces += 1
            activities = None

    # a reference to an entity that a DTD leaves undeclared or declares external: expat hands
    # both to a handler and reads on, where ElementTree failed with these words
    external: set[str] = set()

    def undefined_entity(entity: str) -> None:
        raise expat.ExpatError(
            f"undefined entity {f'&{entity};'[:100]}: "
            f"line {parser.CurrentLineNumber}, column {parser.CurrentColumnNumber}"
        )

    def declared(entity: str, is_parameter: bool, value: str | None, *rest) -> None:
        if value is None and not is_parameter:
            external.add(entity)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.SkippedEntityHandler = lambda entity, is_parameter: undefined_entity(entity)
    parser.EntityDeclHandler = declared
    # the context names every open entity; the external one among them is the reference
    parser.ExternalEntityRefHandler = lambda context, *ids: undefined_entity(
        next(part for part in context.split("\f") if part in external)
    )
    try:
        parser.Parse(document, True)
    except (expat.ExpatError, LookupError, ValueError) as exc:
        raise LogFormatError(f"malformed XES XML: {_xml_error(exc, document)}") from exc
    if problem is not None:
        raise LogFormatError(problem)
    return EventLog(counts)


# ElementTree's attribute escapes, in one pass: its chain of replaces
# never touches what an earlier replace wrote
_ATTRIBUTE_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}
)
_XES_EVENT = '\n    <event>\n      <string key="concept:name" value="{}" />\n    </event>'


_CHUNK = 1 << 16  # bytes export_xes writes at a time, at least one block


def export_xes(log: EventLog, stream: BinaryIO) -> None:
    """Write a log as XES to a binary stream; parse_xes reads back the log.

    Writes ElementTree's bytes itself: those of ``ET.indent`` and a UTF-8
    ``write`` with declaration, one ``<trace>`` block per variant, repeated.
    Each block is encoded once and written ``count`` times in chunks of
    about 64 KiB, so memory follows the largest block, not the document.
    """
    head = f"<?xml version='1.0' encoding='UTF-8'?>\n<log xes.version=\"1.0\" xmlns=\"{XES_NAMESPACE}\""
    if not log:
        stream.write(f"{head} />".encode())
        return
    stream.write(f"{head}>".encode())
    for trace, count in variants(log):
        events = "".join(_XES_EVENT.format(a.translate(_ATTRIBUTE_ESCAPES)) for a in trace)
        text = f"\n  <trace>{events}\n  </trace>" if trace else "\n  <trace />"
        block = text.encode("utf-8", "xmlcharrefreplace")
        repeat = _CHUNK // len(block) or 1
        while count > 0:
            stream.write(block * min(count, repeat))
            count -= repeat
    stream.write(b"\n</log>")


# what XML 1.0 forbids, which export_xes would write into a file parse_xes rejects; none of it
# is printable, so printable labels skip the search, and a log without such labels never compiles it
_NOT_XML = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


class CsvColumns(NamedTuple):
    """Column mapping for CSV ingestion; timestamp is optional."""

    case_id: str
    activity: str
    timestamp: str | None = None


# the kinds of timestamp, which do not order together
_NUMBER, _NAIVE, _AWARE = "a number", "a naive ISO datetime", "an ISO datetime with an offset"


def parse_csv(document: bytes, columns: CsvColumns) -> EventLog:
    """Parse CSV event rows into an event log.

    Events are grouped by the case id column. Within a case they are
    ordered by the timestamp column when one is mapped, otherwise by file
    order; timestamp ties keep file order (stable sort). A timestamp is
    what ``datetime.fromisoformat`` reads, ``Z`` for UTC included, or else
    a finite number. A timestamp column must hold a single kind: numbers,
    naive ISO datetimes, or ISO datetimes with a UTC offset. A timestamp
    that is neither, or the first row of another kind, raises
    LogFormatError, as does a mapped column that the header names more
    than once or not at all, an empty activity, an activity holding a
    character XML 1.0 forbids, a line the csv module rejects (a field over
    its 131072-character limit) or a document that is not UTF-8 text.

    The rows are decoded 8 KiB at a time, and each case keeps its events
    as one flat list of sort key and activity, not a tuple per event.
    """
    import csv
    from datetime import datetime

    body = document.removeprefix(b"\xef\xbb\xbf")  # Excel writes a byte-order mark
    try:  # up front, so a bad line outranks every row error; the text is dropped at once
        body.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = body[: exc.start].count(b"\n") + 1
        raise LogFormatError(f"line {line}: not UTF-8 text ({exc.reason})") from None
    # newline="" leaves the line ends to csv, as StringIO(newline="") did
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(body), encoding="utf-8", newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise LogFormatError("CSV document has no header row") from None
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise LogFormatError(f"line {reader.line_num}: {exc}") from None

    for name in columns:
        if name is not None and header.count(name) != 1:
            problem = "not present in" if name not in header else f"named {header.count(name)} times in"
            raise LogFormatError(f"mapped column {name!r} {problem} CSV header {header}")
    case_col = header.index(columns.case_id)
    act_col = header.index(columns.activity)
    time_col = header.index(columns.timestamp) if columns.timestamp is not None else None

    # case id -> its events as one flat list, sort key then activity; cases keep first-appearance order
    cases: dict[str, list] = {}
    first_kind: tuple[int, str] | None = None  # (row, kind) of the first timestamp
    width = max(case_col, act_col, time_col or 0)  # a row needs more fields than this
    fromisoformat = datetime.fromisoformat
    key: object = 0  # every row's sort key when no timestamp column is mapped
    try:  # around the loop, not in it, so a row costs no extra work
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) <= width:
                raise LogFormatError(f"row {rownum}: expected {len(header)} fields, got {len(row)}")
            activity = row[act_col]
            if not activity:
                raise LogFormatError(f"row {rownum}: empty activity")
            if not activity.isprintable() and re.search(_NOT_XML, activity):
                raise LogFormatError(f"row {rownum}: activity {activity!r} holds a character XML 1.0 forbids")
            if time_col is not None:
                stamp = row[time_col]
                try:  # ISO-8601, or else a number of seconds, which float strips of whitespace itself
                    key = fromisoformat(stamp.strip())
                    kind = _NAIVE if key.tzinfo is None else _AWARE
                except ValueError:
                    try:
                        key = float(stamp)
                    except ValueError:
                        raise LogFormatError(f"row {rownum}: unparsable timestamp {stamp!r}") from None
                    if not math.isfinite(key):  # NaN would unorder the sort, and 1e400 reads as inf
                        raise LogFormatError(f"row {rownum}: timestamp {stamp!r} is not a finite number")
                    kind = _NUMBER
                if first_kind is None:
                    first_kind = (rownum, kind)
                elif kind != first_kind[1]:
                    raise LogFormatError(
                        f"row {rownum}: timestamp {stamp!r} is {kind}, but the column's "
                        f"first timestamp (row {first_kind[0]}) is {first_kind[1]}"
                    )
            case = row[case_col]
            events = cases.get(case)
            if events is None:
                cases[case] = [key, activity]
            else:
                events += key, activity
    except csv.Error as exc:
        raise LogFormatError(f"line {reader.line_num}: {exc}") from None

    by_key, activity_of = itemgetter(0), itemgetter(1)
    # each case's events paired up again and sorted stably by key, so file order breaks ties
    pairs = (zip(events, events) for events in map(iter, cases.values()))
    return EventLog.from_traces(map(activity_of, sorted(case, key=by_key)) for case in pairs)
