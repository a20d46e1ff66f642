import csv
import io
import random
import re
import tracemalloc
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protomine import CsvColumns, EventLog, LogFormatError, export_xes, parse_csv, parse_xes, variants
from protomine.eventlog import XES_NAMESPACE, _read_plain_xes, _read_xes

from .conftest import random_trace, reference_export_xes, reference_parse_csv, reference_parse_xes, xes_bytes, xml_char


def xes_doc(traces):
    parts = ['<?xml version="1.0" encoding="UTF-8"?>', '<log xes.version="1.0">']
    for trace in traces:
        parts.append("<trace>")
        for activity in trace:
            parts.append(f'<event><string key="concept:name" value="{activity}"/></event>')
        parts.append("</trace>")
    parts.append("</log>")
    return "\n".join(parts).encode()


class TestParseXes:
    def test_variant_collapse(self):
        log = parse_xes(xes_doc([["a", "b"], ["a", "b"], ["a", "c"]]))
        assert log.variants == {("a", "b"): 2, ("a", "c"): 1}
        assert log.total_traces == 3

    def test_empty_log(self):
        log = parse_xes(xes_doc([]))
        assert log.variants == {}
        assert log.total_traces == 0

    def test_empty_trace(self):
        log = parse_xes(xes_doc([[]]))
        assert log.variants == {(): 1}

    def test_namespaced_document(self):
        doc = (
            b'<log xmlns="http://www.xes-standard.org/">'
            b'<trace><event><string key="concept:name" value="a"/></event></trace></log>'
        )
        assert parse_xes(doc).variants == {("a",): 1}

    def test_trace_attributes_and_extra_event_attributes_ignored(self):
        doc = (
            b"<log>"
            b'<extension name="Concept" prefix="concept" uri="u"/>'
            b"<trace>"
            b'<string key="concept:name" value="case-17"/>'
            b"<event>"
            b'<string key="org:resource" value="alice"/>'
            b'<string key="concept:name" value="a"/>'
            b'<date key="time:timestamp" value="2024-01-01T00:00:00"/>'
            b"</event>"
            b"</trace>"
            b"</log>"
        )
        assert parse_xes(doc).variants == {("a",): 1}

    def test_malformed_xml_reports_position(self):
        with pytest.raises(LogFormatError, match=r"line"):
            parse_xes(b"<log><trace></log>")

    def test_event_without_activity_names_trace(self):
        doc = xes_doc([["a"]]).replace(b"concept:name", b"other:key")
        with pytest.raises(LogFormatError, match=r"trace 0"):
            parse_xes(doc)

    def test_malformed_xml_is_reported_before_a_missing_name(self):
        # the reader meets the nameless event first, but reports it only
        # once the whole document has parsed
        doc = b'<log><trace><event/></trace><trace><event></trace></log>'
        with pytest.raises(LogFormatError, match=r"^malformed XES XML: mismatched tag: line 1, column 44$"):
            parse_xes(doc)

    def test_malformed_xml_is_reported_before_a_wrong_root(self):
        with pytest.raises(LogFormatError, match=r"^malformed XES XML: no element found: line 1, column 15$"):
            parse_xes(b"<events><trace>")

    def test_wrong_root_is_reported_before_a_missing_name(self):
        with pytest.raises(LogFormatError, match=r"^expected <log> root element, got <events>$"):
            parse_xes(b"<events><trace><event/></trace></events>")

    @pytest.mark.parametrize("comment", [False, True], ids=["plain path", "handler path"])
    def test_peak_memory_follows_the_variants_not_the_document(self, comment):
        # an element tree of the document peaks at about 13 times its size; one comment
        # sends the document past the plain path to expat's handlers
        rng = random.Random(16)
        log = EventLog.from_traces(random_trace(rng, "abc", 12) for _ in range(2000))
        document = xes_bytes(log)
        if comment:
            document = document.replace(b"<log", b"<!-- c --><log", 1)
        assert (_read_plain_xes(document) is None) == comment
        tracemalloc.start()
        try:
            parsed = parse_xes(document)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == log
        assert peak < 4 * len(document)


# attribute text as a document may spell it: entities, character
# references, and raw CR and CRLF, which attribute normalisation turns to spaces
XES_VALUE_PARTS = ["a", "b", "é", "&amp;", "&lt;", "&quot;", "&#13;", "&#x41;", "&#10;", "\r", "\r\n", " "]
xes_names = st.lists(st.sampled_from(XES_VALUE_PARTS), min_size=1, max_size=3).map("".join)


@st.composite
def xes_documents(draw):
    """XES-like documents over every construct the reader must skip or reject."""
    namespace = draw(st.sampled_from(["", f' xmlns="{XES_NAMESPACE}"', f' xmlns:xes="{XES_NAMESPACE}"']))
    prefix = "xes:" if "xmlns:xes" in namespace else ""

    def element(tag, attrs="", body=""):
        return f"<{prefix}{tag}{attrs}>{body}</{prefix}{tag}>" if body else f"<{prefix}{tag}{attrs}/>"

    def named(tag="string", key="concept:name", value=None):
        value = draw(xes_names) if value is None else value
        return element(tag, f' key="{key}" value="{value}"')

    def event():
        kinds = ["name"] * 8 + ["empty", "no value", "int", "other", "nested"]
        children = draw(st.lists(st.sampled_from(kinds), max_size=3))
        parts = {
            "name": named,
            "empty": lambda: named(value=""),
            "no value": lambda: element("string", ' key="concept:name"'),
            "int": lambda: named("int", value="7"),
            "other": lambda: named(key="org:resource"),
            "nested": lambda: element("list", ' key="l"', named()),
        }
        return element("event", "", "".join(parts[child]() for child in children))

    def trace():
        head = named() if draw(st.booleans()) else ""  # a trace-level concept:name
        return element("trace", "", head + "".join(event() for _ in range(draw(st.integers(0, 3)))))

    children = draw(st.lists(st.sampled_from(["trace", "trace", "trace", "extension", "global", "name", "event"]),
                             max_size=5))
    parts = {
        "trace": trace,
        "extension": lambda: element("extension", ' name="Concept" prefix="concept" uri="u"'),
        "global": lambda: element("global", ' scope="event"', named()),
        "name": named,
        "event": event,
    }
    root = draw(st.sampled_from(["log", "log", "log", "log", "events"]))
    body = "".join(parts[child]() for child in children)
    document = f'<?xml version="1.0" encoding="UTF-8"?>\n<{prefix}{root}{namespace}>{body}</{prefix}{root}>'
    damage = draw(st.sampled_from(["none", "none", "none", "cut", "junk"]))
    if damage == "cut":
        document = document[: draw(st.integers(0, len(document) - 1))]
    elif damage == "junk":
        document += "<junk/>"
    return document.encode()


# what the plain path reads: labels without markup or whitespace that attribute-value
# normalisation would change, and the attributes, elements and spacing common writers add
PLAIN_LABELS = ["a", "b", "c d", "it's", "x>y", "é", "活动", "\U0001f600"]
EVENT_EXTRAS = [
    '<date key="time:timestamp" value="2024-03-01T10:00:00Z"/>', '<string key="org:resource" value="r 1" />',
    '<string key="lifecycle:transition" value="complete"/>', '<int key="n" value="7"/>',
]
TRACE_ATTRIBUTES = ['<string key="concept:name" value="case-1"/>', '<date key="time:timestamp" value="2024-03-01"/>']
LOG_HEADER = ['<extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>',
              '<global scope="event">\n<string key="concept:name" value="__INVALID__"/></global>',
              '<classifier name="Activity" keys="concept:name"/>', '<string key="concept:name" value="log"/>']
EVENT_NAME = re.compile(r'(<event>\s*<string) key="concept:name" value="([^"]*)"')


def _first_event_name(form):
    """A break that respells the first event's name string: form maps its opening and value to new text."""
    return lambda document, draw: EVENT_NAME.sub(lambda m: form(m[1], m[2], draw), document, count=1)


def _insert(text, *tags):
    """A break that inserts text before the first occurrence of one of tags, by default </log>."""
    def insert(document, draw):
        tag = draw(st.sampled_from(tags or ("</log>",)))
        return document.replace(tag, draw(text) + tag, 1)
    return insert


def _event_outside_a_trace(document, draw):
    """A break that puts an event before the first trace, after it (between two traces when there
    are two) or before the root's end tag."""
    event = draw(st.sampled_from(['<event><string key="concept:name" value="o"/></event>', "<event/>"]))
    where = draw(st.sampled_from([r"(?=<trace)", r"</trace>|<trace ?/>", r"(?=</log>)"]))
    return re.sub(where, lambda m: m[0] + event, document, count=1)


def _rename_root(document, draw):
    root = draw(st.sampled_from(["events", "logs"]))
    return document.replace("<log", f"<{root}", 1).replace("</log>", f"</{root}>")


def _declare(document, draw):
    encoding = draw(st.sampled_from(["ISO-8859-1", "US-ASCII", "UTF-16", "UTF-7", "bogus"]))
    return re.sub(r"^(<\?xml[^>]*\?>)?", f'<?xml version="1.0" encoding="{encoding}"?>', document, count=1)


def _prefixed(prefix):
    """A break that writes an event or a trace with a prefix, which the handler reader reads by its local name."""
    def prefixed(document, draw):
        if draw(st.booleans()):
            return document.replace("<event>", f"<{prefix}event>", 1).replace("</event>", f"</{prefix}event>", 1)
        tag, before = draw(st.sampled_from([(f"<{prefix}trace/>", "</log>"), (f"<{prefix}event/>", "</trace>")]))
        return document.replace(before, tag + before, 1)
    return prefixed


# each condition of the plain shape, broken one way at a time; a break that finds nothing to
# change (an event-level one on a log without events) leaves the document plain
BREAKS = {
    "declared encoding": _declare,
    "character reference": _first_event_name(lambda head, value, draw: f'{head} key="concept:name" value="{value}'
                                             + draw(st.sampled_from(["&amp;", "&#65;", "&lt;"])) + '"'),
    "comment": _insert(st.just('<!-- <trace><event><string key="concept:name" value="z"/></event></trace> -->')),
    "CDATA": _insert(st.just('<![CDATA[<event><string key="concept:name" value="z"/></event>]]>'), "</trace>"),
    "DOCTYPE": lambda document, draw: re.sub(r"^(<\?xml[^>]*\?>)?", lambda m: m[0] + "<!DOCTYPE log>", document,
                                             count=1),
    "processing instruction": _insert(
        st.just('<?pi <trace><event><string key="concept:name" value="z"/></event></trace>?>')
    ),
    "xmlns prefix": lambda document, draw: _prefixed("x:")(document.replace("<log", '<log xmlns:x="urn:x"', 1), draw),
    "xml prefix": _prefixed("xml:"),
    "root": _rename_root,
    "trace tag": lambda document, draw: re.sub(r"<trace( ?/)?>", lambda m: draw(
        st.sampled_from(['<trace id="t"', "<trace\n"])) + (m[1] or "").strip() + ">", document, count=1),
    "event tag": _insert(st.sampled_from(["<event/>", '<event id="e"><string key="concept:name" value="e"/></event>']),
                         "</trace>"),
    "non-empty trace child": _insert(st.sampled_from([
        '<list key="l"><string key="concept:name" value="z"/></list>',
        '<list key="l"><event><string key="concept:name" value="z"/></event></list>',
    ]), "</trace>"),
    "nested event": _insert(st.just('<event><string key="concept:name" value="n"/></event>'), "</event>"),
    "first child": lambda document, draw: document.replace("<event>", '<event><int key="n" value="1"/>', 1),
    "attribute form": _first_event_name(lambda head, value, draw: draw(st.sampled_from([
        f'{head} value="{value}" key="concept:name"', f"{head} key='concept:name' value='{value}'",
        f'{head}  key="concept:name" value="{value}"', f'{head} key="concept:name" value = "{value}"',
    ]))),
    "value whitespace": _first_event_name(lambda head, value, draw: f'{head} key="concept:name" value="{value}'
                                          + draw(st.sampled_from(["\t", "\r", "\n", "\r\n"])) + 'x"'),
    "empty value": _first_event_name(lambda head, value, draw: f'{head} key="concept:name" value=""'),
    "event outside a trace": _event_outside_a_trace,
    "deep trace": _insert(st.sampled_from([
        '<global scope="trace"><trace><event><string key="concept:name" value="g"/></event></trace></global>',
        "<trace/>",
    ]), "</trace>"),
    # a cut anywhere up to the root's end tag, so a trailing newline alone is never the cut
    "malformed": lambda document, draw: document[: draw(st.integers(0, document.rindex("</log>")))],
}


@st.composite
def plain_xes_documents(draw, name):
    """Documents in the shape the plain path reads, with the condition name breaks broken.

    Gives the document and whether the break changed it; name is a key of BREAKS, "UTF-16" or None.
    """
    space = st.sampled_from(["", "\n", "\n  ", " "])

    def children(opening, parts, closing):
        return opening + "".join(draw(space) + part for part in parts) + draw(space) + closing

    def event():
        name = f'<string key="concept:name" value="{draw(st.sampled_from(PLAIN_LABELS))}"/>'
        return children("<event>", [name, *draw(st.lists(st.sampled_from(EVENT_EXTRAS), max_size=3))], "</event>")

    def trace():
        parts = draw(st.lists(st.sampled_from(TRACE_ATTRIBUTES), max_size=2))
        parts += [event() for _ in range(draw(st.integers(0, 3)))]
        if not parts and draw(st.booleans()):
            return draw(st.sampled_from(["<trace/>", "<trace />"]))
        return children("<trace>", parts, "</trace>")

    quote = draw(st.sampled_from(['"', "'"]))
    encoding = draw(st.sampled_from(["", "UTF-8", "utf-8"]))
    declaration = draw(st.sampled_from(["", f"<?xml version={quote}1.0{quote}"
                                        + (f" encoding={quote}{encoding}{quote}" if encoding else "") + "?>\n"]))
    root = draw(st.sampled_from(["<log>", f'<log xes.version="1.0" xmlns="{XES_NAMESPACE}">']))
    parts = draw(st.lists(st.sampled_from(LOG_HEADER), max_size=3)) + [trace() for _ in range(draw(st.integers(0, 4)))]
    plain = declaration + children(root, parts, "</log>") + draw(st.sampled_from(["", "\n"]))
    document = plain
    if name == "UTF-16":
        return plain.encode(draw(st.sampled_from(["utf-16", "utf-16-le"]))), True
    if name is not None:
        document = BREAKS[name](plain, draw)
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + document.encode(), document != plain


def read_outcome(reader, document):
    """The variants in first-seen order, or the LogFormatError message."""
    try:
        return list(reader(document).variants.items())
    except LogFormatError as exc:
        return str(exc)


class TestStreamingReader:
    @settings(max_examples=500, deadline=None)
    @given(xes_documents())
    def test_matches_the_tree_reader(self, document):
        assert read_outcome(parse_xes, document) == read_outcome(reference_parse_xes, document)

    @pytest.mark.parametrize(
        "document, error",
        [
            (b'<!DOCTYPE log SYSTEM "log.dtd"><log>&e;</log>', "&e;: line 1, column 36"),
            (b'<!DOCTYPE log [<!ENTITY e SYSTEM "e.xml">]><log><trace>&e;</trace></log>', "&e;: line 1, column 55"),
            (b'<!DOCTYPE log [<!ENTITY a "&e;"><!ENTITY e SYSTEM "e.xml">]><log>&a;</log>', "&e;: line 1, column 65"),
        ],
    )
    def test_entity_the_dtd_leaves_unread_is_malformed(self, document, error):
        # expat reads past a reference it cannot expand; ElementTree fails on it
        expected = f"malformed XES XML: undefined entity {error}"
        assert read_outcome(parse_xes, document) == read_outcome(reference_parse_xes, document) == expected

    @pytest.mark.parametrize("codec", ["utf-8", "utf-16"])
    @pytest.mark.parametrize("encoding, error", [
        ("bogus", "unknown encoding: bogus"),
        ("rot13", "'rot13' is not a text encoding; use codecs.decode() to handle arbitrary codecs"),
        ("UTF-7", "multi-byte encoding not supported: UTF-7"),
        ("utf-32", "multi-byte encoding not supported: utf-32"),
        ("shift_jis", "multi-byte encoding not supported: shift_jis"),
    ])
    def test_declared_encoding_python_cannot_decode_is_malformed(self, encoding, error, codec):
        # expat hands an encoding it does not know to Python's codecs, and its error on a
        # multi-byte one leaves the name out; a UTF-16 document declares it in UTF-16
        document = f"<?xml version='1.0' encoding='{encoding}'?><log/>".encode(codec)
        expected = f"malformed XES XML: {error}"
        assert read_outcome(parse_xes, document) == read_outcome(reference_parse_xes, document) == expected

    @pytest.mark.parametrize("name", [*sorted(BREAKS), "UTF-16", None])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_plain_path_reads_as_both_readers(self, name, data):
        # the plain path runs exactly when no condition is broken, and every reader gives
        # the same variants in the same order, or the same error
        document, broken = data.draw(plain_xes_documents(name))
        assert (_read_plain_xes(document) is None) == broken
        expected = read_outcome(reference_parse_xes, document)
        assert read_outcome(_read_xes, document) == read_outcome(parse_xes, document) == expected

    def test_export_and_the_bench_shape_take_the_plain_path(self):
        # the two shapes the speed-up is for: export_xes's, and a trace-level concept:name
        # with a <date> after each event's name, as the benchmark's inputs write
        log = EventLog({("a", "b c"): 2, (): 1, ("it's", "é"): 1})
        bench = (
            '<?xml version="1.0" encoding="UTF-8"?>\n<log xes.version="1.0" xmlns="http://www.xes-standard.org/">\n'
            '  <trace>\n    <string key="concept:name" value="case-000017"/>\n'
            '    <event>\n      <string key="concept:name" value="a"/>\n'
            '      <date key="time:timestamp" value="2024-03-01T10:00:00Z"/>\n    </event>\n  </trace>\n</log>\n'
        ).encode()
        for document, expected in [(xes_bytes(log), log), (bench, EventLog({("a",): 1}))]:
            plain = _read_plain_xes(document)
            assert plain is not None and EventLog(plain) == expected


class TestXesRoundTrip:
    @pytest.mark.parametrize(
        "table",
        [
            {("a", "b"): 2, ("a", "c"): 1},
            {(): 3, ("a",): 1},
            {},
        ],
    )
    def test_round_trip(self, table):
        log = EventLog(table)
        assert parse_xes(xes_bytes(log)) == log

    def test_trace_order_is_irrelevant(self):
        forward = xes_doc([["a", "b"], ["c"], ["a", "b"]])
        backward = xes_doc([["c"], ["a", "b"], ["a", "b"]])
        assert parse_xes(forward) == parse_xes(backward)


# every character ElementTree escapes in an attribute, the apostrophe it
# leaves alone, escapes written out literally, non-ASCII beyond the BMP,
# and a lone surrogate, which both writers turn into a character reference
XES_LABELS = ["a", "b", "&", "<", ">", '"', "'", "\r", "\n", "\t", "a&b<c>", "&amp;", "\r\n",
              "é", "活动", "\U0001f600", "\ud800"]


xml_labels = st.text(st.characters().filter(xml_char), min_size=1, max_size=5)
xml_logs = st.dictionaries(
    st.lists(xml_labels, max_size=4).map(tuple), st.integers(1, 3), max_size=4
).map(EventLog)


class TestXesWriter:
    def test_matches_element_tree_on_random_logs(self):
        # the empty log, empty traces and repeated variants included
        rng = random.Random(10)
        for _ in range(300):
            table = {}
            for _ in range(rng.randint(0, 5)):
                table[tuple(rng.choices(XES_LABELS, k=rng.randint(0, 4)))] = rng.randint(1, 4)
            log = EventLog(table)
            assert xes_bytes(log) == reference_export_xes(log)

    @settings(max_examples=200, deadline=None)
    @given(xml_logs)
    def test_round_trip_over_xml_labels(self, log):
        document = xes_bytes(log)
        assert document == reference_export_xes(log)
        assert parse_xes(document) == log

    def test_peak_memory_stays_well_below_the_document(self):
        # the writer encodes each variant's block once and writes it in
        # chunks, so it never holds the document, which a string join would
        rng = random.Random(4)
        log = EventLog.from_traces(random_trace(rng, "abc", 12) for _ in range(3000))

        class Counter:
            size = 0

            def write(self, data: bytes) -> int:
                self.size += len(data)
                return len(data)

        sink = Counter()
        tracemalloc.start()
        try:
            export_xes(log, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size == len(xes_bytes(log)) > 1_000_000
        assert peak < sink.size / 4


CSV_HEADER = "case,act,ts\n"


class TestParseCsv:
    def test_file_order(self):
        doc = (CSV_HEADER + "c1,a,\nc1,b,\nc2,a,\n").encode()
        log = parse_csv(doc, CsvColumns(case_id="case", activity="act"))
        assert log.variants == {("a", "b"): 1, ("a",): 1}

    def test_timestamp_order(self):
        doc = (
            CSV_HEADER
            + "c1,a,2024-01-02T00:00:00\n"
            + "c1,b,2024-01-01T00:00:00\n"
            + "c2,a,2024-01-01T00:00:00\n"
        ).encode()
        log = parse_csv(doc, CsvColumns(case_id="case", activity="act", timestamp="ts"))
        assert log.variants == {("b", "a"): 1, ("a",): 1}

    def test_byte_order_mark_is_dropped(self):
        # Excel's "CSV UTF-8" export starts the file with a UTF-8 BOM
        doc = (CSV_HEADER + "c1,a,\nc1,b,\nc2,a,\n").encode()
        columns = CsvColumns(case_id="case", activity="act")
        assert parse_csv(b"\xef\xbb\xbf" + doc, columns) == parse_csv(doc, columns)

    def test_empty_body(self):
        log = parse_csv(CSV_HEADER.encode(), CsvColumns(case_id="case", activity="act"))
        assert log.total_traces == 0

    def test_empty_document_has_no_header_row(self):
        with pytest.raises(LogFormatError, match="^CSV document has no header row$"):
            parse_csv(b"", CsvColumns(case_id="case", activity="act"))

    def test_short_row_names_the_row(self):
        doc = (CSV_HEADER + "c1,a,1\nc1\n").encode()
        with pytest.raises(LogFormatError, match="^row 3: expected 3 fields, got 1$"):
            parse_csv(doc, CsvColumns(case_id="case", activity="act"))

    def test_blank_line_is_skipped(self):
        # a blank line is a row of no fields, not a short one, and row numbers count it
        columns = CsvColumns(case_id="case", activity="act")
        doc = (CSV_HEADER + "c1,a,\n\nc1,b,\n").encode()
        assert parse_csv(doc, columns).variants == {("a", "b"): 1}
        with pytest.raises(LogFormatError, match="^row 5: empty activity$"):
            parse_csv(doc + b"c2,,\n", columns)

    def test_missing_column(self):
        with pytest.raises(LogFormatError, match="nope"):
            parse_csv(CSV_HEADER.encode(), CsvColumns(case_id="nope", activity="act"))

    def test_mapped_column_named_twice_is_rejected(self):
        # a dict from header names to indices read the last copy: two traces, a and b
        doc = b"case_id,activity,case_id\n1,a,2\n1,b,3\n"
        with pytest.raises(LogFormatError, match="^mapped column 'case_id' named 2 times in CSV header "):
            parse_csv(doc, CsvColumns(case_id="case_id", activity="activity"))

    def test_unmapped_column_named_twice_is_accepted(self):
        doc = b"case_id,note,activity,note\n1,x,a,y\n1,x,b,y\n"
        assert parse_csv(doc, CsvColumns(case_id="case_id", activity="activity")).variants == {("a", "b"): 1}

    def test_bad_timestamp_reports_row(self):
        doc = (CSV_HEADER + "c1,a,2024-01-01T00:00:00\nc1,b,not-a-time\n").encode()
        with pytest.raises(LogFormatError, match="row 3"):
            parse_csv(doc, CsvColumns(case_id="case", activity="act", timestamp="ts"))

    def test_mixed_iso_and_numeric_timestamps_name_the_row(self):
        doc = (CSV_HEADER + "c1,a,12.5\nc2,a,7\nc1,b,2024-01-01T00:00:00\n").encode()
        expected = r"row 4: .* is a naive ISO datetime, .*\(row 2\) is a number"
        with pytest.raises(LogFormatError, match=expected):
            parse_csv(doc, CsvColumns(case_id="case", activity="act", timestamp="ts"))

    def test_mixed_naive_and_aware_timestamps_name_the_row(self):
        doc = (CSV_HEADER + "c1,a,2024-01-01T00:00:00Z\nc1,b,2024-01-01T01:00:00\n").encode()
        expected = r"row 3: .* is a naive ISO datetime, .*\(row 2\) is an ISO datetime with an offset"
        with pytest.raises(LogFormatError, match=expected):
            parse_csv(doc, CsvColumns(case_id="case", activity="act", timestamp="ts"))

    def test_empty_activity_names_the_row(self):
        doc = (CSV_HEADER + "c1,a,\nc1,,\n").encode()
        with pytest.raises(LogFormatError, match=r"^row 3: empty activity$"):
            parse_csv(doc, CsvColumns(case_id="case", activity="act"))

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_bytes_not_utf8_name_the_line(self, bom):
        # the line counts from the first byte after a byte-order mark
        doc = bom + (CSV_HEADER + "c1,a,\n").encode() + b"c1,\xff,\n"
        with pytest.raises(LogFormatError, match=r"^line 3: not UTF-8 text \(invalid start byte\)$"):
            parse_csv(doc, CsvColumns(case_id="case", activity="act"))

    @pytest.mark.parametrize("text, line", [
        (CSV_HEADER + "c1,a,\nc1," + "b" * 131073 + ",\n", 3),  # an activity
        ("x" * 131073 + "," + CSV_HEADER, 1),  # a column name
    ])
    def test_field_over_the_csv_limit_names_the_line(self, text, line):
        expected = rf"^line {line}: field larger than field limit \(131072\)$"
        for read in (parse_csv, reference_parse_csv):
            with pytest.raises(LogFormatError, match=expected):
                read(text.encode(), CsvColumns(case_id="case", activity="act"))

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x1f", "\ufffe", "\uffff"])
    def test_label_xml_cannot_hold_names_the_row(self, char):
        # a lone surrogate is one too, but it cannot be decoded from UTF-8 at all
        doc = (CSV_HEADER + f"c1,a,\nc1,b{char},\n").encode()
        with pytest.raises(LogFormatError, match=r"^row 3: activity 'b.*' holds a character XML 1.0 forbids$"):
            parse_csv(doc, CsvColumns(case_id="case", activity="act"))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(st.characters(codec="utf-8"), min_size=1, max_size=4), max_size=5))
    def test_accepted_labels_survive_xes(self, labels):
        # parse_csv accepts exactly the labels XML can hold, and those
        # round-trip through export_xes as ElementTree writes them
        buf = io.StringIO()
        csv.writer(buf).writerows([["case", "act"]] + [["c1", label] for label in labels])
        columns = CsvColumns(case_id="case", activity="act")
        if not all(xml_char(c) for label in labels for c in label):
            with pytest.raises(LogFormatError, match="holds a character XML 1.0 forbids"):
                parse_csv(buf.getvalue().encode(), columns)
            return
        log = parse_csv(buf.getvalue().encode(), columns)
        assert log == EventLog({tuple(labels): 1} if labels else {})
        assert xes_bytes(log) == reference_export_xes(log)
        assert parse_xes(xes_bytes(log)) == log

    def test_timestamp_ties_keep_file_order(self):
        doc = (CSV_HEADER + "c1,a,5\nc1,b,5\nc1,c,1\n").encode()
        log = parse_csv(doc, CsvColumns(case_id="case", activity="act", timestamp="ts"))
        assert log.variants == {("c", "a", "b"): 1}

    @pytest.mark.parametrize("stamp, outcome", [
        ("2024-03-01T10:00:00", r"\(row 2\) is a naive ISO datetime$"),
        ("2024-03-01T10:00:00Z", r"\(row 2\) is an ISO datetime with an offset$"),
        ("2024-03-01T10:00:00+0100", r"\(row 2\) is an ISO datetime with an offset$"),
        ("20240301T100000", r"\(row 2\) is a naive ISO datetime$"),
        ("2024-W09-5T10:00", r"\(row 2\) is a naive ISO datetime$"),
        ("2024-03-01 10:00:00", r"\(row 2\) is a naive ISO datetime$"),
        ("2024-03-01", r"\(row 2\) is a naive ISO datetime$"),
        ("1709287200.5", r"\(row 2\) is a number$"),
        (" 1709287200.5 ", r"\(row 2\) is a number$"),
        ("nan", r"^row 2: timestamp 'nan' is not a finite number$"),
        ("inf", r"^row 2: timestamp 'inf' is not a finite number$"),
        ("1e400", r"^row 2: timestamp '1e400' is not a finite number$"),
        ("garbage", r"^row 2: unparsable timestamp 'garbage'$"),
        ("2024-03-01Z", r"^row 2: unparsable timestamp '2024-03-01Z'$"),
    ])
    def test_timestamp_forms(self, stamp, outcome):
        # the grammar is Python 3.11's fromisoformat, or else a finite number, on every supported
        # interpreter. A form read at row 2 is named by its kind at the first later row of another
        # kind: the number at row 3, or else the naive datetime at row 4
        doc = (CSV_HEADER + f"c1,a,{stamp}\nc1,b,0\nc1,c,2024-01-01\n").encode()
        with pytest.raises(LogFormatError, match=outcome):
            parse_csv(doc, CsvColumns(case_id="case", activity="act", timestamp="ts"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_timestamp_names_the_row(self, value):
        # NaN compares false both ways, so a stable sort would leave its case unordered
        doc = (CSV_HEADER + f"c1,b,2\nc1,x,{value}\nc1,a,1\n").encode()
        with pytest.raises(LogFormatError, match=rf"^row 3: timestamp '{value}' is not a finite number$"):
            parse_csv(doc, CsvColumns(case_id="case", activity="act", timestamp="ts"))

    def test_peak_memory_is_a_small_multiple_of_the_document(self):
        # the text is decoded 8 KiB at a time, and a case's events are one
        # flat list; a decoded copy of the text and a tuple per event peaked
        # at about 12 times the document
        rng = random.Random(3)
        rows = []
        for case in range(3000):
            instant = datetime(2024, 1, 1) + timedelta(seconds=rng.randrange(10**7))
            for _ in range(rng.randint(1, 6)):
                instant += timedelta(seconds=rng.randint(1, 3600))
                rows.append(f"case-{case},{rng.choice('abcdef')},{instant.isoformat()}\n")
        rng.shuffle(rows)
        document = (CSV_HEADER + "".join(rows)).encode()
        tracemalloc.start()
        try:
            log = parse_csv(document, CsvColumns(case_id="case", activity="act", timestamp="ts"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert log.total_traces == 3000
        assert peak < 6 * len(document)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["c1", "c2", "c3"]), st.integers(-5, 5), st.booleans()),
                    max_size=12))
    def test_rows_order_by_timestamp_then_file_order(self, events):
        # rows in any order, each with its file position as activity and an
        # int or float timestamp; a case's trace is its rows stably sorted by time
        rows = [(case, str(time) if as_int else f"{time}.0") for case, time, as_int in events]
        doc = CSV_HEADER + "".join(f"{case},{i},{time}\n" for i, (case, time) in enumerate(rows))
        log = parse_csv(doc.encode(), CsvColumns(case_id="case", activity="act", timestamp="ts"))
        cases: dict[str, list[tuple[float, int]]] = {}
        for i, (case, time) in enumerate(rows):
            cases.setdefault(case, []).append((float(time), i))
        expected = [tuple(str(i) for _, i in sorted(times)) for times in cases.values()]
        assert log == EventLog.from_traces(expected)


# timestamps by kind; a document draws from one kind, or from all of them
STAMPS = {
    "naive": ["2024-01-01T00:00:00", "2024-01-02T10:00:00", " 2024-01-01T05:00:00 "],
    "offset": ["2024-01-01T00:00:00Z", "2024-01-01T03:00:00+02:00", "2024-01-01T01:00:00+00:00"],
    "number": ["1", "2.5", " 3 ", "-1e3", "2"],
    "any": ["2024-01-01T00:00:00", "2024-01-01T00:00:00Z", "1", "nan", "inf", "1e400", "soon", ""],
}


@st.composite
def csv_documents(draw):
    """CSV documents over a few cases, labels and timestamps, valid and broken, with a mapping."""
    columns = draw(st.permutations(["case", "act", "ts"]))
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, 3)), "note")
    stamps = STAMPS[draw(st.sampled_from(["naive", "offset", "number", "any"]))]
    labels = ["a", "b", '"c,d"'] + draw(st.sampled_from([[], [], ["", "x\x01", "y\t"]]))
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 10))):
        shape = draw(st.sampled_from(["row"] * 12 + ["blank", "short"]))
        if shape == "blank":
            lines.append("")
            continue
        fields = {
            "case": draw(st.sampled_from(["c1", "c2", "c3"])),
            "act": draw(st.sampled_from(labels)),
            "ts": draw(st.sampled_from(stamps)),
            "note": "n",
        }
        row = [fields[c] for c in columns]
        lines.append(",".join(row[: draw(st.integers(0, len(row) - 1))] if shape == "short" else row))
    document = ("\n".join(lines) + "\n").encode()
    damage = draw(st.sampled_from(["none"] * 8 + ["bom", "latin-1", "duplicate"]))
    if damage == "bom":
        document = b"\xef\xbb\xbf" + document
    elif damage == "latin-1":
        document += b"c1,\xe9,1\n"
    elif damage == "duplicate":
        document = b"case," + document
    timestamp = draw(st.sampled_from(["ts", "ts", None, "missing"]))
    return document, CsvColumns("case", "act", timestamp)


class TestCsvReaderAgainstReference:
    @settings(max_examples=500, deadline=None)
    @given(csv_documents())
    def test_matches_the_reference_reader(self, case):
        document, mapping = case
        expected = read_outcome(lambda data: reference_parse_csv(data, mapping), document)
        assert read_outcome(lambda data: parse_csv(data, mapping), document) == expected


    def test_line_ends_across_the_readers_8_kib_chunks(self):
        # parse_csv decodes 8 KiB at a time: a CRLF split between two reads,
        # lone CR line ends, and a quoted newline split between two reads
        # must read as the reference reads the whole text
        chunk = 8192

        def rows_up_to(text: str, end: int, newline: str) -> str:
            """text and rows ending in newline, the last padded to end at offset end."""
            row = 0
            while True:
                head = f"c{row % 5},{'ab'[row % 2]},{row},"
                room = end - len(text) - len(head) - len(newline)
                if room < 40:
                    return text + head + "n" * room + newline
                text += head + "n" * 20 + newline
                row += 1

        text = rows_up_to("case,act,ts,note\r\n", chunk + 1, "\r\n")
        assert text[chunk - 1 : chunk + 1] == "\r\n"
        quoted = 'c2,"x\r\ny",9999,n\r'
        text = rows_up_to(text, 2 * chunk - quoted.index("\n"), "\r")
        text += quoted
        assert text[2 * chunk - 1 : 2 * chunk + 1] == "\r\n"
        text = rows_up_to(text, 3 * chunk, "\n")
        document = text.encode()
        mapping = CsvColumns("case", "act", "ts")
        log = parse_csv(document, mapping)
        assert "x\r\ny" in log.activities and log.total_traces == 5
        assert read_outcome(lambda data: parse_csv(data, mapping), document) == read_outcome(
            lambda data: reference_parse_csv(data, mapping), document
        )


class TestVariants:
    def test_sorted_by_count(self):
        log = EventLog({("a", "b"): 2, ("a", "c"): 1})
        assert variants(log) == [(("a", "b"), 2), (("a", "c"), 1)]

    def test_empty(self):
        assert variants(EventLog({})) == []

    def test_lexicographic_ties(self):
        log = EventLog({("b",): 1, ("a",): 1})
        assert variants(log) == [(("a",), 1), (("b",), 1)]


class TestEventLog:
    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog({("a",): 0})

    def test_labels_must_be_nonempty(self):
        with pytest.raises(ValueError):
            EventLog({("a", ""): 1})

    def test_counting_invariant(self):
        log = EventLog({("a",): 3, ("b", "c"): 1})
        assert log.total_traces >= len(log) >= 0
        assert log.total_traces == 4
        assert log.activities == {"a", "b", "c"}

    def test_from_traces_collapses(self):
        log = EventLog.from_traces([["a"], ["a"], ["b"]])
        assert log.variants == {("a",): 2, ("b",): 1}

    def test_value_semantics(self):
        same = EventLog({("b",): 1, ("a",): 2}), EventLog.from_traces([["a"], ["b"], ["a"]])
        assert hash(same[0]) == hash(same[1])
        assert len(set(same)) == 1
        assert (EventLog({("a",): 1}) == 1) is False
        assert (EventLog({("a",): 1}) != 1) is True
        assert repr(EventLog({("a", "b"): 2, ("c",): 3})) == "EventLog(2 variants, 5 traces)"

