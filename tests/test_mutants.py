"""The readers' contract on any bytes: each returns a value or raises only its documented error.

Each reader starts from a small valid document, written by ``export_xes``,
``csv.writer`` or ``export_pnml``, and reads it after a few byte flips,
deletions, truncations and inserted tokens. A PNML mutant that parses is
then scored with small budgets, so no mutant can run long.
"""

import csv
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protomine import (
    BudgetExceeded,
    CsvColumns,
    EventLog,
    LogFormatError,
    Marking,
    PetriNet,
    compute_report,
    export_pnml,
    parse_csv,
    parse_pnml,
    parse_xes,
    shortest_visible_path,
)

from .conftest import xes_bytes

LOG = EventLog({("a", "b"): 2, ("a", "c", "b"): 1})
# the words a and a b: a, then a choice of b or a silent step
NET = PetriNet(
    places={"i", "m", "o"},
    transitions={"ta": "a", "tb": "b", "tau": None},
    arcs=[("i", "ta"), ("ta", "m"), ("m", "tb"), ("tb", "o"), ("m", "tau"), ("tau", "o")],
    initial_marking=Marking.of({"i": 1}),
    final_marking=Marking.of({"o": 1}),
)
COLUMNS = CsvColumns(case_id="case", activity="act", timestamp="ts")


def _csv_document() -> bytes:
    rows = [["case", "act", "ts"], ["c1", "a", "2024-03-01T10:00:00"], ["c2", "a", "2024-03-01T10:00:01"],
            ["c1", "b", "2024-03-01T10:05:00"], ["c2", "b, c", "2024-03-01T10:06:00"]]
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode()


# reader name -> (valid document, reader, the one error type the reader documents)
READERS = {
    "xes": (xes_bytes(LOG), parse_xes, LogFormatError),
    "csv": (_csv_document(), lambda document: parse_csv(document, COLUMNS), LogFormatError),
    "pnml": (export_pnml(NET), parse_pnml, ValueError),
}

UNKNOWN_ENCODING = b"<?xml version='1.0' encoding='bogus'?>"
MULTI_BYTE_ENCODING = b"<?xml version='1.0' encoding='UTF-7'?>"
OVERSIZED_FIELD = b"x" * 131073  # one byte over the csv module's field limit
TOKENS = [
    # markup
    b"<", b">", b"/>", b"</", b"&", b"&amp;", b"&#0;", b"&e;", b"<!--", b"-->", b"<![CDATA[", b"]]>",
    b"<!DOCTYPE log [<!ENTITY e 'v'>]>", b"<trace>", b"</trace>", b"<event>", b"<place id='q'/>",
    b"<arc id='x' source='tb' target='i'/>", b"<text>2</text>", b" xmlns='urn:x'", b"=", b"'",
    # XML declarations naming an encoding expat does not know: unknown, multi-byte, not a text codec
    UNKNOWN_ENCODING, MULTI_BYTE_ENCODING, b"<?xml version='1.0' encoding='rot13'?>",
    # delimiters, line ends and bytes a CSV reader must survive
    b",", b'"', b'""', b"\n", b"\r", b"\r\n", b"\x00", b"\xef\xbb\xbf", b"\xff", b"nan", b"1e400", b"Z",
    OVERSIZED_FIELD,
]
# (kind, where, byte, token): where is taken modulo the length, byte is XORed in by a flip
EDITS = st.lists(
    st.tuples(st.sampled_from(["flip", "delete", "truncate", "insert"]), st.integers(0, 1 << 16),
              st.integers(1, 255), st.sampled_from(TOKENS)),
    min_size=1, max_size=4,
)


def mutate(document: bytes, edits) -> bytes:
    data = bytearray(document)
    for kind, where, byte, token in edits:
        at = where % (len(data) + 1)
        if kind == "flip" and at < len(data):
            data[at] ^= byte
        elif kind == "delete":
            del data[at:at + byte % 8 + 1]
        elif kind == "truncate":
            del data[at:]
        elif kind == "insert":
            data[at:at] = token
    return bytes(data)


def score(net: PetriNet) -> None:
    """Score a net against LOG with small budgets; ValueError and BudgetExceeded are the documented failures."""
    try:  # compute_report's own shortest-word search runs at DEFAULT_ALIGN_BUDGET, so bound it first
        shortest_visible_path(net, 2000)
    except (ValueError, BudgetExceeded):
        return
    try:
        compute_report(LOG, net, [], 1.0, budget=2000, closure_budget=2000)
    except (ValueError, BudgetExceeded):
        pass


class TestReaderContract:
    @pytest.mark.parametrize("reader", sorted(READERS))
    @settings(max_examples=500, deadline=None)
    @given(edits=EDITS)
    @example(edits=[("insert", 0, 1, UNKNOWN_ENCODING)])
    @example(edits=[("insert", 0, 1, MULTI_BYTE_ENCODING)])
    @example(edits=[("insert", 20, 1, OVERSIZED_FIELD)])  # into the CSV's first row
    def test_raises_only_its_documented_error(self, reader, edits):
        document, read, error = READERS[reader]
        try:
            value = read(mutate(document, edits))
        except error:
            return
        if reader == "pnml":
            score(value)

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_the_valid_document_reads_back(self, reader):
        document, read, _ = READERS[reader]
        expected = {"xes": LOG, "csv": EventLog({("a", "b"): 1, ("a", "b, c"): 1}), "pnml": NET}
        assert read(document) == expected[reader]
