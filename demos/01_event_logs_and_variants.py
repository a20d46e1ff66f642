"""
Event logs, traces and variants
===============================

An event log is a multiset of traces; a trace is the sequence of activity
labels one case went through. Identical traces are stored once with a
count, which is the representation everything else in the library works
on.
"""

import io

from protomine import CsvColumns, EventLog, export_xes, parse_csv, parse_xes, variants

# build a log directly from raw traces: duplicates collapse into variants
log = EventLog.from_traces(
    [
        ["register", "check", "pay"],
        ["register", "check", "pay"],
        ["register", "pay"],
        ["register", "check", "check", "pay"],
    ]
)
print("variants:", len(log), "traces:", log.total_traces)
print("activity universe:", sorted(log.activities))

# the variant table is sorted by frequency, ties alphabetically
for trace, count in variants(log):
    print(f"  {count}x {' -> '.join(trace)}")

# the same log survives an XES round trip unchanged; export_xes writes
# to a binary stream, a file or, here, an in-memory buffer
buffer = io.BytesIO()
export_xes(log, buffer)
document = buffer.getvalue()
print("\nXES document is", len(document), "bytes")
assert parse_xes(document) == log

# CSV ingestion groups rows by case and orders them by a timestamp column
rows = b"""case,activity,when
7,register,2024-05-01T08:00:00
7,pay,2024-05-01T09:30:00
8,register,2024-05-01T08:10:00
7,check,2024-05-01T08:20:00
8,pay,2024-05-01T08:40:00
"""
csv_log = parse_csv(rows, CsvColumns(case_id="case", activity="activity", timestamp="when"))
print("\nfrom CSV:")
for trace, count in variants(csv_log):
    print(f"  {count}x {' -> '.join(trace)}")
