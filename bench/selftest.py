"""Self-test of the benchmark harness at a tiny workload size.

    python3 bench/selftest.py

Checks that the generator is deterministic and that its bytes hold the
traces it claims, that the output checks pass on real protomine output
and reject corrupted artifacts, that a run whose artifacts differ from
the first run's counts as failed, and that the span recorder fails
loudly when a binding records no calls. Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import re
import shutil
import sys
from pathlib import Path

import checks
import inputs
import run
import spans

TINY = {
    name: dataclasses.replace(inputs.WORKLOADS[name], n_traces=n)
    for name, n in (("wide-short", 40), ("many-rounds", 60), ("flower-long", 25))
}


def csv_traces(data: bytes) -> list[tuple[str, ...]]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]
    cases: dict[str, list[tuple[str, str]]] = {}
    for case, activity, stamp in rows:
        cases.setdefault(case, []).append((stamp, activity))
    return [tuple(a for _, a in sorted(events)) for events in cases.values()]


def check_generator(failures: list[str]) -> None:
    for name, workload in TINY.items():
        first, again, other = (inputs.generate(workload, s) for s in (7, 7, 8))
        if first.data != again.data:
            failures.append(f"{name}: the same seed gave different bytes")
        if first.data == other.data:
            failures.append(f"{name}: two seeds gave the same bytes")
        if first.counts != other.counts:
            failures.append(f"{name}: two seeds gave different designs")
        read = (
            checks.read_xes_traces(first.data)
            if workload.fmt == "xes"
            else csv_traces(first.data)
        )
        if sorted(read) != sorted(first.traces):
            failures.append(f"{name}: the {workload.fmt} bytes do not hold the generated traces")


def corrupt(session: run.Session, failures: list[str]) -> None:
    """Each edit must make a check fail; the files are restored after each."""
    discover = session.ops["discover"][0]
    out = discover.out

    def expect_rejected(what: str, path: Path, edit, check) -> None:
        original = path.read_bytes()
        path.write_bytes(edit(original))
        try:
            if not check():
                failures.append(f"the checks accepted {what}")
        finally:
            path.write_bytes(original)

    def discover_fails() -> bool:
        return bool(checks.check_discover(out, discover.stdout, session.counts)[0])

    foreign = b"<trace><event><string key=\"concept:name\" value=\"zz\"/></event></trace></log>"
    expect_rejected(
        "a prototypes.xes trace that is not in the log",
        out / "prototypes.xes",
        lambda b: b.replace(b"</log>", foreign),
        discover_fails,
    )

    def bump_f_beta(raw: bytes) -> bytes:
        report = json.loads(raw)
        report["f_beta"] = report["f_beta"] / 2
        return json.dumps(report).encode()

    expect_rejected("a wrong f_beta in report.json", out / "report.json", bump_f_beta, discover_fails)

    def final_at_source(raw: bytes) -> bytes:
        # no arc enters the source place, so no non-empty word ends there
        net = checks.read_pnml(raw)
        source = net.places[net.initial.index(1)]
        sink = net.places[net.final.index(1)]
        return raw.replace(f'idref="{sink}"'.encode(), f'idref="{source}"'.encode())

    expect_rejected("a model.pnml that cannot replay", out / "model.pnml", final_at_source, discover_fails)

    label = checks.read_xes_traces((out / "prototypes.xes").read_bytes())[0][0].encode()
    expect_rejected(
        "a model.pnml without a prototype's activity",
        out / "model.pnml",
        lambda b: re.sub(rb"(<name>\s*<text>)" + re.escape(label) + rb"(</text>)", rb"\1zz\2", b),
        discover_fails,
    )

    compare_out = session.ops["compare"][0].out
    expect_rejected(
        "a nothing row with fitness below 1",
        compare_out / "compare.csv",
        lambda b: re.sub(rb"^nothing,([^,]*),([^,]*),1\.000000,", rb"nothing,\1,\2,0.500000,", b, flags=re.M),
        lambda: bool(checks.check_compare(compare_out, session.counts, session.summary)[0]),
    )


def check_repeats(session: run.Session, failures: list[str]) -> None:
    session.ops["compare"][-1].hashes = {"compare.csv": "0" * 64}
    session.tally = run.Tally()
    session.settle()
    if session.tally.failed != 1:
        failures.append(f"one run with changed artifacts counted {session.tally.failed} failures")


def check_spans(failures: list[str]) -> None:
    recorder = spans.Recorder()
    recorder.run("protomine", lambda: 0)
    try:
        recorder.require("discover", "xes")
        failures.append("a traced run that called no binding passed require()")
    except spans.MissingSpan as exc:
        if "protoselect.distance_matrix" not in str(exc):
            failures.append(f"MissingSpan does not name the silent binding: {exc}")

    import protomine.cli
    import protomine.eventlog

    spans.BINDINGS[("cli", "no_such_binding")] = "cli"
    try:
        spans.Recorder().run("protomine", lambda: 0)
        failures.append("a traced run with a missing binding ran")
    except spans.MissingSpan as exc:
        if "cli.no_such_binding" not in str(exc):
            failures.append(f"MissingSpan does not name the missing binding: {exc}")
    finally:
        del spans.BINDINGS[("cli", "no_such_binding")]
    if protomine.cli.parse_xes is not protomine.eventlog.parse_xes:
        failures.append("a failed traced run left a binding wrapped")


def main() -> int:
    failures: list[str] = []
    check_generator(failures)
    saved = dict(inputs.WORKLOADS)
    inputs.WORKLOADS.update(TINY)
    try:
        for name in TINY:
            for trace in (False, True):
                with contextlib.redirect_stdout(io.StringIO()):
                    result = run.run_workload(name, 1, 0.0, trace)
                if not result["correct"]:
                    failures.append(f"{name} (trace {int(trace)}): the checks rejected real output")
        session = run.Session(TINY["wide-short"], 1)
        run.measure_e2e(session, 0.0)
        corrupt(session, failures)
        check_repeats(session, failures)
        check_spans(failures)
    finally:
        inputs.WORKLOADS.update(saved)
        shutil.rmtree(run.WORK, ignore_errors=True)
    for failure in failures:
        print(f"FAILED: {failure}")
    print("self-test passed" if not failures else f"self-test: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
