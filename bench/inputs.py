"""Seeded input logs for the benchmark, independent of protomine.

Only the standard library is used, and nothing from ``protomine``: a
change to the package's simulator or selection code cannot change the
benchmark's inputs. The same ``(workload, seed)`` always gives the same
bytes.

A workload has two levels of randomness:

* its *design*, the multiset of traces, is drawn once from the workload's
  spec (clean words of a behaviour description, a share of them perturbed
  by one to three edits: delete a position, or re-insert an activity the
  trace already holds, the noise model of the paper's synthetic logs);
* the ``--seed`` draws the *log instance* around it: which case carries
  which trace, case ids, event timestamps and, for CSV, the row order.

The split is deliberate. The selection loop's path changes in discrete
steps with the variant table: with the table drawn per seed, many-rounds
ran from 4 to 15 iterations, and wide-short's full net ranged from size
101 to 164, with ``compare`` taking from 3.0 to 4.6 s at one log size.
No regression bound could sit above such spreads. With a fixed design
every seed asks the program for the same mining work, through different
bytes, and the quality fingerprint is comparable across seeds.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from xml.sax.saxutils import quoteattr

Trace = tuple[str, ...]

EPOCH = datetime(2024, 3, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: how its design is drawn and how the CLI reads it."""

    name: str
    why: str
    n_traces: int
    noise: float
    fmt: str  # "xes" or "csv"
    design_seed: int = 0


@dataclass(frozen=True)
class GeneratedLog:
    """The input file's bytes plus the traces they hold, in case order."""

    data: bytes
    fmt: str
    traces: tuple[Trace, ...]

    @property
    def counts(self) -> Counter:
        return Counter(self.traces)

    def stats(self) -> dict:
        lengths = [len(t) for t in self.counts]
        return {
            "format": self.fmt,
            "sha256": hashlib.sha256(self.data).hexdigest(),
            "bytes": len(self.data),
            "traces": len(self.traces),
            "variants": len(lengths),
            "variant_len_mean": round(sum(lengths) / len(lengths), 3),
            "variant_len_max": max(lengths),
        }


# each design_seed is the first, counting from 0, whose log shows the
# workload's behaviour at its size (see bench/README.md)
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide-short",
            "two families (a,(b|c)||d,e and u,(v|w),x), short traces: compare's full-net "
            "precision and alignment dominate, tracedist is small",
            n_traces=300,
            noise=0.15,
            fmt="xes",
            design_seed=1,
        ),
        Workload(
            "many-rounds",
            "three straight-line families as shuffled timestamped CSV: many selection "
            "rounds on small nets, and parse_csv's group-and-sort path",
            n_traces=1500,
            noise=0.3,
            fmt="csv",
            design_seed=4,
        ),
        Workload(
            "flower-long",
            "random words over {a,b,c} with geometric length: the LCS distance matrix "
            "dominates, the discovered flower keeps conformance cheap",
            n_traces=300,
            noise=0.5,
            fmt="xes",
        ),
    )
}


def _interleavings(left: Trace, right: Trace) -> list[Trace]:
    if not left:
        return [right]
    if not right:
        return [left]
    return [(left[0],) + w for w in _interleavings(left[1:], right)] + [
        (right[0],) + w for w in _interleavings(left, right[1:])
    ]


WIDE_SHORT_WORDS: tuple[Trace, ...] = tuple(
    [("a",) + w + ("e",) for x in "bc" for w in _interleavings((x,), ("d",))]
    + [("u", x, "x") for x in "vw"]
)
MANY_ROUNDS_WORDS: tuple[Trace, ...] = (("k", "l", "m"), ("n", "o", "p"), ("q", "r", "s"))
FLOWER_ALPHABET = ("a", "b", "c")
FLOWER_STOP = 0.15  # per-event stop probability: geometric length, mean 1/0.15


def _perturb(trace: Trace, rng: random.Random) -> Trace:
    result = list(trace)
    for _ in range(rng.randint(1, 3)):
        # never delete the last event: every case keeps a CSV row
        if rng.random() < 0.5 and len(result) > 1:
            del result[rng.randrange(len(result))]
        else:
            result.insert(rng.randint(0, len(result)), rng.choice(result))
    return tuple(result)


def design(workload: Workload) -> list[Trace]:
    """The workload's fixed multiset of traces, drawn once from its spec."""
    rng = random.Random(f"{workload.name}:design:{workload.design_seed}")
    traces: list[Trace] = []
    for _ in range(workload.n_traces):
        if workload.name == "flower-long":
            word = [rng.choice(FLOWER_ALPHABET)]
            while rng.random() >= FLOWER_STOP:
                word.append(rng.choice(FLOWER_ALPHABET))
            trace = tuple(word)
        else:
            words = WIDE_SHORT_WORDS if workload.name == "wide-short" else MANY_ROUNDS_WORDS
            trace = rng.choice(words)
        traces.append(_perturb(trace, rng) if rng.random() < workload.noise else trace)
    return traces


def _event_times(rng: random.Random, n_traces: int, trace: Trace) -> list[str]:
    # strictly increasing within a case, so a timestamp sort restores order
    instant = EPOCH + timedelta(seconds=rng.randrange(86_400 * n_traces))
    stamps = []
    for _ in trace:
        instant += timedelta(seconds=rng.randint(1, 3_600))
        stamps.append(instant.strftime("%Y-%m-%dT%H:%M:%SZ"))
    return stamps


def xes_bytes(cases: list[tuple[str, Trace, list[str]]]) -> bytes:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">',
    ]
    for case_id, trace, stamps in cases:
        lines.append("  <trace>")
        lines.append(f'    <string key="concept:name" value="{case_id}"/>')
        for activity, stamp in zip(trace, stamps):
            lines.append("    <event>")
            lines.append(f'      <string key="concept:name" value={quoteattr(activity)}/>')
            lines.append(f'      <date key="time:timestamp" value="{stamp}"/>')
            lines.append("    </event>")
        lines.append("  </trace>")
    lines.append("</log>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def csv_bytes(cases: list[tuple[str, Trace, list[str]]], rng: random.Random) -> bytes:
    rows = [
        f"{case_id},{activity},{stamp}"
        for case_id, trace, stamps in cases
        for activity, stamp in zip(trace, stamps)
    ]
    rng.shuffle(rows)
    return ("\n".join(["case_id,activity,timestamp"] + rows) + "\n").encode("utf-8")


def generate(workload: Workload, seed: int) -> GeneratedLog:
    """The log instance of one seed: the design's traces in fresh cases."""
    rng = random.Random(f"{workload.name}:{seed}")
    traces = design(workload)
    rng.shuffle(traces)
    ids = rng.sample(range(10 * len(traces)), len(traces))
    cases = [
        (f"case-{i:06d}", t, _event_times(rng, len(traces), t)) for i, t in zip(ids, traces)
    ]
    data = xes_bytes(cases) if workload.fmt == "xes" else csv_bytes(cases, rng)
    return GeneratedLog(data=data, fmt=workload.fmt, traces=tuple(traces))
