"""Seeded end-to-end and per-layer benchmark of the protomine CLI.

    python3 bench/run.py --workload wide-short --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 38 --trace 0

With ``--trace 0`` the benchmark runs ``protomine discover --k 2`` and
``protomine compare --k 2`` as child processes, one at a time (a closed
loop with one client), on a log it generates from ``--seed``, for
``--seconds`` seconds, and reports the median of each end-to-end metric,
each timing scaled by the host speed that ``reference.py`` measures
around it (see ``measure_e2e``). With ``--trace 1`` it calls
``protomine.cli.main`` in-process, untraced and with span recorders on
the bindings between layers (see ``spans.py``) in turn, and reports
per-layer metrics. Every run checks the
program's outputs with checks of its own (see ``checks.py``) and counts
each failed operation. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The program is run from the ``src/`` directory next to this one, so the
benchmark needs no install step. Child processes are spawned through
``launcher.py``. Working files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Sequence

import checks
import inputs
import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
COMMANDS = ("discover", "compare")
K = 2
REFERENCE = Path(__file__).with_name("reference.py")
REF_NOMINAL_S = 0.4  # the reference's time on the host the benchmark was sized on
MIN_SAMPLES = 3  # per closed-loop key, even when one run outlasts --seconds
CHILD_TIMEOUT_S = 150

SETUP_PROBE = """
import sys
from pathlib import Path
import protomine
data = Path(sys.argv[1]).read_bytes()
if sys.argv[2] == "csv":
    log = protomine.parse_csv(data, protomine.CsvColumns("case_id", "activity", "timestamp"))
else:
    log = protomine.parse_xes(data)
print(protomine.__file__, len(log), log.total_traces)
"""


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all."""


@dataclass
class Op:
    """One run of one command."""

    command: str
    returncode: int
    wall_s: float
    stdout: str
    out: Path
    hashes: dict[str, str] = field(default_factory=dict)
    cpu_s: float = 0.0
    maxrss_mib: float = 0.0


Measured = dict[str, tuple[float, list[float]]]  # metric -> (median, or max for RSS; the samples)


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)


def unit_of(name: str) -> str:
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("ns_per_cell"):
        return "ns"
    return "count"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def preflight() -> None:
    if not (SRC / "protomine" / "cli.py").is_file():
        raise SetupError(f"no protomine sources under {SRC}; run from a full checkout")


class Launcher:
    """The helper process that spawns every child (see ``launcher.py``)."""

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc_info) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], sink: Path) -> tuple[int, float, float, float, str]:
        """Run one child; return exit code, wall s, CPU s, max RSS MiB and output."""
        request = {
            "argv": argv,
            "sink": str(sink),
            "env": dict(os.environ, PYTHONPATH=str(SRC)),
            "cwd": str(ROOT),
            "timeout": CHILD_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError("the child launcher exited")
        reply = json.loads(line)
        output = sink.read_text(encoding="utf-8", errors="replace")
        return (
            reply["returncode"],
            reply["wall_s"],
            reply["cpu_s"],
            reply["maxrss_kib"] / 1024,
            output,
        )


def cli_args(command: str, log_path: Path, fmt: str, out: Path) -> list[str]:
    argv = [command, "--in", str(log_path), "--k", str(K), "--out", str(out)]
    if fmt == "csv":
        argv += ["--time-col", "timestamp"]
    return argv


def closed_loop(
    seconds: float,
    run_one: Callable[[Any], float],
    keys: Sequence = COMMANDS,
    between: Callable[[], None] | None = None,
) -> None:
    """Run back to back, each next the key that has used the least time so far.

    ``between``, if given, runs before every run and once after the last.
    """
    spent = dict.fromkeys(keys, 0.0)
    runs = dict.fromkeys(keys, 0)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or min(runs.values()) < MIN_SAMPLES:
        if between:
            between()
        key = min(spent, key=spent.get)
        spent[key] += run_one(key)
        runs[key] += 1
    if between:
        between()


class Session:
    """One workload at one seed: its input, its operations and their checks."""

    def __init__(self, workload: inputs.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.log = inputs.generate(workload, seed)
        self.counts = self.log.counts
        self.work = WORK / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.log_path = self.work / f"log.{workload.fmt}"
        self.log_path.write_bytes(self.log.data)
        self.ops: dict[str, list[Op]] = {c: [] for c in COMMANDS}
        self.tally = Tally()
        self.summary: checks.DiscoverSummary | None = None
        self.compare_rows: list[list[str]] = []

    def out_dir(self, command: str) -> Path:
        return self.work / f"{command}-{len(self.ops[command])}"

    def keep(self, op: Op) -> None:
        """Hash the op's artifacts; keep only the first run's files on disk."""
        names = checks.DISCOVER_ARTIFACTS if op.command == "discover" else checks.COMPARE_ARTIFACTS
        op.hashes = checks.artifact_hashes(op.out, names)
        if self.ops[op.command]:
            shutil.rmtree(op.out, ignore_errors=True)
        self.ops[op.command].append(op)

    def settle(self) -> None:
        """Check the first run of each command, then count every op."""
        problems = {c: [] for c in COMMANDS}
        first = {c: self.ops[c][0] for c in COMMANDS}
        try:
            problems["discover"], self.summary = checks.check_discover(
                first["discover"].out, first["discover"].stdout, self.counts
            )
        except Exception as exc:  # a malformed artifact fails the check, not the run
            problems["discover"] = [f"discover artifacts unreadable: {exc!r}"]
        try:
            problems["compare"], self.compare_rows = checks.check_compare(
                first["compare"].out, self.counts, self.summary
            )
        except Exception as exc:
            problems["compare"] = [f"compare artifacts unreadable: {exc!r}"]
        for command in COMMANDS:
            for op in self.ops[command]:
                own = list(problems[command])
                if op.returncode != 0:
                    own.append(f"{command} exited {op.returncode}: {op.stdout.strip()[-300:]}")
                if op.hashes != first[command].hashes:
                    own.append(f"{command} artifacts differ from the first run's: {op.hashes}")
                self.tally.record(own)

    def fingerprint(self) -> dict:
        rows = {r[0]: r for r in self.compare_rows[1:]}
        beats = (
            float(rows["frequency"][1]) > float(rows["prototypes"][1])
            if {"frequency", "prototypes"} <= rows.keys()
            else None
        )
        s = self.summary
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "input": self.log.stats(),
            "discover": {
                "f_beta": s.report["f_beta"] if s else None,
                "prototypes": s.prototypes if s else None,
                "iterations": s.iterations if s else None,
                "stop_reason": s.stop_reason if s else None,
                "artifacts": self.ops["discover"][0].hashes,
            },
            "compare": {
                "rows": self.compare_rows,
                "frequency_beats_prototypes_f1": beats,
                "artifacts": self.ops["compare"][0].hashes,
            },
        }


def measure_e2e(session: Session, seconds: float) -> tuple[Measured, Measured]:
    """End-to-end metrics, and the raw timings they are scaled from.

    Every timed child runs between two runs of the reference workload
    (``reference.py``). Each timing is scaled by the reference's mean time
    on those two runs, to what it would be on a host where the reference
    takes ``REF_NOMINAL_S``; the metric is the median of the scaled
    timings. The host the benchmark was sized on is shared, and its speed
    drifted by 10 to 20% over minutes; the program's timings followed
    the reference's, so the scaled timings vary far less from run to run
    than the raw ones, which are printed beside them.
    """
    fmt = session.workload.fmt
    refs: list[tuple[float, float]] = []  # (wall s, CPU s) of each reference run
    timed: dict[str, list[tuple[int, float, float]]] = {"setup": [], **{c: [] for c in COMMANDS}}

    with Launcher() as launcher:

        def run_reference() -> None:
            rc, wall, cpu, _, output = launcher.run(
                [sys.executable, str(REFERENCE)], session.work / "reference.out"
            )
            if rc != 0 or output.strip() != reference.CHECKSUM:
                raise SetupError(f"the reference workload exited {rc} with {output.strip()[-300:]!r}")
            refs.append((wall, cpu))

        def setup_probe() -> tuple[list[str], float, float]:
            rc, wall, cpu, _, output = launcher.run(
                [sys.executable, "-c", SETUP_PROBE, str(session.log_path), fmt],
                session.work / "setup.out",
            )
            expected = [
                str(SRC / "protomine" / "__init__.py"),
                str(len(session.counts)),
                str(len(session.log.traces)),
            ]
            if rc != 0 or output.split()[-3:] != expected:
                return [f"setup probe exited {rc} with {output.strip()[-300:]!r}, expected {expected}"], wall, cpu
            return [], wall, cpu

        problems, _, _ = setup_probe()  # the first run compiles bytecode; not timed
        if problems:
            raise SetupError(problems[0])

        def run_one(command: str) -> float:
            problems, wall, cpu = setup_probe()
            session.tally.record(problems)
            timed["setup"].append((len(refs) - 1, wall, cpu))
            out = session.out_dir(command)
            argv = [sys.executable, "-m", "protomine.cli"] + cli_args(command, session.log_path, fmt, out)
            rc, wall, cpu, rss, output = launcher.run(argv, session.work / f"{command}.out")
            session.keep(Op(command, rc, wall, output, out, cpu_s=cpu, maxrss_mib=rss))
            timed[command].append((len(refs) - 1, wall, cpu))
            return wall

        closed_loop(seconds, run_one, between=run_reference)
    session.settle()

    def scaled(key: str, which: int) -> list[float]:
        # the reference runs just before and just after sample i's round
        return [
            (wall, cpu)[which] * REF_NOMINAL_S / ((refs[i][which] + refs[i + 1][which]) / 2)
            for i, wall, cpu in timed[key]
        ]

    samples = {"setup_s": scaled("setup", 0)}
    raw = {"setup_s": [s[1] for s in timed["setup"]]}
    for command in COMMANDS:
        samples[f"{command}_s"] = scaled(command, 0)
        samples[f"{command}_cpu_s"] = scaled(command, 1)
        raw[f"{command}_s"] = [s[1] for s in timed[command]]
        raw[f"{command}_cpu_s"] = [s[2] for s in timed[command]]
    raw["reference_s"] = [r[0] for r in refs]
    raw["reference_cpu_s"] = [r[1] for r in refs]
    metrics = {name: (statistics.median(v), v) for name, v in samples.items()}
    rss = [o.maxrss_mib for o in session.ops["discover"] + session.ops["compare"]]
    metrics["peak_rss_mib"] = (max(rss), rss)
    return metrics, {name: (statistics.median(v), v) for name, v in raw.items()}


def measure_layers(session: Session, seconds: float) -> tuple[Measured, Measured]:
    """Per-layer metrics from in-process runs, and no raw figures."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import protomine.cli

    if Path(protomine.__file__).resolve() != (SRC / "protomine" / "__init__.py").resolve():
        raise SetupError(f"imported protomine from {protomine.__file__}, not from {SRC}")
    fmt = session.workload.fmt
    untraced: dict[str, list[float]] = {c: [] for c in COMMANDS}
    traced: dict[str, list[spans.Recorder]] = {c: [] for c in COMMANDS}

    def run_one(command: str, recorder: spans.Recorder | None) -> float:
        out = session.out_dir(command)
        argv = cli_args(command, session.log_path, fmt, out)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            if recorder is None:
                start = perf_counter()
                rc = protomine.cli.main(argv)
                wall = perf_counter() - start
                untraced[command].append(wall)
            else:
                rc = recorder.run("protomine", lambda: protomine.cli.main(argv))
                wall = recorder.root_s
                recorder.require(command, fmt)
                traced[command].append(recorder)
        session.keep(Op(command, rc, wall, buf.getvalue(), out))
        return wall

    # traced and untraced runs interleave, so both see the same machine load
    keys = [(c, on) for c in COMMANDS for on in (False, True)]
    closed_loop(seconds, lambda key: run_one(key[0], spans.Recorder() if key[1] else None), keys)
    session.settle()
    metrics: Measured = {}
    for command in COMMANDS:
        runs = [r.metrics(command) for r in traced[command]]
        for name in runs[0]:
            values = [run[name] for run in runs]
            # counts repeat exactly; median_low keeps them whole numbers
            mid = statistics.median_low if isinstance(values[0], int) else statistics.median
            metrics[f"{command}.{name}"] = (mid(values), values)
        base = statistics.median(untraced[command])
        overhead = [r.root_s / base - 1 for r in traced[command]]
        metrics[f"{command}.trace.overhead_share"] = (statistics.median(overhead), overhead)
    return metrics, {}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    session = Session(inputs.WORKLOADS[name], seed)
    measured, raw = (measure_layers if trace else measure_e2e)(session, seconds)
    fingerprint = session.fingerprint()
    (session.work / "fingerprint.json").write_text(json.dumps(fingerprint, indent=2) + "\n")

    stats = fingerprint["input"]
    print(
        f"workload {name} seed {seed}: {stats['traces']} traces, {stats['variants']} variants, "
        f"mean variant length {stats['variant_len_mean']}, max {stats['variant_len_max']}, "
        f"{stats['format']} sha256 {stats['sha256'][:16]}"
    )
    print(f"environment: {json.dumps(environment())}")
    print(
        "load: closed loop, one client, one command at a time"
        + (" in-process (traced run)" if trace else " as a child process")
    )
    if raw:
        print(f"timings scaled to a host on which reference.py takes {REF_NOMINAL_S} s")
    for metric, (value, samples) in measured.items():
        how = "max" if metric == "peak_rss_mib" else "median"
        print(
            f"  {metric:<44} {value:>14.6f} {unit_of(metric):<6} {how} of {len(samples)}, "
            f"range {min(samples):.6g} to {max(samples):.6g}"
        )
    for metric, (value, samples) in raw.items():
        print(
            f"  {'raw ' + metric:<44} {value:>14.6f} {unit_of(metric):<6} median of {len(samples)}, "
            f"range {min(samples):.6g} to {max(samples):.6g}, unscaled"
        )
    tally = session.tally
    print(
        f"  {'error_rate':<44} {tally.failed / tally.attempted:>14.6f} ratio  "
        f"{tally.failed} of {tally.attempted} operations failed"
    )
    for failure in tally.failures[:20]:
        print(f"  FAILED: {failure}")
    print(f"fingerprint: {json.dumps(fingerprint, sort_keys=True)}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, (v, _) in measured.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # numpy's OpenBLAS starts a spinning thread per core at import, and
    # protomine calls no BLAS routine. On a shared 2-core machine those
    # threads made wall time follow the other core's load (0.90 s or 1.04 s
    # for the same 1.01 s of CPU); with one thread wall time tracks CPU time.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        preflight()
        names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except (SetupError, spans.MissingSpan) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
