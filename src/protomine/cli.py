"""Command line entry point for reproducible runs.

Commands:
  discover   run prototype selection on a log; writes model.pnml,
             prototypes.xes, report.json and history.json
  evaluate   score an existing PNML model against a log; writes report.json
  compare    prototype selection vs frequency / random / no preprocessing;
             writes compare.csv
  gen        simulate a built-in base model into a synthetic XES log

All outputs are files under --out; fixed seeds give byte-identical reruns.
Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.

Module level imports only what ``discover`` and ``compare`` call; the
other commands, gzip input and the JSON and CSV writers import their
modules where they run.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from pathlib import Path

from .conformance import (
    DEFAULT_ALIGN_BUDGET,
    DEFAULT_CLOSURE_BUDGET,
    check_beta,
    compute_report,
    f_beta,
)
from .discovery import discover
from .eventlog import CsvColumns, EventLog, LogFormatError, export_xes, parse_csv, parse_xes, variants
from .petrinet import export_pnml
from .protoselect import SelectionResult, baseline_frequency, baseline_random, select_incremental
from .tracedist import DistanceMatrix

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# the keys of builtin_models.MODELS, which only gen imports
GEN_MODELS = ("choice-parallel", "flower", "three-group", "two-group")


class UsageError(Exception):
    """Invalid configuration detected after argument parsing."""


def _message(exc: Exception) -> str:
    """The exception's message, or its type's name when the message is empty."""
    return str(exc) or type(exc).__name__


def positive_int(text: str) -> int:
    """argparse type of the iteration cap and the budgets: exits 2 below 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def beta_weight(text: str) -> float:
    """argparse type of --beta: exits 2 on a weight conformance.check_beta rejects."""
    return check_beta(float(text))


def _read_bytes(path: Path, error: type[ValueError]) -> bytes:
    """The file's bytes, gunzipped for a .gz name; a bad gzip stream raises error naming path."""
    data = path.read_bytes()
    if path.name.endswith(".gz"):
        import gzip
        import zlib

        try:
            data = gzip.decompress(data)
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
            raise error(f"{path}: unreadable gzip data ({exc})") from None
    return data


def _load_log(args: argparse.Namespace) -> EventLog:
    path = Path(args.input)
    if not path.is_file():
        raise UsageError(f"input file not found: {path}")
    fmt = args.format
    if fmt is None:
        name = path.name[:-3] if path.name.endswith(".gz") else path.name
        if name.endswith(".xes"):
            fmt = "xes"
        elif name.endswith(".csv"):
            fmt = "csv"
        else:
            raise UsageError(f"cannot infer format of {path.name}; pass --format")
    data = _read_bytes(path, LogFormatError)
    if fmt == "xes":
        return parse_xes(data)
    return parse_csv(
        data,
        CsvColumns(case_id=args.case_col, activity=args.activity_col, timestamp=args.time_col),
    )


def _check_k(args: argparse.Namespace, log: EventLog) -> None:
    if not len(log):
        raise ValueError("cannot select prototypes from an empty log")
    if args.k < 1 or args.k > len(log):
        raise UsageError(f"--k must lie in 1..{len(log)} (the log has {len(log)} variants), got {args.k}")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: object) -> None:
    import json

    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    import csv

    with path.open("w", encoding="utf-8") as handle:  # row by row, with write_text's encoding and newlines
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _dump_distances(matrix: DistanceMatrix, path: Path) -> None:
    # activities joined by spaces, a backslash escaping each backslash and
    # space inside a name, so distinct variants get distinct labels
    escape = lambda a: a.replace("\\", "\\\\").replace(" ", "\\ ")
    labels = [" ".join(map(escape, t)) for t in matrix.variant_index]
    _write_csv(path, ["variant", *labels], ([label, *matrix.row(i)] for i, label in enumerate(labels)))


def _select(args: argparse.Namespace, log: EventLog) -> SelectionResult:
    """select_incremental on the log with the run options of discover and compare."""
    return select_incremental(
        log, k=args.k, beta=args.beta, max_iterations=args.max_iter,
        align_budget=args.align_budget, closure_budget=args.lang_budget,
    )


def cmd_discover(args: argparse.Namespace) -> int:
    log = _load_log(args)
    _check_k(args, log)
    out = _out_dir(args)
    result = _select(args, log)
    if args.dump_distances:
        _dump_distances(result.distances, out / "distances.csv")
    (out / "model.pnml").write_bytes(export_pnml(result.model))
    proto_log = EventLog({t: log.count(t) for t in result.prototypes})
    with (out / "prototypes.xes").open("wb") as handle:
        export_xes(proto_log, handle)
    _write_json(out / "report.json", result.best_report._asdict())
    _write_json(out / "history.json", [{**r._asdict(), "report": r.report._asdict()} for r in result.history])
    print(
        f"selected {len(result.prototypes)} prototypes in {len(result.history)} iterations "
        f"({result.stop_reason}); artifacts in {out}"
    )
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    log = _load_log(args)
    model_path = Path(args.model)
    if not model_path.is_file():
        raise UsageError(f"model file not found: {model_path}")
    from .petrinet import parse_pnml

    net = parse_pnml(_read_bytes(model_path, ValueError))
    out = _out_dir(args)
    # no prototype set is associated with an external model: log_coverage is 0
    report = compute_report(
        log, net, [], args.beta, budget=args.align_budget, closure_budget=args.lang_budget
    )
    _write_json(out / "report.json", report._asdict())
    print(f"fitness {report.fitness:.4f}, precision {report.precision:.4f}; report in {out}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    log = _load_log(args)
    _check_k(args, log)
    out = _out_dir(args)

    rows: list[list[str]] = []
    failures: list[str] = []
    scored = []  # (net, report) for each distinct net scored so far

    def add_row(method: str, report, n: int) -> None:
        f1 = f_beta(report.precision, report.fitness, 1.0)
        scores = [f"{x:.6f}" for x in (f1, report.f_beta, report.fitness, report.precision)]
        rows.append([method, *scores, str(report.size), str(report.cardoso), str(n)])

    def score_baseline(selected):
        net = discover(EventLog({t: log.count(t) for t in selected}))
        # baselines often rediscover a net already scored (the flower of a
        # log whose variants are all kept, say); a row prints no score that
        # depends on the selection (log_coverage), so that net's report serves
        report = next((held for seen, held in scored if seen == net), None)
        if report is None:
            report = compute_report(log, net, selected, args.beta, args.align_budget, args.lang_budget)
            scored.append((net, report))
        return report

    n_selected = args.k
    try:
        result = _select(args, log)
        n_selected = len(result.prototypes)
        # the loop already scored its returned model against the whole log
        scored.append((result.model, result.best_report))
        add_row("prototypes", result.best_report, n_selected)
    except Exception as exc:  # flagged, remaining methods still run
        failures.append(f"prototypes: {_message(exc)}")

    for method, pick in (
        ("frequency", lambda: baseline_frequency(log, n_selected)),
        ("random", lambda: baseline_random(log, n_selected, args.seed)),
        ("nothing", lambda: [t for t, _ in variants(log)]),
    ):
        try:
            selected = pick()
            add_row(method, score_baseline(selected), len(selected))
        except Exception as exc:
            failures.append(f"{method}: {_message(exc)}")

    header = ["method", "f1", "f_beta", "fitness", "precision", "size", "cardoso", "n_selected"]
    _write_csv(out / "compare.csv", header, rows)

    for failure in failures:
        print(f"warning: method failed: {failure}", file=sys.stderr)
    print(f"wrote {len(rows)} method rows to {out / 'compare.csv'}")
    return EXIT_RUNTIME if failures else EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    from .builtin_models import MODELS
    from .protoselect import gen_synthetic

    if args.model not in MODELS:
        raise UsageError(f"unknown model {args.model!r}; available: {', '.join(sorted(MODELS))}")
    if not 0.0 <= args.noise <= 1.0:
        raise UsageError("--noise must lie in [0, 1]")
    if args.n < 0:
        raise UsageError("--n must be non-negative")
    out = _out_dir(args)
    net = MODELS[args.model]()
    log = gen_synthetic(net, n_traces=args.n, noise_rate=args.noise, seed=args.seed)
    with (out / "log.xes").open("wb") as handle:
        export_xes(log, handle)
    print(f"generated {log.total_traces} traces ({len(log)} variants) into {out / 'log.xes'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protomine",
        description="Prototype-based event log preprocessing for process discovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_log_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("--in", dest="input", required=True, help="input event log")
        p.add_argument("--format", choices=("xes", "csv"), help="input format (default: by extension)")
        p.add_argument("--case-col", default="case_id", help="CSV case id column")
        p.add_argument("--activity-col", default="activity", help="CSV activity column")
        p.add_argument("--time-col", default=None, help="CSV timestamp column (optional)")

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--k", type=int, default=3, help="cluster count per selection step")
        p.add_argument("--beta", type=beta_weight, default=1.0, help="F_beta weighting")
        p.add_argument("--max-iter", type=positive_int, default=20, help="selection iteration cap")

    def add_budgets(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--align-budget", type=positive_int, default=DEFAULT_ALIGN_BUDGET,
            help="alignment state budget",
        )
        p.add_argument(
            "--lang-budget", type=positive_int, default=DEFAULT_CLOSURE_BUDGET,
            help="state budget of each precision silent closure",
        )

    p = sub.add_parser("discover", help="run prototype selection and discovery")
    add_log_input(p)
    add_run_options(p)
    add_budgets(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--dump-distances", action="store_true",
        help="also write the variant distance matrix as distances.csv",
    )
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("evaluate", help="score a PNML model against a log")
    add_log_input(p)
    add_budgets(p)
    p.add_argument("--model", required=True, help="model PNML path")
    p.add_argument("--beta", type=beta_weight, default=1.0, help="F_beta weighting")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="compare selection methods on one log")
    add_log_input(p)
    add_run_options(p)
    add_budgets(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the random baseline")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen", help="generate a synthetic log from a built-in model")
    p.add_argument("--model", required=True, help=f"base model: {', '.join(GEN_MODELS)}")
    p.add_argument("--n", type=int, required=True, help="number of traces")
    p.add_argument("--noise", type=float, default=0.0, help="per-trace edit probability")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
