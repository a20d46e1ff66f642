import ast
import csv
import hashlib
import importlib
import json
import os
import random
import re
import subprocess
import sys
import tomllib
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import protomine
from protomine import (
    EventLog,
    conformance,
    discover,
    distance_matrix,
    export_pnml,
    flower_net,
    gen_synthetic,
    parse_xes,
    select_incremental,
    three_group_net,
    two_group_net,
)
from protomine import cli, petrinet
from protomine.builtin_models import MODELS, choice_parallel_net
from protomine.cli import main
from protomine.protoselect import _perturb

from .conftest import insert_delete_dp, random_trace, reference_simulate_trace, xes_bytes


@pytest.fixture
def small_log_path(tmp_path):
    log = gen_synthetic(three_group_net(), 60, 0.0, seed=1)
    path = tmp_path / "log.xes"
    path.write_bytes(xes_bytes(log))
    return path


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """gen's seed-1 two-group and flower logs, each with the artifacts of discover --dump-distances on it."""
    root = tmp_path_factory.mktemp("generated")
    for model in ("two-group", "flower"):
        out = root / model
        assert run("gen", "--model", model, "--n", "200", "--noise", "0.2", "--seed", "1", "--out", out) == 0
        assert run("discover", "--in", out / "log.xes", "--k", "2", "--dump-distances", "--out", out / "discover") == 0
    return root


def run(*argv):
    return main([str(a) for a in argv])


def read_label(label):
    """The trace of a distances.csv label: split at spaces no backslash escapes, then drop the escaping backslashes."""
    return tuple(re.sub(r"\\(.)", r"\1", a) for a in re.findall(r"(?:\\.|[^ \\])+", label))


def event_rows_csv(log):
    """The log as CSV, one (case_id, activity) row per event, each case's rows in trace order."""
    cases = (trace for trace, count in log.variants.items() for _ in range(count))
    rows = (f"{case},{activity}\n" for case, trace in enumerate(cases) for activity in trace)
    return ("case_id,activity\n" + "".join(rows)).encode()


class TestGen:
    def test_writes_requested_traces(self, tmp_path):
        out = tmp_path / "gen"
        assert run("gen", "--model", "choice-parallel", "--n", "40", "--noise", "0.05", "--seed", "7", "--out", out) == 0
        log = parse_xes((out / "log.xes").read_bytes())
        assert log.total_traces == 40

    def test_deterministic(self, tmp_path):
        first, second = tmp_path / "one", tmp_path / "two"
        for out in (first, second):
            assert run("gen", "--model", "two-group", "--n", "25", "--noise", "0.2", "--seed", "3", "--out", out) == 0
        assert (first / "log.xes").read_bytes() == (second / "log.xes").read_bytes()

    def test_matches_reference_interpreter(self, tmp_path):
        assert run("gen", "--model", "two-group", "--n", "200", "--noise", "0.2", "--seed", "3", "--out", tmp_path) == 0
        rng = random.Random(3)
        traces = []
        for _ in range(200):
            trace = reference_simulate_trace(two_group_net(), rng)
            if rng.random() < 0.2:
                trace = _perturb(trace, rng)
            traces.append(trace)
        expected = xes_bytes(EventLog.from_traces(traces))
        assert (tmp_path / "log.xes").read_bytes() == expected

    def test_unknown_model(self, tmp_path):
        assert run("gen", "--model", "nope", "--n", "1", "--out", tmp_path) == 2

    def test_invalid_noise(self, tmp_path):
        assert run("gen", "--model", "flower", "--n", "1", "--noise", "2", "--out", tmp_path) == 2

    def test_negative_trace_count(self, tmp_path, capsys):
        assert run("gen", "--model", "flower", "--n", "-1", "--out", tmp_path / "d") == 2
        assert "error: --n must be non-negative" in capsys.readouterr().err

    def test_help_lists_the_built_in_models(self, capsys):
        # the parser names the models without importing builtin_models
        assert cli.GEN_MODELS == tuple(sorted(MODELS))
        with pytest.raises(SystemExit) as info:
            run("gen", "--help")
        assert info.value.code == 0
        assert f"base model: {', '.join(sorted(MODELS))}" in " ".join(capsys.readouterr().out.split())


class TestDiscover:
    def test_writes_four_artifacts(self, small_log_path, tmp_path):
        out = tmp_path / "run1"
        assert run("discover", "--in", small_log_path, "--k", "2", "--beta", "1.0", "--out", out) == 0
        for name in ("model.pnml", "prototypes.xes", "report.json", "history.json"):
            assert (out / name).is_file(), name
        history = json.loads((out / "history.json").read_text())
        assert history[0]["iteration"] == 1
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {
            "fitness", "precision", "f_beta", "beta", "size", "cardoso",
            "log_coverage", "model_trace_coverage",
        }

    @pytest.mark.parametrize("command", ["discover", "evaluate", "compare"])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "1e200"])
    def test_negative_beta_is_usage_error(self, small_log_path, tmp_path, capsys, command, value):
        # a NaN, infinite or overflowing square makes every F_beta NaN, and the stop rule never fires
        model = ["--model", tmp_path / "model.pnml"] if command == "evaluate" else []
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as info:
            run(command, "--in", small_log_path, *model, "--beta", value, "--out", out)
        assert info.value.code == 2
        assert f"argument --beta: invalid beta_weight value: '{value}'" in capsys.readouterr().err
        assert not out.exists()  # rejected before any work

    def test_k_bound_validated(self, small_log_path, tmp_path):
        code = run("discover", "--in", small_log_path, "--k", "10", "--out", tmp_path)
        assert code == 2

    def test_missing_input(self, tmp_path):
        assert run("discover", "--in", tmp_path / "absent.xes", "--out", tmp_path) == 2

    def test_empty_log_is_runtime_error_naming_it(self, tmp_path, capsys):
        log_path = tmp_path / "empty.xes"
        log_path.write_bytes(b"<log></log>")
        assert run("discover", "--in", log_path, "--out", tmp_path / "d") == 1
        err = capsys.readouterr().err
        assert "empty log" in err and "--k" not in err

    def test_malformed_xes_is_runtime_error(self, tmp_path, capsys):
        log_path = tmp_path / "bad.xes"
        log_path.write_bytes(b"<log><trace>")
        assert run("discover", "--in", log_path, "--out", tmp_path / "d") == 1
        assert "malformed XES" in capsys.readouterr().err

    def test_exception_without_message_is_named_by_its_type(self, small_log_path, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "select_incremental", fail)
        assert run("discover", "--in", small_log_path, "--k", "2", "--out", tmp_path / "d") == 1
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_unknown_miner(self, small_log_path, tmp_path, capsys):
        # there is one miner and no option to choose it
        with pytest.raises(SystemExit) as info:
            run("discover", "--in", small_log_path, "--miner", "ilp", "--out", tmp_path)
        assert info.value.code == 2
        assert "unrecognized arguments: --miner ilp" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-iter", "--align-budget", "--lang-budget"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_flags_below_one_are_usage_errors(self, small_log_path, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as info:
            run("discover", "--in", small_log_path, "--k", "2", flag, value, "--out", out)
        assert info.value.code == 2
        assert f"argument {flag}: must be at least 1, got {value}" in capsys.readouterr().err
        assert not out.exists()  # rejected before any work

    def test_distance_dump(self, small_log_path, tmp_path):
        out = tmp_path / "run"
        assert run("discover", "--in", small_log_path, "--k", "1", "--dump-distances", "--out", out) == 0
        lines = (out / "distances.csv").read_text().strip().splitlines()
        assert lines[0].startswith("variant,")
        assert len(lines) == len(lines[0].split(","))  # square plus labels

    def test_distance_dump_labels_are_distinct(self, tmp_path):
        # activities holding spaces or backslashes are escaped, so "a b"
        # alone and "a" then "b" get different labels
        log = EventLog({("a b",): 3, ("a", "b"): 2, ("c\\", "d\\ e"): 1, (): 1})
        log_path, out = tmp_path / "log.xes", tmp_path / "run"
        log_path.write_bytes(xes_bytes(log))
        assert run("discover", "--in", log_path, "--k", "1", "--dump-distances", "--out", out) == 0
        with open(out / "distances.csv", newline="") as handle:
            header, *rows = csv.reader(handle)
        labels = [read_label(label) for label in header[1:]]
        assert labels == [read_label(row[0]) for row in rows]
        assert tuple(labels) == select_incremental(log, k=1).distances.variant_index
        assert header[1:].count("a b") == 1 and r"a\ b" in header

    def test_distance_dump_entries_equal_the_insert_delete_dp(self, generated):
        # the flower log's variants take packed-kernel segments of 1, 2 and
        # 3 bytes, so this pins that kernel and the rows read back from the
        # packed store end to end
        for model in ("two-group", "flower"):
            with open(generated / model / "discover" / "distances.csv", newline="") as handle:
                header, *rows = csv.reader(handle)
            traces = [read_label(label) for label in header[1:]]
            assert len(set(traces)) == len(traces) == len(rows) > 1
            if model == "flower":
                assert {len(t) // 8 + 1 for t in traces} == {1, 2, 3}  # the property this log exercises
            for a, row in zip(traces, rows):
                assert read_label(row[0]) == a
                assert [int(d) for d in row[1:]] == [insert_delete_dp(a, b) for b in traces], (model, a)

    def test_model_is_the_miners_net_over_the_written_prototypes(self, generated):
        out = generated / "two-group" / "discover"
        prototypes = parse_xes((out / "prototypes.xes").read_bytes())
        assert export_pnml(discover(prototypes)) == (out / "model.pnml").read_bytes()

    def test_distance_dump_builds_the_matrix_once(self, small_log_path, tmp_path, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__module__)
                return fn(*args, **kwargs)
            return wrapper

        # every protomine module binding the name, so a second import is counted too
        for name, module in list(sys.modules.items()):
            if name.startswith("protomine") and hasattr(module, "distance_matrix"):
                monkeypatch.setattr(module, "distance_matrix", counted(module.distance_matrix))
        out = tmp_path / "run"
        assert run("discover", "--in", small_log_path, "--k", "2", "--dump-distances", "--out", out) == 0
        assert len(calls) == 1
        assert (out / "distances.csv").is_file()

    def test_distance_dump_streams_its_rows(self, tmp_path):
        # one row is in memory at a time, plus the csv module's fixed
        # 128 KiB record buffer, so the peak stays well below the file
        rng = random.Random(800)
        found = set()
        while len(found) < 800:
            found.add(random_trace(rng, "abcd", 12))
        matrix, path = distance_matrix(sorted(found)), tmp_path / "distances.csv"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cli._dump_distances(matrix, path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4
        with open(path, newline="") as handle:
            rows = [[int(d) for d in row[1:]] for row in list(csv.reader(handle))[1:]]
        assert rows == [matrix.row(i).tolist() for i in range(len(found))]

    def test_deterministic_outputs(self, small_log_path, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert run("discover", "--in", small_log_path, "--k", "2", "--out", out) == 0
        for name in ("model.pnml", "prototypes.xes", "report.json", "history.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestEvaluate:
    def test_fitting_model_scores_one(self, small_log_path, tmp_path):
        model_path = tmp_path / "model.pnml"
        model_path.write_bytes(export_pnml(three_group_net()))
        out = tmp_path / "eval"
        assert run("evaluate", "--in", small_log_path, "--model", model_path, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fitness"] == 1.0

    def test_partial_fitness_value(self, tmp_path):
        log_path = tmp_path / "log.xes"
        log_path.write_bytes(xes_bytes(parse_xes(
            b'<log><trace>'
            b'<event><string key="concept:name" value="a"/></event>'
            b'<event><string key="concept:name" value="e"/></event>'
            b'</trace></log>'
        )))
        model_path = tmp_path / "model.pnml"
        model_path.write_bytes(export_pnml(choice_parallel_net()))
        out = tmp_path / "eval"
        assert run("evaluate", "--in", log_path, "--model", model_path, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fitness"] == pytest.approx(2 / 3)

    def test_discovered_model_scores_as_discover_reported(self, generated, tmp_path):
        # the net read back from model.pnml scores as the one discover wrote;
        # only log_coverage differs, as evaluate has no prototypes
        root = generated / "two-group"
        model = root / "discover" / "model.pnml"
        assert run("evaluate", "--in", root / "log.xes", "--model", model, "--out", tmp_path) == 0
        reports = [json.loads((out / "report.json").read_text()) for out in (root / "discover", tmp_path)]
        for report in reports:
            del report["log_coverage"]
        assert reports[0] == reports[1]

    def test_lang_budget_bounds_each_silent_closure(self, generated, tmp_path, capsys):
        # the closure after [a] holds two markings: a budget of 1 fails naming
        # that prefix, and a budget of 2 scores the net as the default does
        root = generated / "two-group"

        def evaluate(out, *budget):
            model = root / "discover" / "model.pnml"
            return run("evaluate", "--in", root / "log.xes", "--model", model, *budget, "--out", tmp_path / out)

        assert evaluate("1", "--lang-budget", "1") == 1
        assert capsys.readouterr().err == (
            "error: silent closure after prefix [a] (1 events) exceeded its state budget of 1\n"
        )
        assert evaluate("2", "--lang-budget", "2") == 0
        assert evaluate("default") == 0
        assert (tmp_path / "2" / "report.json").read_bytes() == (tmp_path / "default" / "report.json").read_bytes()

    def test_align_budget_overrun_is_runtime_error_naming_the_trace(self, generated, tmp_path, capsys):
        # the joint search overruns, and the per-trace searches that replace
        # it name the first sorted variant over the budget
        root = generated / "two-group"
        model = root / "discover" / "model.pnml"
        assert run("evaluate", "--in", root / "log.xes", "--model", model, "--align-budget", "1", "--out", tmp_path) == 1
        assert capsys.readouterr().err == (
            "error: alignment search of trace [] (0 events) exceeded its state budget of 1\n"
        )
        assert not (tmp_path / "report.json").exists()

    def test_missing_model_file(self, small_log_path, tmp_path):
        assert run("evaluate", "--in", small_log_path, "--model", tmp_path / "no.pnml", "--out", tmp_path) == 2

    def test_empty_log_is_runtime_error_naming_it(self, tmp_path, capsys):
        log_path = tmp_path / "empty.xes"
        log_path.write_bytes(b"<log></log>")
        model_path = tmp_path / "model.pnml"
        model_path.write_bytes(export_pnml(choice_parallel_net()))
        assert run("evaluate", "--in", log_path, "--model", model_path, "--out", tmp_path) == 1
        assert "empty log" in capsys.readouterr().err

    def test_invalid_pnml_is_runtime_error(self, small_log_path, tmp_path):
        bad = tmp_path / "bad.pnml"
        bad.write_bytes(b"definitely not pnml")
        assert run("evaluate", "--in", small_log_path, "--model", bad, "--out", tmp_path) == 1

    def test_non_integer_marking_is_runtime_error_naming_the_place(self, small_log_path, tmp_path, capsys):
        bad = tmp_path / "bad.pnml"
        bad.write_bytes(b'<net><place id="p"><initialMarking><text>1.5</text></initialMarking></place></net>')
        assert run("evaluate", "--in", small_log_path, "--model", bad, "--out", tmp_path) == 1
        assert "initial marking of place 'p' is not an integer" in capsys.readouterr().err

    def test_final_place_without_idref_is_runtime_error(self, small_log_path, tmp_path, capsys):
        bad = tmp_path / "bad.pnml"
        bad.write_bytes(b"<net><place id='p'/><finalmarkings><marking><place/></marking></finalmarkings></net>")
        assert run("evaluate", "--in", small_log_path, "--model", bad, "--out", tmp_path) == 1
        assert "final marking <place> without idref" in capsys.readouterr().err


class TestCompare:
    def test_failed_method_is_left_out_and_named(self, tmp_path, capsys):
        # the random baseline's prototypes discover a net on which one
        # alignment overruns this budget; the other methods still score
        assert run("gen", "--model", "two-group", "--n", "100", "--noise", "0.2", "--seed", "1",
                   "--out", tmp_path) == 0
        capsys.readouterr()
        out = tmp_path / "cmp"
        assert run("compare", "--in", tmp_path / "log.xes", "--k", "2", "--align-budget", "40", "--out", out) == 1
        with open(out / "compare.csv", newline="") as handle:
            assert [row["method"] for row in csv.DictReader(handle)] == ["prototypes", "frequency", "nothing"]
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1 and warnings[0].startswith("warning: method failed: random: "), warnings

    def test_exception_without_message_is_named_by_its_type(self, small_log_path, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "select_incremental", fail)
        assert run("compare", "--in", small_log_path, "--k", "2", "--out", tmp_path / "cmp") == 1
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert warnings == ["warning: method failed: prototypes: MemoryError"]
        # with no prototypes, the frequency and random baselines keep --k variants
        with open(tmp_path / "cmp" / "compare.csv", newline="") as handle:
            selected = {row["method"]: row["n_selected"] for row in csv.DictReader(handle)}
        assert selected["frequency"] == selected["random"] == "2"

    def test_align_budget_overrun_fails_every_method(self, generated, tmp_path, capsys):
        # a search that overruns keeps nothing on the net, so with a budget
        # every search overruns, each method reports its own failure naming
        # a trace, and compare.csv holds only the header
        log_path, out = generated / "flower" / "log.xes", tmp_path / "cmp"
        assert run("compare", "--in", log_path, "--k", "2", "--align-budget", "1", "--out", out) == 1
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 4
        for method, warning in zip(("prototypes", "frequency", "random", "nothing"), warnings):
            assert warning.startswith(f"warning: method failed: {method}: "), warning
            assert "alignment search of trace [" in warning, warning
        assert (out / "compare.csv").read_text() == "method,f1,f_beta,fitness,precision,size,cardoso,n_selected\n"

    def test_four_method_rows(self, tmp_path):
        log_path = tmp_path / "noisy.xes"
        log = gen_synthetic(two_group_net(), 120, 0.1, seed=2)
        log_path.write_bytes(xes_bytes(log))
        out = tmp_path / "cmp"
        assert run("compare", "--in", log_path, "--k", "2", "--out", out) == 0
        lines = (out / "compare.csv").read_text().strip().splitlines()
        assert lines[0] == "method,f1,f_beta,fitness,precision,size,cardoso,n_selected"
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == ["prototypes", "frequency", "random", "nothing"]

    def test_noise_free_log_all_methods_fit(self, small_log_path, tmp_path):
        out = tmp_path / "cmp"
        assert run("compare", "--in", small_log_path, "--k", "3", "--out", out) == 0
        lines = (out / "compare.csv").read_text().strip().splitlines()
        for line in lines[1:]:
            fitness = float(line.split(",")[3])
            assert fitness == pytest.approx(1.0)

    def test_empty_log_is_runtime_error_naming_it(self, tmp_path, capsys):
        log_path = tmp_path / "empty.xes"
        log_path.write_bytes(b"<log></log>")
        assert run("compare", "--in", log_path, "--out", tmp_path / "c") == 1
        err = capsys.readouterr().err
        assert "empty log" in err and "--k" not in err
        assert not (tmp_path / "c" / "compare.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        log_path = tmp_path / "noisy.xes"
        log = gen_synthetic(two_group_net(), 80, 0.15, seed=6)
        log_path.write_bytes(xes_bytes(log))
        first, second = tmp_path / "c1", tmp_path / "c2"
        for out in (first, second):
            assert run("compare", "--in", log_path, "--k", "2", "--seed", "4", "--out", out) == 0
        assert (first / "compare.csv").read_bytes() == (second / "compare.csv").read_bytes()

    def test_each_distinct_net_is_scored_once(self, tmp_path, monkeypatch):
        # on this flower log the random and nothing baselines rediscover the selected model
        log = gen_synthetic(flower_net("abc"), 150, 0.2, seed=1)
        log_path = tmp_path / "flower.xes"
        log_path.write_bytes(xes_bytes(log))
        nets, selections = [], []  # the selected model, then each baseline's net and prototypes
        aligned, built = [], []  # the nets of each full-log search and of each CompiledNet built
        loop_aligned = []  # the full-log searches made by the selection loop
        scored = []  # the nets cmd_compare passes to compute_report
        discover, search, compile_net = cli.discover, conformance._align_trie, petrinet.CompiledNet.__init__
        score = cli.compute_report

        def select(*args, **kwargs):
            result = select_incremental(*args, **kwargs)
            loop_aligned.extend(aligned)
            aligned.clear()
            built.clear()
            nets.append(result.model)
            return result

        def rediscover(prototype_log):
            nets.append(discover(prototype_log))
            selections.append(list(prototype_log.variants))
            return nets[-1]

        def counted_search(trie, net, budget):
            if list(trie.traces) == sorted(log.variants):  # every variant, not the shortest word
                aligned.append(net)
            return search(trie, net, budget)

        def counted_build(compiled, net):
            built.append(net)
            compile_net(compiled, net)

        def counted_score(whole_log, net, *args):
            scored.append(net)
            return score(whole_log, net, *args)

        monkeypatch.setattr(conformance, "_align_trie", counted_search)
        monkeypatch.setattr(petrinet.CompiledNet, "__init__", counted_build)
        monkeypatch.setattr(cli, "select_incremental", select)
        monkeypatch.setattr(cli, "discover", rediscover)
        monkeypatch.setattr(cli, "compute_report", counted_score)
        assert run("compare", "--in", log_path, "--k", "2", "--out", tmp_path / "c") == 0
        distinct = []
        for net in nets:
            if net not in distinct:
                distinct.append(net)
        assert len(nets) == 4 and len(distinct) < len(nets)  # the property this log exercises
        assert loop_aligned
        # the model's report is reused; every other distinct net is
        # compiled, aligned and scored once, and a baseline equal to a
        # scored net gets that net's report
        assert [id(net) for net in scored] == [id(net) for net in distinct[1:]]
        assert [id(net) for net in aligned] == [id(net) for net in distinct[1:]]
        assert [id(net) for net in built] == [id(net) for net in distinct[1:]]
        # a reused row prints what a fresh score of the baseline's own net prints
        with open(tmp_path / "c" / "compare.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["method"] for row in rows] == ["prototypes", "frequency", "random", "nothing"]
        reused = [i for i, net in enumerate(nets) if i and net in nets[:i]]
        assert reused
        for i in reused:
            fresh = score(log, nets[i], selections[i - 1], 1.0)
            f1 = conformance.f_beta(fresh.precision, fresh.fitness, 1.0)
            printed = [f"{x:.6f}" for x in (f1, fresh.f_beta, fresh.fitness, fresh.precision)]
            printed += [str(fresh.size), str(fresh.cardoso)]
            keys = ("f1", "f_beta", "fitness", "precision", "size", "cardoso")
            assert [rows[i][key] for key in keys] == printed, rows[i]["method"]

    def test_prototypes_row_matches_discover_report(self, tmp_path):
        log_path = tmp_path / "noisy.xes"
        log_path.write_bytes(xes_bytes(gen_synthetic(two_group_net(), 120, 0.1, seed=2)))
        assert run("discover", "--in", log_path, "--k", "2", "--out", tmp_path / "d") == 0
        assert run("compare", "--in", log_path, "--k", "2", "--out", tmp_path / "c") == 0
        report = json.loads((tmp_path / "d" / "report.json").read_text())
        with open(tmp_path / "c" / "compare.csv", newline="") as handle:
            row = next(r for r in csv.DictReader(handle) if r["method"] == "prototypes")
        for key in ("fitness", "precision", "f_beta"):
            assert row[key] == f"{report[key]:.6f}", key


class TestCsvInput:
    def test_unknown_extension_without_format_is_usage_error(self, tmp_path, capsys):
        log_path = tmp_path / "log.txt"
        log_path.write_text("case_id,activity\n1,a\n")
        assert run("discover", "--in", log_path, "--out", tmp_path / "run") == 2
        assert "cannot infer format of log.txt; pass --format" in capsys.readouterr().err
        assert run("discover", "--in", log_path, "--format", "csv", "--k", "1", "--out", tmp_path / "run") == 0

    def test_csv_with_columns(self, tmp_path):
        csv_path = tmp_path / "events.csv"
        csv_path.write_text("case_id,activity\n1,a\n1,b\n2,a\n2,b\n")
        out = tmp_path / "run"
        assert run("discover", "--in", csv_path, "--k", "1", "--out", out) == 0
        assert (out / "model.pnml").is_file()

    def test_csv_rows_give_the_xes_runs_artifacts(self, generated, tmp_path):
        # the CSV reader feeds the loop the variant table the XES reader
        # does, from rows in trace order, and from shuffled rows that it
        # groups by case and sorts by --time-col; an empty trace has no row,
        # so the XES side leaves it out too
        log = parse_xes((generated / "two-group" / "log.xes").read_bytes())
        log = EventLog({trace: count for trace, count in log.variants.items() if trace})
        rng, timed = random.Random(1), []
        cases = (trace for trace, count in log.variants.items() for _ in range(count))
        for case, trace in enumerate(cases):
            instant = datetime(2024, 1, 1, tzinfo=timezone.utc) + timedelta(seconds=rng.randrange(10**6))
            for activity in trace:
                instant += timedelta(seconds=rng.randint(1, 3600))  # strictly increasing within a case
                timed.append([f"case-{case}", activity, instant.strftime("%Y-%m-%dT%H:%M:%SZ")])
        rng.shuffle(timed)
        with open(tmp_path / "shuffled.csv", "w", newline="") as handle:
            writer = csv.writer(handle)  # ends lines in CRLF, as Excel does
            writer.writerow(["case_id", "activity", "timestamp"])
            writer.writerows(timed)
        crlf = (tmp_path / "shuffled.csv").read_bytes()
        assert crlf.count(b"\r\n") == crlf.count(b"\n") > 1
        (tmp_path / "shuffled-lf.csv").write_bytes(crlf.replace(b"\r\n", b"\n"))
        (tmp_path / "ordered.csv").write_bytes(event_rows_csv(log))
        (tmp_path / "log.xes").write_bytes(xes_bytes(log))

        def artifacts(name, *options):
            path, out = tmp_path / name, tmp_path / f"run-{name}"
            assert run("discover", "--in", path, *options, "--k", "2", "--dump-distances", "--out", out) == 0
            assert run("compare", "--in", path, *options, "--k", "2", "--out", out) == 0
            names = ("report.json", "history.json", "model.pnml", "prototypes.xes", "distances.csv", "compare.csv")
            return {artifact: (out / artifact).read_bytes() for artifact in names}

        expected = artifacts("log.xes")
        for name, options in (
            ("ordered.csv", ()),
            ("shuffled.csv", ("--time-col", "timestamp")),
            ("shuffled-lf.csv", ("--time-col", "timestamp")),
        ):
            for artifact, data in artifacts(name, *options).items():
                assert data == expected[artifact], (name, artifact)

    def test_label_xml_cannot_hold_is_runtime_error_naming_the_row(self, tmp_path, capsys):
        # the label would be written into a prototypes.xes that evaluate rejects
        csv_path = tmp_path / "events.csv"
        csv_path.write_bytes(b"case_id,activity\n1,a\x01b\n")
        assert run("discover", "--in", csv_path, "--k", "1", "--out", tmp_path / "run") == 1
        assert "row 2: activity 'a\\x01b' holds a character XML 1.0 forbids" in capsys.readouterr().err

    def test_carriage_return_label_survives_discover_then_evaluate(self, tmp_path):
        # the discovered model.pnml must hold the label "a\rb", not "a\nb"
        csv_path = tmp_path / "events.csv"
        csv_path.write_bytes(b'case_id,activity\n1,"a\rb"\n1,c\n2,"a\rb"\n')
        out = tmp_path / "run"
        assert run("discover", "--in", csv_path, "--k", "1", "--out", out) == 0
        assert json.loads((out / "report.json").read_text())["fitness"] == 1.0
        assert run("evaluate", "--in", csv_path, "--model", out / "model.pnml", "--out", tmp_path / "eval") == 0
        assert json.loads((tmp_path / "eval" / "report.json").read_text())["fitness"] == 1.0

    def test_missing_case_column_is_runtime_error(self, tmp_path, capsys):
        csv_path = tmp_path / "events.csv"
        csv_path.write_text("id,activity\n1,a\n")
        assert run("discover", "--in", csv_path, "--case-col", "case", "--out", tmp_path / "run") == 1
        assert "mapped column 'case' not present" in capsys.readouterr().err

    def test_duplicate_mapped_column_is_runtime_error(self, tmp_path, capsys):
        csv_path = tmp_path / "events.csv"
        csv_path.write_text("case_id,activity,case_id\n1,a,2\n1,b,3\n")
        assert run("discover", "--in", csv_path, "--k", "1", "--out", tmp_path / "run") == 1
        assert "mapped column 'case_id' named 2 times in CSV header" in capsys.readouterr().err


class TestPipelines:
    def test_gen_then_evaluate_closes_the_loop(self, tmp_path):
        # a noise-free synthetic log scores a perfect fit on its base model
        data = tmp_path / "data"
        assert run("gen", "--model", "choice-parallel", "--n", "30", "--noise", "0", "--seed", "2", "--out", data) == 0
        model_path = tmp_path / "base.pnml"
        model_path.write_bytes(export_pnml(choice_parallel_net()))
        out = tmp_path / "eval"
        assert run("evaluate", "--in", data / "log.xes", "--model", model_path, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fitness"] == 1.0
        assert report["model_trace_coverage"] == 1.0

    def test_cli_import_loads_no_third_party_module(self):
        # what importing the CLI adds to sys.modules from site-packages, protomine aside
        code = (
            "import sys, sysconfig\n"
            "before = set(sys.modules)\n"
            "import protomine.cli\n"
            "site = tuple({sysconfig.get_paths()[key] for key in ('purelib', 'platlib')})\n"
            "print(sorted(name for name in set(sys.modules) - before if not name.startswith('protomine')"
            " and (getattr(sys.modules[name], '__file__', None) or '').startswith(site)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(protomine.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_cli_import_loads_no_dataclasses_or_fractions(self):
        # dataclasses brings inspect and its generated code, fractions brings
        # decimal: a start-up cost every command would pay; json, gzip,
        # datetime, csv and xml.etree serve only some commands, which import
        # them where they run. Measured from what the import adds under -S,
        # so nothing a site hook preloads hides a module
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import protomine.cli\n"
            "costly = {'dataclasses', 'inspect', 'fractions', 'decimal', 'json', 'gzip', 'datetime', 'csv'}\n"
            "print(sorted(n for n in set(sys.modules) - before"
            " if n.split('.')[0] in costly or n.startswith('xml.etree')))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(protomine.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_gzipped_xes_input(self, tmp_path):
        # a gzipped log, XES or CSV, reads as the plain one: the same artifacts, byte for byte
        import gzip

        log = gen_synthetic(three_group_net(), 20, 0.0, seed=9)
        artifacts = ("report.json", "history.json", "model.pnml", "prototypes.xes")
        for name, data in (("log.xes", xes_bytes(log)), ("log.csv", event_rows_csv(log))):
            runs = []
            for path, content in ((tmp_path / name, data), (tmp_path / f"{name}.gz", gzip.compress(data))):
                path.write_bytes(content)
                out = tmp_path / f"run-{path.name}"
                assert run("discover", "--in", path, "--k", "2", "--out", out) == 0
                runs.append({artifact: (out / artifact).read_bytes() for artifact in artifacts})
            assert runs[0] == runs[1], name

    def test_gzipped_model_input(self, tmp_path):
        # evaluate reads a gzipped model as the plain one: the same report.json, byte for byte
        import gzip

        log_path = tmp_path / "log.xes"
        log_path.write_bytes(xes_bytes(gen_synthetic(choice_parallel_net(), 30, 0.3, seed=2)))
        pnml = export_pnml(choice_parallel_net())
        reports = []
        for path, content in ((tmp_path / "model.pnml", pnml), (tmp_path / "model.pnml.gz", gzip.compress(pnml))):
            path.write_bytes(content)
            out = tmp_path / f"eval-{path.name}"
            assert run("evaluate", "--in", log_path, "--model", path, "--out", out) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["fitness"] < 1.0  # the noisy log deviates from the model

    @pytest.mark.parametrize(
        "damage, reason",
        [
            (lambda packed: packed[:-12], "end-of-stream marker"),  # cut inside the deflate stream
            (lambda packed: packed[:-8] + bytes(b ^ 0xFF for b in packed[-8:-4]) + packed[-4:], "CRC check failed"),
        ],
        ids=["truncated", "crc-corrupt"],
    )
    def test_damaged_gzip_is_runtime_error_naming_the_file(self, tmp_path, capsys, damage, reason):
        import gzip

        log = gen_synthetic(three_group_net(), 20, 0.0, seed=9)
        log_path = tmp_path / "log.xes.gz"
        log_path.write_bytes(damage(gzip.compress(xes_bytes(log))))
        assert run("discover", "--in", log_path, "--k", "1", "--out", tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert f"error: {log_path}: unreadable gzip data (" in err and reason in err
        model_path = tmp_path / "model.pnml.gz"
        model_path.write_bytes(damage(gzip.compress(export_pnml(three_group_net()))))
        plain_log = tmp_path / "log.xes"
        plain_log.write_bytes(xes_bytes(log))
        assert run("evaluate", "--in", plain_log, "--model", model_path, "--out", tmp_path / "eval") == 1
        err = capsys.readouterr().err
        assert f"error: {model_path}: unreadable gzip data (" in err and reason in err


# runs the CLI as ``python -m protomine.cli`` does and prints, last, the
# modules that the run added to sys.modules; -S keeps what a host's site
# hooks import out of the way, and protomine needs only the standard library
LOADED_BY_RUN = """
import runpy, sys
before = set(sys.modules)
sys.argv = ["protomine", *sys.argv[1:]]
try:
    runpy.run_module("protomine.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(sorted(set(sys.modules) - before))
"""


def modules_loaded(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(protomine.__file__).parents[1])}
    command = [sys.executable, "-S", "-c", LOADED_BY_RUN, *map(str, argv)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True, timeout=120)
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))


class TestLoadedModules:
    # a command loads only what it runs: start-up is paid by every command
    NEVER_IN_DISCOVER = {"xml.etree.ElementTree", "datetime", "gzip", "protomine.builtin_models"}

    def test_discover_and_compare_load_only_what_they_run(self, small_log_path, tmp_path):
        loaded = modules_loaded("discover", "--in", small_log_path, "--k", "2", "--out", tmp_path / "d")
        assert "protomine.discovery" in loaded  # the check sees the command's own imports
        assert not (self.NEVER_IN_DISCOVER | {"csv"}) & loaded  # csv writes only distances.csv here
        loaded = modules_loaded("compare", "--in", small_log_path, "--k", "2", "--out", tmp_path / "c")
        assert not (self.NEVER_IN_DISCOVER | {"json"}) & loaded

    def test_evaluate_and_gen_load_their_own_modules(self, small_log_path, tmp_path):
        model = tmp_path / "model.pnml"
        model.write_bytes(export_pnml(three_group_net()))
        loaded = modules_loaded("evaluate", "--in", small_log_path, "--model", model, "--out", tmp_path / "e")
        assert "xml.etree.ElementTree" in loaded
        loaded = modules_loaded("gen", "--model", "flower", "--n", "5", "--out", tmp_path / "g")
        assert "protomine.builtin_models" in loaded

    def test_importing_the_package_loads_no_submodule(self):
        code = "import sys; import protomine; print(sorted(n for n in sys.modules if n.startswith('protomine.')))"
        env = {**os.environ, "PYTHONPATH": str(Path(protomine.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"


class TestConsoleScript:
    def test_protomine_script_is_cli_main(self):
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        module, _, name = scripts["protomine"].partition(":")
        assert getattr(importlib.import_module(module), name) is cli.main


class TestLazyExports:
    def test_every_name_is_its_defining_modules_object(self):
        for name in protomine.__all__:
            module = importlib.import_module(f"protomine.{protomine._MODULE_OF[name]}")
            value = getattr(protomine, name)
            assert value is getattr(module, name), name
            assert vars(protomine)[name] is value  # cached after the first access
            if getattr(value, "__qualname__", None) == name:  # a function or class
                assert value.__module__ == module.__name__, name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from protomine import *", namespace)
        assert all(namespace[name] is getattr(protomine, name) for name in protomine.__all__)

    def test_dir_lists_every_name(self):
        assert set(protomine.__all__) <= set(dir(protomine))

    def test_unknown_name_raises_naming_the_package(self):
        with pytest.raises(AttributeError, match="^module 'protomine' has no attribute 'language_upto'$"):
            protomine.language_upto


# sha256 of every artifact of the golden runs below. A change that alters
# artifact bytes on purpose updates this table and says so in CHANGES.md.
GOLDEN_ARTIFACTS = {
    "flower/compare/compare.csv": "59a716c90575587521800d20d75a95d706fa7dd9a127bd8f2ca4c6c01f64c771",
    "flower/discover/distances.csv": "6bec1c083c1ee4aa4df0bcaf3e36fb814888f93639b796ca838209f4d0c29686",
    "flower/discover/history.json": "6863679b9bfc5f11dc6223724d977bc5a1a14465b0f1e8be9f5ec44d8a83f94f",
    "flower/discover/model.pnml": "f52d2e76a5fa147798cf4996090c52f832970357a796986ffec1203de6190a8d",
    "flower/discover/prototypes.xes": "2942eec002b559dc1e109892036519cb83ed63ba87cd5ad022be5d16cf8a6cd4",
    "flower/discover/report.json": "54fcf42e0812819857401a26487e51405b449c4273d981577b62b8ddf3a3f043",
    "flower/log.xes": "b520e6fee1d1e2ad5c73f5f2f63ac41851b6a7d0668bd9403549859f10d20f15",
    "two-group/compare/compare.csv": "948a56f1591177b5ffcfe9c778511e5291fa1c944de5ed28dae76568c61f0eef",
    "two-group/discover/distances.csv": "74341d126114a2330fd20fc0509b0957a3941dba9265f11bd0baf8453ea7ff6f",
    "two-group/discover/history.json": "fe44555cb9ec57c966cfc49757839260dab2942045da7502213dfefba8a2f6a4",
    "two-group/discover/model.pnml": "0786582db79b39d582938925f78c3e89a38fb6d85a8d8244013b5334045a0032",
    "two-group/discover/prototypes.xes": "2412e36eb43e83c8f6f2cc6a8d1a62a00bc9d9d39e6f881305a953f49ba2b6f1",
    "two-group/discover/report.json": "cc8f7c0259580eaaa9e715e4e5b2ccb8f8ad073c30b85a07b53e0a21374ad637",
    "two-group/log.xes": "233a393a1785e854e84f7a4701f3242d6fe808731b5e2cff4c4c2e87bde1bff8",
}


class TestGoldenArtifacts:
    def test_artifacts_match_the_golden_table_under_two_hash_seeds(self, tmp_path):
        for hash_seed in ("1", "2"):
            root = tmp_path / hash_seed
            env = {**os.environ, "PYTHONPATH": str(Path(protomine.__file__).parents[1]), "PYTHONHASHSEED": hash_seed}

            def cli(*argv):
                command = [sys.executable, "-m", "protomine.cli", *map(str, argv)]
                subprocess.run(command, env=env, capture_output=True, check=True, timeout=120)

            for model in ("two-group", "flower"):
                out = root / model
                cli("gen", "--model", model, "--n", "300", "--noise", "0.2", "--seed", "1", "--out", out)
                cli("discover", "--in", out / "log.xes", "--k", "2", "--dump-distances", "--out", out / "discover")
                cli("compare", "--in", out / "log.xes", "--k", "2", "--seed", "3", "--out", out / "compare")
            hashes = {
                path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(root.rglob("*"))
                if path.is_file()
            }
            assert hashes == GOLDEN_ARTIFACTS, f"PYTHONHASHSEED={hash_seed}"
