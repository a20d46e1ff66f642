import csv
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import protomine
from protomine import (
    EventLog,
    conformance,
    export_pnml,
    export_xes,
    flower_net,
    gen_synthetic,
    parse_xes,
    select_incremental,
    three_group_net,
    two_group_net,
)
from protomine import cli, protoselect
from protomine.builtin_models import choice_parallel_net
from protomine.cli import main
from protomine.protoselect import _perturb

from .conftest import reference_simulate_trace


@pytest.fixture
def small_log_path(tmp_path):
    log = gen_synthetic(three_group_net(), 60, 0.0, seed=1)
    path = tmp_path / "log.xes"
    path.write_bytes(export_xes(log))
    return path


def run(*argv):
    return main([str(a) for a in argv])


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
        expected = export_xes(EventLog.from_traces(traces))
        assert (tmp_path / "log.xes").read_bytes() == expected

    def test_unknown_model(self, tmp_path):
        assert run("gen", "--model", "nope", "--n", "1", "--out", tmp_path) == 2

    def test_invalid_noise(self, tmp_path):
        assert run("gen", "--model", "flower", "--n", "1", "--noise", "2", "--out", tmp_path) == 2


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
        log_path.write_bytes(export_xes(parse_xes(
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


class TestCompare:
    def test_four_method_rows(self, tmp_path):
        log_path = tmp_path / "noisy.xes"
        log = gen_synthetic(two_group_net(), 120, 0.1, seed=2)
        log_path.write_bytes(export_xes(log))
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
        log_path.write_bytes(export_xes(log))
        first, second = tmp_path / "c1", tmp_path / "c2"
        for out in (first, second):
            assert run("compare", "--in", log_path, "--k", "2", "--seed", "4", "--out", out) == 0
        assert (first / "compare.csv").read_bytes() == (second / "compare.csv").read_bytes()

    def test_each_distinct_net_is_aligned_once(self, tmp_path, monkeypatch):
        # on this flower log the random and nothing baselines rediscover the selected model
        log = gen_synthetic(flower_net("abc"), 150, 0.2, seed=1)
        log_path = tmp_path / "flower.xes"
        log_path.write_bytes(export_xes(log))
        nets, aligned = [], []  # the selected model, then each baseline's net
        loop_calls = []  # the alignment passes made by the selection loop
        discover = cli.discover

        def select(*args, **kwargs):
            result = select_incremental(*args, **kwargs)
            loop_calls.extend(aligned)
            aligned.clear()
            nets.append(result.model)
            return result

        def rediscover(prototype_log):
            nets.append(discover(prototype_log))
            return nets[-1]

        # every alignment pass over the log, through each module that can make one
        for module in (cli, protoselect, conformance):
            def counted(log, net, budget, name=module.__name__, align=module.variant_alignments):
                aligned.append((name, net))
                return align(log, net, budget)

            monkeypatch.setattr(module, "variant_alignments", counted)
        monkeypatch.setattr(cli, "select_incremental", select)
        monkeypatch.setattr(cli, "discover", rediscover)
        assert run("compare", "--in", log_path, "--k", "2", "--out", tmp_path / "c") == 0
        distinct = []
        for net in nets:
            if net not in distinct:
                distinct.append(net)
        assert len(nets) == 4 and len(distinct) < len(nets)  # the property this log exercises
        assert loop_calls and {name for name, _ in loop_calls} == {"protomine.protoselect"}
        # the model's alignments are reused; every other distinct net is aligned once
        assert [name for name, _ in aligned] == ["protomine.cli"] * (len(distinct) - 1)
        assert [net for _, net in aligned] == distinct[1:]

    def test_prototypes_row_matches_discover_report(self, tmp_path):
        log_path = tmp_path / "noisy.xes"
        log_path.write_bytes(export_xes(gen_synthetic(two_group_net(), 120, 0.1, seed=2)))
        assert run("discover", "--in", log_path, "--k", "2", "--out", tmp_path / "d") == 0
        assert run("compare", "--in", log_path, "--k", "2", "--out", tmp_path / "c") == 0
        report = json.loads((tmp_path / "d" / "report.json").read_text())
        with open(tmp_path / "c" / "compare.csv", newline="") as handle:
            row = next(r for r in csv.DictReader(handle) if r["method"] == "prototypes")
        for key in ("fitness", "precision", "f_beta"):
            assert row[key] == f"{report[key]:.6f}", key


class TestCsvInput:
    def test_csv_with_columns(self, tmp_path):
        csv_path = tmp_path / "events.csv"
        csv_path.write_text("case_id,activity\n1,a\n1,b\n2,a\n2,b\n")
        out = tmp_path / "run"
        assert run("discover", "--in", csv_path, "--k", "1", "--out", out) == 0
        assert (out / "model.pnml").is_file()


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
        # decimal: a start-up cost every command would pay, measured from
        # what the import adds, so modules site preloads do not count
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import protomine.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & (set(sys.modules) - before)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(protomine.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_gzipped_xes_input(self, tmp_path):
        import gzip

        log = gen_synthetic(three_group_net(), 20, 0.0, seed=9)
        packed = tmp_path / "log.xes.gz"
        packed.write_bytes(gzip.compress(export_xes(log)))
        out = tmp_path / "run"
        assert run("discover", "--in", packed, "--k", "1", "--out", out) == 0
        assert (out / "report.json").is_file()

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
        log_path.write_bytes(damage(gzip.compress(export_xes(log))))
        assert run("discover", "--in", log_path, "--k", "1", "--out", tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert f"error: {log_path}: unreadable gzip data (" in err and reason in err
        model_path = tmp_path / "model.pnml.gz"
        model_path.write_bytes(damage(gzip.compress(export_pnml(three_group_net()))))
        plain_log = tmp_path / "log.xes"
        plain_log.write_bytes(export_xes(log))
        assert run("evaluate", "--in", plain_log, "--model", model_path, "--out", tmp_path / "eval") == 1
        err = capsys.readouterr().err
        assert f"error: {model_path}: unreadable gzip data (" in err and reason in err


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
