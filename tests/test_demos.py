"""Keep the narrative scripts in demos/ runnable."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import protomine

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out  # every demo narrates something


def test_clustering_demo_output_does_not_depend_on_the_hash_seed():
    # string hashing is salted per process, so anything printed in set
    # order would differ between these two runs
    script = next(p for p in DEMOS if p.name.startswith("02_"))
    src = str(Path(protomine.__file__).parents[1])
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, check=True, timeout=120)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
