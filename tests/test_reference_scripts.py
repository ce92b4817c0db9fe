"""The programs that ``scripts/reference_runs.py`` and ``scripts/mc_power_study.py`` run in a subprocess.

They reach into the package by name (``cli._load_run``, ``cli.ORACLE_FIELDS``,
``cli.PHEV_MAX_STATES``, the sweeps), so a refactor that moves one of those
names breaks the refactor check itself. Each runs here as the scripts run
it: ``python -c <program>`` with ``src`` as the ``PYTHONPATH``.

``reference_runs.summary``, the min/max/sum line printed below each exported
file's sha256, is checked here too, against the run files it reads.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evmfg import cli

ROOT = Path(__file__).resolve().parents[1]
QUICK = ["time_steps=24", "space.cells=40"]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _program(source, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", source, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    return done.stdout.splitlines()


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("scripts_run") / "run"
    assert cli.main(["run", "ev_weekend", "--out", str(out), *(a for s in QUICK for a in ("--set", s))]) == 0
    return out


@pytest.mark.parametrize("run_dir, lines", [("quick_run", 4), ("phev_run_dir", 6)])
def test_dp_tables_hashes_the_value_and_each_policy_at_two_lattices(run_dir, lines, request, tmp_path):
    out = _program(_script("reference_runs").DP_TABLES, str(request.getfixturevalue(run_dir)), cwd=tmp_path)
    assert len(out) == lines
    assert all(" dp --states " in line for line in out)


@pytest.mark.parametrize("run_dir", ["quick_run", "phev_run_dir"])
def test_summary_gives_each_exported_files_min_max_and_sum(run_dir, request):
    run = request.getfixturevalue(run_dir)
    files = sorted(run.glob("*.csv")) + sorted(run.glob("*.npy"))
    assert files
    for path in files:
        values = np.load(path) if path.suffix == ".npy" else np.loadtxt(path, delimiter=",", skiprows=1)
        line = _script("reference_runs").summary(path)
        assert line == f"  {path.name}: min {values.min():.9g}, max {values.max():.9g}, sum {values.sum():.9g}\n"


def test_summary_prints_a_negative_zero_as_zero(tmp_path):
    path = tmp_path / "zeros.npy"
    np.save(path, np.array([-0.0, -0.0]))
    assert _script("reference_runs").summary(path) == "  zeros.npy: min 0, max 0, sum 0\n"


def test_substeps_counts_each_sweep_of_the_solve(tmp_path):
    out = _program(_script("reference_runs").SUBSTEPS, "ev_weekend", *QUICK, cwd=tmp_path)
    assert [line.split(":")[0] for line in out] == [
        "hjb substeps", "fpk substeps", "density slices with a negative cell", "density slice mass"]
    negative, slices = out[2].split(": ")[1].split(" of ")
    assert negative == "0" and int(slices) % 24 == 0  # one slice per step, 24 per sweep, none negative
    # the worst slice's mass defect, over the same slices: conservation to roundoff
    defect, over = out[3].split("| ")[1].split(" over ")
    assert float(defect) <= 1e-12 and over == f"{slices} slices"


def test_mc_power_study_reads_each_control_at_each_count_and_at_the_default(quick_run, tmp_path):
    out = _program(_script("mc_power_study").STUDY, str(quick_run), "1", "5000,20000", cwd=tmp_path)
    assert len(out) == 1
    size = json.loads(out[0])
    assert (size["cells"], size["default_agents"]) == (40, cli.mc_agents(40))
    assert list(size["readings"]) == ["5000", "12500", "20000"]
    for readings in size["readings"].values():
        assert list(readings) == ["exact", "plus 0.02", "times 1.1"]
        assert all(len(r) == 1 and 0.0 < r[0] < 2.0 for r in readings.values())
