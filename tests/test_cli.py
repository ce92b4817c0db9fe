"""Command-line interface: exit codes, output formats, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evmfg
from evmfg import (
    SCHEMA_TEXT, apply_overrides, cli, dp_best_response, ev_mdp, load_scenario, mc_population, phev_mdp,
    write_scenario,
)


QUICK_ARGS = ["--set", "time_steps=24", "--set", "space.cells=40"]
# what a read of a run file that changed after export says
CHANGED = "{path} does not match its sha256 in manifest.json (changed or cut since export)"


def _copy_run(run_dir, dest):
    dest.mkdir()
    for item in run_dir.iterdir():
        (dest / item.name).write_bytes(item.read_bytes())
    return dest


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    code = cli.main(["run", "ev_weekend", "--out", str(out), *QUICK_ARGS])
    assert code == 0
    return out


def test_run_converges_and_writes(quick_run, capsys):
    # fixture already ran; re-run into a fresh dir to capture the output
    out = quick_run.parent / "cli_run_again"
    code = cli.main(["run", "ev_weekend", "--out", str(out), *QUICK_ARGS])
    captured = capsys.readouterr()
    assert code == 0
    assert "converged in" in captured.out
    assert str(out) in captured.out
    names = {p.name for p in out.iterdir()}
    assert names == {"m.npy", "v.npy", "alpha.npy", "price.csv", "purchases.csv", "total_consumption.csv",
                     "manifest.json"}


def test_run_nonconvergence_exit_2_still_writes(tmp_path, capsys):
    out = tmp_path / "short"
    code = cli.main(["run", "ev_weekend", "--out", str(out), *QUICK_ARGS,
                     "--set", "solver.max_iters=1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "did not converge" in captured.out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["convergence"]["converged"] is False
    assert manifest["convergence"]["iterations"] == 1


def test_run_missing_scenario_exit_1(tmp_path, capsys):
    code = cli.main(["run", str(tmp_path / "ghost.yaml"), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    assert "ghost.yaml" in captured.err
    assert captured.out == ""


def test_run_invalid_override_exit_1(tmp_path, capsys):
    code = cli.main(["run", "ev_weekend", "--out", str(tmp_path / "o"),
                     "--set", "solver.damping=3.0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "damping" in captured.err


def test_verify_passes_on_fresh_run(quick_run, capsys):
    code = cli.main(["verify", str(quick_run)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("PASS")


@pytest.mark.parametrize("run, run_dir", [("ev_run", "ev_run_dir"), ("phev_run", "phev_run_dir")])
def test_a_control_is_one_field_per_axis_wherever_it_goes(run, run_dir, request):
    # (alpha,) for the battery, (mu1, mu2) for the packs: from the sweep, the
    # problem, the solve, the re-read run and the DP alike
    bundled = request.getfixturevalue(run)
    sol, problem = bundled["solution"], bundled["problem"]
    axes, fields = len(problem.sgrid.shape), sol.v.shape
    loaded, _, _ = cli._load_run(Path(request.getfixturevalue(run_dir)))
    mdp = (ev_mdp if axes == 1 else phev_mdp)(problem.params, sol.p, n_states=4)
    _, policy = dp_best_response(mdp)
    controls = {
        "sweep": (problem.hjb(sol.p)[1], fields),
        "problem.control": (problem.control(sol.v, sol.p), fields),
        "sol.alpha": (sol.alpha, fields),
        "_load_run": (loaded.alpha, fields),
        "dp policy": (policy, (mdp.tgrid.n_steps,) + (4,) * axes),
    }
    for where, (control, shape) in controls.items():
        assert isinstance(control, tuple) and len(control) == axes, where
        assert all(isinstance(a, np.ndarray) and a.shape == shape for a in control), where


def test_verify_fails_on_tampered_values(quick_run, tmp_path, capsys):
    # a value changed in the field file is caught by its hash before any audit
    copy = _copy_run(quick_run, tmp_path / "tampered")
    np.save(copy / "v.npy", np.load(copy / "v.npy") * 1.05, allow_pickle=False)
    code = cli.main(["verify", str(copy)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: v.npy: " + CHANGED.format(path=copy / "v.npy") + "\n"


def test_verify_names_a_short_field(quick_run, tmp_path, capsys):
    # the last seven time slices of the density cut off
    copy = _copy_run(quick_run, tmp_path / "short")
    data = (copy / "m.npy").read_bytes()
    (copy / "m.npy").write_bytes(data[:-7 * 40 * 8])
    code = cli.main(["verify", str(copy)])
    captured = capsys.readouterr()
    assert code == 1
    assert "error: m.npy: " + CHANGED.format(path=copy / "m.npy") in captured.err


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_short_series_csv_is_named(quick_run, tmp_path, capsys, command):
    copy = _copy_run(quick_run, tmp_path / "short")
    lines = (copy / "price.csv").read_text().splitlines(keepends=True)
    (copy / "price.csv").write_text("".join(lines[:-3]))
    code = cli.main([command, str(copy), *(["--states", "5"] if command == "oracle" else [])])
    captured = capsys.readouterr()
    assert code == 1
    assert "error: price.csv: " + CHANGED.format(path=copy / "price.csv") in captured.err


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_a_field_without_one_value_is_named(request, tmp_path, capsys, command):
    # eight bytes, one float64, cut from the end or the middle of the value field
    for run_dir, where in (("quick_run", "last"), ("quick_run", "middle"), ("phev_run_dir", "middle")):
        copy = _copy_run(request.getfixturevalue(run_dir), tmp_path / f"{run_dir}_{where}")
        data = (copy / "v.npy").read_bytes()
        k = len(data) - 8 if where == "last" else len(data) // 2
        (copy / "v.npy").write_bytes(data[:k] + data[k + 8:])
        capsys.readouterr()  # what a fixture's first run printed
        code = cli.main([command, str(copy), *(["--states", "5"] if command == "oracle" else [])])
        captured = capsys.readouterr()
        assert code == 1, (run_dir, where)
        assert captured.out == ""
        assert "error: v.npy: " + CHANGED.format(path=copy / "v.npy") in captured.err


@pytest.mark.parametrize("command", ["verify", "oracle"])
@pytest.mark.parametrize("run_dir", ["quick_run", "phev_run_dir"])
def test_a_changed_or_missing_field_is_named(request, tmp_path, capsys, run_dir, command):
    # one bit of the value field flipped, or the file gone
    source = request.getfixturevalue(run_dir)
    changed = _copy_run(source, tmp_path / "changed")
    data = bytearray((changed / "v.npy").read_bytes())
    data[-1] ^= 1  # the last bit of the last value
    (changed / "v.npy").write_bytes(bytes(data))
    missing = _copy_run(source, tmp_path / "missing")
    (missing / "v.npy").unlink()
    flags = ["--states", "4"] if command == "oracle" else []
    capsys.readouterr()  # what a fixture's first run printed
    assert cli.main([command, str(changed), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: v.npy: " + CHANGED.format(path=changed / "v.npy") + "\n"
    assert cli.main([command, str(missing), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: v.npy: could not read {missing / 'v.npy'}: ")


def test_a_field_of_another_grid_is_named(quick_run, tmp_path, capsys):
    # every file matches its hash, but the manifest's scenario now asks for another grid
    copy = _copy_run(quick_run, tmp_path / "regridded")
    manifest = json.loads((copy / "manifest.json").read_text())
    manifest["scenario"]["space"]["cells"] = 41
    (copy / "manifest.json").write_text(json.dumps(manifest))
    assert cli.main(["verify", str(copy)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: m.npy: {copy / 'm.npy'} holds shape (25, 40), expected (25, 41)\n"


def test_verify_missing_dir_exit_1(tmp_path, capsys):
    code = cli.main(["verify", str(tmp_path / "nowhere")])
    captured = capsys.readouterr()
    assert code == 1
    assert "manifest not found" in captured.err


@pytest.fixture
def csv_scenario_run(tmp_path, monkeypatch):
    """A run of ``scn/s.yaml``, whose ``series.d`` is ``scn/d.csv``, made from tmp_path."""
    scn = tmp_path / "scn"
    scn.mkdir()
    (scn / "d.csv").write_text("t,value\n0.0,0.6\n0.1,0.9\n0.2,0.7\n")
    config = apply_overrides(load_scenario("ev_weekend"),
                             ["time_steps=24", "space.cells=40", "series.d={csv: d.csv}"])
    write_scenario(config, scn / "s.yaml")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "scn/s.yaml", "--out", "out"]) == 0
    return tmp_path / "out"


def test_verify_and_oracle_read_scenario_csvs_from_the_scenario_dir(csv_scenario_run, capsys):
    capsys.readouterr()
    oracle = ["oracle", str(csv_scenario_run), "--agents", "20000"]
    code = cli.main(oracle)
    clean = capsys.readouterr().out
    assert clean.startswith("dp value deviation:")
    # a decoy d.csv in the working directory must not be read
    Path("d.csv").write_text("t,value\n0.0,9.0\n0.2,9.0\n")
    assert cli.main(["verify", str(csv_scenario_run)]) == 0
    assert capsys.readouterr().out.startswith("PASS")
    assert cli.main(oracle) == code
    assert capsys.readouterr().out == clean


def test_a_changed_input_csv_is_named(csv_scenario_run, capsys):
    d_csv = csv_scenario_run.parent / "scn" / "d.csv"
    manifest = json.loads((csv_scenario_run / "manifest.json").read_text())
    assert manifest["input_sha256"] == {"d.csv": hashlib.sha256(d_csv.read_bytes()).hexdigest()}
    d_csv.write_text("t,value\n0.0,0.9\n0.1,0.9\n0.2,0.7\n")
    for command in ("verify", "oracle"):
        assert cli.main([command, str(csv_scenario_run)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: series.d.csv: {d_csv.resolve()} does not match its sha256 "
                                "in manifest.json (changed since the run)\n")


def test_an_input_csv_without_a_recorded_sha256_is_named(csv_scenario_run, capsys):
    # what a run exported before the input CSVs were hash-checked holds
    manifest_path = csv_scenario_run / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["input_sha256"]
    manifest_path.write_text(json.dumps(manifest))
    assert cli.main(["verify", str(csv_scenario_run)]) == 1
    d_csv = (csv_scenario_run.parent / "scn" / "d.csv").resolve()
    assert capsys.readouterr().err == (f"error: series.d.csv: manifest.json records no sha256 for {d_csv}; "
                                       "re-run to record it\n")


def test_manifest_without_scenario_dir_is_an_error(csv_scenario_run, capsys, monkeypatch):
    # every hash-checked manifest records scenario_dir, so one without it was
    # edited by hand: it is named, and the working directory is no fallback
    manifest_path = csv_scenario_run / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert Path(manifest.pop("scenario_dir")) == (csv_scenario_run.parent / "scn").resolve()
    manifest_path.write_text(json.dumps(manifest))
    monkeypatch.chdir(csv_scenario_run.parent / "scn")
    for command in ("verify", "oracle"):
        assert cli.main([command, str(csv_scenario_run)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: manifest.json: 'scenario_dir' is not a path in {manifest_path}\n"
        assert captured.out == ""


# (the manifest written from the exported one, a fragment of the error)
MALFORMED_MANIFESTS = {
    "no-scenario": (lambda real: {}, "no 'scenario' mapping"),
    "scenario-not-a-mapping": (lambda real: {"scenario": "ev_weekend"}, "no 'scenario' mapping"),
    "not-an-object": (lambda real: [], "no 'scenario' mapping"),
    "scenario_dir-not-a-path": (lambda real: {"scenario": {}, "scenario_dir": 3}, "'scenario_dir' is not a path"),
    # what a run directory exported before the files were hash-checked holds
    "no-sha256": (lambda real: {k: v for k, v in real.items() if k != "sha256"},
                  "no 'sha256' mapping in {path}; a run written before run files were hash-checked must be re-run"),
    "sha256-not-a-mapping": (lambda real: {**real, "sha256": ["m.npy"]}, "no 'sha256' mapping"),
    "input_sha256-not-a-mapping": (lambda real: {**real, "input_sha256": ["d.csv"]},
                                   "'input_sha256' is not a mapping in {path}"),
}


@pytest.mark.parametrize("command", ["verify", "oracle"])
@pytest.mark.parametrize("manifest", list(MALFORMED_MANIFESTS))
def test_malformed_manifest_is_named(quick_run, tmp_path, capsys, command, manifest):
    copy = _copy_run(quick_run, tmp_path / "run")
    make, fragment = MALFORMED_MANIFESTS[manifest]
    (copy / "manifest.json").write_text(json.dumps(make(json.loads((copy / "manifest.json").read_text()))))
    code = cli.main([command, str(copy)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: manifest.json: ")
    assert fragment.format(path=copy / "manifest.json") in captured.err
    assert captured.out == ""


def test_verify_threshold_follows_the_scenario_solver_tol(tmp_path, capsys):
    # the rebuilt scenario's solver.tol sets it; the manifest's convergence
    # record is the solve's history, which verify does not read
    run = tmp_path / "run"
    assert cli.main(["run", "ev_weekend", "--out", str(run), *QUICK_ARGS, "--set", "solver.tol=1.0e-5"]) == 0
    manifest_path = run / "manifest.json"
    real = json.loads(manifest_path.read_text())
    assert real["convergence"]["tol"] == 1e-5
    edits = [lambda m: m, lambda m: {**m, "convergence": {**m["convergence"], "tol": 0.5}},
             lambda m: {**m, "convergence": {"tol": "abc"}}, lambda m: {**m, "convergence": {"tol": -1e-6}},
             lambda m: {**m, "convergence": [1]}, lambda m: {k: v for k, v in m.items() if k != "convergence"}]
    for edit in edits:
        manifest_path.write_text(json.dumps(edit(real)))
        capsys.readouterr()
        assert cli.main(["verify", str(run)]) == 0
        assert capsys.readouterr().out.endswith(" (threshold 1.000e-04)\n")


def test_an_exponent_without_a_decimal_point_sets_the_tolerance(tmp_path, capsys):
    # YAML 1.1 reads 1e-5 as a string, which solver.tol used to reject
    run = tmp_path / "run"
    assert cli.main(["run", "ev_weekend", "--out", str(run), *QUICK_ARGS, "--set", "solver.tol=1e-5"]) == 0
    capsys.readouterr()
    assert cli.main(["verify", str(run)]) == 0
    assert capsys.readouterr().out.endswith(" (threshold 1.000e-04)\n")


@pytest.mark.parametrize("command", ["verify", "oracle"])
@pytest.mark.parametrize("text", [b"not json", b'{"scenario": ', b"\xff\xfe"], ids=["text", "cut", "binary"])
def test_a_manifest_that_is_not_json_is_named(tmp_path, capsys, command, text):
    run = tmp_path / "run"
    run.mkdir()
    (run / "manifest.json").write_bytes(text)
    code = cli.main([command, str(run)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: manifest.json: {run / 'manifest.json'} is not valid JSON: ")
    assert captured.out == ""


def _parse_oracle(out_text):
    dp = float(re.search(r"dp value deviation: ([0-9.eE+-]+)", out_text).group(1))
    mc_match = re.search(r"mc density distance: ([0-9.eE+-]+)", out_text)
    mc = float(mc_match.group(1)) if mc_match else None
    return dp, mc


def test_oracle_reports_and_exit_code_consistency(quick_run, capsys):
    code = cli.main(["oracle", str(quick_run), "--agents", "20000"])
    captured = capsys.readouterr()
    assert "dp value deviation:" in captured.out
    assert f"(threshold {cli.DP_THRESHOLD})" in captured.out
    assert f"(threshold {cli.MC_THRESHOLD}, 20000 agents)" in captured.out
    dp, mc = _parse_oracle(captured.out)
    expected = 0 if dp <= cli.DP_THRESHOLD and mc <= cli.MC_THRESHOLD else 1
    assert code == expected


def test_oracle_is_deterministic_for_a_seed(quick_run, capsys, monkeypatch):
    cli.main(["oracle", str(quick_run), "--agents", "5000", "--seed", "11"])
    first = capsys.readouterr().out
    cli.main(["oracle", str(quick_run), "--agents", "5000", "--seed", "11"])
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[-1].startswith("mc density distance: ")
    # the sorted population reads almost the same at every seed, so two
    # seeds may print the same distance: check that the seed reaches it
    seen = []

    def spy(*args, n_agents, seed):
        seen.append((n_agents, seed))
        return mc_population(*args, n_agents=n_agents, seed=seed)

    monkeypatch.setattr(cli, "mc_population", spy)
    cli.main(["oracle", str(quick_run), "--agents", "5000", "--seed", "12"])
    # without --agents the count follows the 40-cell grid, and the line names it
    cli.main(["oracle", str(quick_run), "--seed", "12"])
    assert seen == [(5000, 12), (12_500, 12)]
    assert capsys.readouterr().out.splitlines()[-1].endswith(f" (threshold {cli.MC_THRESHOLD}, 12500 agents)")


@pytest.mark.parametrize("cells, agents", [(1, 12_500), (40, 12_500), (100, 12_500), (101, 12_625), (400, 50_000),
                                           (800, 100_000), (5_000, 100_000)])
def test_the_default_agent_count_is_125_a_cell_between_its_floor_and_its_cap(cells, agents):
    assert cli.mc_agents(cells) == agents


def test_the_default_agent_count_keeps_the_power_of_the_committed_study():
    # MC_POWER.json (scripts/mc_power_study.py): a change to the rule fails
    # here until the study is run again and shows the rule keeps its power
    study = json.loads((Path(__file__).resolve().parents[1] / "MC_POWER.json").read_text())
    assert sorted(map(int, study["sizes"])) == [40, 100, 200, 400, 800]
    for cells, size in study["sizes"].items():
        readings = {int(n): r for n, r in size["readings"].items()}
        assert 100_000 in readings
        assert all(len(r) >= 10 for by_control in readings.values() for r in by_control.values())

        def apart(n, defect):
            return min(readings[n][defect]) > max(readings[n]["exact"])

        seen = [d for d in ("plus 0.02", "times 1.1") if apart(100_000, d)]
        assert seen, cells  # the full audit sees a planted defect at every size
        enough = min(n for n in readings if all(apart(m, d) for m in readings if m >= n for d in seen))
        assert cli.mc_agents(int(cells)) >= enough, (cells, enough)


def test_oracle_phev_skips_monte_carlo(phev_run_dir, capsys):
    code = cli.main(["oracle", str(phev_run_dir)])
    captured = capsys.readouterr()
    assert "mc density distance: not applicable (2D model)" in captured.out
    dp, _ = _parse_oracle(captured.out)
    assert code == (0 if dp <= cli.DP_THRESHOLD else 1)


def test_oracle_phev_says_when_it_caps_the_lattice(phev_run_dir, capsys):
    cli.main(["oracle", str(phev_run_dir), "--states", "12"])
    capped = capsys.readouterr()
    assert "10x10 state lattice" in capped.err
    assert "--states 12" in capped.err
    assert "dp value deviation:" in capped.out
    cli.main(["oracle", str(phev_run_dir), "--states", "4"])
    assert capsys.readouterr().err == ""
    # without --states the two-pack lattice is the cap itself, and nothing was asked to be capped
    cli.main(["oracle", str(phev_run_dir)])
    default = capsys.readouterr()
    assert default.err == ""
    assert default.out == capped.out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("states", ["1", "0", "-1"])
@pytest.mark.parametrize("run_dir", ["ev_run_dir", "phev_run_dir"])
def test_oracle_rejects_a_lattice_of_fewer_than_2_states(run_dir, states, request, capsys):
    code = cli.main(["oracle", str(request.getfixturevalue(run_dir)), "--states", states])
    captured = capsys.readouterr()
    assert code == 1
    assert "need at least 2 states" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("run_dir", ["ev_run_dir", "phev_run_dir"])
def test_oracle_rejects_no_agents_before_the_dp_audit(run_dir, request, capsys):
    code = cli.main(["oracle", str(request.getfixturevalue(run_dir)), "--agents", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "need at least one agent" in captured.err
    assert "dp value deviation" not in captured.out


@pytest.mark.parametrize("run_dir", ["ev_run_dir", "phev_run_dir"])
def test_oracle_rejects_a_negative_seed_before_the_dp_audit(run_dir, request, capsys):
    # the 2D audit never draws from the seed, but a bad flag is a bad flag
    code = cli.main(["oracle", str(request.getfixturevalue(run_dir)), "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "need a nonnegative seed" in captured.err
    assert "dp value deviation" not in captured.out


@pytest.mark.filterwarnings("error")
def test_oracle_passes_a_run_whose_value_is_zero(tmp_path, capsys):
    # zero costs at a zero price: the value is 0 everywhere, and the DP
    # deviation is absolute instead of 0/0
    out = tmp_path / "zero"
    sets = ["costs.f={kind: zero}", "costs.kappa={kind: zero}", "series.d=0.0", "price.coupled=false"]
    assert cli.main(["run", "ev_weekend", "--out", str(out), *QUICK_ARGS,
                     *(arg for item in sets for arg in ("--set", item))]) == 0
    assert cli.main(["verify", str(out)]) == 0
    capsys.readouterr()
    code = cli.main(["oracle", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "dp value deviation: 0 " in captured.out
    # the Monte Carlo reading sits near its 0.1 bound; it must pass by its margin, not by its seed
    for seed in ("1", "2", "3"):
        assert cli.main(["oracle", str(out), "--seed", seed]) == 0, capsys.readouterr().out


def test_oracle_fails_a_run_that_trades_beyond_the_dp_action_lattice(tmp_path, capsys):
    # with no consumption the DP's actions span only +-3e-12, so it cannot
    # trade as the run does; its value check alone would pass at 0.0185
    out = tmp_path / "no_drain"
    assert cli.main(["run", "ev_weekend", "--out", str(out), "--set", "series.g=0.0", "--set", "time_steps=24"]) == 0
    capsys.readouterr()
    code = cli.main(["oracle", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    dp, mc = _parse_oracle(captured.out)
    assert dp <= cli.DP_THRESHOLD and mc <= cli.MC_THRESHOLD
    found = re.search(r"max\|alpha\| ([0-9.eE+-]+) exceeds the DP's largest action ([0-9.eE+-]+)", captured.err)
    assert found, captured.err
    reach, span = float(found.group(1)), float(found.group(2))
    assert span == pytest.approx(3e-12) and reach > 0.05


def test_schema_prints_schema(capsys):
    code = cli.main(["schema"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == SCHEMA_TEXT


def test_python_dash_m_reaches_the_cli(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "evmfg", "schema"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == SCHEMA_TEXT


def test_each_public_object_has_one_name():
    # a second name for one function is a second way to call it
    names = {}
    for name in evmfg.__all__:
        names.setdefault(id(getattr(evmfg, name)), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []


def test_run_that_breaks_the_substep_budget_exits_1(tmp_path, capsys):
    code = cli.main(["run", "ev_weekend", "--out", str(tmp_path / "run"), *QUICK_ARGS,
                     "--set", "series.H=3.0", "--set", "price.exponent=8.0"])
    assert code == 1
    err = capsys.readouterr().err
    assert re.match(rf"error: \d+ substeps in one step at rate .*, over the budget of {evmfg.ev.SUBSTEP_BUDGET}", err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("sets, rule", [
    (["series.d=-2.0", "price.exponent=2.5"], "a fractional exponent needs series.d >= 0 at every node"),
    (["series.d=0", "price.exponent=-1"], "a negative exponent needs series.d > 0 at every node"),
], ids=["fractional", "negative"])
def test_a_price_law_that_cannot_be_evaluated_exits_1_before_the_solve(tmp_path, sets, rule):
    # the price base is at least d: a power of it that numpy cannot take is named, not a sweep's blow-up
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    overrides = [arg for item in sets for arg in ("--set", item)]
    result = subprocess.run(
        [sys.executable, "-m", "evmfg", "run", "ev_weekend", "--out", str(tmp_path / "run"), *QUICK_ARGS, *overrides],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1
    assert "RuntimeWarning" not in result.stderr
    assert result.stderr == f"error: price.exponent: {rule}\n"
    assert not (tmp_path / "run").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert re.fullmatch(r"evmfg \d+\.\d+\.\d+\n", captured.out)


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
