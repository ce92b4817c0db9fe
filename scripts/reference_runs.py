"""Record what the reference runs of a checkout print and write.

    python scripts/reference_runs.py <checkout> <out_dir>

Runs ``evmfg run``, ``verify`` and ``oracle`` (default flags) on each of
the eight reference runs, every command in its own process with
``<checkout>/src`` as the only ``PYTHONPATH`` entry, in a temporary working
directory that holds the ``INPUTS`` files. ``<out_dir>/<run>.txt``
gets each command's exit code, stdout and stderr, with the run directory
replaced by ``<RUN>``, then the run's ``manifest.json`` without its
``wall_time_s`` and with ``<DIR>`` for its ``scenario_dir`` (so a change to
the canonical scenario or its hash shows), then the sha256 of every
exported file: the ``.npy`` fields, whose bytes are the float64 values
themselves, and the series CSVs (the price, the 1D purchase and load
curves, the 2D control sections). Below each sha256 line comes a line with
the file's min, max and sum to 9 significant digits, so a change that moves
only roundoff shows in the sha256 lines alone and a real change in these
too. Then come the sha256 of the value table and of each policy table of the
DP best response that ``oracle`` computes by default and with ``--states 4``
(one more process, same path). Last come the largest and the total substep
count of one step of each sweep in the run's solve (one more process, same
path), which show the margin under ``evmfg.ev.SUBSTEP_BUDGET``, how many of
that solve's density slices had a negative cell, which the slice check
rejects, with the smallest such value, and the worst mass defect of a slice,
so a loss of positivity or of conservation shows too. The check reads each
slice a sweep computes, one a step; the initial density has its own check.

The output of two checkouts compares with ``diff -r``: it is empty when a
change keeps every figure and message byte for byte, which is the check a
pure refactor must pass. The script asserts nothing itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# name: (bundled scenario or scenario file in the working directory, --set overrides)
RUNS = {
    "ev_weekend": ("ev_weekend", []),
    "phev_flat": ("phev_flat", []),
    "ev_stiff_fine": ("ev_weekend", ["space.cells=400", "series.H=3.0", "price.exponent=4.0"]),
    "phev_io": ("phev_flat", ["space.cells=[64,64]", "time_steps=47"]),
    "ev_24x40": ("ev_weekend", ["time_steps=24", "space.cells=40"]),
    # Like ev_stiff_fine, it takes numerics.diffuse where diffusion alone breaks the explicit bound.
    "ev_800": ("ev_weekend", ["space.cells=800"]),
    # A consumption that changes on every step, so the DP tables cover a two-pack MDP whose transition never repeats.
    "phev_varying": ("phev_flat", ["series.g={times: [0.0, 0.1, 0.2], values: [0.15, 0.3, 0.2]}"]),
    # A scenario file that reads a series and the initial density from CSVs in its own directory, not the
    # working one: the manifest records that directory and the inputs' sha256, which verify and oracle check.
    "ev_inputs": ("inputs/ev_inputs.yaml", []),
}

# The files of the scenario that ev_inputs runs, by path in the working directory.
INPUTS = {
    "inputs/ev_inputs.yaml": """\
schema_version: 1
model: ev
horizon: 0.2
time_steps: 24
space: {cells: 40}
series:
  g: {times: [0.0, 0.1, 0.2], values: [0.3, 1.2, 0.4]}
  d: {csv: d.csv}
  sigma: 0.1
  H: 30.0
costs:
  f: {kind: quadratic_shortage, weight: 1.0, target: 1.0}
  kappa: {kind: quadratic_shortage, weight: 1.0, target: 1.0}
initial_density: {kind: histogram, csv: m0.csv}
""",
    "inputs/d.csv": "t,value\n0.0,0.6\n0.05,0.8\n0.1,0.9\n0.15,0.7\n0.2,0.6\n",
    "inputs/m0.csv": "".join(f"{min(k, 39 - k)}\n" for k in range(40)),  # a tent, one value per cell
}


# The MDP of ``evmfg oracle <run>`` with its default lattice, then with
# --states 4. The default is 20 states on the battery and the cap of 10 per
# axis on the two packs, which ``min`` gives from 20; the cap leaves 4 as it
# is. It uses only names that every checkout it compares has.
DP_TABLES = """
import hashlib, sys
from pathlib import Path
from evmfg import cli
from evmfg.oracle import dp_best_response, ev_mdp, phev_mdp

sol, problem, config = cli._load_run(Path(sys.argv[1]), cli.ORACLE_FIELDS)
for states in (20, 4):
    if config.model == "ev":
        mdp = ev_mdp(problem.params, sol.p, n_states=states)
    else:
        mdp = phev_mdp(problem.params, sol.p, n_states=min(states, cli.PHEV_MAX_STATES))
    value, policy = dp_best_response(mdp)
    for name, table in [("value", value)] + [(f"policy[{k}]", a) for k, a in enumerate(policy)]:
        print(f"{hashlib.sha256(table.tobytes()).hexdigest()}  dp --states {states} {name} {table.shape}")
"""


# The substeps of each sweep in the solve of ``evmfg run <scenario> [--set ...]``:
# both sweeps of both games call ``evmfg.ev.substep_count`` once per step.
# Then how many density slices reached ``evmfg.ev._check_density_slice`` with
# a negative cell, which it rejects, and the smallest such value, and the worst
# mass defect |sum(m) * vol - 1| of a slice as it reached the check.
SUBSTEPS = """
import sys
from evmfg import ev, phev
from evmfg.scenario import apply_overrides, build_problem, load_scenario
from evmfg.solver import solve_mfe

counts, current, count = {"hjb": [], "fpk": []}, [], ev.substep_count
lows, sums, check = [], [], ev._check_density_slice

def counted(dt, rate):
    n = count(dt, rate)
    counts[current[-1]].append(n)
    return n

def entered(sweep, fn):
    def wrapper(*args, **kwargs):
        current.append(sweep)
        try:
            return fn(*args, **kwargs)
        finally:
            current.pop()
    return wrapper

def checked(m, time_node):
    lows.append(float(m.min()))
    sums.append(float(m.sum()))
    return check(m, time_node)

ev.substep_count, ev._check_density_slice = counted, checked
for module, prefix in ((ev, ""), (phev, "phev_")):
    for sweep, name in (("hjb", "hjb_backward_sweep"), ("fpk", "fpk_forward_sweep")):
        setattr(module, prefix + name, entered(sweep, getattr(module, prefix + name)))
config = load_scenario(sys.argv[1])
if sys.argv[2:]:
    config = apply_overrides(config, sys.argv[2:])
problem, options, _ = build_problem(config)
solve_mfe(problem, options)
for sweep, steps in counts.items():
    print(f"{sweep} substeps: largest {max(steps)} in one step, {sum(steps)} in {len(steps)} steps")
negative = [low for low in lows if low < 0.0]
smallest = f", smallest {min(negative)!r}" if negative else ""
print(f"density slices with a negative cell: {len(negative)} of {len(lows)}{smallest}")
defect = max(abs(total * problem.sgrid.cell_volume - 1.0) for total in sums)
print(f"density slice mass: worst |sum(m) * vol - 1| {defect:.3e} over {len(sums)} slices")
"""


def _python(src: Path, cwd: str, title: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)
    return f"$ {title}\nexit {done.returncode}\n{done.stdout}{done.stderr}"


def _evmfg(src: Path, cwd: str, *args: str) -> str:
    return _python(src, cwd, f"evmfg {' '.join(args)}", "-m", "evmfg", *args)


def _manifest(path: Path) -> str:
    """The manifest's record that is the same in every run of a scenario: no wall time, no scenario directory."""
    if not path.exists():
        return "$ manifest.json\nnot written\n"
    manifest = json.loads(path.read_text())
    del manifest["wall_time_s"]
    manifest["scenario_dir"] = "<DIR>"
    return f"$ manifest.json\n{json.dumps(manifest, indent=2, sort_keys=True)}\n"


def summary(path: Path) -> str:
    """The min, max and sum of an exported ``.npy`` field or numeric CSV (one header row), to 9 significant digits."""
    values = np.load(path) if path.suffix == ".npy" else np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    low, high, total = (float(x) + 0.0 for x in (values.min(), values.max(), values.sum()))  # + 0.0: no "-0"
    return f"  {path.name}: min {low:.9g}, max {high:.9g}, sum {total:.9g}\n"


def record(src: Path, scenario: str, overrides: list[str]) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in INPUTS.items():
            path = Path(tmp) / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
        run_dir = str(Path(tmp) / "run")
        sets = [arg for item in overrides for arg in ("--set", item)]
        lines = [
            _evmfg(src, tmp, "run", scenario, "--out", run_dir, *sets),
            _evmfg(src, tmp, "verify", run_dir),
            _evmfg(src, tmp, "oracle", run_dir),
            _manifest(Path(run_dir) / "manifest.json"),
        ]
        for path in sorted(Path(run_dir).glob("*.csv")) + sorted(Path(run_dir).glob("*.npy")):
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n")
            lines.append(summary(path))
        lines.append(_python(src, tmp, "dp tables", "-c", DP_TABLES, run_dir))
        lines.append(_python(src, tmp, "substeps", "-c", SUBSTEPS, scenario, *overrides))
        return "".join(lines).replace(run_dir, "<RUN>")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/reference_runs.py <checkout> <out_dir>", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name, (scenario, overrides) in RUNS.items():
        (out / f"{name}.txt").write_text(record(src, scenario, overrides))
        print(f"wrote {out / name}.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
