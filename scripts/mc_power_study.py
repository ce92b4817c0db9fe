"""Power study of the Monte Carlo audit: how many agents it needs to see a wrong control.

    python scripts/mc_power_study.py <checkout> <out.json>

Writes one run of each size in ``SIZES`` (40 to 800 cells) with the
``evmfg run`` of ``<checkout>``. On each run it draws the ``mc_population``
of ``<checkout>`` at every count in ``AGENTS`` and at ``cli.mc_agents(cells)``,
the count ``oracle`` runs there by default, over seeds 0 to ``SEEDS - 1``,
under three controls: the run's own (``exact``) and two planted defects,
the control shifted by +0.02 and scaled by 1.1. Each reading is the sup-t
L1 distance of the population's histogram to the run's density, the
figure ``oracle`` prints.

A defect is apart from the exact control at a count when its smallest
reading over the seeds lies above the exact control's largest, so the
audit reads the wrong control worse than the right one at every seed. The
power gate holds at a size when every defect that is apart at 100,000
agents is apart at the default count too. ``<out.json>`` holds every
reading, each count's verdicts and the gate; the script prints a summary
and exits 1 when the gate fails at some size. The committed study is
``MC_POWER.json``, and ``tests/test_cli.py`` holds ``cli.mc_agents`` to it.

Every command runs in its own process with ``<checkout>/src`` as the only
``PYTHONPATH`` entry, so two checkouts compare on the same sizes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# cells: (bundled scenario, --set overrides)
SIZES = {
    40: ("ev_weekend", ["time_steps=24", "space.cells=40"]),  # the tests' quick run
    100: ("ev_weekend", []),
    200: ("ev_weekend", ["space.cells=200"]),
    400: ("ev_weekend", ["space.cells=400", "series.H=3.0", "price.exponent=4.0"]),  # the benchmark's ev_stiff_fine
    800: ("ev_weekend", ["space.cells=800"]),
}
AGENTS = (6_250, 12_500, 25_000, 50_000, 100_000)
FULL = 100_000
SEEDS = 20
DEFECTS = ("plus 0.02", "times 1.1")

# One run directory: the readings of each agent count (and of the default count) under each control,
# as one JSON line. Arguments: the run directory, the number of seeds, the agent counts joined by commas.
STUDY = """
import json
import sys
from pathlib import Path
from evmfg import cli
from evmfg.oracle import mc_population
from evmfg.solver import _sup_l1

run_dir, seeds = Path(sys.argv[1]), range(int(sys.argv[2]))
sol, problem, config = cli._load_run(run_dir, cli.ORACLE_FIELDS)
if config.model != "ev":
    sys.exit(f"{run_dir}: the Monte Carlo audit covers the 1D model only")
cells = problem.sgrid.shape[0]
alpha = sol.alpha[0]
controls = {"exact": alpha, "plus 0.02": alpha + 0.02, "times 1.1": alpha * 1.1}

def reading(control, n, seed):
    hist = mc_population(control, problem.m0, problem.params, problem.tgrid, problem.sgrid, n_agents=n, seed=seed)
    return float(f"{_sup_l1(hist, sol.m, problem.sgrid.cell_volume):.6g}")

agents = sorted({*map(int, sys.argv[3].split(",")), cli.mc_agents(cells)})
readings = {n: {label: [reading(c, n, seed) for seed in seeds] for label, c in controls.items()} for n in agents}
print(json.dumps({"cells": cells, "default_agents": cli.mc_agents(cells), "readings": readings}))
"""


def apart(readings: dict[str, list[float]]) -> dict[str, bool]:
    """Per planted defect: whether its smallest reading lies above the exact control's largest."""
    return {defect: min(readings[defect]) > max(readings["exact"]) for defect in DEFECTS}


def _run(args: list[str], env: dict[str, str]) -> str:
    done = subprocess.run(args, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(args[:4])} ... exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def study_size(cells: int, run_dir: Path, env: dict[str, str]) -> dict:
    """Write the run of ``SIZES[cells]``, draw its readings and judge the power gate on them."""
    scenario, sets = SIZES[cells]
    _run([sys.executable, "-m", "evmfg", "run", scenario, "--out", str(run_dir),
          *(a for s in sets for a in ("--set", s))], env)
    size = json.loads(_run([sys.executable, "-c", STUDY, str(run_dir), str(SEEDS), ",".join(map(str, AGENTS))], env))
    if size["cells"] != cells:
        sys.exit(f"the {cells}-cell case ran on {size['cells']} cells")
    verdicts = {n: apart(r) for n, r in size["readings"].items()}
    seen = [d for d in DEFECTS if verdicts[str(FULL)][d]]
    default = str(size["default_agents"])
    return {"scenario": scenario, "overrides": sets, **size, "apart": verdicts,
            "gate": all(verdicts[default][d] for d in seen)}


def _summary(size: dict) -> str:
    lines = [f"{size['cells']} cells (default {size['default_agents']} agents): gate "
             f"{'holds' if size['gate'] else 'FAILS'}"]
    for n, readings in size["readings"].items():
        spans = "  ".join(f"{label} {min(r):.4f}-{max(r):.4f}" for label, r in readings.items())
        marks = ", ".join(d for d, ok in size["apart"][n].items() if ok) or "none"
        lines.append(f"  {int(n):>7} agents: {spans}; apart: {marks}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/mc_power_study.py <checkout> <out.json>", file=sys.stderr)
        return 2
    checkout, out = Path(argv[0]).resolve(), Path(argv[1])
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    sizes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cells in SIZES:
            sizes[str(cells)] = study_size(cells, Path(tmp) / f"cells{cells}", env)
            print(_summary(sizes[str(cells)]), flush=True)
    study = {"command": "python scripts/mc_power_study.py <checkout> <out.json>", "seeds": SEEDS,
             "controls": {"exact": "the run's control", "plus 0.02": "the run's control + 0.02",
                          "times 1.1": "the run's control x 1.1"},
             "sizes": sizes}
    out.write_text(json.dumps(study, indent=1) + "\n")
    return 0 if all(size["gate"] for size in sizes.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
