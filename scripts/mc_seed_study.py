"""Seed study of the Monte Carlo audit on exported 1D runs.

    python scripts/mc_seed_study.py <checkout> <run_dir> [<run_dir> ...]

For each run directory (written by ``evmfg run`` on a 1D scenario), runs
the ``mc_population`` of ``<checkout>/src`` at the oracle's default 100,000
agents and prints the sup-t L1 distance of its histogram to the run's
density as median (min-max) over seeds 0-19. Then it prints the same over
seeds 0-9 for two planted defects: the run's control shifted by +0.02 and
scaled by 1.1. An audit with power reads these clearly above the unplanted
distance.

Each run is studied in its own process with ``<checkout>/src`` as the only
``PYTHONPATH`` entry, so two checkouts compare on the same run directories:
write the runs once, then run the script once per checkout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SEEDS = 20
DEFECT_SEEDS = 10

STUDY = """
import sys
from pathlib import Path
import numpy as np
from evmfg import cli
from evmfg.oracle import mc_population
from evmfg.solver import _sup_l1

seeds, defect_seeds = int(sys.argv[2]), int(sys.argv[3])
sol, problem, config = cli._load_run(Path(sys.argv[1]), cli.ORACLE_FIELDS)
if config.model != "ev":
    sys.exit(f"{sys.argv[1]}: the Monte Carlo audit covers the 1D model only")
alpha = sol.alpha[0]

def distances(control, n):
    return np.array([
        _sup_l1(mc_population(control, problem.m0, problem.params, problem.tgrid, problem.sgrid,
                              n_agents=100_000, seed=seed), sol.m, problem.sgrid.cell_volume)
        for seed in range(n)
    ])

for label, control, n in [("distance", alpha, seeds), ("control +0.02", alpha + 0.02, defect_seeds),
                          ("control x1.1", alpha * 1.1, defect_seeds)]:
    d = distances(control, n)
    print(f"  {label:<14} {n:>2} seeds: median {np.median(d):.4f} ({d.min():.4f}-{d.max():.4f})")
"""


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: python scripts/mc_seed_study.py <checkout> <run_dir> [<run_dir> ...]", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(Path(argv[0]).resolve() / "src"))
    for run_dir in argv[1:]:
        args = [sys.executable, "-c", STUDY, run_dir, str(SEEDS), str(DEFECT_SEEDS)]
        done = subprocess.run(args, env=env, capture_output=True, text=True)
        print(f"{Path(run_dir).name}\n{done.stdout}{done.stderr}", end="", flush=True)
        if done.returncode != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
