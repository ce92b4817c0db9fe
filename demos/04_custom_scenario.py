"""Build a scenario from scratch, tweak it with overrides, and compare runs.

Scenario documents are plain YAML with declarative series and cost presets;
nothing in them is executable. This writes one, runs it as-is, then reruns
with the demand feedback switched off to show what the price coupling does.

Run:  python demos/04_custom_scenario.py
"""

import tempfile
from pathlib import Path

import numpy as np

import evmfg

doc = {
    "schema_version": 1,
    "name": "evening_surge",
    "model": "ev",
    "horizon": 0.25,
    "time_steps": 50,
    "space": {"cells": 60},
    "series": {
        # consumption ramps up toward the end of the window
        "g": {"times": [0.0, 0.15, 0.25], "values": [0.3, 0.5, 1.1]},
        "d": {"times": [0.0, 0.1, 0.2, 0.25], "values": [0.6, 0.9, 1.0, 0.7]},
        "sigma": 0.1,
        "H": 5.0,
    },
    "costs": {
        "f": {"kind": "quadratic_shortage", "weight": 1.0, "target": 1.0},
        "kappa": {"kind": "quadratic_shortage", "weight": 1.0, "target": 1.0},
    },
    "price": {"exponent": 2.0, "coupled": True},
    "initial_density": {"kind": "truncated_gaussian", "mean": 0.55, "variance": 0.01},
    "solver": {"tol": 1.0e-6, "damping": 0.5},
}

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "evening_surge.yaml"
    config = evmfg.ScenarioConfig(data=evmfg.validate_config(doc), base_dir=Path(tmp))
    evmfg.write_scenario(config, path)
    print(f"wrote {path.name} (hash {evmfg.scenario_hash(config.data)[:12]})")

    config = evmfg.load_scenario(path)
    problem, options, _ = evmfg.build_problem(config)
    coupled = evmfg.solve_mfe(problem, options)
    print(f"coupled run: {coupled.iterations} iterations, residual {coupled.residuals[-1]:.2e}")

    frozen_cfg = evmfg.apply_overrides(config, ["price.coupled=false"])
    problem_f, options_f, _ = evmfg.build_problem(frozen_cfg)
    frozen = evmfg.solve_mfe(problem_f, options_f)
    print(f"decoupled run: {frozen.iterations} iterations (no feedback: the second pass repeats the first)")

    print()
    print("  time   price (coupled)   price (demand only)")
    for i in range(0, problem.tgrid.n_nodes, 10):
        t = problem.tgrid.nodes[i]
        print(f"  {t:.3f}   {coupled.p[i]:14.4f}   {frozen.p[i]:17.4f}")

    peak_ratio = coupled.p.max() / frozen.p.max()
    print(f"\npeak price with trading vs without: {peak_ratio:.3f}x")
