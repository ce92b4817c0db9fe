"""Solve the bundled weekend scenario and look at the demand-shaping effect.

A population of battery vehicles trades electricity against a price that
rises with total consumption. In equilibrium the crowd shifts purchases
away from the demand peak, which flattens the aggregate load curve.

Run:  python demos/01_weekend_charging.py [out_dir]
"""

import sys
import time

import numpy as np

import evmfg

config = evmfg.load_scenario("ev_weekend")
problem, options, resampled = evmfg.build_problem(config)

start = time.perf_counter()
sol = evmfg.solve_mfe(problem, options)
wall = time.perf_counter() - start

print(f"scenario: {config.name} ({problem.tgrid.n_steps} steps x {problem.sgrid.shape[0]} cells)")
print(f"converged: {sol.converged} after {sol.iterations} iterations in {wall:.1f}s")
print(f"final density residual: {sol.residuals[-1]:.3e}")

# mass is conserved structurally by the conservative transport step
masses = [evmfg.integrate(sol.m[i], problem.sgrid) for i in range(sol.m.shape[0])]
print(f"worst mass defect over {len(masses)} slices: {max(abs(m - 1.0) for m in masses):.2e}")

# aggregate purchases g + d/dt E[x], and the load curve with/without trading
_, regulated, baseline = evmfg.ev_load(sol.m, problem.params, problem.sgrid)
cut = (baseline.max() - regulated.max()) / baseline.max()
print()
print(f"peak load:   {regulated.max():.4f} regulated vs {baseline.max():.4f} flat-purchase baseline")
print(f"trough load: {regulated.min():.4f} regulated vs {baseline.min():.4f} baseline")
print(f"peak reduction: {100 * cut:.2f}%")

# the audit recomputes price, control and density from the converged fields
report = evmfg.verify_solution(sol, problem)
print()
print(report)

if len(sys.argv) > 1:
    files = evmfg.export_results(sol, problem, config, sys.argv[1], wall_time=wall, resampled=resampled)
    print(f"\nwrote {', '.join(files)} to {sys.argv[1]}")
