"""Two-pack hybrid vehicles: endogenous grid price and battery migration.

Each hybrid splits its grid draw between two storage packs in proportion
to the first pack's share beta = z1/(z1+z2). Only the first pack's price
r1 is endogenous; the second is a flat outside option r2. The solved
equilibrium prices the two packs almost identically and shifts charge
so that total storage z1 + z2 concentrates while the packs decorrelate.

Run:  python demos/02_hybrid_two_packs.py [out_dir]
"""

import sys
import time

import numpy as np

import evmfg

config = evmfg.load_scenario("phev_flat")
problem, options, resampled = evmfg.build_problem(config)

start = time.perf_counter()
sol = evmfg.solve_mfe(problem, options)
wall = time.perf_counter() - start

print(f"scenario: {config.name} ({problem.tgrid.n_steps} steps x {'x'.join(map(str, problem.sgrid.shape))} cells)")
print(f"converged: {sol.converged} after {sol.iterations} iterations in {wall:.1f}s")
print(f"r1 at t=0+: {sol.p[0]:.4f}   (flat outside option r2 = {problem.params.r2})")
print(f"r1 range over the horizon: [{sol.p.min():.4f}, {sol.p.max():.4f}]")

z1, z2 = problem.sgrid.meshes()


def moments(slice_):
    m1 = evmfg.integrate(z1 * slice_, problem.sgrid)
    m2 = evmfg.integrate(z2 * slice_, problem.sgrid)
    v1 = evmfg.integrate((z1 - m1) ** 2 * slice_, problem.sgrid)
    v2 = evmfg.integrate((z2 - m2) ** 2 * slice_, problem.sgrid)
    cov = evmfg.integrate((z1 - m1) * (z2 - m2) * slice_, problem.sgrid)
    return m1, m2, cov / np.sqrt(v1 * v2)


for label, slice_ in (("initial", sol.m[0]), ("final", sol.m[-1])):
    m1, m2, corr = moments(slice_)
    print(f"{label:7s} density: mean z1 = {m1:.4f}, mean z2 = {m2:.4f}, corr = {corr:+.4f}")

# charging controls at t=0 along the z2 = 0.5 section
k = int(np.argmin(np.abs(problem.sgrid.nodes(1) - 0.5)))
mu1, mu2 = sol.alpha
print(f"\ncontrols at t=0 along z2 = {problem.sgrid.nodes(1)[k]:.3f}:")
print("   z1      mu1        mu2")
for j in range(0, problem.sgrid.shape[0], 3):
    print(f"  {problem.sgrid.nodes(0)[j]:.3f}  {mu1[0, j, k]:+.6f}  {mu2[0, j, k]:+.6f}")

if len(sys.argv) > 1:
    files = evmfg.export_results(sol, problem, config, sys.argv[1], wall_time=wall, resampled=resampled)
    print(f"\nwrote {', '.join(files)} to {sys.argv[1]}")
