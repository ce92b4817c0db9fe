"""End-to-end acceptance suite.

One test per shipped guarantee; each prints a single PASS/FAIL line with the
measured numbers before asserting, so a verbose run reads as a checklist.
"""

import numpy as np
import pytest

from evmfg import (
    SpaceGrid,
    TimeGrid,
    apply_overrides,
    beta,
    beta_divergence,
    build_problem,
    dp_best_response,
    dp_deviation,
    ev_mdp,
    ev_purchases,
    hjb_backward_sweep,
    integrate,
    load_scenario,
    mc_population,
    phev_hjb_backward_sweep,
    solve_mfe,
    verify_solution,
)
from evmfg.ev import EvParams
from evmfg.phev import PhevParams

from test_oracle import _enumerate_value, _flat_mdp


def _report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. conservation, positivity, runtime


def test_criterion_01_mass_positivity_runtime(ev_run, phev_run):
    worst = 0.0
    for run in (ev_run, phev_run):
        sol, problem = run["solution"], run["problem"]
        for i in range(sol.m.shape[0]):
            worst = max(worst, abs(integrate(sol.m[i], problem.sgrid) - 1.0))
    min_density = min(ev_run["solution"].m.min(), phev_run["solution"].m.min())
    wall = ev_run["wall_time"]
    ok = worst <= 1e-8 and min_density >= 0.0 and wall < 60.0
    assert _report(
        1, ok,
        f"max mass defect {worst:.2e} (<= 1e-8), min density {min_density:.2e} (>= 0), "
        f"ev_weekend wall time {wall:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# 2. closed-form value sweeps converge at first order


def _ev_closed_form_error(n_steps: int, n_cells: int) -> float:
    tg = TimeGrid(t1=1.0, n_steps=n_steps)
    sg = SpaceGrid((n_cells,))
    c, h = 0.6, 2.0
    price = lambda t: 1.0 + 0.5 * np.sin(2.0 * np.pi * t)
    p = price(tg.nodes)
    n = tg.n_nodes
    # phi' = -c (1 - cos 2 pi x) vanishes at both walls, so v below meets the
    # reflecting (Neumann) wall condition; f cancels the x-dependence of the
    # Hamiltonian, so v - phi depends on t alone
    phi = lambda x: -c * (x - np.sin(2.0 * np.pi * x) / (2.0 * np.pi))
    dphi = lambda x: -c * (1.0 - np.cos(2.0 * np.pi * x))
    params = EvParams(
        tgrid=tg, g=np.zeros(n), d=np.zeros(n), sigma=np.zeros(n), H=np.full(n, h),
        f_cost=lambda t, x: ((dphi(x) + price(t)) ** 2 - (price(t) - c) ** 2) / (2.0 * h),
        kappa=phi,
    )
    v, _ = hjb_backward_sweep(p, params, sg)
    # v(t,x) = phi(x) - integral_t^T (p(s)-c)^2 / (2H) ds, any p(t)
    fine = np.linspace(0.0, 1.0, 20001)
    dens = (np.interp(fine, tg.nodes, p) - c) ** 2 / (2.0 * h)
    cum = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(fine))))
    tail = np.interp(tg.nodes, fine, cum[-1] - cum)
    exact = phi(sg.nodes(0))[None, :] + (-tail)[:, None]
    return float(np.abs(v - exact).max())


def _phev_closed_form_error(n_steps: int, n_cells: int) -> float:
    tg = TimeGrid(t1=1.0, n_steps=n_steps)
    sg = SpaceGrid((n_cells, n_cells))
    c, q1, q2, r2, g = 0.4, 125.0, 80.0, 0.7, 0.3
    price = lambda t: 0.9 + 0.2 * np.sin(2.0 * np.pi * t)
    r1 = price(tg.nodes)
    n = tg.n_nodes
    # phi' = -c (1 - cos 2 pi z) vanishes at both walls of each pack, so
    # v = phi(z1) + phi(z2) - tail(t) below meets the reflecting wall
    # condition; s cancels the z-dependence of the two pack Hamiltonians,
    # min over mu of (mu - beta_k g) phi' + mu r_k + Q_k mu^2 / 2
    phi = lambda z: -c * (z - np.sin(2.0 * np.pi * z) / (2.0 * np.pi))
    dphi = lambda z: -c * (1.0 - np.cos(2.0 * np.pi * z))
    dens = lambda t: (price(t) - c) ** 2 / (2.0 * q1) + (r2 - c) ** 2 / (2.0 * q2) - c * g

    def s_cost(t, z1, z2):
        b = beta(z1, z2)
        return (
            (dphi(z1) + price(t)) ** 2 / (2.0 * q1) + b * g * dphi(z1)
            + (dphi(z2) + r2) ** 2 / (2.0 * q2) + (1.0 - b) * g * dphi(z2)
            - dens(t)
        )

    params = PhevParams(
        tgrid=tg, g=np.full(n, g), Q1=np.full(n, q1), Q2=np.full(n, q2), r2=r2,
        s_cost=s_cost, xi=lambda z1, z2: phi(z1) + phi(z2),
    )
    v, _ = phev_hjb_backward_sweep(r1, params, sg)
    fine = np.linspace(0.0, 1.0, 20001)
    dense = dens(fine)
    cum = np.concatenate(([0.0], np.cumsum((dense[1:] + dense[:-1]) * 0.5 * np.diff(fine))))
    tail = np.interp(tg.nodes, fine, cum[-1] - cum)
    z1, z2 = sg.meshes()
    exact = (phi(z1) + phi(z2))[None] - tail[:, None, None]
    return float(np.abs(v - exact).max())


def test_criterion_02_closed_form_first_order():
    ev1 = _ev_closed_form_error(20, 25)
    ev2 = _ev_closed_form_error(40, 50)
    ph1 = _phev_closed_form_error(16, 8)
    ph2 = _phev_closed_form_error(32, 16)
    bound1 = (1.0 / 20 + 1.0 / 25)
    bound2 = (1.0 / 16 + 1.0 / 8)
    ok = (
        ev1 <= 1.0 * bound1 and ev1 / ev2 >= 1.8
        and ph1 <= 1.0 * bound2 and ph1 / ph2 >= 1.8
    )
    assert _report(
        2, ok,
        f"ev error {ev1:.2e} <= C(dt+dx), refinement ratio {ev1 / ev2:.2f} (>= 1.8); "
        f"phev error {ph1:.2e}, ratio {ph1 / ph2:.2f} (>= 1.8)",
    )


# ---------------------------------------------------------------------------
# 3. dynamic-programming cross-validation


def test_criterion_03_dp_cross_validation(ev_run):
    sol, problem = ev_run["solution"], ev_run["problem"]
    mdp = ev_mdp(problem.params, sol.p, n_states=20)
    value, _ = dp_best_response(mdp)
    dev = dp_deviation(mdp, value, sol.v, problem.sgrid)
    dp_ok = bool(dev.max() <= 0.02)

    enum_ok = True
    for mdp_micro in (
        _flat_mdp(n_states=3, n_steps=2, actions=(-1.0, 0.0, 1.0), H=0.8, p=0.6,
                  f_cost=lambda t, s: (1.0 - s) ** 2 + 0.1 * t,
                  kappa=lambda s: 2.0 * (1.0 - s), t1=1.0),
        _flat_mdp(n_states=5, n_steps=3, actions=(-1.0, 0.0, 1.0), H=1.3, p=0.4,
                  f_cost=lambda t, s: 0.5 * (1.0 - s) ** 2,
                  kappa=lambda s: (1.0 - s) ** 2, t1=0.75),
    ):
        table, _ = dp_best_response(mdp_micro)
        enum_ok = enum_ok and np.array_equal(table, _enumerate_value(mdp_micro))

    ok = dp_ok and enum_ok
    n_bad = int((dev > 0.02).sum())
    assert _report(
        3, ok,
        f"20-state dp deviation {dev.max():.4f} (<= 0.02) with {n_bad} lattice states over "
        f"threshold (worst at battery {mdp.states[int(dev.argmax())]:.3f}; all interior states "
        f"<= {dev[4:].max():.4f}); micro-instance enumeration exact: {enum_ok}",
    )


# ---------------------------------------------------------------------------
# 4. Monte Carlo cross-validation


def test_criterion_04_monte_carlo_density(ev_run):
    sol, problem = ev_run["solution"], ev_run["problem"]
    hist = mc_population(
        sol.alpha[0], sol.m[0], problem.params, problem.tgrid, problem.sgrid,
        n_agents=100_000, seed=0,
    )
    dist = float((np.abs(hist - sol.m).sum(axis=1) * problem.sgrid.spacing(0)).max())
    ok = dist <= 0.1
    assert _report(4, ok, f"sup-t L1 distance {dist:.4f} (<= 0.1), 100000 agents, seed 0")


# ---------------------------------------------------------------------------
# 5. peak shaving


def test_criterion_05_peak_shaving(ev_run):
    sol, problem = ev_run["solution"], ev_run["problem"]
    purchases = ev_purchases(sol.m, problem)
    regulated = purchases + problem.params.d
    baseline = float(purchases.mean()) + problem.params.d
    peak_cut = (baseline.max() - regulated.max()) / baseline.max()
    ok = (
        regulated.max() < baseline.max()
        and regulated.min() > baseline.min()
        and peak_cut >= 0.005
    )
    assert _report(
        5, ok,
        f"peak {regulated.max():.4f} < {baseline.max():.4f} (cut {100 * peak_cut:.2f}% >= 0.5%), "
        f"trough {regulated.min():.4f} > {baseline.min():.4f}",
    )


# ---------------------------------------------------------------------------
# 6. hybrid equilibrium price level


def test_criterion_06_phev_price_level(phev_run):
    r1_start = float(phev_run["solution"].p[0])
    wall = phev_run["wall_time"]
    ok = 0.65 <= r1_start <= 0.75 and wall < 120.0
    assert _report(
        6, ok, f"r1 at t=0+ is {r1_start:.4f} (within [0.65, 0.75]), wall time {wall:.1f}s (< 120s)"
    )


# ---------------------------------------------------------------------------
# 7. hybrid density dynamics


def test_criterion_07_phev_density_dynamics(phev_run):
    sol, problem = phev_run["solution"], phev_run["problem"]
    z1, z2 = problem.sgrid.meshes()
    final = sol.m[-1]
    mean1 = integrate(z1 * final, problem.sgrid)
    mean2 = integrate(z2 * final, problem.sgrid)
    var1 = integrate((z1 - mean1) ** 2 * final, problem.sgrid)
    var2 = integrate((z2 - mean2) ** 2 * final, problem.sgrid)
    cov = integrate((z1 - mean1) * (z2 - mean2) * final, problem.sgrid)
    corr = cov / np.sqrt(var1 * var2)
    ok = mean1 > 0.4 and mean2 >= 0.6 and corr < 0.0
    assert _report(
        7, ok,
        f"final mean z1 {mean1:.4f} (> 0.4), final mean z2 {mean2:.4f} (>= 0.6), "
        f"corr {corr:.4f} (< 0)",
    )


# ---------------------------------------------------------------------------
# 8. charging-split identity


def test_criterion_08_beta_identity(phev_run):
    problem = phev_run["problem"]
    z1, z2 = problem.sgrid.meshes()
    div = beta_divergence(z1, z2)
    exact_ok = np.array_equal(div, 1.0 / (z1 + z2))
    h = 1e-5
    central = (beta(z1 + h, z2) - beta(z1 - h, z2)) / (2 * h) - (
        beta(z1, z2 + h) - beta(z1, z2 - h)
    ) / (2 * h)
    diff_err = float(np.abs(central - div).max())
    ok = exact_ok and diff_err <= 1e-6
    assert _report(
        8, ok,
        f"beta_divergence == 1/(z1+z2) exactly: {exact_ok}; central-difference error "
        f"{diff_err:.2e} (<= 1e-6)",
    )


# ---------------------------------------------------------------------------
# 9. pointwise Hamiltonian minimality


def test_criterion_09_hamiltonian_minimality(ev_run, phev_run):
    violations = 0

    sol, problem = ev_run["solution"], ev_run["problem"]
    (alpha,) = sol.alpha
    dx = problem.sgrid.spacing(0)
    for i in range(sol.v.shape[0]):
        # upwind one-sided differences; the reflecting ghost cells make the
        # backward one vanish in the first cell and the forward one in the last
        fwd = np.zeros_like(sol.v[i])
        fwd[:-1] = np.diff(sol.v[i]) / dx
        bwd = np.zeros_like(fwd)
        bwd[1:] = fwd[:-1]
        h_coef = problem.params.H[i]
        g_i = problem.params.g[i]
        p_i = sol.p[i]

        def ham(a):
            drift = a - g_i
            return (
                np.maximum(drift, 0.0) * fwd + np.minimum(drift, 0.0) * bwd
                + a * p_i + 0.5 * h_coef * a ** 2
            )

        base = ham(alpha[i])
        for delta in (1e-3, 1e-2):
            violations += int((ham(alpha[i] + delta) < base - 1e-12).sum())
            violations += int((ham(alpha[i] - delta) < base - 1e-12).sum())

    sol2, problem2 = phev_run["solution"], phev_run["problem"]
    mu1, mu2 = sol2.alpha
    b = beta(*problem2.sgrid.meshes())
    for i in range(sol2.v.shape[0]):
        # the same upwind one-sided differences along each pack's axis, with
        # reflecting ghost cells at both walls of each pack
        fwd1 = np.zeros_like(sol2.v[i])
        fwd1[:-1] = np.diff(sol2.v[i], axis=0) / problem2.sgrid.spacing(0)
        bwd1 = np.zeros_like(fwd1)
        bwd1[1:] = fwd1[:-1]
        fwd2 = np.zeros_like(sol2.v[i])
        fwd2[:, :-1] = np.diff(sol2.v[i], axis=1) / problem2.sgrid.spacing(1)
        bwd2 = np.zeros_like(fwd2)
        bwd2[:, 1:] = fwd2[:, :-1]
        g1 = b * problem2.params.g[i]
        g2 = (1.0 - b) * problem2.params.g[i]
        q1 = problem2.params.Q1[i]
        q2 = problem2.params.Q2[i]
        r1_i = sol2.p[i]
        r2 = problem2.params.r2

        def ham2(a1, a2):
            d1 = a1 - g1
            d2 = a2 - g2
            return (
                a1 * r1_i + a2 * r2 + 0.5 * q1 * a1 ** 2 + 0.5 * q2 * a2 ** 2
                + np.maximum(d1, 0.0) * fwd1 + np.minimum(d1, 0.0) * bwd1
                + np.maximum(d2, 0.0) * fwd2 + np.minimum(d2, 0.0) * bwd2
            )

        base = ham2(mu1[i], mu2[i])
        for delta in (1e-3, 1e-2):
            for d1 in (-delta, 0.0, delta):
                for d2 in (-delta, 0.0, delta):
                    if d1 == 0.0 and d2 == 0.0:
                        continue
                    violations += int((ham2(mu1[i] + d1, mu2[i] + d2) < base - 1e-12).sum())

    ok = violations == 0
    assert _report(9, ok, f"{violations} violations across all nodes, both models, delta in {{1e-3, 1e-2}}")


# ---------------------------------------------------------------------------
# 10. fixed-point audit


def test_criterion_10_fixed_point_audit(ev_run, phev_run):
    reports = [
        verify_solution(run["solution"], run["problem"]) for run in (ev_run, phev_run)
    ]
    verify_ok = all(report.passed for report in reports)

    config = apply_overrides(
        load_scenario("ev_weekend"), ["price.coupled=false", "damping=1.0"]
    )
    problem, options, _ = build_problem(config)
    decoupled = solve_mfe(problem, options)
    decoupled_ok = decoupled.converged and decoupled.iterations == 2

    ok = verify_ok and decoupled_ok
    assert _report(
        10, ok,
        f"verify passed on both runs: {verify_ok}; decoupled price converged in "
        f"{decoupled.iterations} iterations (== 2)",
    )
