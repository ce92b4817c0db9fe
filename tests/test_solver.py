"""Outer fixed-point loop and the solution consistency audit."""

import dataclasses

import numpy as np
import pytest

import evmfg
from evmfg import (
    EvParams,
    EvProblem,
    MfeSolution,
    ScenarioError,
    SolverOptions,
    SpaceGrid,
    TimeGrid,
    apply_overrides,
    build_problem,
    load_scenario,
    solve_mfe,
    verify_solution,
)


def tent_density(sgrid, center, halfwidth):
    m = np.maximum(0.0, 1.0 - np.abs(sgrid.nodes(0) - center) / halfwidth)
    return m / (m.sum() * sgrid.spacing(0))


def small_problem(demand_coupled=True):
    tgrid = TimeGrid(0.2, 20)
    sgrid = SpaceGrid((30,))
    n = tgrid.n_nodes
    params = EvParams(
        tgrid=tgrid,
        g=np.full(n, 0.4),
        sigma=np.full(n, 0.1),
        H=np.full(n, 2.0),
        d=0.8 + 0.2 * np.sin(2 * np.pi * tgrid.nodes / 0.2),
        f_cost=lambda t, x: (1.0 - x) ** 2,
        kappa=lambda x: (1.0 - x) ** 2,
        demand_coupled=demand_coupled,
    )
    return EvProblem(params, sgrid, tent_density(sgrid, 0.5, 0.2))


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(damping=0.0)
    with pytest.raises(ValueError):
        SolverOptions(damping=1.5)
    with pytest.raises(ValueError):
        SolverOptions(tol=0.0)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ScenarioError, match="solver.tol: must be finite"):
            SolverOptions(tol=tol)
    with pytest.raises(ValueError):
        SolverOptions(max_iters=0)


def test_decoupled_price_converges_in_two_iterations():
    # without the demand coupling nothing feeds back, so the second pass
    # reproduces the first exactly
    problem = small_problem(demand_coupled=False)
    sol = solve_mfe(problem, SolverOptions(damping=1.0))
    assert sol.converged
    assert sol.iterations == 2
    assert sol.residuals[-1] == 0.0


def test_damping_does_not_move_the_fixed_point():
    problem = small_problem(demand_coupled=False)
    fast = solve_mfe(problem, SolverOptions(damping=1.0))
    damped = solve_mfe(problem, SolverOptions(damping=0.5))
    assert fast.converged and damped.converged
    assert float(np.abs(fast.m - damped.m).max()) <= 1e-4
    np.testing.assert_allclose(fast.p, damped.p, atol=1e-8)


def test_coupled_problem_converges_and_audits():
    problem = small_problem()
    sol = solve_mfe(problem, SolverOptions())
    assert sol.converged
    assert sol.residuals[-1] <= sol.tol
    assert len(sol.residuals) == sol.iterations
    report = verify_solution(sol, problem)
    assert report.passed
    assert report.price_deviation == 0.0
    assert report.control_deviation == 0.0
    assert report.density_deviation <= 10.0 * sol.tol


def test_non_convergence_is_reported_not_raised():
    problem = small_problem()
    sol = solve_mfe(problem, SolverOptions(max_iters=1))
    assert not sol.converged
    assert sol.iterations == 1
    report = verify_solution(sol, problem)
    assert isinstance(report.passed, bool)


def test_verify_flags_perturbed_value_field():
    problem = small_problem()
    sol = solve_mfe(problem, SolverOptions())
    rng = np.random.default_rng(7)
    bad = dataclasses.replace(sol, v=sol.v + 1e-2 * rng.standard_normal(sol.v.shape))
    report = verify_solution(bad, problem)
    assert not report.passed
    assert report.control_deviation > 10.0 * sol.tol


def test_verify_passes_hand_built_stationary_solution():
    # stationary population: alpha = g keeps m frozen, the price is decoupled,
    # and an affine value field reproduces alpha = g exactly except in the
    # reflecting empty-wall cell, where selling at -p/H is free; the tent
    # density holds no mass near that wall, so m stays frozen
    problem = small_problem(demand_coupled=False)
    params, tgrid, sgrid = problem.params, problem.tgrid, problem.sgrid
    g = params.g[0]
    m = np.tile(problem.m0, (tgrid.n_nodes, 1))
    # make the problem sigma-free and time-constant so the frozen density is exact
    params.sigma[:] = 0.0
    params.d[:] = params.d[0]
    p = problem.price(m)
    slope = -(g * params.H[:, None] + p[:, None])
    v = slope * sgrid.nodes(0)[None, :]
    alpha = np.full((tgrid.n_nodes, sgrid.shape[0]), g)
    alpha[:, 0] = -p / params.H
    sol = MfeSolution(
        v=v,
        m=m,
        p=p,
        alpha=(alpha,),
        residuals=[0.0],
        converged=True,
        iterations=1,
        tol=1e-6,
    )
    report = verify_solution(sol, problem)
    assert report.passed
    assert report.price_deviation == 0.0
    assert report.control_deviation <= 1e-12
    assert report.density_deviation <= 1e-12


def test_solve_stopped_at_max_iters_keeps_one_residual():
    problem = small_problem()
    sol = solve_mfe(problem, SolverOptions(max_iters=1))
    assert not sol.converged
    assert sol.iterations == 1
    assert len(sol.residuals) == 1 and sol.residuals[0] > sol.tol


def test_bundled_runs_converge(ev_run, phev_run):
    assert ev_run["solution"].converged
    assert phev_run["solution"].converged
    assert verify_solution(ev_run["solution"], ev_run["problem"]).passed
    assert verify_solution(phev_run["solution"], phev_run["problem"]).passed
    assert ev_run["solution"].iterations <= 8
    assert phev_run["solution"].iterations <= 8


@pytest.mark.parametrize(
    "overrides, max_iterations",
    [
        # cheap control: a plain damped iteration runs out 200 iterations here
        (["series.H=1.0"], 20),
        # stiff price at full step: a plain iteration 2-cycles at residual 0.13
        (["series.H=3.0", "price.exponent=4.0", "damping=1.0"], 200),
    ],
)
def test_accelerated_iteration_converges_where_picard_does_not(overrides, max_iterations):
    problem, options, _ = build_problem(apply_overrides(load_scenario("ev_weekend"), overrides))
    sol = solve_mfe(problem, options)
    assert sol.converged
    assert sol.iterations <= max_iterations
    assert verify_solution(sol, problem).passed


def test_least_squares_matches_lapack_and_skips_dependent_columns():
    from evmfg.solver import _least_squares

    rng = np.random.default_rng(3)
    b = rng.standard_normal(144)
    for n in range(1, 5):
        a = rng.standard_normal((144, n))
        np.testing.assert_allclose(
            _least_squares(a, b), np.linalg.lstsq(a, b, rcond=None)[0], atol=1e-12
        )
    a = rng.standard_normal((144, 4))
    a[:, 2] = 2.0 * a[:, 0] - a[:, 1]
    a[:, 3] = 0.0
    g = _least_squares(a, b)
    assert g[2] == 0.0 and g[3] == 0.0
    best = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.linalg.norm(b - a @ g) == pytest.approx(np.linalg.norm(b - a @ best), rel=1e-12)
