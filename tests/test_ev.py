"""EV model: price law, control formula, HJB/FPK sweeps, and cost functional."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evmfg
import evmfg.ev as ev_module
from evmfg import (
    DivergenceError,
    EvParams,
    EvProblem,
    ScenarioError,
    SpaceGrid,
    TimeGrid,
    ev_cost,
    ev_price,
    fpk_forward_sweep,
    hjb_backward_sweep,
    integrate,
    optimal_control,
    space_mean,
)
from evmfg.numerics import SUBSTEP_SAFETY, axis_index, diffuse, face_velocities
from evmfg.oracle import ev_mdp
from reference_stencils import diff2, diff_upwind

ZERO = staticmethod(lambda t, x: np.zeros_like(x))


def make_params(tgrid, g=0.2, sigma=0.0, H=30.0, d=1.0, f_cost=None, kappa=None, **kw):
    n = tgrid.n_nodes
    return EvParams(
        tgrid=tgrid,
        g=np.full(n, g),
        sigma=np.full(n, sigma),
        H=np.full(n, H),
        d=np.full(n, d),
        f=f_cost or (lambda t, x: np.zeros_like(x)),
        kappa=kappa or (lambda x: np.zeros_like(x)),
        **kw,
    )


def two_cell_density(sgrid, j0, j1, weights):
    """Mixture over two cells with exactly prescribed per-slice weights."""
    m = np.zeros((len(weights), sgrid.shape[0]))
    for i, w in enumerate(weights):
        m[i, j0] = (1.0 - w) / sgrid.spacing(0)
        m[i, j1] = w / sgrid.spacing(0)
    return m


# ---------------------------------------------------------------------------
# ev_price


def test_ev_price_stationary_density():
    tgrid = TimeGrid(1.0, 4)
    sgrid = SpaceGrid((20,))
    params = make_params(tgrid, g=0.2, d=1.0)
    m = np.tile(np.full(20, 1.0), (tgrid.n_nodes, 1))
    np.testing.assert_allclose(ev_price(m, params, sgrid), 1.44, rtol=1e-12)


def test_ev_price_clamps_negative_demand():
    tgrid = TimeGrid(1.0, 4)
    sgrid = SpaceGrid((20,))
    params = make_params(tgrid, g=-0.3, d=1.0)
    m = np.tile(np.full(20, 1.0), (tgrid.n_nodes, 1))
    np.testing.assert_allclose(ev_price(m, params, sgrid), 1.0, rtol=1e-12)


def test_ev_price_with_moving_mean():
    # two-cell mixture whose mean rises by exactly 0.1 per unit time
    tgrid = TimeGrid(1.0, 4)
    sgrid = SpaceGrid((20,))
    j0, j1 = 4, 14  # centers 0.225 and 0.725, gap 0.5
    weights = 0.2 + 0.1 * tgrid.nodes / 0.5
    m = two_cell_density(sgrid, j0, j1, weights)
    params = make_params(tgrid, g=0.6, d=1.0)
    np.testing.assert_allclose(ev_price(m, params, sgrid), 2.89, rtol=1e-10)


def test_ev_price_decoupled_ignores_density():
    tgrid = TimeGrid(1.0, 4)
    sgrid = SpaceGrid((20,))
    params = make_params(tgrid, g=0.6, d=1.1, coupled=False)
    m = two_cell_density(sgrid, 4, 14, 0.2 + 0.1 * tgrid.nodes)
    np.testing.assert_allclose(ev_price(m, params, sgrid), 1.21, rtol=1e-12)


# ---------------------------------------------------------------------------
# optimal_control


def test_optimal_control_gradient_cancels_price():
    tgrid = TimeGrid(1.0, 3)
    sgrid = SpaceGrid((30,))
    params = make_params(tgrid, H=30.0)
    p = np.full(tgrid.n_nodes, 1.7)
    v = np.outer(-p, sgrid.nodes(0))  # dv/dx = -p on every slice
    (alpha,) = optimal_control(v, p, params, sgrid)
    np.testing.assert_allclose(alpha[:, 1:], 0.0, atol=1e-13)
    # the reflecting empty wall: a sale moves no charge, so it is paid at -p/H
    np.testing.assert_allclose(alpha[:, 0], -1.7 / 30.0, rtol=1e-12)


def test_optimal_control_flat_value():
    tgrid = TimeGrid(1.0, 3)
    sgrid = SpaceGrid((30,))
    params = make_params(tgrid, H=30.0)
    p = np.full(tgrid.n_nodes, 1.44)
    v = np.zeros((tgrid.n_nodes, 30))
    np.testing.assert_allclose(optimal_control(v, p, params, sgrid), -0.048, rtol=1e-12)


def test_optimal_control_linear_value():
    tgrid = TimeGrid(1.0, 3)
    sgrid = SpaceGrid((30,))
    params = make_params(tgrid, H=30.0)
    p = np.full(tgrid.n_nodes, 1.5)
    v = np.tile(-3.0 * sgrid.nodes(0), (tgrid.n_nodes, 1))
    (alpha,) = optimal_control(v, p, params, sgrid)
    np.testing.assert_allclose(alpha[:, 1:], 0.05, rtol=1e-12)
    np.testing.assert_allclose(alpha[:, 0], -0.05, rtol=1e-12)  # empty wall: -p/H


# ---------------------------------------------------------------------------
# hjb_backward_sweep


def test_hjb_constant_solution():
    tgrid = TimeGrid(1.0, 10)
    sgrid = SpaceGrid((25,))
    c = 2.5
    params = make_params(tgrid, g=0.3, sigma=0.1, kappa=lambda x: np.full_like(x, c))
    v, _ = hjb_backward_sweep(np.zeros(tgrid.n_nodes), params, sgrid)
    np.testing.assert_allclose(v, c, rtol=1e-13)


def test_hjb_terminal_condition_exact():
    tgrid = TimeGrid(1.0, 5)
    sgrid = SpaceGrid((25,))
    params = make_params(tgrid, kappa=lambda x: (1.0 - x) ** 2)
    v, _ = hjb_backward_sweep(np.ones(tgrid.n_nodes), params, sgrid)
    assert np.array_equal(v[-1], (1.0 - sgrid.nodes(0)) ** 2)


@pytest.mark.parametrize(
    "sigma,H,n_steps", [(0.0, 30.0, 12), (1.0, 0.5, 12), (0.0, 30.0, 120)], ids=["smooth", "substepped", "blocks"])
def test_hjb_sweep_control_is_optimal_control(sigma, H, n_steps):
    # the sweep's control at node j is the minimiser it evaluates on v[j],
    # exactly what optimal_control recomputes from the returned value, also
    # when a step takes many substeps (sigma = 1 on 100 cells) and when the
    # recomputation takes several blocks of nodes (121 nodes of 100 cells)
    tgrid = TimeGrid(1.0, n_steps)
    sgrid = SpaceGrid((100,))
    params = make_params(
        tgrid, g=0.4, sigma=sigma, H=H,
        f_cost=lambda t, x: 3.0 * (1.0 - x) ** 2 * (1.0 + t), kappa=lambda x: 2.0 * (1.0 - x) ** 2,
    )
    p = 1.0 + 0.5 * np.sin(2.0 * np.pi * tgrid.nodes)
    v, alpha = hjb_backward_sweep(p, params, sgrid)
    assert np.array_equal(alpha, optimal_control(v, p, params, sgrid))


def closed_form_error(n_steps, n_cells, k=0.5, f0=0.3, p0=1.2, H=2.0, T=1.0):
    """Max-node error against v = k + (T-t)(f0 - p0^2/(2H))."""
    tgrid = TimeGrid(T, n_steps)
    sgrid = SpaceGrid((n_cells,))
    params = make_params(
        tgrid, g=0.0, sigma=0.0, H=H,
        f_cost=lambda t, x: np.full_like(x, f0), kappa=lambda x: np.full_like(x, k),
    )
    v, _ = hjb_backward_sweep(np.full(tgrid.n_nodes, p0), params, sgrid)
    exact = k + (T - tgrid.nodes)[:, None] * (f0 - p0 ** 2 / (2 * H))
    return float(np.abs(v - exact).max())


def test_hjb_linear_terminal_closed_form():
    # a flat value keeps the RHS constant, so backward Euler is exact here
    # (sloped affine data cannot stay exact beside a reflecting wall)
    assert closed_form_error(20, 30) < 1e-12


def reflecting_closed_form_errors(g, c=0.5, H=2.0, T=1.0):
    """(max-node error, dt + dx) on two grids against a reflected solution.

    v = phi(x) - int_t^T (p(s)-c)^2/(2H) ds with phi' = -c (1 - cos 2 pi x),
    which vanishes at both walls (reflecting), and
    f = [(phi' + p)^2 - (p - c)^2]/(2H) + g phi'.
    """
    price = lambda t: 1.0 + 0.5 * np.sin(2 * np.pi * t)
    phi = lambda x: -c * (x - np.sin(2 * np.pi * x) / (2 * np.pi))
    dphi = lambda x: -c * (1.0 - np.cos(2 * np.pi * x))
    errors = []
    for n_steps, n_cells in ((20, 25), (40, 50)):
        tgrid = TimeGrid(T, n_steps)
        sgrid = SpaceGrid((n_cells,))
        p = price(tgrid.nodes)
        params = make_params(
            tgrid, g=g, sigma=0.0, H=H, kappa=phi,
            f_cost=lambda t, x: ((dphi(x) + price(t)) ** 2 - (price(t) - c) ** 2) / (2 * H) + g * dphi(x),
        )
        v, _ = hjb_backward_sweep(p, params, sgrid)
        # dense trapezoid evaluation of the remaining-cost integral
        tt = np.linspace(0.0, T, 20001)
        dense = (price(tt) - c) ** 2 / (2 * H)
        cum = np.concatenate(([0.0], np.cumsum((dense[1:] + dense[:-1]) * 0.5 * np.diff(tt))))
        tail = cum[-1] - np.interp(tgrid.nodes, tt, cum)
        exact = phi(sgrid.nodes(0))[None, :] - tail[:, None]
        errors.append((float(np.abs(v - exact).max()), tgrid.dt + sgrid.spacing(0)))
    return errors


def test_hjb_time_varying_price_first_order():
    # time-varying price makes the closed form a genuine O(dt) check; with
    # g > 0 the drift also points into the empty wall
    for g in (0.0, 0.3):
        (e1, h1), (e2, _) = reflecting_closed_form_errors(g)
        assert e1 <= 1.0 * h1
        assert e1 / e2 >= 1.8


def test_hjb_discrete_residual():
    # single-substep regime: the sweep must satisfy its own discretization
    # identity (v_{i+1} - v_i)/dt = RHS(t_{i+1}, v_{i+1}) to roundoff
    tgrid = TimeGrid(0.02, 10)
    sgrid = SpaceGrid((20,))
    params = make_params(
        tgrid,
        g=0.5,
        sigma=0.1,
        H=30.0,
        f_cost=lambda t, x: (1.0 - x) ** 2,
        kappa=lambda x: (1.0 - x) ** 2,
    )
    p = np.full(tgrid.n_nodes, 0.5)
    v, _ = hjb_backward_sweep(p, params, sgrid)
    worst = 0.0
    for i in range(tgrid.n_steps):
        j = i + 1
        g, h = params.g[j], params.H[j]
        diff = params.sigma[j] ** 2 * g ** 2
        # monotone upwind Hamiltonian with reflecting ghost cells: the smaller
        # of the minima over a >= g (forward difference) and a <= g (backward)
        fwd = np.zeros(sgrid.shape[0])
        fwd[:-1] = np.diff(v[j]) / sgrid.spacing(0)
        bwd = np.zeros(sgrid.shape[0])
        bwd[1:] = fwd[:-1]
        a_up = np.maximum(-(fwd + p[j]) / h, g)
        a_dn = np.minimum(-(bwd + p[j]) / h, g)
        ham = np.minimum(
            (a_up - g) * fwd + a_up * p[j] + 0.5 * h * a_up ** 2,
            (a_dn - g) * bwd + a_dn * p[j] + 0.5 * h * a_dn ** 2,
        )
        rhs = (
            -ham
            - params.f(tgrid.nodes[j], sgrid.nodes(0))
            - 0.5 * diff * diff2(v[j], sgrid)
        )
        res = (v[j] - v[i]) / tgrid.dt - rhs
        worst = max(worst, float(np.abs(res).max()))
    assert worst <= 1e-10


def test_hjb_divergence_reports_time_node():
    tgrid = TimeGrid(1.0, 5)
    sgrid = SpaceGrid((20,))
    params = make_params(tgrid)
    p = np.full(tgrid.n_nodes, np.nan)
    with pytest.raises(DivergenceError) as exc:
        hjb_backward_sweep(p, params, sgrid)
    assert exc.value.time_node is not None


# ---------------------------------------------------------------------------
# fpk_forward_sweep


def tent_density(sgrid, center, halfwidth):
    m = np.maximum(0.0, 1.0 - np.abs(sgrid.nodes(0) - center) / halfwidth)
    return m / integrate(m, sgrid)


def test_fpk_frozen_population():
    tgrid = TimeGrid(1.0, 8)
    sgrid = SpaceGrid((40,))
    params = make_params(tgrid, g=0.4, sigma=0.0)
    m0 = tent_density(sgrid, 0.5, 0.2)
    alpha = np.full((tgrid.n_nodes, 40), 0.4)  # alpha = g pointwise
    m = fpk_forward_sweep((alpha,), m0, params, sgrid)
    for i in range(tgrid.n_nodes):
        np.testing.assert_array_equal(m[i], m0)


def test_fpk_translation():
    # constant drift c: the discrete center of mass moves at exactly c
    # while the support stays away from the walls
    tgrid = TimeGrid(0.5, 25)
    sgrid = SpaceGrid((50,))
    c = 0.2
    params = make_params(tgrid, g=0.1, sigma=0.0)
    m0 = tent_density(sgrid, 0.3, 0.15)
    alpha = np.full((tgrid.n_nodes, 50), 0.1 + c)
    m = fpk_forward_sweep((alpha,), m0, params, sgrid)
    mean0 = space_mean(m0, sgrid)
    mean_T = space_mean(m[-1], sgrid)
    assert abs(mean_T - (mean0 + c * 0.5)) <= sgrid.spacing(0)
    assert abs(mean_T - (mean0 + c * 0.5)) <= 1e-8  # exact for constant drift


def test_fpk_variance_growth():
    # zero drift with noise: variance grows at sigma^2 g^2 per unit time
    tgrid = TimeGrid(0.5, 20)
    sgrid = SpaceGrid((80,))
    sigma, g = 0.1, 0.5
    params = make_params(tgrid, g=g, sigma=sigma)
    m0 = tent_density(sgrid, 0.5, 0.1)
    alpha = np.full((tgrid.n_nodes, 80), g)
    m = fpk_forward_sweep((alpha,), m0, params, sgrid)

    def variance(slice_):
        mu = space_mean(slice_, sgrid)
        return integrate((sgrid.nodes(0) - mu) ** 2 * slice_, sgrid)

    assert abs(space_mean(m[-1], sgrid) - space_mean(m0, sgrid)) <= 1e-8
    grown = variance(m[-1]) - variance(m0)
    assert abs(grown - sigma**2 * g**2 * 0.5) <= 1e-8


def test_fpk_rejects_unnormalized_m0():
    tgrid = TimeGrid(1.0, 5)
    sgrid = SpaceGrid((20,))
    params = make_params(tgrid)
    m0 = tent_density(sgrid, 0.5, 0.2) * 1.1
    with pytest.raises(ValueError):
        fpk_forward_sweep((np.zeros((6, 20)),), m0, params, sgrid)


def test_non_finite_m0_is_rejected():
    tgrid = TimeGrid(1.0, 5)
    sgrid = SpaceGrid((20,))
    params = make_params(tgrid)
    m0 = tent_density(sgrid, 0.5, 0.2)
    for bad in (np.nan, np.inf):
        m0[3] = bad
        with pytest.raises(ValueError, match=f"initial density mass {bad}"):
            EvProblem(params, sgrid, m0)
        with pytest.raises(ValueError, match=f"initial density mass {bad}"):
            fpk_forward_sweep((np.zeros((6, 20)),), m0, params, sgrid)


def test_a_negative_initial_density_is_an_input_error_not_a_divergence():
    # one rule for both entries: a cell below 0 by any margin
    tgrid, sgrid = TimeGrid(1.0, 5), SpaceGrid((20,))
    params = make_params(tgrid)
    for low in (-0.5, -1e-300):
        m0 = tent_density(sgrid, 0.5, 0.2)
        m0[0], m0[10] = low, m0[10] - low  # unit mass, one cell at low
        for build in (lambda: EvProblem(params, sgrid, m0),
                      lambda: fpk_forward_sweep((np.zeros((6, 20)),), m0, params, sgrid)):
            with pytest.raises(ScenarioError) as err:
                build()
            assert err.value.field == "initial_density"
            assert str(err.value) == f"initial_density: m0 has a cell at {low:.3e}, below 0"


def test_an_initial_density_of_another_grid_is_rejected():
    tgrid = TimeGrid(1.0, 5)
    sgrid = SpaceGrid((20,))
    params = make_params(tgrid)
    m0 = tent_density(SpaceGrid((19,)), 0.5, 0.2)
    for build in (lambda: EvProblem(params, sgrid, m0),
                  lambda: fpk_forward_sweep((np.zeros((6, 20)),), m0, params, sgrid)):
        with pytest.raises(ScenarioError) as err:
            build()
        assert str(err.value) == "initial_density: m0 does not match the space grid"


def test_a_density_slice_that_is_not_finite_or_has_a_negative_cell_is_a_divergence():
    check = ev_module._check_density_slice
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DivergenceError) as err:
            check(np.array([0.5, bad, 0.5]), 3)
        assert str(err.value) == "density slice is not finite (time node 3)"
        assert err.value.time_node == 3
    # the scheme keeps every cell nonnegative, so no margin is roundoff: the check clamps nothing
    for low in (-2e-8, -1e-300):
        with pytest.raises(DivergenceError) as err:
            check(np.array([1.0, low, 1.0]), 5)
        assert str(err.value) == f"density slice has a cell at {low:.3e}, below 0 (time node 5)"
        assert err.value.time_node == 5
    slice_ = np.array([1.0, 0.0, -0.0, 1.0])
    assert check(slice_, 5) is slice_


# ---------------------------------------------------------------------------
# the density substep: one face flux per axis, advection and explicit diffusion together


def _substep(m, drift, sgrid, dt_sub, half_diff=0.0):
    """``ev._density_substep`` of the slice m under a cell drift per axis, diffusing explicitly by half_diff on axis 0."""
    geometry = ev_module._geometry(sgrid)
    faces = [face_velocities(d, sgrid, axis) for axis, d in enumerate(drift)]
    if half_diff:
        k = half_diff / sgrid.spacing(0)
        faces[0] = faces[0] + np.array([k, -k]).reshape((2,) + (1,) * m.ndim)
    fluxes = ev_module._face_buffers(sgrid.shape, range(m.ndim))
    products = [np.empty_like(flux[at.inner]) for flux, (_, at) in zip(fluxes, geometry)]
    new = ev_module._density_substep(m, faces, [dt_sub / dx for dx, _ in geometry], fluxes, geometry, products,
                                     np.empty(m.shape), np.empty(m.shape))
    for flux, (_, at) in zip(fluxes, geometry):
        assert not flux[at.first].any() and not flux[at.last].any()  # no flux through a wall
    return new


def test_a_density_substep_at_zero_drift_without_diffusion_moves_nothing():
    m = np.random.default_rng(0).random((6, 7))
    assert np.array_equal(_substep(m, [np.zeros((6, 7))] * 2, SpaceGrid((6, 7)), 0.1), m)


@pytest.mark.parametrize("c, spike, into", [(0.3, 1, 2), (-0.5, 2, 1)])
def test_a_density_substep_moves_a_spike_downstream_only(c, spike, into):
    # a uniform drift c drains a one-cell spike into its downstream neighbour, by the share |c| dt_sub / dx
    sgrid, dt_sub = SpaceGrid((4,)), 0.05
    m = np.zeros(4)
    m[spike] = 1.0
    new = _substep(m, [np.full(4, c)], sgrid, dt_sub)
    share = abs(c) * dt_sub / sgrid.spacing(0)
    np.testing.assert_allclose(new[[spike, into]], [1.0 - share, share], rtol=1e-14)
    assert np.count_nonzero(new) == 2


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([(12,), (6, 7)]))
def test_a_density_substep_keeps_the_cell_sum(seed, shape):
    rng = np.random.default_rng(seed)
    sgrid = SpaceGrid(shape)
    m = rng.random(shape)
    new = _substep(m, [rng.uniform(-2.0, 2.0, shape) for _ in shape], sgrid, 0.01, rng.uniform(0.0, 0.5))
    assert abs(new.sum() - m.sum()) <= 1e-14 * m.sum()


@pytest.mark.parametrize("shape", [(13,), (5, 7)])
def test_a_density_substep_is_the_stencil_form_up_to_roundoff(shape):
    # m - dt_sub (sum of the upwind divergences) + dt_sub half_diff D2 m, in one flux
    rng = np.random.default_rng(4)
    sgrid, dt_sub, half_diff = SpaceGrid(shape), 0.002, 0.3
    m, drift = rng.random(shape), [rng.uniform(-1.0, 1.0, shape) for _ in shape]
    div = sum(diff_upwind(m, face_velocities(d, sgrid, axis), sgrid, axis) for axis, d in enumerate(drift))
    want = m + dt_sub * (half_diff * diff2(m, sgrid, 0) - div)
    got = _substep(m, drift, sgrid, dt_sub, half_diff)
    assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * np.abs(want).max()


def test_a_2d_density_substep_along_axis_0_is_the_1d_substep_per_column():
    rng = np.random.default_rng(7)
    line, plane = SpaceGrid((9,)), SpaceGrid((9, 5))
    m, drift = rng.random((9, 5)), rng.uniform(-1.0, 1.0, (9, 5))
    new = _substep(m, [drift, np.zeros((9, 5))], plane, 0.01, 0.2)
    for c in range(5):
        assert np.array_equal(new[:, c], _substep(m[:, c], [drift[:, c]], line, 0.01, 0.2))


def test_a_density_substep_is_first_order_in_space():
    # (m - substep) / dt_sub is the divergence of c m, to first order in dx
    errors = []
    for n in (64, 128):
        sgrid = SpaceGrid((n,))
        m = np.sin(2 * np.pi * sgrid.nodes(0)) + 2.0
        rate = (m - _substep(m, [np.full(n, 0.7)], sgrid, 1e-3)) / 1e-3
        exact = 0.7 * 2 * np.pi * np.cos(2 * np.pi * sgrid.nodes(0))
        errors.append(np.abs(rate - exact)[2:-2].max())
    assert errors[0] / errors[1] >= 1.8


# ---------------------------------------------------------------------------
# the density sweep planned per block of steps, against a plan per step


def _per_step_plans(alpha, params, sgrid):
    """Per step: (faces, substeps, substep length, explicit diffusion coefficient, exact diffusion time), each its own."""
    tgrid = params.tgrid
    game = params.game(sgrid.meshes())
    geometry = ev_module._geometry(sgrid)
    for i in range(tgrid.n_steps):
        drains, _, diff = game.transport(i)
        faces = [face_velocities(a[i] - g, sgrid, axis) for axis, (a, g) in enumerate(zip(alpha, drains))]
        rates = [float(u[0].max(initial=0.0) - u[1].min(initial=0.0)) / dx for u, (dx, _) in zip(faces, geometry)]
        yield (faces, *ev_module._step_plan(tgrid.dt, diff, sgrid.spacing(0) ** 2, rates, "drift in forward sweep", i + 1))


def _reference_fpk_sweep(alpha, m0, params, sgrid):
    """(density, (substeps, diffusion time) per step): the face-flux sweep with each step's drains, faces and rate its own.

    A substep is m - (dt_sub / dx)(F[hi] - F[lo]) summed over the axes, with F = (u+ + k) m[lo] + (u- - k) m[hi]
    on the interior faces and k = (diff / 2) / dx on axis 0 where the step diffuses explicitly.
    """
    geometry = ev_module._geometry(sgrid)
    m = np.empty((params.tgrid.n_nodes,) + sgrid.shape)
    m[0] = m0
    fluxes = [np.zeros([n + (k == axis) for k, n in enumerate(sgrid.shape)]) for axis in range(len(sgrid.shape))]
    plans = []
    for i, (faces, n_sub, dt_sub, half_diff, diffusion_time) in enumerate(_per_step_plans(alpha, params, sgrid)):
        plans.append((n_sub, diffusion_time))
        if half_diff > 0.0:
            k = half_diff / sgrid.spacing(0)
            faces[0] = faces[0] + np.array([k, -k]).reshape((2,) + (1,) * len(sgrid.shape))
        cur = diffuse(m[i], diffusion_time, sgrid) if diffusion_time else m[i]
        for _ in range(n_sub):
            new = cur
            for u, flux, (dx, at) in zip(faces, fluxes, geometry):
                flux[at.inner] = u[0] * cur[at.lo] + u[1] * cur[at.hi]
                new = new - (flux[at.hi] - flux[at.lo]) * (dt_sub / dx)
            cur = new
        m[i + 1] = ev_module._check_density_slice(cur, i + 1)
    return m, plans


def _stencil_fpk_sweep(alpha, m0, params, sgrid):
    """The per-step sweep in the stencil form that the face flux replaced: ``diff_upwind`` per axis, then ``diff2``."""
    m = np.empty((params.tgrid.n_nodes,) + sgrid.shape)
    m[0] = m0
    for i, (faces, n_sub, dt_sub, half_diff, diffusion_time) in enumerate(_per_step_plans(alpha, params, sgrid)):
        cur = diffuse(m[i], diffusion_time, sgrid) if diffusion_time else m[i]
        for _ in range(n_sub):
            div = sum(diff_upwind(cur, u, sgrid, axis) for axis, u in enumerate(faces))
            if half_diff > 0.0:
                cur = cur + dt_sub * (half_diff * diff2(cur, sgrid) - div)
            else:
                cur = cur - dt_sub * div
        m[i + 1] = ev_module._check_density_slice(cur, i + 1)
    return m


def _reference_hjb_sweep(p, params, sgrid):
    """(v, control, (substeps, diffusion time) per step): the value sweep with each node's step read on its own.

    Each step reads ``game.step(p, j)``, the running cost of its node too, and updates out of place:
    cur + dt_sub * (F + f + (diff / 2) D2 cur), the second difference taken from the Hamiltonian's face differences.
    """
    tgrid = params.tgrid
    game = params.game(sgrid.meshes())
    v = np.empty((tgrid.n_nodes,) + sgrid.shape)
    control = tuple(np.empty_like(v) for _ in sgrid.shape)
    v[-1] = game.terminal()
    geometry = ev_module._geometry(sgrid)
    slopes = ev_module._face_buffers(sgrid.shape, range(len(sgrid.shape)))
    (dx, at), d = geometry[0], slopes[0]

    def hamiltonian(cur, axes, minimiser):
        terms = [ev_module._hamiltonian(cur, *axis, spacing, index, buffer, np.empty(cur.shape) if minimiser else None)
                 for axis, (spacing, index), buffer in zip(axes, geometry, slopes)]
        forms = [f for f, _, _ in terms]
        return sum(forms[1:], forms[0]), [a for _, a, _ in terms], [w for _, _, w in terms]

    plans = []
    for i in range(tgrid.n_steps - 1, -1, -1):
        j = i + 1
        axes, running, _, diff = game.step(p, j)
        cur = v[j]
        ham, minimisers, moves = hamiltonian(cur, axes, True)
        for out, a in zip(control, minimisers):
            out[j] = a
        rates = [float(w.max()) / spacing for w, (spacing, _) in zip(moves, geometry)]
        n_sub, dt_sub, half_diff, diffusion_time = ev_module._step_plan(
            tgrid.dt, diff, dx ** 2, rates, "coefficients in backward sweep", i)
        plans.append((n_sub, diffusion_time))
        for k in range(n_sub):
            if k:
                ham = hamiltonian(cur, axes, False)[0]
            upd = ham + running
            if half_diff > 0.0:
                upd = upd + half_diff * ((d[at.hi] - d[at.lo]) / dx)
            cur = cur + dt_sub * upd
        v[i] = diffuse(cur, diffusion_time, sgrid) if diffusion_time else cur
    for out, a in zip(control, hamiltonian(v[0], game.hamiltonian(p, 0), True)[1]):
        out[0] = a
    return v, control, plans[::-1]


_SWEEP_RUNS = {
    "ev_weekend": ("ev_weekend", []),
    "ev_stiff_fine": ("ev_weekend", ["space.cells=400", "series.H=3.0", "price.exponent=4.0"]),
    "phev_8x8": ("phev_flat", ["space.cells=[8,8]"]),
    "phev_64x64": ("phev_flat", ["space.cells=[64,64]", "time_steps=47"]),
    "phev_64x64_substeps": ("phev_flat", ["space.cells=[64,64]", "time_steps=12"]),
    "phev_32x32_substeps": ("phev_flat", ["space.cells=[32,32]", "time_steps=4"]),
}


@functools.cache
def _solved_sweep_run(run):
    scenario, overrides = _SWEEP_RUNS[run]
    problem, options, _ = evmfg.build_problem(evmfg.apply_overrides(evmfg.load_scenario(scenario), overrides))
    return problem, evmfg.solve_mfe(problem, options)


@pytest.mark.parametrize("run", list(_SWEEP_RUNS))
def test_the_blocked_density_sweep_is_the_per_step_sweep_bit_for_bit(run):
    problem, sol = _solved_sweep_run(run)
    m, plans = _reference_fpk_sweep(sol.alpha, problem.m0, problem.params, problem.sgrid)
    assert np.array_equal(problem.fpk(sol.alpha), m)
    # the face flux against the stencil form it replaced: the same scheme up to roundoff
    stencil = _stencil_fpk_sweep(sol.alpha, problem.m0, problem.params, problem.sgrid)
    assert np.abs(m - stencil).max() <= 1e-12 * np.abs(stencil).max()
    # what each run covers: the block of steps is CONTROL_BLOCK_CELLS // cells long, and at least 2
    rows, n_steps = max(2, ev_module.CONTROL_BLOCK_CELLS // problem.m0.size), problem.tgrid.n_steps
    substeps, diffusion = zip(*plans)
    covers = {
        "ev_weekend": rows > 1 and n_steps % rows != 0,  # a short last block
        "ev_stiff_fine": max(substeps) > 1 and max(diffusion) > 0.0,  # steps that diffuse exactly, steps that substep
        "phev_8x8": rows >= n_steps > 1,  # all steps in one block
        "phev_64x64": rows == 2 and problem.m0.size == ev_module.CONTROL_BLOCK_CELLS,  # the smallest block
        "phev_64x64_substeps": max(substeps) > 1,  # 2D substeps, through the alternating slice buffers
        "phev_32x32_substeps": max(substeps) > 1,
    }
    assert covers[run], (rows, n_steps, max(substeps), min(diffusion))


@pytest.mark.parametrize("run", list(_SWEEP_RUNS))
def test_the_value_sweep_is_the_per_node_sweep_bit_for_bit(run):
    # the running cost per block of nodes, the update in place and the minimiser written into the control
    problem, sol = _solved_sweep_run(run)
    v, control, plans = _reference_hjb_sweep(sol.p, problem.params, problem.sgrid)
    got_v, got_control = problem.hjb(sol.p)
    assert np.array_equal(got_v, v)
    assert len(got_control) == len(control) and all(map(np.array_equal, got_control, control))
    # what each run covers: the nodes per block, which hold at most CONTROL_BLOCK_CELLS values per growing array
    game, n_steps = problem.params.game(problem.sgrid.meshes()), problem.tgrid.n_steps
    blocks = [stop - start for start, stop, *_ in ev_module._value_blocks(game, sol.p, n_steps + 1, problem.sgrid.shape)]
    substeps, diffusion = zip(*plans)
    covers = {
        "ev_weekend": blocks == [n_steps],  # numbers per node and a cost that ignores t: the whole sweep in one block
        "ev_stiff_fine": max(substeps) > 1 and max(diffusion) > 0.0,  # steps that diffuse exactly, steps that substep
        "phev_8x8": blocks == [n_steps] and n_steps > 1,  # the packs' drains, a slice per node, in one block
        "phev_64x64": set(blocks[:-1]) == {2} and blocks[-1] == 1,  # the smallest block, and a short last one
        "phev_64x64_substeps": set(blocks) == {2},  # blocks that end on the last node
        "phev_32x32_substeps": max(substeps) > 1,  # 2D substeps, each updating v[i] in place
    }
    assert covers[run], (blocks, max(substeps), max(diffusion))


class _CountingCost:
    """A running cost that counts its calls and records each call's times and result."""

    def __init__(self, cost):
        self.cost, self.calls, self.reads = cost, 0, []

    def __call__(self, t, *points):
        self.calls += 1
        out = self.cost(t, *points)
        self.reads.append((np.ravel(t).tolist(), np.shape(out)))
        return out


# Costs without a scalar power: a column of times may round t ** k otherwise than one node's t (C pow against x * x).
_RUNNING_COSTS = {
    ("ev", "time_dependent"): lambda t, x: (1.0 - x) ** 2 * (1.0 + t),
    ("ev", "time_free"): lambda t, x: (1.0 - x) ** 2,
    ("phev", "time_dependent"): lambda t, z1, z2: (1.0 - z1) ** 2 * (1.0 + t) + z2 * t,
    ("phev", "time_free"): lambda t, z1, z2: (1.0 - z1) ** 2 + z2,
}


@pytest.mark.parametrize("cost", ["time_dependent", "time_free"])
@pytest.mark.parametrize("model", ["ev", "phev"])
def test_the_value_sweep_reads_the_running_cost_once_a_block(model, cost):
    # 256 cells: a slice per node makes blocks of 16 nodes, so 50 steps take 4 calls, the last block short.
    # A cost that ignores t is one slice, read once a sweep; the battery's other coefficients are numbers per node.
    tgrid = TimeGrid(1.0, 50)
    n = tgrid.n_nodes
    if model == "ev":
        sgrid = SpaceGrid((256,))
        params = make_params(tgrid, sigma=0.3, kappa=lambda x: 2.0 * (1.0 - x) ** 2)
        params.f = _CountingCost(_RUNNING_COSTS[model, cost])
    else:
        sgrid = SpaceGrid((16, 16))
        params = evmfg.PhevParams(tgrid=tgrid, g=np.full(n, 0.2), Q1=np.full(n, 20.0), Q2=np.full(n, 30.0), r2=0.7,
                                  s=_CountingCost(_RUNNING_COSTS[model, cost]), xi=lambda z1, z2: (1.0 - z1) * z2)
    counter = params.f if model == "ev" else params.s
    rows = max(2, ev_module.CONTROL_BLOCK_CELLS // math.prod(sgrid.shape))
    assert rows == 16
    price = np.linspace(0.3, 1.2, n)
    v, control = hjb_backward_sweep(price, params, sgrid)
    assert math.ceil(tgrid.n_steps / rows) == 4
    assert counter.calls == (1 if cost == "time_free" else 4)
    # a result with a node axis holds at most CONTROL_BLOCK_CELLS values, and the blocks read each node once
    grown = [(times, shape) for times, shape in counter.reads if len(shape) > len(sgrid.shape)]
    assert all(math.prod(shape) <= ev_module.CONTROL_BLOCK_CELLS for _, shape in grown)
    if cost == "time_dependent":
        assert sorted(t for times, _ in grown for t in times) == tgrid.nodes[1:].tolist()
    else:
        assert not grown
    counter.calls = 0
    want_v, want_control, _ = _reference_hjb_sweep(price, params, sgrid)
    assert counter.calls == tgrid.n_steps  # the reference evaluates it one node at a time
    assert np.array_equal(v, want_v)
    assert all(map(np.array_equal, control, want_control))


def test_a_non_finite_drift_late_in_a_block_stops_the_sweep_at_its_time_node():
    # 20 cells: the block holds all 50 steps, so the NaN is planned with the first step
    tgrid, sgrid = TimeGrid(1.0, 50), SpaceGrid((20,))
    params = make_params(tgrid, sigma=0.1)
    m0 = tent_density(sgrid, 0.5, 0.2)
    alpha = np.full((tgrid.n_nodes, 20), 0.3)
    clean = fpk_forward_sweep((alpha,), m0, params, sgrid)
    alpha[37, 7] = np.nan
    out = np.zeros_like(clean)
    with pytest.raises(DivergenceError) as err:
        fpk_forward_sweep((alpha,), m0, params, sgrid, out)
    assert str(err.value) == "non-finite drift in forward sweep (time node 38)"
    assert err.value.time_node == 38
    assert np.array_equal(out[:38], clean[:38])  # every step before it ran


def test_a_node_column_of_the_battery_game_has_each_nodes_diffusion_bits():
    # sigma ** 2 g ** 2 on one node's scalars calls C pow, which rounds some
    # squares away from x * x, the ** 2 of an array; the column must agree
    tgrid = TimeGrid(1.0, 4_999)
    rng = np.random.default_rng(5)
    params = make_params(tgrid)
    params.g, params.sigma = rng.random(tgrid.n_nodes), rng.random(tgrid.n_nodes)
    assert any(s ** 2 != s * s for s in params.g)  # the case exists among these draws
    game = params.game((SpaceGrid((4,)).nodes(0),))
    drains, noise, diffusion = game.transport(np.arange(tgrid.n_nodes)[:, None])
    for i in range(tgrid.n_nodes):
        (g,), sigma_g, diff = game.transport(i)
        assert diff == params.sigma[i] ** 2 * params.g[i] ** 2
        assert (drains[0][i, 0], noise[i, 0], diffusion[i, 0]) == (g, sigma_g, diff)


def test_optimal_control_rejects_a_value_field_of_another_grid():
    params = make_params(TimeGrid(1.0, 5))
    with pytest.raises(ValueError) as err:
        optimal_control(np.zeros((6, 19)), np.ones(6), params, SpaceGrid((20,)))
    assert str(err.value) == "value field shape (6, 19) does not match grid (20,)"


def _zero_cost_params(model, tgrid):
    if model == "ev":
        return make_params(tgrid)
    n = tgrid.n_nodes
    return evmfg.PhevParams(tgrid=tgrid, g=np.full(n, 0.2), Q1=np.full(n, 125.0), Q2=np.full(n, 125.0), r2=0.7,
                            s=lambda t, z1, z2: np.zeros_like(z1), xi=lambda z1, z2: np.zeros_like(z1))


@pytest.mark.parametrize("model, cells", [("ev", (20,)), ("phev", (8, 8))])
@pytest.mark.parametrize("extra", [1, -1])
def test_the_value_sweep_and_the_control_name_a_price_of_the_wrong_length(model, cells, extra):
    # a longer price used to run silently, a shorter one to fail on a bare index
    tgrid, sgrid = TimeGrid(1.0, 5), SpaceGrid(cells)
    params, price = _zero_cost_params(model, tgrid), np.ones(6 + extra)
    for run in (lambda: hjb_backward_sweep(price, params, sgrid),
                lambda: optimal_control(np.zeros((6, *cells)), price, params, sgrid)):
        with pytest.raises(ValueError) as err:
            run()
        assert str(err.value) == f"price series has {6 + extra} values, expected 6: one per time node"


@pytest.mark.parametrize("model, cells", [("ev", (20,)), ("phev", (8, 8))])
@pytest.mark.parametrize("extra", [1, -1])
def test_the_control_names_a_value_field_of_the_wrong_node_count(model, cells, extra):
    # a node too many used to fail on a bare index, a node short to return a control a node short
    tgrid, sgrid = TimeGrid(1.0, 5), SpaceGrid(cells)
    with pytest.raises(ValueError) as err:
        optimal_control(np.zeros((6 + extra, *cells)), np.ones(6), _zero_cost_params(model, tgrid), sgrid)
    assert str(err.value) == f"value field has {6 + extra} time nodes, expected 6: one per time node"


@pytest.mark.parametrize("model, cells", [("ev", (20,)), ("phev", (8, 8))])
def test_the_density_sweep_names_a_control_of_the_wrong_shape(model, cells):
    # zip used to drop a field too many and push a density with a field short;
    # a node too many or too few ran silently
    tgrid, sgrid = TimeGrid(1.0, 5), SpaceGrid(cells)
    params, axes, shape = _zero_cost_params(model, tgrid), len(cells), (6, *cells)
    m0, field = np.ones(cells), np.zeros(shape)
    bad = {
        "a field short": (field,) * (axes - 1),
        "a field too many": (field,) * (axes + 1),
        "a node too many": (field,) * (axes - 1) + (np.zeros((7, *cells)),),
        "a node short": (np.zeros((5, *cells)),) + (field,) * (axes - 1),
    }
    for what, control in bad.items():
        with pytest.raises(ValueError) as err:
            fpk_forward_sweep(control, m0, params, sgrid)
        assert str(err.value) == (f"control needs one field of shape {shape} per axis, "
                                  f"got {[a.shape for a in control]}"), what
    assert fpk_forward_sweep((field,) * axes, m0, params, sgrid).shape == shape


def test_fpk_divergence_reports_time_node():
    tgrid = TimeGrid(1.0, 5)
    sgrid = SpaceGrid((20,))
    params = make_params(tgrid, g=0.2)
    m0 = tent_density(sgrid, 0.5, 0.2)
    alpha = np.zeros((tgrid.n_nodes, 20))
    alpha[2] = np.nan
    with pytest.raises(DivergenceError) as exc:
        fpk_forward_sweep((alpha,), m0, params, sgrid)
    assert exc.value.time_node == 3


def test_step_plan_takes_exactly_the_substep_budget_and_not_one_more():
    # dt = 1 and a rate of n * SUBSTEP_SAFETY ask for exactly n substeps
    budget = ev_module.SUBSTEP_BUDGET
    assert ev_module._step_plan(1.0, 0.0, 1.0, [budget * SUBSTEP_SAFETY], "drift in forward sweep", 3) == (
        budget, 1.0 / budget, 0.0, 0.0)
    rate = (budget + 1) * SUBSTEP_SAFETY
    with pytest.raises(DivergenceError) as exc:
        ev_module._step_plan(1.0, 0.0, 1.0, [rate], "drift in forward sweep", 3)
    assert str(exc.value) == (f"{budget + 1} substeps in one step at rate {rate:.6g}, over the budget of {budget}, "
                              "for the drift in forward sweep (time node 3)")
    assert exc.value.time_node == 3


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fpk_mass_and_positivity(seed):
    rng = np.random.default_rng(seed)
    tgrid = TimeGrid(0.5, 10)
    sgrid = SpaceGrid((30,))
    params = make_params(tgrid, g=rng.uniform(0.0, 0.8), sigma=rng.uniform(0.0, 0.2))
    m0 = tent_density(sgrid, rng.uniform(0.35, 0.65), rng.uniform(0.1, 0.3))
    # smooth random control field, bounded drift
    coef = rng.uniform(-0.5, 0.5, 3)
    alpha = (
        coef[0]
        + coef[1] * np.sin(2 * np.pi * sgrid.nodes(0))[None, :]
        + coef[2] * tgrid.nodes[:, None]
    )
    m = fpk_forward_sweep((alpha,), m0, params, sgrid)
    masses = m.sum(axis=1) * sgrid.spacing(0)
    np.testing.assert_allclose(masses, 1.0, atol=1e-8)
    assert m.min() >= 0.0


def test_fpk_mean_transport_consistency():
    # sigma = 0: d/dt of the density mean tracks the population drift
    from evmfg import mean_rate

    tgrid = TimeGrid(0.5, 25)
    sgrid = SpaceGrid((50,))
    params = make_params(tgrid, g=0.3, sigma=0.0)
    m0 = tent_density(sgrid, 0.5, 0.15)
    alpha = 0.3 + 0.2 * np.sin(2 * np.pi * sgrid.nodes(0))[None, :] * np.ones(
        (tgrid.n_nodes, 1)
    )
    m = fpk_forward_sweep((alpha,), m0, params, sgrid)
    rates = mean_rate(m, sgrid, tgrid)
    for i in range(tgrid.n_steps):
        drift_mean = integrate((alpha[i] - params.g[i]) * m[i], sgrid)
        assert abs(rates[i] - drift_mean) <= 2.0 * (sgrid.spacing(0) + tgrid.dt)


# ---------------------------------------------------------------------------
# sweeps where diffusion alone breaks the explicit bound (numerics.diffuse)


def exact_diffusion_steps(problem) -> int:
    """How many steps of the problem's sweeps diffuse exactly rather than in substeps."""
    params, dx = problem.params, problem.sgrid.spacing(0)
    return int(np.sum(problem.tgrid.dt * (params.sigma * params.g) ** 2 / dx ** 2 > SUBSTEP_SAFETY))


def test_fpk_keeps_unit_mass_with_exact_diffusion():
    config = evmfg.apply_overrides(evmfg.load_scenario("ev_weekend"), ["space.cells=400"])
    problem, _, _ = evmfg.build_problem(config)
    assert exact_diffusion_steps(problem) > 0
    _, control = problem.hjb(problem.price(problem.initial_iterate()))
    m = problem.fpk(control)
    np.testing.assert_allclose(m.sum(axis=1) * problem.cell_volume, 1.0, rtol=0, atol=1e-12)


def test_exact_diffusion_leaves_no_negative_density_to_clamp(monkeypatch):
    # diffuse's kernel is positive, so no slice of the stiff 400-cell solve
    # reaches _check_density_slice with a negative cell, which it would reject.
    config = evmfg.apply_overrides(
        evmfg.load_scenario("ev_weekend"), ["space.cells=400", "series.H=3.0", "price.exponent=4.0"])
    problem, options, _ = evmfg.build_problem(config)
    assert exact_diffusion_steps(problem) > 0
    lows = []
    check = ev_module._check_density_slice

    def recording(m, time_node):
        lows.append(float(m.min()))
        return check(m, time_node)

    monkeypatch.setattr(ev_module, "_check_density_slice", recording)
    sol = evmfg.solve_mfe(problem, options)
    assert sol.converged and sol.iterations == 13
    assert len(lows) > 0 and [low for low in lows if low < 0.0] == []
    assert evmfg.verify_solution(sol, problem).passed


# ---------------------------------------------------------------------------
# ev_cost


def test_ev_cost_terminal_only():
    tgrid = TimeGrid(1.0, 5)
    sgrid = SpaceGrid((50,))
    params = make_params(tgrid, kappa=lambda x: (1.0 - x) ** 2)
    m = np.tile(tent_density(sgrid, 0.4, 0.2), (tgrid.n_nodes, 1))
    alpha = np.zeros((tgrid.n_nodes, 50))
    p = np.ones(tgrid.n_nodes)
    expected = integrate(params.kappa(sgrid.nodes(0)) * m[-1], sgrid)
    assert ev_cost(alpha, m, p, params, sgrid) == pytest.approx(expected, rel=1e-12)


def test_ev_cost_point_mass_near_half():
    tgrid = TimeGrid(1.0, 5)
    sgrid = SpaceGrid((50,))
    params = make_params(tgrid, kappa=lambda x: (1.0 - x) ** 2)
    m = np.zeros((tgrid.n_nodes, 50))
    j = int(np.argmin(np.abs(sgrid.nodes(0) - 0.5)))
    m[:, j] = 1.0 / sgrid.spacing(0)
    cost = ev_cost(np.zeros_like(m), m, np.ones(tgrid.n_nodes), params, sgrid)
    assert cost == pytest.approx(0.25, abs=0.02)


def test_ev_cost_shape_validation():
    tgrid = TimeGrid(1.0, 5)
    sgrid = SpaceGrid((20,))
    params = make_params(tgrid)
    with pytest.raises(ValueError):
        ev_cost(
            np.zeros((6, 20)), np.zeros((5, 20)), np.zeros(6), params, sgrid
        )


# ---------------------------------------------------------------------------
# equilibrium-level properties on a small coupled problem


@pytest.fixture(scope="module")
def small_equilibrium():
    tgrid = TimeGrid(0.2, 24)
    sgrid = SpaceGrid((30,))
    n = tgrid.n_nodes
    params = EvParams(
        tgrid=tgrid,
        g=np.full(n, 0.4),
        sigma=np.full(n, 0.1),
        H=np.full(n, 2.0),
        d=0.8 + 0.3 * np.sin(2 * np.pi * tgrid.nodes / 0.2),
        f=lambda t, x: (1.0 - x) ** 2,
        kappa=lambda x: (1.0 - x) ** 2,
    )
    m0 = tent_density(sgrid, 0.5, 0.2)
    problem = EvProblem(params, sgrid, m0)
    sol = evmfg.solve_mfe(problem, evmfg.SolverOptions())
    assert sol.converged
    return problem, sol


def test_equilibrium_hamiltonian_minimality(small_equilibrium):
    problem, sol = small_equilibrium
    # upwind one-sided differences with reflecting ghost cells
    fwd = np.zeros_like(sol.v)
    fwd[:, :-1] = np.diff(sol.v, axis=1) / problem.sgrid.spacing(0)
    bwd = np.zeros_like(fwd)
    bwd[:, 1:] = fwd[:, :-1]
    g = problem.params.g[:, None]

    def ham(a):
        drift = a - g
        return (
            np.maximum(drift, 0.0) * fwd + np.minimum(drift, 0.0) * bwd
            + a * sol.p[:, None] + 0.5 * problem.params.H[:, None] * a**2
        )

    (alpha,) = sol.alpha
    base = ham(alpha)
    for delta in (1e-3, 1e-2):
        for shift in (delta, -delta):
            assert np.all(base <= ham(alpha + shift) + 1e-12)


def test_equilibrium_cost_perturbation(small_equilibrium):
    problem, sol = small_equilibrium
    params, sgrid = problem.params, problem.sgrid
    (alpha,) = sol.alpha
    base_cost = ev_cost(alpha, sol.m, sol.p, params, sgrid)
    x = sgrid.nodes(0)
    bump = np.exp(-((x - 0.5) ** 2) / 0.02)[None, :]
    for pert in (
        alpha + 0.05,
        alpha - 0.05,
        alpha + 0.2 * bump,
        alpha * 0.8,
    ):
        m_pert = fpk_forward_sweep((pert,), problem.m0, params, sgrid)
        cost = ev_cost(pert, m_pert, sol.p, params, sgrid)
        assert base_cost <= cost + 1e-6


def test_equilibrium_control_recomputable(small_equilibrium):
    problem, sol = small_equilibrium
    again = optimal_control(sol.v, sol.p, problem.params, problem.sgrid)
    np.testing.assert_array_equal(sol.alpha, again)


# ---------------------------------------------------------------------------
# the upwind Hamiltonian in closed form, against both branches taken one at a time

# The closed form rounds otherwise than the two branches do: F and the
# minimiser may differ from the reference's by this many ulps of its largest
# magnitude (2,000 random cases measured 3.5 and 1).
HAMILTONIAN_ULPS = 8


def _two_branch_hamiltonian(v, p, g, h, dx, at):
    """Reference ``_hamiltonian``: (F, minimiser, the branch values F+ and F-), each branch on its own array."""
    fwd = np.zeros(v.shape)
    fwd[at.lo] = (v[at.hi] - v[at.lo]) / dx
    bwd = np.zeros(v.shape)
    bwd[at.hi] = fwd[at.lo]
    a_up = np.maximum(-(fwd + p) / h, g)
    a_dn = np.minimum(-(bwd + p) / h, g)
    f_up = (a_up - g) * fwd + a_up * p + 0.5 * h * a_up ** 2
    f_dn = (a_dn - g) * bwd + a_dn * p + 0.5 * h * a_dn ** 2
    up = f_up < f_dn
    return np.where(up, f_up, f_dn), np.where(up, a_up, a_dn), f_up, f_dn


def _hamiltonian_on(v, p, g, h, sgrid, axis, minimiser=True):
    """``_hamiltonian`` along ``axis`` of ``sgrid`` with a fresh slopes buffer: (F, minimiser, move, slopes)."""
    (slopes,) = ev_module._face_buffers(v.shape, [axis])
    a = np.empty(v.shape) if minimiser else None
    return (*ev_module._hamiltonian(v, p, g, h, sgrid.spacing(axis), axis_index(axis), slopes, a), slopes)


def _assert_closed_form_hamiltonian_is_the_reference(v, p, g, h, sgrid, axis):
    want_f, want_a, f_up, f_dn = _two_branch_hamiltonian(v, p, g, h, sgrid.spacing(axis), axis_index(axis))
    got_f, got_a, move, _ = _hamiltonian_on(v, p, g, h, sgrid, axis)
    bound_f = HAMILTONIAN_ULPS * np.finfo(float).eps * np.abs(want_f).max()
    bound_a = HAMILTONIAN_ULPS * np.finfo(float).eps * np.abs(want_a).max()
    assert np.abs(got_f - want_f).max() <= bound_f
    assert np.abs(got_a - want_a).max() <= bound_a
    # the branch is the reference's wherever its branch values tell them apart
    apart = np.abs(f_up - f_dn) > bound_f
    assert np.array_equal(np.sign(got_a - g)[apart], np.sign(want_a - g)[apart])
    # where both branches clip, the control is the drain and F its cost, exactly
    clipped = want_a == g
    drain, base = np.broadcast_to(g, v.shape), np.broadcast_to(g * p + 0.5 * h * (g * g), v.shape)
    assert np.array_equal(got_a[clipped], drain[clipped]) and np.array_equal(got_f[clipped], base[clipped])
    assert np.abs(move - np.abs(got_a - g)).max() <= bound_a  # the move w is |a - g| before a rounds
    f_only, none, same_move, _ = _hamiltonian_on(v, p, g, h, sgrid, axis, minimiser=False)
    assert none is None and np.array_equal(f_only, got_f) and np.array_equal(same_move, move)
    # the slopes straddle g, so both branches and the flat middle are taken
    assert len(np.unique(np.sign(want_a - g))) == 3 and clipped.any()


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_hamiltonian_is_the_two_branch_one_within_ulps_in_1d(seed):
    rng = np.random.default_rng(seed)
    sgrid = SpaceGrid((60,))
    v = np.cumsum(rng.normal(scale=0.1, size=60))
    p, g, h = (np.float64(x) for x in (rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5), rng.uniform(1.0, 5.0)))
    _assert_closed_form_hamiltonian_is_the_reference(v, p, g, h, sgrid, 0)


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_hamiltonian_is_the_two_branch_one_within_ulps_on_each_2d_axis(seed):
    rng = np.random.default_rng(seed)
    sgrid = SpaceGrid((30, 40))
    v = np.cumsum(np.cumsum(rng.normal(scale=0.1, size=sgrid.shape), axis=0), axis=1)
    g = rng.uniform(0.0, 0.5, sgrid.shape)  # a drain that varies in space, as the packs' do
    p, h = np.float64(rng.uniform(0.0, 1.0)), np.float64(rng.uniform(1.0, 5.0))
    for axis in (0, 1):
        _assert_closed_form_hamiltonian_is_the_reference(v, p, g, h, sgrid, axis)


@pytest.mark.parametrize("shape", [(60,), (30, 40)])
def test_the_slopes_give_diff2_within_ulps(shape):
    # the value sweep's explicit diffusion term is (d[hi] - d[lo]) / dx of the Hamiltonian's slopes d
    rng = np.random.default_rng(5)
    sgrid = SpaceGrid(shape)
    v = rng.normal(size=shape)
    for axis in range(len(shape)):
        dx, at = sgrid.spacing(axis), axis_index(axis)
        *_, slopes = _hamiltonian_on(v, np.float64(0.3), np.float64(0.2), np.float64(2.0), sgrid, axis)
        want = diff2(v, sgrid, axis)
        got = (slopes[at.hi] - slopes[at.lo]) / dx
        assert np.abs(got - want).max() <= HAMILTONIAN_ULPS * np.finfo(float).eps * np.abs(want).max()


@pytest.mark.parametrize("scenario, sets", [
    ("ev_weekend", ["time_steps=24", "space.cells=40"]),
    ("phev_flat", ["space.cells=[8,8]", "time_steps=12"]),
])
def test_the_value_sweeps_substep_rate_is_the_controls_largest_move(scenario, sets, monkeypatch):
    # per step and axis the rate is max|a - g| / dx of the step's control, up to the rounding of a
    problem, _, _ = evmfg.build_problem(evmfg.apply_overrides(evmfg.load_scenario(scenario), sets))
    params, sgrid = problem.params, problem.sgrid
    plans, plan = [], ev_module._step_plan

    def recorded(dt, diff, dx2, rates, what, node):
        plans.append((node, list(rates)))
        return plan(dt, diff, dx2, plans[-1][1], what, node)

    monkeypatch.setattr(ev_module, "_step_plan", recorded)
    v, control = hjb_backward_sweep(np.linspace(0.2, 1.5, params.tgrid.n_nodes), params, sgrid)
    game = params.game(sgrid.meshes())
    assert [node for node, _ in plans] == list(range(params.tgrid.n_steps - 1, -1, -1))
    for node, rates in plans:
        drains = game.transport(node + 1)[0]
        want = [float(np.abs(a[node + 1] - g).max()) / sgrid.spacing(axis)
                for axis, (a, g) in enumerate(zip(control, drains))]
        assert any(want) and np.allclose(rates, want, rtol=4 * np.finfo(float).eps, atol=0.0), (node, rates, want)


def _price_entries(tgrid, sgrid, params):
    """Each entry that reads a price series, as a function of the price."""
    fields = np.zeros((tgrid.n_nodes,) + sgrid.shape)
    return {
        "hjb_backward_sweep": lambda p: hjb_backward_sweep(p, params, sgrid),
        "optimal_control": lambda p: optimal_control(fields, p, params, sgrid),
        "ev_cost": lambda p: ev_cost(fields, fields, p, params, sgrid),
        "ev_mdp": lambda p: ev_mdp(params, p),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("node", [0, 4])
@pytest.mark.parametrize("entry", ["hjb_backward_sweep", "optimal_control", "ev_cost", "ev_mdp"])
def test_a_non_finite_price_is_a_divergence_at_its_node_on_every_entry(entry, node, bad):
    # one rule for every node, node 0 too, checked before any step turns the price into numpy warnings
    tgrid, sgrid = TimeGrid(1.0, 6), SpaceGrid((20,))
    params = make_params(tgrid, sigma=0.2, f_cost=lambda t, x: (1.0 - x) ** 2, kappa=lambda x: (1.0 - x) ** 2)
    p = np.full(tgrid.n_nodes, 0.5)
    p[node] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning on the way to the error
        with pytest.raises(DivergenceError) as err:
            _price_entries(tgrid, sgrid, params)[entry](p)
    assert str(err.value) == f"non-finite price (time node {node})"
    assert err.value.time_node == node


def test_the_price_rule_names_the_first_non_finite_node():
    tgrid, sgrid = TimeGrid(1.0, 6), SpaceGrid((20,))
    p = np.full(tgrid.n_nodes, 0.5)
    p[[2, 5]] = np.inf, np.nan
    with pytest.raises(DivergenceError, match=r"^non-finite price \(time node 2\)$"):
        hjb_backward_sweep(p, make_params(tgrid), sgrid)


@pytest.mark.parametrize("shape", [(30,), (12, 16)])
def test_zero_value_at_zero_price_has_an_exact_zero_hamiltonian_and_minimiser(shape):
    # the oracle's zero-cost, zero-price run compares v with 0 bit for bit
    sgrid = SpaceGrid(shape)
    v, g = np.zeros(shape), np.random.default_rng(3).uniform(0.0, 0.5, shape)
    for axis in range(len(shape)):
        f, a, *_ = _hamiltonian_on(v, 0.0, g, 2.0, sgrid, axis)
        assert np.array_equal(f, np.zeros(shape)) and np.array_equal(a, np.zeros(shape))


def test_zero_cost_sweep_at_zero_price_stays_exactly_zero():
    tgrid = TimeGrid(1.0, 6)
    sgrid = SpaceGrid((40,))
    v, (alpha,) = hjb_backward_sweep(np.zeros(tgrid.n_nodes), make_params(tgrid, sigma=0.5), sgrid)
    assert np.array_equal(v, np.zeros(v.shape)) and np.array_equal(alpha, np.zeros(v.shape))


# ---------------------------------------------------------------------------
# parameter validation


def test_ev_params_validation():
    tgrid = TimeGrid(1.0, 4)
    n = tgrid.n_nodes
    # every series has one value per node of the params' own time grid
    with pytest.raises(ScenarioError, match=r"^series\.g: expected 8 values \(time_steps \+ 1\), got 5$"):
        EvParams(
            tgrid=TimeGrid(1.0, 7),
            g=np.zeros(n),
            sigma=np.zeros(8),
            H=np.ones(8),
            d=np.zeros(8),
            f=lambda t, x: x,
            kappa=lambda x: x,
        )
    with pytest.raises(ValueError):
        EvParams(
            tgrid=tgrid,
            g=np.zeros(n),
            sigma=np.zeros(n),
            H=np.zeros(n),  # H must be positive
            d=np.zeros(n),
            f=lambda t, x: x,
            kappa=lambda x: x,
        )
    with pytest.raises(ValueError):
        EvParams(
            tgrid=tgrid,
            g=np.zeros(n),
            sigma=np.full(n, -0.1),
            H=np.ones(n),
            d=np.zeros(n),
            f=lambda t, x: x,
            kappa=lambda x: x,
        )
    with pytest.raises(ValueError):
        EvParams(
            tgrid=tgrid,
            g=np.zeros(n - 1),
            sigma=np.zeros(n),
            H=np.ones(n),
            d=np.zeros(n),
            f=lambda t, x: x,
            kappa=lambda x: x,
        )


@pytest.mark.parametrize("coupled", ["false", 0, 1.0, None])
def test_ev_params_coupled_must_be_a_boolean(coupled):
    # a truthy non-boolean would keep the demand term that "false" means to drop
    with pytest.raises(ScenarioError, match=r"^price\.coupled: expected a boolean$"):
        make_params(TimeGrid(1.0, 4), coupled=coupled)
    assert make_params(TimeGrid(1.0, 4), coupled=np.bool_(False)).coupled == np.False_


@pytest.mark.parametrize("run", ["ev_run", "phev_run"])
def test_sweeps_into_an_earlier_sweeps_arrays_give_a_fresh_sweeps_bits(run, request):
    # the fixed point reuses its fields from pass to pass: nothing of the old values may show through
    problem, sol = request.getfixturevalue(run)["problem"], request.getfixturevalue(run)["solution"]
    first = problem.price(problem.initial_iterate())
    old_fields = problem.hjb(first)
    old_m = problem.fpk(old_fields[1])
    fields = problem.hjb(sol.p, old_fields)
    m = problem.fpk(fields[1], old_m)
    fresh_v, fresh_control = problem.hjb(sol.p)
    assert fields[0] is old_fields[0] and all(a is b for a, b in zip(fields[1], old_fields[1])) and m is old_m
    assert fields[0].tobytes() == fresh_v.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(fields[1], fresh_control, strict=True))
    assert m.tobytes() == problem.fpk(fresh_control).tobytes()
