"""Two-pack (battery + range extender) model: split fraction, r1, 2D sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmfg import (
    PhevParams,
    PhevProblem,
    ScenarioError,
    SpaceGrid,
    TimeGrid,
    beta,
    beta_divergence,
    diff_central,
    face_velocities,
    fpk_forward_sweep,
    hjb_backward_sweep,
    optimal_control,
    phev_price,
)
from reference_stencils import diff_upwind


def make_params(tgrid, g=0.2, Q1=125.0, Q2=125.0, r2=0.7, s_cost=None, xi=None, offset=0.5):
    n = tgrid.n_nodes
    return PhevParams(
        tgrid=tgrid,
        g=np.full(n, g),
        Q1=np.full(n, Q1),
        Q2=np.full(n, Q2),
        r2=r2,
        s=s_cost or (lambda t, z1, z2: np.zeros_like(z1)),
        xi=xi or (lambda z1, z2: np.zeros_like(z1)),
        offset=offset,
    )


def gaussian_density(sgrid, mean, var):
    z1, z2 = sgrid.meshes()
    m = np.exp(-((z1 - mean[0]) ** 2 + (z2 - mean[1]) ** 2) / (2.0 * var))
    return m / (m.sum() * sgrid.cell_volume)


# ---------------------------------------------------------------------------
# beta and its divergence identity


def test_beta_values():
    assert beta(np.array(0.5), np.array(0.5)) == pytest.approx(0.5)
    assert beta(np.array(0.2), np.array(0.8)) == pytest.approx(0.2)
    assert beta(np.array(0.9), np.array(0.1)) == pytest.approx(0.9)


def test_beta_range_on_grid():
    sgrid = SpaceGrid((16, 16))
    b = beta(*sgrid.meshes())
    assert np.all(b >= 0.0) and np.all(b <= 1.0)


def test_beta_divergence_values():
    assert beta_divergence(np.array(0.5), np.array(0.5)) == pytest.approx(1.0)
    assert beta_divergence(np.array(0.25), np.array(0.75)) == pytest.approx(1.0)


def test_beta_divergence_machine_precision_identity():
    sgrid = SpaceGrid((16, 16))
    z1, z2 = sgrid.meshes()
    np.testing.assert_allclose(beta_divergence(z1, z2) * (z1 + z2), 1.0, rtol=1e-14)


def test_beta_divergence_matches_central_differences():
    sgrid = SpaceGrid((16, 16))
    z1, z2 = sgrid.meshes()
    h = 1e-5
    d1 = (beta(z1 + h, z2) - beta(z1 - h, z2)) / (2.0 * h)
    d2 = (beta(z1, z2 + h) - beta(z1, z2 - h)) / (2.0 * h)
    np.testing.assert_allclose(d1 - d2, beta_divergence(z1, z2), atol=1e-6)


# ---------------------------------------------------------------------------
# phev_price


def test_phev_price_stationary_symmetric():
    tgrid = TimeGrid(1.0, 4)
    sgrid = SpaceGrid((16, 16))
    params = make_params(tgrid, g=0.2, offset=0.5)
    m = np.tile(gaussian_density(sgrid, (0.5, 0.5), 0.02), (tgrid.n_nodes, 1, 1))
    r1 = phev_price(m, params, sgrid)
    assert r1.shape == (tgrid.n_nodes,)
    np.testing.assert_allclose(r1, 0.6, rtol=1e-12)


def test_phev_price_clamps_negative_demand():
    tgrid = TimeGrid(1.0, 4)
    sgrid = SpaceGrid((16, 16))
    params = make_params(tgrid, g=-0.2, offset=0.5)
    m = np.tile(gaussian_density(sgrid, (0.5, 0.5), 0.02), (tgrid.n_nodes, 1, 1))
    r1 = phev_price(m, params, sgrid)
    np.testing.assert_allclose(r1, 0.5, rtol=1e-12)


# ---------------------------------------------------------------------------
# optimal_control


def test_controls_gradient_cancels_price():
    tgrid = TimeGrid(1.0, 3)
    sgrid = SpaceGrid((12, 12))
    params = make_params(tgrid, r2=0.7)
    r1 = np.full(tgrid.n_nodes, 0.9)
    z1, z2 = sgrid.meshes()
    v = np.tile(-0.7 * z2, (tgrid.n_nodes, 1, 1))
    mu1, mu2 = optimal_control(v, r1, params, sgrid)
    np.testing.assert_allclose(mu2[:, :, 1:], 0.0, atol=1e-13)
    # the reflecting empty z2 wall: a sale moves no charge, so it is paid at -r2/Q2
    np.testing.assert_allclose(mu2[:, :, 0], -0.0056, rtol=1e-12)


def test_controls_flat_value():
    tgrid = TimeGrid(1.0, 3)
    sgrid = SpaceGrid((12, 12))
    params = make_params(tgrid, Q2=125.0, r2=0.7)
    r1 = np.full(tgrid.n_nodes, 0.7)
    v = np.zeros((tgrid.n_nodes, 12, 12))
    mu1, mu2 = optimal_control(v, r1, params, sgrid)
    np.testing.assert_allclose(mu2, -0.0056, rtol=1e-12)


def test_controls_linear_value():
    tgrid = TimeGrid(1.0, 3)
    sgrid = SpaceGrid((12, 12))
    params = make_params(tgrid, Q1=125.0)
    r1 = np.full(tgrid.n_nodes, 0.7)
    z1, z2 = sgrid.meshes()
    v = np.tile(-1.2 * z1, (tgrid.n_nodes, 1, 1))
    mu1, mu2 = optimal_control(v, r1, params, sgrid)
    np.testing.assert_allclose(mu1[:, 1:], 0.004, rtol=1e-12)
    np.testing.assert_allclose(mu1[:, 0], -0.0056, rtol=1e-12)  # empty z1 wall: -r1/Q1


# ---------------------------------------------------------------------------
# hjb_backward_sweep


def test_phev_hjb_constant_solution():
    tgrid = TimeGrid(1.0, 6)
    sgrid = SpaceGrid((12, 12))
    c = 1.5
    params = make_params(tgrid, g=0.2, r2=0.0, xi=lambda z1, z2: np.full_like(z1, c))
    v, _ = hjb_backward_sweep(np.zeros(tgrid.n_nodes), params, sgrid)
    np.testing.assert_allclose(v, c, rtol=1e-13)


def test_phev_hjb_terminal_condition_exact():
    tgrid = TimeGrid(1.0, 4)
    sgrid = SpaceGrid((12, 12))
    params = make_params(tgrid, xi=lambda z1, z2: 10.0 * (2.0 - z1 - z2) ** 2)
    r1 = np.full(tgrid.n_nodes, 0.7)
    v, _ = hjb_backward_sweep(r1, params, sgrid)
    z1, z2 = sgrid.meshes()
    assert np.array_equal(v[-1], 10.0 * (2.0 - z1 - z2) ** 2)


def test_phev_hjb_linear_terminal_closed_form():
    # a flat value keeps the RHS constant, so backward Euler is exact here
    # (sloped affine data cannot stay exact beside a reflecting wall), for
    # any drain g: v = k + (T-t)[s0 - r1^2/(2 Q1) - r2^2/(2 Q2)]
    k, s0, r1, r2, Q1, Q2, T = 0.4, 0.3, 0.9, 0.7, 125.0, 80.0, 1.0
    tgrid = TimeGrid(T, 10)
    sgrid = SpaceGrid((12, 12))
    params = make_params(
        tgrid, g=0.2, Q1=Q1, Q2=Q2, r2=r2,
        s_cost=lambda t, z1, z2: np.full_like(z1, s0), xi=lambda z1, z2: np.full_like(z1, k),
    )
    v, _ = hjb_backward_sweep(np.full(tgrid.n_nodes, r1), params, sgrid)
    tail = s0 - r1 ** 2 / (2 * Q1) - r2 ** 2 / (2 * Q2)
    exact = k + (T - tgrid.nodes)[:, None, None] * tail
    assert float(np.abs(v - exact).max()) < 1e-12


def test_phev_hjb_symmetry():
    # symmetric data (Q1 = Q2, r1 pinned to r2, symmetric s, xi, m0) must
    # produce a value field symmetric under z1 <-> z2
    tgrid = TimeGrid(0.2, 8)
    sgrid = SpaceGrid((16, 16))
    params = make_params(
        tgrid,
        g=0.2,
        Q1=125.0,
        Q2=125.0,
        r2=0.7,
        s_cost=lambda t, z1, z2: 20.0 * (2.0 - z1 - z2) ** 2,
        xi=lambda z1, z2: 10.0 * (2.0 - z1 - z2) ** 2,
    )
    r1 = np.full(tgrid.n_nodes, 0.7)
    v, _ = hjb_backward_sweep(r1, params, sgrid)
    for i in range(tgrid.n_nodes):
        assert float(np.abs(v[i] - v[i].T).max()) <= 1e-8


def test_phev_hjb_sweep_controls_are_optimal_controls(phev_run):
    # the sweep's controls at node j are the pack minimisers it evaluates on
    # v[j], exactly what optimal_control recomputes slice by slice
    sol, problem = phev_run["solution"], phev_run["problem"]
    v, (mu1, mu2) = hjb_backward_sweep(sol.p, problem.params, problem.sgrid)
    re1, re2 = optimal_control(v, sol.p, problem.params, problem.sgrid)
    assert np.array_equal(mu1, re1) and np.array_equal(mu2, re2)


# ---------------------------------------------------------------------------
# fpk_forward_sweep


def test_phev_fpk_stationary():
    tgrid = TimeGrid(1.0, 6)
    sgrid = SpaceGrid((16, 16))
    g = 0.2
    params = make_params(tgrid, g=g)
    z1, z2 = sgrid.meshes()
    b = beta(z1, z2)
    mu1 = np.tile(b * g, (tgrid.n_nodes, 1, 1))
    mu2 = np.tile((1.0 - b) * g, (tgrid.n_nodes, 1, 1))
    m0 = gaussian_density(sgrid, (0.4, 0.6), 0.02)
    m = fpk_forward_sweep((mu1, mu2), m0, params, sgrid)
    for i in range(tgrid.n_nodes):
        np.testing.assert_array_equal(m[i], m0)


def test_phev_fpk_uniform_drift_marginals():
    # drift (c, 0): the z1-marginal mean advances by c t, the z2-marginal
    # is preserved column by column
    tgrid = TimeGrid(0.5, 20)
    sgrid = SpaceGrid((24, 24))
    g, c = 0.2, 0.15
    params = make_params(tgrid, g=g)
    z1, z2 = sgrid.meshes()
    b = beta(z1, z2)
    mu1 = np.tile(b * g + c, (tgrid.n_nodes, 1, 1))
    mu2 = np.tile((1.0 - b) * g, (tgrid.n_nodes, 1, 1))
    m0 = gaussian_density(sgrid, (0.35, 0.5), 0.004)
    m = fpk_forward_sweep((mu1, mu2), m0, params, sgrid)
    vol = sgrid.cell_volume
    mean1_0 = float((m[0] * z1).sum() * vol)
    mean1_T = float((m[-1] * z1).sum() * vol)
    assert abs(mean1_T - (mean1_0 + c * 0.5)) <= sgrid.spacing(0)
    marg2_0 = m[0].sum(axis=0) * sgrid.spacing(0)
    marg2_T = m[-1].sum(axis=0) * sgrid.spacing(0)
    np.testing.assert_allclose(marg2_T, marg2_0, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_phev_fpk_mass_and_positivity(seed):
    rng = np.random.default_rng(seed)
    tgrid = TimeGrid(0.25, 6)
    sgrid = SpaceGrid((12, 12))
    params = make_params(tgrid, g=rng.uniform(0.0, 0.4))
    shape = (tgrid.n_nodes, 12, 12)
    mu1 = rng.uniform(-0.3, 0.3) + rng.uniform(-0.2, 0.2, shape)
    mu2 = rng.uniform(-0.3, 0.3) + rng.uniform(-0.2, 0.2, shape)
    m0 = gaussian_density(sgrid, (rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)), 0.02)
    m = fpk_forward_sweep((mu1, mu2), m0, params, sgrid)
    masses = m.reshape(tgrid.n_nodes, -1).sum(axis=1) * sgrid.cell_volume
    np.testing.assert_allclose(masses, 1.0, atol=1e-8)
    assert m.min() >= 0.0


def test_phev_fpk_symmetry():
    tgrid = TimeGrid(0.2, 8)
    sgrid = SpaceGrid((16, 16))
    g = 0.2
    params = make_params(tgrid, g=g)
    z1, z2 = sgrid.meshes()
    b = beta(z1, z2)
    # symmetric control pair: mu1(z1,z2) = mu2(z2,z1)
    mu1 = np.tile(b * g + 0.1 * (1.0 - z1), (tgrid.n_nodes, 1, 1))
    mu2 = np.tile((1.0 - b) * g + 0.1 * (1.0 - z2), (tgrid.n_nodes, 1, 1))
    m0 = gaussian_density(sgrid, (0.5, 0.5), 0.02)
    m = fpk_forward_sweep((mu1, mu2), m0, params, sgrid)
    for i in range(tgrid.n_nodes):
        assert float(np.abs(m[i] - m[i].T).max()) <= 1e-8


def test_phev_fpk_rejects_unnormalized_m0():
    tgrid = TimeGrid(1.0, 4)
    sgrid = SpaceGrid((12, 12))
    params = make_params(tgrid)
    m0 = gaussian_density(sgrid, (0.5, 0.5), 0.02) * 1.2
    shape = (tgrid.n_nodes, 12, 12)
    with pytest.raises(ValueError):
        fpk_forward_sweep((np.zeros(shape), np.zeros(shape)), m0, params, sgrid)


def test_phev_non_finite_m0_is_rejected():
    tgrid = TimeGrid(1.0, 4)
    sgrid = SpaceGrid((12, 12))
    params = make_params(tgrid)
    m0 = gaussian_density(sgrid, (0.5, 0.5), 0.02)
    shape = (tgrid.n_nodes, 12, 12)
    for bad in (np.nan, np.inf):
        m0[3, 4] = bad
        with pytest.raises(ValueError, match=f"initial density mass {bad}"):
            PhevProblem(params, sgrid, m0)
        with pytest.raises(ValueError, match=f"initial density mass {bad}"):
            fpk_forward_sweep((np.zeros(shape), np.zeros(shape)), m0, params, sgrid)


def test_phev_negative_m0_is_an_input_error_not_a_divergence():
    tgrid, sgrid = TimeGrid(1.0, 4), SpaceGrid((12, 12))
    params = make_params(tgrid)
    m0 = gaussian_density(sgrid, (0.5, 0.5), 0.02)
    m0[0, 0], m0[6, 6] = -0.5, m0[6, 6] + m0[0, 0] + 0.5  # unit mass, one cell at -0.5
    shape = (tgrid.n_nodes, 12, 12)
    for build in (lambda: PhevProblem(params, sgrid, m0),
                  lambda: fpk_forward_sweep((np.zeros(shape), np.zeros(shape)), m0, params, sgrid)):
        with pytest.raises(ScenarioError) as err:
            build()
        assert str(err.value) == "initial_density: m0 has a cell at -5.000e-01, below 0"


def test_conservative_form_matches_expanded_form():
    # one RHS evaluation: conservative upwind divergence vs the expanded
    # advective + zeroth-order form (with the beta divergence identity),
    # agreeing to first order in the cell width on smooth fields
    errors = []
    for n in (24, 48):
        sgrid = SpaceGrid((n, n))
        z1, z2 = sgrid.meshes()
        g = 0.2
        b = beta(z1, z2)
        mu1 = 0.3 + 0.1 * np.sin(np.pi * z1) * np.cos(np.pi * z2)
        mu2 = 0.25 + 0.1 * np.cos(np.pi * z1) * np.sin(np.pi * z2)
        m = np.exp(-((z1 - 0.5) ** 2 + (z2 - 0.5) ** 2) / 0.05)
        drift1 = mu1 - b * g
        drift2 = mu2 - (1.0 - b) * g
        conservative = -diff_upwind(m, face_velocities(drift1, sgrid, 0), sgrid, axis=0) - diff_upwind(
            m, face_velocities(drift2, sgrid, 1), sgrid, axis=1
        )
        expanded = (
            -drift1 * diff_central(m, sgrid, axis=0)
            - drift2 * diff_central(m, sgrid, axis=1)
            - m * (diff_central(mu1, sgrid, axis=0) + diff_central(mu2, sgrid, axis=1))
            + m * g * beta_divergence(z1, z2)
        )
        err = float(np.abs((conservative - expanded)[2:-2, 2:-2]).max())
        errors.append((err, sgrid.spacing(0)))
    (e1, h1), (e2, _) = errors
    assert e1 <= 20.0 * h1  # O(dz) with a moderate constant for these fields
    assert e1 / e2 >= 1.5


def test_phev_params_validation():
    tgrid = TimeGrid(1.0, 4)
    n = tgrid.n_nodes
    with pytest.raises(ValueError):
        PhevParams(
            tgrid=tgrid,
            g=np.zeros(n),
            Q1=np.zeros(n),  # must be positive
            Q2=np.ones(n),
            r2=0.7,
            s=lambda t, z1, z2: z1,
            xi=lambda z1, z2: z1,
        )
    with pytest.raises(ValueError):
        PhevParams(
            tgrid=tgrid,
            g=np.zeros(n - 1),
            Q1=np.ones(n),
            Q2=np.ones(n),
            r2=0.7,
            s=lambda t, z1, z2: z1,
            xi=lambda z1, z2: z1,
        )
