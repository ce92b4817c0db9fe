"""Dynamic-programming and Monte Carlo cross-checks: the audit tools themselves."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmfg import (
    SpaceGrid,
    TimeGrid,
    cli,
    dp_best_response,
    dp_deviation,
    ev_cost,
    ev_mdp,
    fpk_forward_sweep,
    hjb_backward_sweep,
    integrate,
    mc_population,
    optimal_control,
    phev_mdp,
    sample_density,
)
from evmfg.ev import EvParams
from evmfg.oracle import (
    DiscreteMdp,
    PhevMdp,
    _bin_population,
    _half_cell_index,
    _interp_half_cells,
)
from evmfg.phev import PhevParams


# ---------------------------------------------------------------------------
# 1D battery MDP construction


def _flat_mdp(
    n_states=5,
    n_steps=3,
    actions=(-1.0, 0.0, 1.0),
    g=0.0,
    sigma=0.0,
    H=1.0,
    p=0.0,
    f_cost=lambda t, s: np.zeros_like(s),
    kappa=lambda s: np.zeros_like(s),
    t1=1.0,
):
    tg = TimeGrid(t1=t1, n_steps=n_steps)
    const = lambda c: np.full(tg.n_nodes, float(c))
    params = EvParams(
        tgrid=tg, g=const(g), d=const(0.0), sigma=const(sigma), H=const(1.0), f_cost=f_cost, kappa=kappa
    )
    params.H = const(H)  # the induction takes H = 0, which the solver's params reject
    return DiscreteMdp(
        states=np.linspace(0.0, 1.0, n_states),
        actions=np.asarray(actions, dtype=float),
        params=params,
        p=const(p),
    )


def test_ev_mdp_lattice_and_actions():
    tg = TimeGrid(t1=0.5, n_steps=40)
    n = tg.n_nodes
    params = EvParams(
        tgrid=tg,
        g=np.linspace(0.2, 0.8, n),
        d=np.full(n, 1.0),
        sigma=np.full(n, 0.1),
        H=np.full(n, 30.0),
        f_cost=lambda t, s: (1.0 - s) ** 2,
        kappa=lambda s: (1.0 - s) ** 2,
    )
    p = np.linspace(1.0, 2.0, n)
    mdp = ev_mdp(params, p, n_states=20, n_steps=8, n_actions=41)
    assert mdp.states[0] == 0.0 and mdp.states[-1] == 1.0
    assert len(mdp.states) == 20
    # action lattice symmetric about zero and spanning at least +-3 g_max
    np.testing.assert_allclose(mdp.actions, -mdp.actions[::-1], atol=1e-14)
    assert 0.0 in mdp.actions
    assert mdp.actions.max() >= 3.0 * params.g.max() - 1e-12
    # coarse series keep the endpoints of the fine ones
    assert mdp.tgrid.n_steps == 8
    assert mdp.params.g[0] == params.g[0] and mdp.params.g[-1] == params.g[-1]
    assert mdp.p[0] == p[0] and mdp.p[-1] == p[-1]


@pytest.mark.parametrize(
    "make", [lambda: _flat_mdp(n_states=1), lambda: _flat_phev_mdp(n=1)], ids=["ev", "phev"]
)
def test_dp_rejects_single_state(make):
    with pytest.raises(ValueError, match="at least 2 states"):
        dp_best_response(make())


def test_dp_rejects_empty_action_set():
    empty_2 = _flat_phev_mdp()
    empty_2.actions2 = np.array([])
    for mdp in (_flat_mdp(actions=()), _flat_phev_mdp(actions=()), empty_2):
        with pytest.raises(ValueError, match="empty action set"):
            dp_best_response(mdp)


# ---------------------------------------------------------------------------
# 1D backward induction


def test_dp_constant_terminal_no_running_cost():
    # with no price, no state cost and H > 0, doing nothing is optimal
    mdp = _flat_mdp(H=2.0, kappa=lambda s: np.full_like(s, 0.7))
    value, policy = dp_best_response(mdp)
    np.testing.assert_allclose(value, 0.7, atol=1e-14)
    np.testing.assert_array_equal(policy, 0.0)


def test_dp_tie_breaks_toward_small_action():
    # H = 0 and flat costs make every action equally good; the reported
    # policy must still be the lazy one
    mdp = _flat_mdp(H=0.0, kappa=lambda s: np.full_like(s, 1.0))
    value, policy = dp_best_response(mdp)
    np.testing.assert_allclose(value, 1.0, atol=1e-14)
    np.testing.assert_array_equal(policy, 0.0)


def test_dp_prefers_buying_when_terminal_penalty_dominates():
    # heavy terminal shortage penalty, cheap trading: fill the battery
    mdp = _flat_mdp(
        n_states=3,
        n_steps=2,
        actions=(-1.0, 0.0, 1.0),
        H=0.01,
        p=0.01,
        kappa=lambda s: 10.0 * (1.0 - s) ** 2,
        t1=1.0,
    )
    value, (policy,) = dp_best_response(mdp)
    # constant prices make buy-now and buy-later exact ties, so the lazy
    # tie-break defers the purchase to the final step
    assert policy[0][1] == 0.0
    assert policy[1][1] == 1.0
    assert value[0][1] == pytest.approx(0.0075, abs=1e-15)  # dt*(p + H/2)


def _enumerate_value(mdp):
    """Brute-force backward induction for lattice-aligned micro-instances.

    Every candidate next state must land (after projection onto [0, 1])
    exactly on a lattice point; this recomputes the value table
    independently of the vectorized interpolation path.
    """
    s = mdp.states
    dt = mdp.tgrid.dt
    value = {mdp.tgrid.n_steps: {k: float(mdp.params.kappa(np.array([x]))[0]) for k, x in enumerate(s)}}
    for i in range(mdp.tgrid.n_steps - 1, -1, -1):
        j = i + 1
        row = {}
        for k, x in enumerate(s):
            best = np.inf
            for a in mdp.actions:
                nxt = min(max(x + dt * (a - mdp.params.g[j]), 0.0), 1.0)
                hits = np.nonzero(np.isclose(s, nxt, atol=1e-12))[0]
                assert hits.size == 1, "micro-instance transition left the lattice"
                stage = (
                    a * mdp.p[j]
                    + 0.5 * mdp.params.H[j] * a * a
                    + float(mdp.params.f_cost(mdp.tgrid.nodes[j], np.array([x]))[0])
                )
                best = min(best, dt * stage + value[j][int(hits[0])])
            row[k] = best
        value[i] = row
    return np.array([[value[i][k] for k in range(len(s))] for i in range(mdp.tgrid.n_nodes)])


def test_dp_matches_exhaustive_enumeration_three_states():
    mdp = _flat_mdp(
        n_states=3,
        n_steps=2,
        actions=(-1.0, 0.0, 1.0),
        H=0.8,
        p=0.6,
        f_cost=lambda t, s: (1.0 - s) ** 2 + 0.1 * t,
        kappa=lambda s: 2.0 * (1.0 - s),
        t1=1.0,
    )
    value, _ = dp_best_response(mdp)
    np.testing.assert_array_equal(value, _enumerate_value(mdp))


def test_dp_matches_exhaustive_enumeration_five_states():
    mdp = _flat_mdp(
        n_states=5,
        n_steps=3,
        actions=(-1.0, 0.0, 1.0),
        H=1.3,
        p=0.4,
        f_cost=lambda t, s: 0.5 * (1.0 - s) ** 2,
        kappa=lambda s: (1.0 - s) ** 2,
        t1=0.75,
    )
    value, _ = dp_best_response(mdp)
    np.testing.assert_array_equal(value, _enumerate_value(mdp))


@settings(max_examples=40, deadline=None)
@given(
    n_states=st.integers(min_value=2, max_value=5),
    n_steps=st.integers(min_value=2, max_value=4),
    n_actions=st.integers(min_value=1, max_value=5),
    g=st.floats(min_value=0.0, max_value=1.0),
    sigma=st.sampled_from([0.0, 0.3]),
    h_coef=st.floats(min_value=0.1, max_value=5.0),
    price=st.floats(min_value=0.0, max_value=2.0),
    f_w=st.floats(min_value=0.0, max_value=2.0),
)
def test_dp_satisfies_bellman_recursion(n_states, n_steps, n_actions, g, sigma, h_coef, price, f_w):
    mdp = _flat_mdp(
        n_states=n_states,
        n_steps=n_steps,
        actions=tuple(np.linspace(-1.0, 1.0, n_actions)),
        g=g,
        sigma=sigma,
        H=h_coef,
        p=price,
        f_cost=lambda t, s: f_w * (1.0 - s) ** 2,
        kappa=lambda s: (1.0 - s) ** 2,
    )
    value, (policy,) = dp_best_response(mdp)
    s = mdp.states
    dt = mdp.tgrid.dt
    for i in range(mdp.tgrid.n_steps):
        j = i + 1
        eps = mdp.params.sigma[j] * mdp.params.g[j] * np.sqrt(dt)
        for k, x in enumerate(s):
            q = []
            for a in mdp.actions:
                nxt = x + dt * (a - mdp.params.g[j])
                up = min(max(nxt + eps, 0.0), 1.0)
                dn = min(max(nxt - eps, 0.0), 1.0)
                expected = 0.5 * (np.interp(up, s, value[j]) + np.interp(dn, s, value[j]))
                stage = a * mdp.p[j] + 0.5 * mdp.params.H[j] * a * a + f_w * (1.0 - x) ** 2
                q.append(dt * stage + expected)
            q = np.asarray(q)
            assert value[i][k] <= q.min() + 1e-12
            # the reported action attains the value
            a_star = policy[i][k]
            idx = int(np.argmin(np.abs(mdp.actions - a_star)))
            assert abs(q[idx] - value[i][k]) <= 1e-12


# ---------------------------------------------------------------------------
# 2D hybrid MDP


def _flat_phev_mdp(
    n=2,
    n_steps=2,
    actions=(-1.0, 0.0, 1.0),
    g=0.0,
    Q=1.0,
    r1=0.0,
    r2=0.0,
    s_cost=lambda t, z1, z2: np.zeros_like(z1),
    xi=lambda z1, z2: np.zeros_like(z1),
):
    tg = TimeGrid(t1=1.0, n_steps=n_steps)
    const = lambda c: np.full(tg.n_nodes, float(c))
    states = (np.arange(n) + 0.5) / n
    return PhevMdp(
        states1=states,
        states2=states.copy(),
        actions1=np.asarray(actions, dtype=float),
        actions2=np.asarray(actions, dtype=float),
        params=PhevParams(tgrid=tg, g=const(g), Q1=const(Q), Q2=const(Q), r2=r2, s_cost=s_cost, xi=xi),
        r1=const(r1),
    )


def test_phev_dp_audit_of_the_bundled_run(phev_run):
    # the 2D audit `evmfg oracle` runs on phev_flat: the DP best response on
    # the capped lattice against the solver's value, within the CLI bound
    sol, problem = phev_run["solution"], phev_run["problem"]
    mdp = phev_mdp(problem.params, sol.p, n_states=cli.PHEV_MAX_STATES)
    value, _ = dp_best_response(mdp)
    dev = dp_deviation(mdp, value, sol.v, problem.sgrid)
    assert dev.shape == (cli.PHEV_MAX_STATES, cli.PHEV_MAX_STATES)
    assert float(dev.max()) <= cli.DP_THRESHOLD


def test_phev_dp_constant_terminal():
    mdp = _flat_phev_mdp(xi=lambda z1, z2: np.full_like(z1, 0.3))
    value, (pol1, pol2) = dp_best_response(mdp)
    np.testing.assert_allclose(value, 0.3, atol=1e-14)
    np.testing.assert_array_equal(pol1, 0.0)
    np.testing.assert_array_equal(pol2, 0.0)


def test_phev_dp_matches_pair_enumeration():
    mdp = _flat_phev_mdp(
        n=2,
        n_steps=2,
        actions=(-1.0, 0.0, 1.0),
        Q=0.9,
        r1=0.5,
        r2=0.3,
        s_cost=lambda t, z1, z2: (2.0 - z1 - z2) ** 2,
        xi=lambda z1, z2: (1.0 - z1) ** 2 + (1.0 - z2) ** 2,
    )
    value, _ = dp_best_response(mdp)

    s = mdp.states1
    dt = mdp.tgrid.dt

    def snap(x):
        # next states are projected onto [0, 1]; the table interpolation is
        # constant beyond the cell-centred lattice, so a wall reads its nearest node
        x = min(max(x, s[0]), s[-1])
        hits = np.nonzero(np.isclose(s, x, atol=1e-12))[0]
        assert hits.size == 1
        return int(hits[0])

    n = len(s)
    xi = mdp.params.xi
    vt = {(i1, i2): float(xi(np.array([s[i1]]), np.array([s[i2]]))[0]) for i1 in range(n) for i2 in range(n)}
    tables = {mdp.tgrid.n_steps: vt}
    from evmfg import beta

    for i in range(mdp.tgrid.n_steps - 1, -1, -1):
        j = i + 1
        cur = {}
        for i1 in range(n):
            for i2 in range(n):
                z1, z2 = s[i1], s[i2]
                b = float(beta(np.array([z1]), np.array([z2]))[0])
                best = np.inf
                for a1 in mdp.actions1:
                    for a2 in mdp.actions2:
                        n1 = min(max(z1 + dt * (a1 - b * mdp.params.g[j]), 0.0), 1.0)
                        n2 = min(max(z2 + dt * (a2 - (1.0 - b) * mdp.params.g[j]), 0.0), 1.0)
                        stage = (
                            a1 * mdp.r1[j]
                            + a2 * mdp.params.r2
                            + 0.5 * mdp.params.Q1[j] * a1 * a1
                            + 0.5 * mdp.params.Q2[j] * a2 * a2
                            + float(mdp.params.s_cost(mdp.tgrid.nodes[j], np.array([z1]), np.array([z2]))[0])
                        )
                        best = min(best, dt * stage + tables[j][(snap(n1), snap(n2))])
                cur[(i1, i2)] = best
        tables[i] = cur

    enum = np.array(
        [[[tables[i][(i1, i2)] for i2 in range(n)] for i1 in range(n)] for i in range(mdp.tgrid.n_nodes)]
    )
    np.testing.assert_allclose(value, enum, atol=1e-13)


def test_phev_dp_symmetric_under_axis_swap():
    mdp = _flat_phev_mdp(
        n=4,
        n_steps=3,
        actions=tuple(np.linspace(-0.9, 0.9, 7)),
        g=0.3,
        Q=125.0,
        r1=0.7,
        r2=0.7,
        s_cost=lambda t, z1, z2: 20.0 * (2.0 - z1 - z2) ** 2,
        xi=lambda z1, z2: 10.0 * (2.0 - z1 - z2) ** 2,
    )
    value, (pol1, pol2) = dp_best_response(mdp)
    for i in range(value.shape[0]):
        np.testing.assert_allclose(value[i], value[i].T, atol=1e-12)
    for i in range(pol1.shape[0]):
        np.testing.assert_allclose(pol1[i], pol2[i].T, atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_dp_deviation_is_absolute_where_the_value_is_zero():
    # max|v| = 0 on the lattice would divide by zero; the deviation is then
    # |V_dp - v| itself
    mdp = _flat_mdp()
    value, _ = dp_best_response(mdp)
    v = np.zeros((mdp.tgrid.n_nodes, 10))
    np.testing.assert_array_equal(dp_deviation(mdp, value, v, SpaceGrid((10,))), 0.0)
    np.testing.assert_array_equal(dp_deviation(mdp, value + 0.25, v, SpaceGrid((10,))), 0.25)


def test_one_induction_serves_both_models():
    # a 2D MDP whose second pack neither drains nor trades and whose costs
    # read z1 only is the 1D MDP at sigma = 0 in every z2 column, bit for bit
    kw = dict(actions=(-1.0, -0.4, 0.0, 0.7, 1.0), r1=0.4, Q=0.8, n_steps=4)
    mdp2 = _flat_phev_mdp(
        n=6,
        s_cost=lambda t, z1, z2: (1.0 - z1) ** 2 + 0.1 * t,
        xi=lambda z1, z2: 2.0 * (1.0 - z1) ** 2,
        **kw,
    )
    mdp2.actions2 = np.array([0.0])
    mdp1 = _flat_mdp(
        n_states=6,
        n_steps=4,
        actions=kw["actions"],
        H=kw["Q"],
        p=kw["r1"],
        f_cost=lambda t, s: (1.0 - s) ** 2 + 0.1 * t,
        kappa=lambda s: 2.0 * (1.0 - s) ** 2,
    )
    mdp1.states = mdp2.states1
    value1, (policy1,) = dp_best_response(mdp1)
    value2, (pol1, pol2) = dp_best_response(mdp2)
    assert np.any(policy1 != 0.0)
    np.testing.assert_array_equal(pol2, 0.0)
    for k in range(len(mdp2.states2)):
        np.testing.assert_array_equal(value2[:, :, k], value1)
        np.testing.assert_array_equal(pol1[:, :, k], policy1)


def test_phev_mdp_uses_cell_centered_states():
    tg = TimeGrid(t1=0.5, n_steps=11)
    n = tg.n_nodes
    params = PhevParams(
        tgrid=tg,
        g=np.full(n, 0.2),
        Q1=np.full(n, 125.0),
        Q2=np.full(n, 125.0),
        r2=0.7,
        s_cost=lambda t, z1, z2: 20.0 * (2.0 - z1 - z2) ** 2,
        xi=lambda z1, z2: 10.0 * (2.0 - z1 - z2) ** 2,
    )
    mdp = phev_mdp(params, np.full(n, 0.7), n_states=8)
    assert mdp.states1[0] > 0.0 and mdp.states1[-1] < 1.0
    assert len(mdp.states1) == 8
    np.testing.assert_array_equal(mdp.states1, mdp.states2)
    # beta is well defined on the whole lattice (never the (0,0) corner)
    z1, z2 = np.meshgrid(mdp.states1, mdp.states2, indexing="ij")
    assert np.all(z1 + z2 > 0.0)


# ---------------------------------------------------------------------------
# population sampling


def _tent_density(sg, center=0.5, width=0.2):
    m = np.clip(1.0 - np.abs(sg.nodes(0) - center) / width, 0.0, None)
    return m / integrate(m, sg)


def test_sample_density_deterministic_and_in_range():
    sg = SpaceGrid((40,))
    m0 = _tent_density(sg)
    x1 = sample_density(m0, sg, 5000)
    x2 = sample_density(m0, sg, 5000)
    np.testing.assert_array_equal(x1, x2)
    assert np.all((x1 >= 0.0) & (x1 <= 1.0))
    assert np.all(np.diff(x1) >= 0.0)  # stratified draws are ordered


def test_sample_density_matches_target_mean():
    sg = SpaceGrid((50,))
    m0 = _tent_density(sg, center=0.4, width=0.15)
    x = sample_density(m0, sg, 200_000)
    target_mean = integrate(sg.nodes(0) * m0, sg)
    assert abs(x.mean() - target_mean) < 1e-3


def test_sample_density_rejects_empty():
    sg = SpaceGrid((10,))
    with pytest.raises(ValueError, match="no mass"):
        sample_density(np.zeros(10), sg, 100)


# ---------------------------------------------------------------------------
# Monte Carlo population simulation


def _ev_params(tg, g=0.5, sigma=0.1, H=30.0):
    n = tg.n_nodes
    return EvParams(
        tgrid=tg,
        g=np.full(n, g),
        d=np.full(n, 1.0),
        sigma=np.full(n, sigma),
        H=np.full(n, H),
        f_cost=lambda t, s: np.zeros_like(s),
        kappa=lambda s: np.zeros_like(s),
    )


def _constant_field(tg, sg, c):
    """A control field of the constant c; its half-cell interpolation is exactly c."""
    return np.full((tg.n_nodes, sg.shape[0]), c)


def test_mc_frozen_population_when_control_matches_drain():
    tg = TimeGrid(t1=0.5, n_steps=20)
    sg = SpaceGrid((25,))
    params = _ev_params(tg, sigma=0.0)
    m0 = _tent_density(sg)
    hist = mc_population(_constant_field(tg, sg, 0.5), m0, params, tg, sg, n_agents=20_000, seed=1)
    for i in range(1, tg.n_nodes):
        np.testing.assert_array_equal(hist[i], hist[0])
    assert np.abs(hist[0] - m0).max() < 0.05


def test_mc_every_slice_has_unit_mass():
    tg = TimeGrid(t1=0.3, n_steps=15)
    sg = SpaceGrid((20,))
    params = _ev_params(tg)
    m0 = _tent_density(sg)
    hist = mc_population(_constant_field(tg, sg, 2.0), m0, params, tg, sg, n_agents=7_919, seed=3)
    for i in range(tg.n_nodes):
        assert abs(integrate(hist[i], sg) - 1.0) < 1e-12
        assert np.all(hist[i] >= 0.0)


def test_mc_reflection_contains_strong_outward_drift():
    # control pushing hard past the full-battery wall: agents must stay
    # inside (unit mass in every binned slice means nothing escaped [0, 1])
    tg = TimeGrid(t1=1.0, n_steps=50)
    sg = SpaceGrid((20,))
    params = _ev_params(tg, g=0.0, sigma=0.0)
    m0 = _tent_density(sg, center=0.9, width=0.1)
    hist = mc_population(_constant_field(tg, sg, 5.0), m0, params, tg, sg, n_agents=2_000, seed=0)
    for i in range(tg.n_nodes):
        assert abs(integrate(hist[i], sg) - 1.0) < 1e-12


def test_mc_variance_grows_like_brownian_motion():
    # sigma g dW with the control cancelling the drain: positions diffuse
    # with variance sigma^2 g^2 t while far from both walls
    tg = TimeGrid(t1=0.5, n_steps=100)
    sg = SpaceGrid((200,))
    params = _ev_params(tg, g=0.5, sigma=0.1)
    m0 = np.zeros(200)
    m0[100] = 1.0 / sg.spacing(0)  # point mass at the cell containing x = 0.5
    hist = mc_population(_constant_field(tg, sg, 0.5), m0, params, tg, sg, n_agents=100_000, seed=7)
    final = hist[-1]
    mean = integrate(sg.nodes(0) * final, sg)
    var = integrate((sg.nodes(0) - mean) ** 2 * final, sg)
    target = 0.1 ** 2 * 0.5 ** 2 * 0.5
    assert abs(var - target) / target < 0.05


def test_mc_same_seed_reproduces_bitwise():
    tg = TimeGrid(t1=0.2, n_steps=10)
    sg = SpaceGrid((20,))
    params = _ev_params(tg)
    m0 = _tent_density(sg)
    h1 = mc_population(_constant_field(tg, sg, 0.3), m0, params, tg, sg, n_agents=5_000, seed=42)
    h2 = mc_population(_constant_field(tg, sg, 0.3), m0, params, tg, sg, n_agents=5_000, seed=42)
    np.testing.assert_array_equal(h1, h2)
    h3 = mc_population(_constant_field(tg, sg, 0.3), m0, params, tg, sg, n_agents=5_000, seed=43)
    assert not np.array_equal(h1, h3)


def test_mc_tracks_pde_density(ev_run):
    # smaller agent count than the acceptance audit; looser bound to match
    sol = ev_run["solution"]
    problem = ev_run["problem"]
    hist = mc_population(
        sol.alpha[0], sol.m[0], problem.params, problem.tgrid, problem.sgrid, n_agents=20_000, seed=0
    )
    dist = np.abs(hist - sol.m).sum(axis=1) * problem.sgrid.spacing(0)
    assert dist.max() < 0.12


# ---------------------------------------------------------------------------
# the half-cell kernel against the np.interp / np.histogram loop it replaced


def _reference_mc_population(control, m0, params, tgrid, sgrid, n_agents, seed):
    """Per step: np.interp for each agent's control, np.histogram for the slice."""
    rng = np.random.default_rng(seed)
    x = sample_density(m0, sgrid, n_agents)

    def bin_slice(x):
        counts, _ = np.histogram(x, bins=sgrid.shape[0], range=(0.0, 1.0))
        return counts / (n_agents * sgrid.spacing(0))

    hist = np.empty((tgrid.n_nodes, sgrid.shape[0]))
    hist[0] = bin_slice(x)
    sqrt_dt = math.sqrt(tgrid.dt)
    for i in range(tgrid.n_steps):
        a = np.interp(x, sgrid.nodes(0), control[i])
        x = x + tgrid.dt * (a - params.g[i])
        noise = params.sigma[i] * params.g[i]
        if noise != 0.0:
            x = x + noise * sqrt_dt * rng.standard_normal(n_agents)
        x = np.clip(x, 0.0, 1.0)
        hist[i + 1] = bin_slice(x)
    return hist


def _wall_bound_field(tg, sg, g):
    # drift 4 (x - 1/2) away from the middle, with a moving ripple: agents
    # pile up at both walls
    t, x = np.meshgrid(tg.nodes, sg.nodes(0), indexing="ij")
    return g + 4.0 * (x - 0.5) + 0.3 * np.sin(2.0 * np.pi * (x + t))


@pytest.mark.parametrize("n_cells", [4, 25, 100, 400])
@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_mc_matches_reference_loop_on_a_wall_bound_field(n_cells, sigma):
    tg = TimeGrid(t1=0.5, n_steps=30)
    sg = SpaceGrid((n_cells,))
    params = _ev_params(tg, g=0.5, sigma=sigma)
    m0 = np.full(n_cells, 1.0)
    field = _wall_bound_field(tg, sg, 0.5)
    hist = mc_population(field, m0, params, tg, sg, n_agents=20_000, seed=11)
    ref = _reference_mc_population(field, m0, params, tg, sg, n_agents=20_000, seed=11)
    np.testing.assert_array_equal(hist, ref)
    assert ref[-1][0] > ref[0][0] and ref[-1][-1] > ref[0][-1]


def test_mc_matches_reference_loop_on_the_weekend_equilibrium(ev_run):
    # the criterion-4 audit: 100k agents, seed 0
    sol, problem = ev_run["solution"], ev_run["problem"]
    args = (sol.alpha[0], sol.m[0], problem.params, problem.tgrid, problem.sgrid)
    hist = mc_population(*args, n_agents=100_000, seed=0)
    np.testing.assert_array_equal(hist, _reference_mc_population(*args, n_agents=100_000, seed=0))


def _histogram_bin(x, n_cells):
    """The bin np.histogram assigns each point: x in [edge_j, edge_j+1), 1.0 in the last."""
    edges = np.linspace(0.0, 1.0, n_cells + 1)
    return np.minimum(np.searchsorted(edges, x, side="right") - 1, n_cells - 1)


@pytest.mark.parametrize("n_cells", [4, 25, 100, 400])
def test_half_cell_index_matches_histogram_and_interp_at_random_points(n_cells):
    sg = SpaceGrid((n_cells,))
    rng = np.random.default_rng(n_cells)
    x = rng.random(50_000)
    fp = rng.standard_normal(n_cells)
    k = _half_cell_index(x, n_cells)
    np.testing.assert_array_equal(k >> 1, _histogram_bin(x, n_cells))
    counts, _ = np.histogram(x, bins=n_cells, range=(0.0, 1.0))
    np.testing.assert_array_equal(_bin_population(k, sg), counts / (x.size * sg.spacing(0)))
    control = _interp_half_cells(sg.nodes(0), fp, k, x)
    np.testing.assert_array_equal(control, np.interp(x, sg.nodes(0), fp))


@pytest.mark.parametrize("n_cells", [4, 25, 100, 400])
def test_half_cell_index_edge_rule_at_edges_and_centers(n_cells):
    # within one ulp of a cell edge or a center the index may land one half
    # cell over: one bin off, and the field's continuity error in the control
    sg = SpaceGrid((n_cells,))
    fp = np.random.default_rng(n_cells + 1).standard_normal(n_cells)
    marks = np.concatenate([np.linspace(0.0, 1.0, n_cells + 1), sg.nodes(0)])
    x = np.clip(np.concatenate([marks, np.nextafter(marks, -1.0), np.nextafter(marks, 2.0)]), 0.0, 1.0)
    k = _half_cell_index(x, n_cells)
    assert np.abs((k >> 1) - _histogram_bin(x, n_cells)).max() <= 1
    control = _interp_half_cells(sg.nodes(0), fp, k, x)
    assert np.abs(control - np.interp(x, sg.nodes(0), fp)).max() <= 1e-12


def test_half_cell_index_walls_read_the_end_cells_and_values():
    sg = SpaceGrid((25,))
    fp = np.linspace(-1.0, 2.0, 25) ** 3
    x = np.array([0.0, 1.0])
    k = _half_cell_index(x, 25)
    np.testing.assert_array_equal(k >> 1, [0, 24])
    control = _interp_half_cells(sg.nodes(0), fp, k, x)
    np.testing.assert_array_equal(control, [fp[0], fp[-1]])


@pytest.mark.parametrize("shape", [(11, 19), (11, 21), (5, 20)], ids=["cells-1", "cells+1", "few-rows"])
def test_mc_names_a_mis_shaped_control_field(shape):
    tg = TimeGrid(t1=0.2, n_steps=10)
    sg = SpaceGrid((20,))
    params = _ev_params(tg)
    expected = re.escape(f"(n_nodes, n_cells) = (11, 20), found {shape}")
    with pytest.raises(ValueError, match=expected):
        mc_population(np.zeros(shape), _tent_density(sg), params, tg, sg, n_agents=100, seed=0)


def test_mc_rejects_a_time_grid_other_than_the_params():
    # the series live on params.tgrid; a grid with as many nodes but another
    # step would pass every shape check and simulate on the wrong clock
    tg = TimeGrid(t1=0.2, n_steps=10)
    other = TimeGrid(t1=0.4, n_steps=10)
    sg = SpaceGrid((20,))
    params = _ev_params(tg)
    expected = re.escape(f"time grid {other} is not the params' {tg}")
    with pytest.raises(ValueError, match=expected):
        mc_population(_constant_field(other, sg, 0.3), _tent_density(sg), params, other, sg, n_agents=100, seed=0)


# ---------------------------------------------------------------------------
# series resampled onto a coarse time grid (what both MDPs hold)


def _wavy(tg, level, freq):
    return level * (1.0 + 0.5 * np.sin(freq * tg.nodes / tg.t1))


def _varying_params(model, tg):
    if model == "ev":
        return EvParams(
            tgrid=tg, g=_wavy(tg, 0.4, 5.0), d=_wavy(tg, 0.8, 7.0), sigma=_wavy(tg, 0.1, 3.0),
            H=_wavy(tg, 30.0, 11.0), f_cost=lambda t, s: s, kappa=lambda s: s,
        )
    return PhevParams(
        tgrid=tg, g=_wavy(tg, 0.2, 5.0), Q1=_wavy(tg, 125.0, 7.0), Q2=_wavy(tg, 90.0, 3.0), r2=0.7,
        s_cost=lambda t, z1, z2: z1, xi=lambda z1, z2: z1,
    )


@pytest.mark.parametrize("model", ["ev", "phev"])
def test_resampled_interpolates_every_series(model):
    fine = TimeGrid(t1=0.5, n_steps=40)
    params = _varying_params(model, fine)
    assert model == "phev" or "d" in params.SERIES
    same = params.resampled(fine)
    assert same.tgrid == fine
    for name in params.SERIES:
        assert np.array_equal(getattr(same, name), getattr(params, name)), name
    coarse = TimeGrid(t1=0.5, n_steps=7)
    resampled = params.resampled(coarse)
    assert resampled.tgrid == coarse and params.tgrid == fine
    for name in params.SERIES:
        expected = np.interp(coarse.nodes, fine.nodes, getattr(params, name))
        assert np.array_equal(getattr(resampled, name), expected), name


# ---------------------------------------------------------------------------
# the operators read a model only through its params' game


class _GameOnly:
    """Stands in for a params object: its time grid and its game, none of its series or cost functions."""

    def __init__(self, params):
        self.tgrid, self.game = params.tgrid, params.game


def _costly_params(model, tg):
    # running costs that vary in time, so a wrong node index shows
    if model == "ev":
        costs = dict(f_cost=lambda t, s: (1.0 - s) ** 2 * (1.0 + t), kappa=lambda s: 2.0 * (1.0 - s) ** 2)
    else:
        costs = dict(s_cost=lambda t, z1, z2: (2.0 - z1 - z2) ** 2 * (1.0 + t), xi=lambda z1, z2: (2.0 - z1 - z2) ** 2)
    return dataclasses.replace(_varying_params(model, tg), **costs)


@pytest.mark.parametrize("model", ["ev", "phev"])
def test_operators_read_a_model_only_through_its_game(model):
    tg = TimeGrid(t1=0.5, n_steps=12)
    params = _costly_params(model, tg)
    stub = _GameOnly(params)
    for name in ("g", "H", "sigma", "f_cost", "kappa", "Q1", "Q2", "r2", "s_cost", "xi"):
        assert not hasattr(stub, name)
    sgrid = SpaceGrid((16,) if model == "ev" else (8, 8))
    p = _wavy(tg, 1.2, 4.0)
    m0 = np.ones(sgrid.shape)
    states, actions = (np.arange(5) + 0.5) / 5, np.linspace(-0.9, 0.9, 7)
    results = []
    for which in (params, stub):
        if model == "ev":
            mdp = DiscreteMdp(states=states, actions=actions, params=which, p=p)
        else:
            mdp = PhevMdp(states1=states, states2=states, actions1=actions, actions2=actions, params=which, r1=p)
        v, control = hjb_backward_sweep(p, which, sgrid)
        again = optimal_control(v, p, which, sgrid)
        m = fpk_forward_sweep(control, m0, which, sgrid)
        value, policy = dp_best_response(mdp)
        results.append([v, *control, *again, m, value, *policy])
    assert np.any(results[0][1] != 0.0) and np.any(results[0][-1] != 0.0)
    for got, expected in zip(results[1], results[0]):
        assert np.array_equal(got, expected)


def test_ev_cost_and_mc_read_the_battery_only_through_its_game():
    tg = TimeGrid(t1=0.5, n_steps=12)
    params = _costly_params("ev", tg)
    stub = _GameOnly(params)
    sgrid = SpaceGrid((16,))
    p = _wavy(tg, 1.2, 4.0)
    _, (alpha,) = hjb_backward_sweep(p, params, sgrid)
    m0 = np.ones(sgrid.shape)
    m = fpk_forward_sweep((alpha,), m0, params, sgrid)
    assert ev_cost(alpha, m, p, stub, sgrid) == ev_cost(alpha, m, p, params, sgrid)
    hist = [mc_population(alpha, m0, which, tg, sgrid, n_agents=500, seed=3) for which in (params, stub)]
    assert np.array_equal(*hist)
