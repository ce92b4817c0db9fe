"""Dynamic-programming and Monte Carlo cross-checks: the audit tools themselves."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evmfg
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
from evmfg import oracle
from evmfg.ev import EvParams
from evmfg.oracle import (
    LatticeMdp,
    _half_cell_pieces,
    _half_cell_step,
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
        tgrid=tg, g=const(g), d=const(0.0), sigma=const(sigma), H=const(1.0), f=f_cost, kappa=kappa
    )
    params.H = const(H)  # the induction takes H = 0, which the solver's params reject
    lattices = ((np.linspace(0.0, 1.0, n_states),), (np.asarray(actions, dtype=float),))
    return LatticeMdp(lattices=lattices, params=params, price=const(p))


def test_ev_mdp_lattice_and_actions():
    tg = TimeGrid(t1=0.5, n_steps=40)
    n = tg.n_nodes
    params = EvParams(
        tgrid=tg,
        g=np.linspace(0.2, 0.8, n),
        d=np.full(n, 1.0),
        sigma=np.full(n, 0.1),
        H=np.full(n, 30.0),
        f=lambda t, s: (1.0 - s) ** 2,
        kappa=lambda s: (1.0 - s) ** 2,
    )
    p = np.linspace(1.0, 2.0, n)
    mdp = ev_mdp(params, p, n_states=20)
    (states,), (actions,) = mdp.lattices
    assert states[0] == 0.0 and states[-1] == 1.0
    assert len(states) == 20
    # action lattice symmetric about zero and spanning at least +-3 g_max
    np.testing.assert_allclose(actions, -actions[::-1], atol=1e-14)
    assert 0.0 in actions
    assert actions.max() >= 3.0 * params.g.max() - 1e-12
    # coarse series keep the endpoints of the fine ones
    assert mdp.tgrid.n_steps == 13
    assert mdp.params.g[0] == params.g[0] and mdp.params.g[-1] == params.g[-1]
    assert mdp.price[0] == p[0] and mdp.price[-1] == p[-1]


@pytest.mark.parametrize(
    "make", [lambda: _flat_mdp(n_states=1), lambda: _flat_phev_mdp(n=1)], ids=["ev", "phev"]
)
def test_dp_rejects_single_state(make):
    with pytest.raises(ValueError, match="at least 2 states"):
        dp_best_response(make())


def test_dp_rejects_empty_action_set():
    empty_2 = _flat_phev_mdp()
    empty_2.lattices = (empty_2.lattices[0], (empty_2.lattices[1][0], np.array([])))
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
    (s,), (actions,) = mdp.lattices
    dt = mdp.tgrid.dt
    value = {mdp.tgrid.n_steps: {k: float(mdp.params.kappa(np.array([x]))[0]) for k, x in enumerate(s)}}
    for i in range(mdp.tgrid.n_steps - 1, -1, -1):
        j = i + 1
        row = {}
        for k, x in enumerate(s):
            best = np.inf
            for a in actions:
                nxt = min(max(x + dt * (a - mdp.params.g[j]), 0.0), 1.0)
                hits = np.nonzero(np.isclose(s, nxt, atol=1e-12))[0]
                assert hits.size == 1, "micro-instance transition left the lattice"
                stage = (
                    a * mdp.price[j]
                    + 0.5 * mdp.params.H[j] * a * a
                    + float(mdp.params.f(mdp.tgrid.nodes[j], np.array([x]))[0])
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
    (s,), (actions,) = mdp.lattices
    dt = mdp.tgrid.dt
    for i in range(mdp.tgrid.n_steps):
        j = i + 1
        eps = mdp.params.sigma[j] * mdp.params.g[j] * np.sqrt(dt)
        for k, x in enumerate(s):
            q = []
            for a in actions:
                nxt = x + dt * (a - mdp.params.g[j])
                up = min(max(nxt + eps, 0.0), 1.0)
                dn = min(max(nxt - eps, 0.0), 1.0)
                expected = 0.5 * (np.interp(up, s, value[j]) + np.interp(dn, s, value[j]))
                stage = a * mdp.price[j] + 0.5 * mdp.params.H[j] * a * a + f_w * (1.0 - x) ** 2
                q.append(dt * stage + expected)
            q = np.asarray(q)
            assert value[i][k] <= q.min() + 1e-12
            # the reported action attains the value
            a_star = policy[i][k]
            idx = int(np.argmin(np.abs(actions - a_star)))
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
    states, actions = (np.arange(n) + 0.5) / n, np.asarray(actions, dtype=float)
    return LatticeMdp(
        lattices=((states, states), (actions, actions)),
        params=PhevParams(tgrid=tg, g=const(g), Q1=const(Q), Q2=const(Q), r2=r2, s=s_cost, xi=xi),
        price=const(r1),
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

    (s, _), _ = mdp.lattices
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
                for a1, a2 in mdp.actions:
                    n1 = min(max(z1 + dt * (a1 - b * mdp.params.g[j]), 0.0), 1.0)
                    n2 = min(max(z2 + dt * (a2 - (1.0 - b) * mdp.params.g[j]), 0.0), 1.0)
                    stage = (
                        a1 * mdp.price[j]
                        + a2 * mdp.params.r2
                        + 0.5 * mdp.params.Q1[j] * a1 * a1
                        + 0.5 * mdp.params.Q2[j] * a2 * a2
                        + float(mdp.params.s(mdp.tgrid.nodes[j], np.array([z1]), np.array([z2]))[0])
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
    mdp2.lattices = (mdp2.lattices[0], (mdp2.lattices[1][0], np.array([0.0])))
    mdp1 = _flat_mdp(
        n_states=6,
        n_steps=4,
        actions=kw["actions"],
        H=kw["Q"],
        p=kw["r1"],
        f_cost=lambda t, s: (1.0 - s) ** 2 + 0.1 * t,
        kappa=lambda s: 2.0 * (1.0 - s) ** 2,
    )
    mdp1.lattices = (mdp2.lattices[0][:1], mdp1.lattices[1])
    value1, (policy1,) = dp_best_response(mdp1)
    value2, (pol1, pol2) = dp_best_response(mdp2)
    assert np.any(policy1 != 0.0)
    np.testing.assert_array_equal(pol2, 0.0)
    for k in range(len(mdp2.lattices[0][1])):
        np.testing.assert_array_equal(value2[:, :, k], value1)
        np.testing.assert_array_equal(pol1[:, :, k], policy1)


def _per_tuple_interp(table, lattices, points):
    """Multilinear interpolation searched and weighted at every point, corners read by tuple index."""
    lower, factors = [], []
    for s, x in zip(lattices, points):
        k = np.clip(np.searchsorted(s, x) - 1, 0, len(s) - 2)
        w = np.clip((x - s[k]) / (s[k + 1] - s[k]), 0.0, 1.0)
        lower.append(k)
        factors.append((1.0 - w, w))
    corners = (bits[::-1] for bits in itertools.product((0, 1), repeat=len(lattices)))
    return sum(
        math.prod(f[bit] for bit, f in zip(c, factors)) * table[tuple(k + bit for k, bit in zip(lower, c))]
        for c in corners
    )


def _per_tuple_induction(mdp):
    """The induction with every action tuple's next state interpolated on its own."""
    states, actions = mdp.lattices
    flat = [a.ravel() for a in np.meshgrid(*actions, indexing="ij")]
    size = [np.abs(a) for a in flat]
    order = np.lexsort(flat[::-1] + size[::-1] + [sum(size)])
    acts = [a[order].reshape((-1,) + (1,) * len(states)) for a in flat]
    mesh = np.meshgrid(*states, indexing="ij")
    game = mdp.params.game(mesh)
    dt, shape = mdp.tgrid.dt, mesh[0].shape
    value = np.empty((mdp.tgrid.n_nodes,) + shape)
    policy = tuple(np.empty((mdp.tgrid.n_steps,) + shape) for _ in states)
    value[-1] = game.terminal()
    for i in range(mdp.tgrid.n_steps - 1, -1, -1):
        axes, running, noise, _ = game.step(mdp.price, i + 1)
        eps = noise * math.sqrt(dt)
        shifts = (eps, -eps) if eps != 0.0 else (0.0,)
        nxt = [z + dt * (a - g) for z, a, (_, g, _) in zip(mesh, acts, axes)]
        expected = sum(
            _per_tuple_interp(value[i + 1], states, [np.clip(x + shift, 0.0, 1.0) for x in nxt]) for shift in shifts
        ) / len(shifts)
        stage = sum(a * p for a, (p, _, _) in zip(acts, axes))
        stage = sum((0.5 * h * a ** 2 for a, (_, _, h) in zip(acts, axes)), stage)
        total = (dt * (stage + running) + expected).reshape(len(order), -1)
        best = np.argmin(total, axis=0)
        value[i] = total[best, np.arange(total.shape[1])].reshape(shape)
        for out, a in zip(policy, acts):
            out[i] = a.ravel()[best].reshape(shape)
    return value, policy


def _assert_tables_equal(mdp):
    value, policy = dp_best_response(mdp)
    ref_value, ref_policy = _per_tuple_induction(mdp)
    assert np.array_equal(value, ref_value)
    assert len(policy) == len(ref_policy)
    for table, ref in zip(policy, ref_policy):
        assert np.array_equal(table, ref)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dp_is_bit_identical_to_the_per_tuple_induction_in_1d(seed):
    # two noise shifts, and the actions +-4 over dt = 1/4 drive past both walls
    rng = np.random.default_rng(seed)
    tg = TimeGrid(t1=1.0, n_steps=4)
    n = tg.n_nodes
    w = rng.uniform(0.5, 2.0, 3)
    params = EvParams(
        tgrid=tg,
        g=rng.uniform(0.2, 0.8, n),
        d=np.ones(n),
        sigma=rng.uniform(0.2, 0.6, n),
        H=rng.uniform(0.5, 3.0, n),
        f=lambda t, s: w[0] * (1.0 - s) ** 2 + w[1] * t,
        kappa=lambda s: w[2] * (1.0 - s) ** 2,
    )
    actions = np.sort(np.concatenate(([-4.0, 0.0, 4.0], rng.uniform(-4.0, 4.0, 8))))
    mdp = LatticeMdp(
        lattices=((np.linspace(0.0, 1.0, 7),), (actions,)),
        params=params,
        price=rng.uniform(0.0, 2.0, n),
    )
    assert np.all(params.sigma * params.g > 0.0)
    _assert_tables_equal(mdp)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dp_is_bit_identical_to_the_per_tuple_induction_in_2d(seed):
    # drains beta g and (1 - beta) g vary with the state; the axes differ in
    # state count and in action count, so a swapped stride or index shows
    rng = np.random.default_rng(seed)
    tg = TimeGrid(t1=1.0, n_steps=3)
    n = tg.n_nodes
    w = rng.uniform(0.5, 2.0, 3)
    params = PhevParams(
        tgrid=tg,
        g=rng.uniform(0.3, 0.9, n),
        Q1=rng.uniform(0.5, 3.0, n),
        Q2=rng.uniform(0.5, 3.0, n),
        r2=float(rng.uniform(0.0, 1.0)),
        s=lambda t, z1, z2: w[0] * (2.0 - z1 - z2) ** 2 + w[1] * t * z1,
        xi=lambda z1, z2: w[2] * ((1.0 - z1) ** 2 + 0.5 * (1.0 - z2) ** 2),
    )
    actions = [np.sort(np.concatenate(([-3.0, 0.0, 3.0], rng.uniform(-3.0, 3.0, k)))) for k in (4, 1)]
    mdp = LatticeMdp(
        lattices=(((np.arange(5) + 0.5) / 5, (np.arange(4) + 0.5) / 4), tuple(actions)),
        params=params,
        price=rng.uniform(0.0, 2.0, n),
    )
    _assert_tables_equal(mdp)


@pytest.mark.parametrize(
    "cells, lattice",
    [((10,), (np.linspace(0.0, 1.0, 7),)), ((6, 9), ((np.arange(5) + 0.5) / 5, (np.arange(4) + 0.5) / 4))],
    ids=["1d", "2d"],
)
def test_dp_deviation_interpolates_as_the_per_tuple_reference(cells, lattice):
    # the solver's field is read on the lattice bit for bit as the per-point
    # interpolation reads it; the 1D lattice reaches past the outer centers
    rng = np.random.default_rng(4)
    sgrid = SpaceGrid(cells)
    mdp = _flat_mdp() if len(cells) == 1 else _flat_phev_mdp()
    mdp.lattices = (lattice, mdp.lattices[1])
    v = rng.uniform(-1.0, 2.0, (mdp.tgrid.n_nodes, *cells))
    dp_value = rng.uniform(-1.0, 2.0, (mdp.tgrid.n_nodes, *map(len, lattice)))
    nodes = [sgrid.nodes(k) for k in range(len(cells))]
    v0 = _per_tuple_interp(v[0], nodes, np.meshgrid(*lattice, indexing="ij"))
    expected = np.abs(dp_value[0] - v0) / np.abs(v0).max()
    assert np.array_equal(dp_deviation(mdp, dp_value, v, sgrid), expected)


def _plan_builds(monkeypatch, mdp):
    """How many interpolation plans ``dp_best_response(mdp)`` builds: one per noise shift of every rebuilt step."""
    builds, build = [], oracle._interp_plan

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(oracle, "_interp_plan", counted)
    dp_best_response(mdp)
    monkeypatch.undo()
    return len(builds)


def _random_phev_mdp(seed, g=None):
    """The random two-pack MDP of ``test_dp_is_bit_identical_to_the_per_tuple_induction_in_2d``, or the same on ``g``."""
    rng = np.random.default_rng(seed)
    tg = TimeGrid(t1=1.0, n_steps=3 if g is None else len(g) - 1)
    n = tg.n_nodes
    w = rng.uniform(0.5, 2.0, 3)
    random_g = rng.uniform(0.3, 0.9, n)
    params = PhevParams(
        tgrid=tg,
        g=random_g if g is None else np.asarray(g, dtype=float),
        Q1=rng.uniform(0.5, 3.0, n),
        Q2=rng.uniform(0.5, 3.0, n),
        r2=float(rng.uniform(0.0, 1.0)),
        s=lambda t, z1, z2: w[0] * (2.0 - z1 - z2) ** 2 + w[1] * t * z1,
        xi=lambda z1, z2: w[2] * ((1.0 - z1) ** 2 + 0.5 * (1.0 - z2) ** 2),
    )
    actions = [np.sort(np.concatenate(([-3.0, 0.0, 3.0], rng.uniform(-3.0, 3.0, k)))) for k in (4, 1)]
    return LatticeMdp(
        lattices=(((np.arange(5) + 0.5) / 5, (np.arange(4) + 0.5) / 4), tuple(actions)),
        params=params,
        price=rng.uniform(0.0, 2.0, n),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dp_reuses_its_plan_bit_for_bit_in_1d_with_piecewise_constant_coefficients(seed, monkeypatch):
    # steps 6..4 share (g, sigma), step 3 changes g, step 1 sigma alone: three
    # runs of equal transitions, two noise shifts each; H and the price vary
    # on every step and read no plan
    rng = np.random.default_rng(seed)
    tg = TimeGrid(t1=1.0, n_steps=6)
    n = tg.n_nodes
    w = rng.uniform(0.5, 2.0, 3)
    params = EvParams(
        tgrid=tg,
        g=np.repeat(rng.uniform(0.2, 0.8, 2), [4, 3]),
        d=np.ones(n),
        sigma=np.repeat(rng.uniform(0.2, 0.6, 2), [2, 5]),
        H=rng.uniform(0.5, 3.0, n),
        f=lambda t, s: w[0] * (1.0 - s) ** 2 + w[1] * t,
        kappa=lambda s: w[2] * (1.0 - s) ** 2,
    )
    actions = np.sort(np.concatenate(([-4.0, 0.0, 4.0], rng.uniform(-4.0, 4.0, 8))))
    mdp = LatticeMdp(lattices=((np.linspace(0.0, 1.0, 7),), (actions,)), params=params, price=rng.uniform(0.0, 2.0, n))
    assert np.all(params.sigma * params.g > 0.0)
    assert _plan_builds(monkeypatch, mdp) == 3 * 2
    _assert_tables_equal(mdp)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dp_reuses_its_plan_bit_for_bit_in_2d_with_piecewise_constant_consumption(seed, monkeypatch):
    # g runs 0.4, 0.7, 0.4 over steps 6..5, 4..3, 2..1: the return to 0.4
    # rebuilds too, since only the previous step's plan is kept
    mdp = _random_phev_mdp(seed, g=np.repeat([0.4, 0.7, 0.4], [3, 2, 2]))
    assert _plan_builds(monkeypatch, mdp) == 3
    _assert_tables_equal(mdp)


def test_dp_builds_one_plan_per_run_of_equal_transitions(monkeypatch):
    # constant consumption and no noise: one plan serves every step; a
    # consumption drawn afresh at every node rebuilds it on every step
    assert _plan_builds(monkeypatch, _flat_phev_mdp(n=3, n_steps=5, g=0.4)) == 1
    for seed in (0, 1, 2):
        mdp = _random_phev_mdp(seed)
        assert _plan_builds(monkeypatch, mdp) == mdp.tgrid.n_steps == 3


def test_phev_mdp_uses_cell_centered_states():
    tg = TimeGrid(t1=0.5, n_steps=11)
    n = tg.n_nodes
    params = PhevParams(
        tgrid=tg,
        g=np.full(n, 0.2),
        Q1=np.full(n, 125.0),
        Q2=np.full(n, 125.0),
        r2=0.7,
        s=lambda t, z1, z2: 20.0 * (2.0 - z1 - z2) ** 2,
        xi=lambda z1, z2: 10.0 * (2.0 - z1 - z2) ** 2,
    )
    mdp = phev_mdp(params, np.full(n, 0.7), n_states=8)
    s1, s2 = mdp.lattices[0]
    assert s1[0] > 0.0 and s1[-1] < 1.0
    assert len(s1) == 8
    np.testing.assert_array_equal(s1, s2)
    # beta is well defined on the whole lattice (never the (0,0) corner)
    z1, z2 = np.meshgrid(s1, s2, indexing="ij")
    assert np.all(z1 + z2 > 0.0)


@pytest.mark.parametrize("model", ["ev", "phev"])
def test_product_sets_are_what_the_induction_enumerates(model):
    # one row per state or action tuple, one column per axis, in the ij
    # meshgrid's raveled order; every policy pair is a row of the action set
    tg = TimeGrid(t1=0.5, n_steps=12)
    mdp = (ev_mdp if model == "ev" else phev_mdp)(_varying_params(model, tg), _wavy(tg, 1.2, 4.0), n_states=4)
    for product, lattices in ((mdp.states, mdp.lattices[0]), (mdp.actions, mdp.lattices[1])):
        assert product.shape == (math.prod(map(len, lattices)), len(lattices))
        for column, mesh in zip(product.T, np.meshgrid(*lattices, indexing="ij")):
            assert np.array_equal(column, mesh.ravel())
    _, policy = dp_best_response(mdp)
    chosen = {tuple(row) for row in np.stack([table.ravel() for table in policy], axis=1)}
    assert chosen <= {tuple(row) for row in mdp.actions}
    if model == "ev":  # the value `evmfg oracle` reads for its reach check
        assert mdp.actions.max() == mdp.lattices[1][0].max()


@pytest.mark.parametrize("extra", [6, -1], ids=["long", "short"])
def test_a_price_of_the_wrong_length_is_named(extra):
    # a longer series used to be cut short, a shorter one to fail on a bare
    # index, and ev_mdp's resampling to fail inside np.interp
    tg = TimeGrid(t1=0.5, n_steps=12)
    ev, phev = _varying_params("ev", tg), _varying_params("phev", tg)
    coarse = ev_mdp(ev, _wavy(tg, 1.2, 4.0))
    cases = [
        (lambda: ev_mdp(ev, np.ones(tg.n_nodes + extra)), tg.n_nodes),
        (lambda: LatticeMdp(coarse.lattices, coarse.params, np.ones(14 + extra)), 14),
        (lambda: phev_mdp(phev, np.ones(tg.n_nodes + extra)), tg.n_nodes),
    ]
    for make, n in cases:
        with pytest.raises(ValueError, match=f"price series has {n + extra} values, expected {n}: one per time node"):
            make()


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
        f=lambda t, s: np.zeros_like(s),
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


def test_mc_step_moves_every_agent_by_plus_or_minus_sigma_g_sqrt_dt():
    # sigma g sqrt(dt) = 0.25 * 0.5 * 0.125 = 1/64, one cell of 64, and the
    # control cancels the drain. From cell 32, x -+ 1/64 is representable
    # (no rounding), so every agent lands in cell 31 or 33, never in between
    # or beyond. Signs alternate by rank, so the + steps are exactly half,
    # give or take the odd agent.
    tg = TimeGrid(t1=1.0 / 32.0, n_steps=2)  # dt = 1/64; the first step is checked
    sg = SpaceGrid((64,))
    params = _ev_params(tg, g=0.5, sigma=0.25)
    m0 = np.zeros(64)
    m0[32] = 1.0 / sg.spacing(0)
    n = 50_001  # odd: one half holds one agent more
    hist = mc_population(_constant_field(tg, sg, 0.5), m0, params, tg, sg, n_agents=n, seed=5)
    counts = np.rint(hist * n * sg.spacing(0)).astype(int)
    np.testing.assert_array_equal(np.flatnonzero(counts[0]), [32])
    np.testing.assert_array_equal(np.flatnonzero(counts[1]), [31, 33])
    assert counts[1, 31] + counts[1, 33] == n
    assert counts[1, 33] in (n // 2, n // 2 + 1)


def test_mc_phase_bit_sends_a_lone_agent_either_way():
    # one agent has rank 0 at every step; its sign comes from the phase bit
    # alone, so over seeds it moves up about as often as down
    tg = TimeGrid(t1=1.0 / 32.0, n_steps=2)  # dt = 1/64, sigma g sqrt(dt) = 1/64: one cell; the first step is checked
    sg = SpaceGrid((64,))
    params = _ev_params(tg, g=0.5, sigma=0.25)
    m0 = np.zeros(64)
    m0[32] = 1.0 / sg.spacing(0)
    cells = [int(np.flatnonzero(mc_population(_constant_field(tg, sg, 0.5), m0, params, tg, sg, n_agents=1,
                                              seed=seed)[1])[0]) for seed in range(40)]
    assert set(cells) == {31, 33}
    assert 8 <= cells.count(33) <= 32


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


def _mc_distance(sol, problem, control, seed, n_agents):
    hist = mc_population(control, sol.m[0], problem.params, problem.tgrid, problem.sgrid, n_agents=n_agents, seed=seed)
    return float((np.abs(hist - sol.m).sum(axis=1) * problem.sgrid.spacing(0)).max())


# the full population, and the count ``oracle`` runs by default on the grid (12,500 agents at 100 cells)
@pytest.mark.parametrize("n_agents", [100_000, cli.mc_agents(100)])
def test_mc_distance_of_the_weekend_run_barely_moves_with_the_seed(ev_run, n_agents):
    # sorted agents with rank-alternating increments: what the audit reads is
    # the PDE's discretization error, not sampling noise
    sol, problem = ev_run["solution"], ev_run["problem"]
    readings = [_mc_distance(sol, problem, sol.alpha[0], seed, n_agents) for seed in range(10)]
    assert max(readings) - min(readings) < 1e-3


@pytest.fixture(scope="module")
def stiff_fine_run():
    config = evmfg.apply_overrides(
        evmfg.load_scenario("ev_weekend"), ["space.cells=400", "series.H=3.0", "price.exponent=4.0"]
    )
    problem, options, _ = evmfg.build_problem(config)
    sol = evmfg.solve_mfe(problem, options)
    assert sol.converged
    return sol, problem


# the full population, and the count ``oracle`` runs by default on the grid (50,000 agents at 400 cells)
@pytest.mark.parametrize("n_agents", [100_000, cli.mc_agents(400)])
@pytest.mark.parametrize("defect", [lambda a: a + 0.02, lambda a: 1.1 * a], ids=["plus-0.02", "times-1.1"])
def test_mc_distance_sees_a_planted_control_defect_on_400_cells(stiff_fine_run, defect, n_agents):
    # independent agents read 0.035-0.038 here for the exact control, 0.046
    # for +0.02 and 0.054 for x1.1, with seed spreads of 0.003-0.006. Sorted
    # ones read the exact control at 0.009 and each defect four or more
    # times higher.
    sol, problem = stiff_fine_run
    for seed in (0, 1, 2):
        exact = _mc_distance(sol, problem, sol.alpha[0], seed, n_agents)
        planted = _mc_distance(sol, problem, defect(sol.alpha[0]), seed, n_agents)
        assert planted > 3.0 * exact, (seed, exact, planted)


def test_mc_without_noise_draws_nothing():
    tg = TimeGrid(t1=0.5, n_steps=30)
    sg = SpaceGrid((25,))
    params = _ev_params(tg, g=0.5, sigma=0.0)
    field = _wall_bound_field(tg, sg, 0.5)
    hist = [mc_population(field, _tent_density(sg), params, tg, sg, n_agents=5_000, seed=seed) for seed in (0, 1)]
    np.testing.assert_array_equal(*hist)


# ---------------------------------------------------------------------------
# the sorted population against a plain np.interp / np.sort / np.histogram loop


def _reference_mc_population(control, m0, params, tgrid, sgrid, n_agents, seed):
    """Per step: np.interp for each agent's control, +-eps by rank with the same phase bit, np.sort, np.histogram."""
    rng = np.random.default_rng(seed)
    x = sample_density(m0, sgrid, n_agents)

    def bin_slice(x):
        counts, _ = np.histogram(x, bins=sgrid.shape[0], range=(0.0, 1.0))
        return counts / (n_agents * sgrid.spacing(0))

    hist = np.empty((tgrid.n_nodes, sgrid.shape[0]))
    hist[0] = bin_slice(x)
    sqrt_dt = math.sqrt(tgrid.dt)
    sign = np.where(np.arange(n_agents) % 2 == 0, 1.0, -1.0)
    for i in range(tgrid.n_steps):
        a = np.interp(x, sgrid.nodes(0), control[i])
        x = x + tgrid.dt * (a - params.g[i])
        noise = params.sigma[i] * params.g[i]
        if noise != 0.0:
            x = x + noise * sqrt_dt * (1.0 - 2.0 * rng.integers(2)) * sign
        x = np.clip(np.sort(x), 0.0, 1.0)
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


@pytest.mark.parametrize("n_cells", [4, 25, 100, 400])
@pytest.mark.parametrize("n_agents", [1, 2, 3, 20_003])
def test_mc_matches_reference_loop_at_an_odd_or_tiny_agent_count(n_cells, n_agents):
    # an odd count gives the +eps half one agent more than the -eps half
    tg = TimeGrid(t1=0.5, n_steps=30)
    sg = SpaceGrid((n_cells,))
    params = _ev_params(tg, g=0.5, sigma=0.2)
    m0 = np.full(n_cells, 1.0)
    field = _wall_bound_field(tg, sg, 0.5)
    hist = mc_population(field, m0, params, tg, sg, n_agents=n_agents, seed=11)
    np.testing.assert_array_equal(hist, _reference_mc_population(field, m0, params, tg, sg, n_agents=n_agents, seed=11))


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_mc_matches_reference_loop_where_the_drift_reverses_the_order(sigma):
    # slope -100 at dt 1/60: the scale 1 + dt slope is below zero, so the
    # drift turns each half cell's run of agents around and the sort alone
    # restores the order
    tg = TimeGrid(t1=0.5, n_steps=30)
    sg = SpaceGrid((25,))
    params = _ev_params(tg, g=0.5, sigma=sigma)
    t, x = np.meshgrid(tg.nodes, sg.nodes(0), indexing="ij")
    field = 0.5 - 100.0 * (x - 0.5) * (1.0 + t)
    assert (1.0 + tg.dt * np.diff(field, axis=1) / sg.spacing(0)).min() < 0.0
    m0 = np.full(25, 1.0)
    hist = mc_population(field, m0, params, tg, sg, n_agents=20_000, seed=11)
    np.testing.assert_array_equal(hist, _reference_mc_population(field, m0, params, tg, sg, n_agents=20_000, seed=11))


def test_mc_matches_reference_loop_on_the_weekend_equilibrium(ev_run):
    # the criterion-4 audit: 100k agents, seed 0
    sol, problem = ev_run["solution"], ev_run["problem"]
    args = (sol.alpha[0], sol.m[0], problem.params, problem.tgrid, problem.sgrid)
    hist = mc_population(*args, n_agents=100_000, seed=0)
    np.testing.assert_array_equal(hist, _reference_mc_population(*args, n_agents=100_000, seed=0))


def _half_cell(x, sg):
    """The half cell of each point as ``mc_population`` finds it: cell centers and edges searched from the left."""
    edges = np.linspace(0.0, 1.0, sg.shape[0] + 1)
    return np.searchsorted(np.sort(np.concatenate([sg.nodes(0), edges[1:-1]])), x, side="right")


def _edge_and_center_marks(sg):
    """Every cell edge and center, each with its neighbours one ulp either side, inside [0, 1]."""
    marks = np.concatenate([np.linspace(0.0, 1.0, sg.shape[0] + 1), sg.nodes(0)])
    return np.clip(np.concatenate([marks, np.nextafter(marks, -1.0), np.nextafter(marks, 2.0)]), 0.0, 1.0)


@pytest.mark.parametrize("n_cells", [4, 25, 100, 400])
def test_half_cell_pieces_are_interp_at_random_points_edges_centers_and_walls(n_cells):
    # the half cells are searched on the very centers np.interp searches, so
    # the pieces give its value bit for bit, one ulp either side of a center too
    sg = SpaceGrid((n_cells,))
    rng = np.random.default_rng(n_cells)
    x = np.concatenate([rng.random(50_000), _edge_and_center_marks(sg)])
    fp = rng.standard_normal(n_cells) ** 3
    k = _half_cell(x, sg)
    slope, left, value = _half_cell_pieces(sg.nodes(0), fp)
    np.testing.assert_array_equal(slope[k] * (x - left[k]) + value[k], np.interp(x, sg.nodes(0), fp))
    np.testing.assert_array_equal(_half_cell(np.array([0.0, 1.0]), sg), [0, 2 * n_cells - 1])


@pytest.mark.parametrize("n_cells", [4, 25, 100, 400])
@pytest.mark.parametrize("dt", [1.0 / 143.0, 1.0 / 3.0])
@pytest.mark.parametrize("amplitude", [1.0, 100.0])
def test_half_cell_step_is_the_reference_step_within_4_ulps_of_its_scale(n_cells, dt, amplitude):
    # The affine map rounds its own way. Its gap to x + dt (interp(x) - g)
    # is counted in ulps of the step's scale S = 1 + dt (max|slope| +
    # max|fp| + g). Measured over field amplitudes 0.1-100, dt from 1/143 to
    # 1/3, these cell counts and 20 seeds each, it was at most 1.5 ulps of S
    # on random points, edges and centres. At the walls the slope is 0 and
    # the step is exact.
    sg = SpaceGrid((n_cells,))
    rng = np.random.default_rng(n_cells)
    fp = amplitude * rng.standard_normal(n_cells)
    g = 0.5
    x = np.concatenate([rng.random(50_000), _edge_and_center_marks(sg)])
    k = _half_cell(x, sg)
    scale, offset = _half_cell_step(sg.nodes(0), fp, g, dt)
    step = scale[k] * x + offset[k]
    reference = x + dt * (np.interp(x, sg.nodes(0), fp) - g)
    slope, _, _ = _half_cell_pieces(sg.nodes(0), fp)
    ulps = np.abs(step - reference) / (np.finfo(float).eps * (1.0 + dt * (np.abs(slope).max() + np.abs(fp).max() + g)))
    assert ulps.max() <= 4.0
    walls = np.array([0.0, 1.0])
    k = _half_cell(walls, sg)
    np.testing.assert_array_equal(scale[k] * walls + offset[k], walls + dt * (np.interp(walls, sg.nodes(0), fp) - g))


@pytest.mark.parametrize("n_cells, rows", [(4, 1), (25, 7), (100, 20), (400, 5)])
def test_half_cell_tables_of_a_block_of_steps_are_each_steps_tables_bit_for_bit(n_cells, rows):
    # mc_population builds the tables of a block of steps in one call: control
    # rows against a column of drains, each row as its own call would give it
    sg = SpaceGrid((n_cells,))
    rng = np.random.default_rng(n_cells)
    values = 30.0 * rng.standard_normal((rows, n_cells)) ** 3
    g = rng.random((rows, 1))
    dt = 1.0 / 143.0
    pieces = _half_cell_pieces(sg.nodes(0), values)
    scale, offset = _half_cell_step(sg.nodes(0), values, g, dt)
    for r in range(rows):
        slope, left, value = _half_cell_pieces(sg.nodes(0), values[r])
        assert np.array_equal(pieces[0][r], slope) and np.array_equal(pieces[1], left)
        assert np.array_equal(pieces[2][r], value)
        row_scale, row_offset = _half_cell_step(sg.nodes(0), values[r], g[r, 0], dt)
        assert np.array_equal(scale[r], row_scale) and np.array_equal(offset[r], row_offset)


@pytest.mark.parametrize("field, bad", [
    *itertools.product(["control", "initial density"], [np.nan, np.inf, -np.inf]),
    ("initial density", -0.5),
])
def test_mc_names_a_non_finite_control_or_initial_density(field, bad):
    # a NaN at control[3, 7] used to carry 15.6% of the mass into the last cell,
    # and a negative m0 cell ran unnoticed against another population
    tg = TimeGrid(t1=0.2, n_steps=10)
    sg = SpaceGrid((20,))
    control, m0 = _constant_field(tg, sg, 0.3), _tent_density(sg)
    if field == "control":
        control[3, 7] = bad
        expected = f"control field must be finite, found {bad} at index (3, 7)"
    else:
        m0[5] = bad
        rule = "nonnegative" if np.isfinite(bad) else "finite"
        expected = f"initial density must be {rule}, found {bad} at index (5,)"
    with pytest.raises(ValueError, match=re.escape(expected)):
        mc_population(control, m0, _ev_params(tg), tg, sg, n_agents=100, seed=0)


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
            H=_wavy(tg, 30.0, 11.0), f=lambda t, s: s, kappa=lambda s: s,
        )
    return PhevParams(
        tgrid=tg, g=_wavy(tg, 0.2, 5.0), Q1=_wavy(tg, 125.0, 7.0), Q2=_wavy(tg, 90.0, 3.0), r2=0.7,
        s=lambda t, z1, z2: z1, xi=lambda z1, z2: z1,
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
        costs = dict(f=lambda t, s: (1.0 - s) ** 2 * (1.0 + t), kappa=lambda s: 2.0 * (1.0 - s) ** 2)
    else:
        costs = dict(s=lambda t, z1, z2: (2.0 - z1 - z2) ** 2 * (1.0 + t), xi=lambda z1, z2: (2.0 - z1 - z2) ** 2)
    return dataclasses.replace(_varying_params(model, tg), **costs)


@pytest.mark.parametrize("model", ["ev", "phev"])
def test_operators_read_a_model_only_through_its_game(model):
    tg = TimeGrid(t1=0.5, n_steps=12)
    params = _costly_params(model, tg)
    stub = _GameOnly(params)
    for name in ("g", "H", "sigma", "f", "kappa", "Q1", "Q2", "r2", "s", "xi"):
        assert not hasattr(stub, name)
    sgrid = SpaceGrid((16,) if model == "ev" else (8, 8))
    p = _wavy(tg, 1.2, 4.0)
    m0 = np.ones(sgrid.shape)
    lattices = (((np.arange(5) + 0.5) / 5,) * len(sgrid.shape), (np.linspace(-0.9, 0.9, 7),) * len(sgrid.shape))
    results = []
    for which in (params, stub):
        mdp = LatticeMdp(lattices=lattices, params=which, price=p)
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
