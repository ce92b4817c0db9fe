"""The value sweep's comparison principle as a property, on random cases of both games.

Under the substep bound each value substep is monotone: a new value is a
nondecreasing function of the values it reads (Achdou & Capuzzo-Dolcetta,
SIAM J. Numer. Anal. 48(3), 2010; Barles & Souganidis, Asymptotic Anal.
4(3), 1991), and the exact diffusion's kernel is positive. So a
nonnegative bump added to the terminal cost never lowers the value at any
node, provided both sweeps take one step plan: each step takes the larger of
their two substep counts (``assert_comparison``). With its own plan a
steeper terminal cost takes shorter substeps, a different scheme, and its
value may read lower by the difference of their time errors. The property
holds for any price, drain, noise and cost, so it checks a scheme change
without pinning the bits it produces. It reads the value within
``ROUNDOFF`` of the value's size: each substep rounds both sweeps, and where
the bump is 0 they may part by an ulp a substep.

The 1D cases cover both diffusion branches: noise whose explicit rate dt
sigma^2 g^2 / dx^2 stays under ``SUBSTEP_SAFETY`` joins the substeps, and
noise above it takes the exact diffusion. The property also runs once
against a planted substep twice over the bound and must fail there.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evmfg.ev as ev_module
from evmfg import EvParams, PhevParams, SpaceGrid, TimeGrid, hjb_backward_sweep
from evmfg.numerics import SUBSTEP_SAFETY

ROUNDOFF = 1e-12
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
BRANCHES = {"explicit": (0.0, 0.8), "exact": (1.0, 20.0)}  # dt diff / dx^2 over SUBSTEP_SAFETY


def _params(game, tgrid, sgrid, rng, branch, terminal):
    """A game's params with a random running cost and the given terminal cost, an array on the cells."""
    n = tgrid.n_nodes
    g = rng.uniform(0.1, 2.0, n)
    running = rng.uniform(0.0, 1.0, sgrid.shape)
    if game == "ev":
        low, high = BRANCHES[branch]
        # sigma g = sqrt(rate / dt) dx puts each node's explicit diffusion rate on its branch
        sigma = np.sqrt(rng.uniform(low, high, n) * SUBSTEP_SAFETY / tgrid.dt) * sgrid.spacing(0) / g
        return EvParams(tgrid=tgrid, g=g, sigma=sigma, H=rng.uniform(1.0, 40.0, n), d=np.ones(n),
                        f=lambda t, x: running, kappa=lambda x: terminal)
    return PhevParams(tgrid=tgrid, g=g, Q1=rng.uniform(1.0, 40.0, n), Q2=rng.uniform(1.0, 40.0, n),
                      r2=rng.uniform(0.0, 2.0), s=lambda t, z1, z2: running, xi=lambda z1, z2: terminal)


def _case(game, cells, steps, horizon, seed, branch="explicit"):
    """(price, params, params with a bumped terminal cost, sgrid) of a random case."""
    rng = np.random.default_rng(seed)
    tgrid, sgrid = TimeGrid(horizon, steps), SpaceGrid(cells)
    terminal = rng.uniform(0.0, 1.0, sgrid.shape)
    bump = rng.uniform(0.0, 1.0, sgrid.shape) * (rng.random(sgrid.shape) > 0.5)  # 0 on about half the cells
    params = _params(game, tgrid, sgrid, np.random.default_rng(seed + 1), branch, terminal)
    bumped = _params(game, tgrid, sgrid, np.random.default_rng(seed + 1), branch, terminal + bump)
    return rng.uniform(0.0, 2.0, tgrid.n_nodes), params, bumped, sgrid


@st.composite
def cases(draw):
    game = draw(st.sampled_from(["ev", "phev"]))
    if game == "ev":
        cells, branch = (draw(st.integers(4, 24)),), draw(st.sampled_from(list(BRANCHES)))
    else:
        cells, branch = (draw(st.integers(4, 8)), draw(st.integers(4, 8))), "explicit"
    return _case(game, cells, draw(st.integers(2, 10)), draw(st.floats(0.05, 1.0)),
                 draw(st.integers(0, 2**32 - 1)), branch)


def _sweep(p, params, sgrid, plan):
    """(v, the substep count of each step) of the value sweep, whose step k takes at least ``plan[k]`` substeps."""
    count, counts = ev_module.substep_count, []

    def planned(dt, rate):
        counts.append(max(count(dt, rate), plan[len(counts)] if plan else 0))
        return counts[-1]

    with mock.patch.object(ev_module, "substep_count", planned):
        return hjb_backward_sweep(p, params, sgrid)[0], counts


def assert_comparison(p, params, bumped, sgrid):
    plan = None
    while True:  # until both sweeps take one plan; a plan only grows, so this ends
        (v, own), (raised, raised_own) = _sweep(p, params, sgrid, plan), _sweep(p, bumped, sgrid, plan)
        if own == raised_own:
            break
        plan = [max(a, b) for a, b in zip(own, raised_own)]
    assert (raised - v).min() >= -ROUNDOFF * max(1.0, float(np.abs(v).max()))


@PROPERTY_SETTINGS
@given(cases())
def test_a_raised_terminal_cost_never_lowers_the_value(case):
    assert_comparison(*case)


@pytest.mark.parametrize("branch", list(BRANCHES))
def test_a_case_of_each_branch_takes_that_branch(branch):
    p, params, _, sgrid = _case("ev", (12,), 6, 0.5, seed=5, branch=branch)
    rates = params.tgrid.dt * (params.sigma * params.g) ** 2 / sgrid.spacing(0) ** 2
    assert np.all(rates > SUBSTEP_SAFETY) if branch == "exact" else np.all(rates <= SUBSTEP_SAFETY)


def test_a_substep_over_the_bound_fails_the_comparison():
    # substeps twice as long as the bound allows: dt_sub * rate up to 2 * SUBSTEP_SAFETY
    case = _case("ev", (20,), 8, 1.0, seed=0)
    assert_comparison(*case)
    count = ev_module.substep_count
    with mock.patch.object(ev_module, "substep_count", lambda dt, rate: count(dt / 2.0, rate)), \
            np.errstate(all="ignore"), pytest.raises(AssertionError):
        assert_comparison(*case)
