"""The value sweep's properties, on random cases of both games from 4 cells up.

The comparison principle. Under the substep bound each value substep is
monotone: a new value is a nondecreasing function of the values it reads
(Achdou & Capuzzo-Dolcetta, SIAM J. Numer. Anal. 48(3), 2010; Barles &
Souganidis, Asymptotic Anal. 4(3), 1991), and the exact diffusion's kernel
is positive. So a nonnegative bump added to the terminal cost never lowers
the value at any node, provided both sweeps take one step plan: each step
takes the larger of their two substep counts (``_on_one_plan``). With its
own plan a steeper terminal cost takes shorter substeps, a different
scheme, and its value may read lower by the difference of their time
errors. The property holds for any price, drain, noise and cost, so it
checks a scheme change without pinning the bits it produces. It reads the
value within ``ROUNDOFF`` of the value's size: each substep rounds both
sweeps, and where the bump is 0 they may part by an ulp a substep.

Constants. The Hamiltonian and the diffusion read only differences of v,
and the exact diffusion's taps sum to 1, so a constant c added to the
terminal cost shifts v by c, and added to the running cost it shifts v(t_i)
by c (T - t_i), the time left; the control does not move. In floats each
substep rounds once, and a monotone substep does not amplify what earlier
ones rounded: v moves within ``VALUE_ULPS`` ulps of its size a substep, and
the control within what that moves a face difference over dx, divided by h.

The Hamiltonian's envelope, per axis. F(p) = min_a [(a-g)+ D+v + (a-g)- D-v
+ a p + h a^2 / 2] is a minimum of functions affine in p, so it is concave
in p and its derivative in p is its minimiser (Danskin). Between branch
switches the minimiser is piecewise linear in p with slope -1/h or 0, so the
central difference over [p - delta, p + delta] lies within delta / (2 h) of
it; at a switch the minimiser jumps down, and the difference still lies
between its values at the two ends.

The 1D cases cover both diffusion branches: noise whose explicit rate dt
sigma^2 g^2 / dx^2 stays under ``SUBSTEP_SAFETY`` joins the substeps, and
noise above it takes the exact diffusion. Each property also runs once
against a planted defect and must fail there: a substep twice over the
bound for the comparison, a control from the centred difference for the
envelope.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evmfg.ev as ev_module
from evmfg import EvParams, PhevParams, SpaceGrid, TimeGrid, hjb_backward_sweep
from evmfg.numerics import SUBSTEP_SAFETY, axis_index

ROUNDOFF = 1e-12
EPS = np.finfo(float).eps
VALUE_ULPS = 2  # a substep's rounding of a shifted value, in ulps of the value's size; 0.62 is the worst seen
DELTA = 2.0 ** -20  # the half width of the envelope's central difference in p
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
    """(v, control, the substep count of each step) of the value sweep, whose step k takes at least ``plan[k]`` substeps."""
    count, counts = ev_module.substep_count, []

    def planned(dt, rate):
        counts.append(max(count(dt, rate), plan[len(counts)] if plan else 0))
        return counts[-1]

    with mock.patch.object(ev_module, "substep_count", planned):
        v, control = hjb_backward_sweep(p, params, sgrid)
    return v, control, counts


def _on_one_plan(p, params, other, sgrid):
    """``_sweep`` of ``params`` and of ``other`` on one step plan: each step takes the larger of their counts."""
    plan = None
    while True:  # a plan only grows, so this ends
        sweep, other_sweep = _sweep(p, params, sgrid, plan), _sweep(p, other, sgrid, plan)
        if sweep[2] == other_sweep[2]:
            return sweep, other_sweep
        plan = [max(a, b) for a, b in zip(sweep[2], other_sweep[2])]


def assert_comparison(p, params, bumped, sgrid):
    (v, _, _), (raised, _, _) = _on_one_plan(p, params, bumped, sgrid)
    assert (raised - v).min() >= -ROUNDOFF * max(1.0, float(np.abs(v).max()))


def _shifted(params, running=0.0, terminal=0.0):
    """``params`` with the constant ``running`` added to its running cost and ``terminal`` to its terminal cost."""
    running_name, terminal_name = type(params).COSTS
    cost, final = getattr(params, running_name), getattr(params, terminal_name)
    return dataclasses.replace(params, **{running_name: lambda *at: cost(*at) + running,
                                          terminal_name: lambda *at: final(*at) + terminal})


def _control_costs(params) -> list[np.ndarray]:
    """Per axis, the control's quadratic cost h at every node: H on the battery, Q1 and Q2 on the packs."""
    return [params.H] if isinstance(params, EvParams) else [params.Q1, params.Q2]


def assert_shift(p, params, shifted, sgrid, shift):
    """The value of ``shifted`` is ``params``'s plus ``shift`` (one value per node), and the control is the same."""
    (v, control, plan), (moved, moved_control, _) = _on_one_plan(p, params, shifted, sgrid)
    size = max(float(np.abs(v).max()), float(np.abs(moved).max()))
    bound = VALUE_ULPS * (sum(plan) + 1) * EPS * size
    assert np.abs(moved - v - shift.reshape((-1,) + (1,) * len(sgrid.shape))).max() <= bound
    # a face difference of the moved value moves by twice the bound and its own rounding, over dx
    for axis, (alpha, moved_alpha, h) in enumerate(zip(control, moved_control, _control_costs(params))):
        face = (2.0 * bound + 2.0 * EPS * size) / sgrid.spacing(axis)
        assert np.abs(moved_alpha - alpha).max() <= face / float(h.min())


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


@PROPERTY_SETTINGS
@given(cases(), st.floats(-10.0, 10.0))
def test_a_constant_added_to_the_terminal_cost_shifts_the_value_by_it(case, c):
    p, params, _, sgrid = case
    assert_shift(p, params, _shifted(params, terminal=c), sgrid, np.full(params.tgrid.n_nodes, c))


@PROPERTY_SETTINGS
@given(cases(), st.floats(-10.0, 10.0))
def test_a_constant_added_to_the_running_cost_shifts_the_value_by_it_times_the_time_left(case, c):
    p, params, _, sgrid = case
    tgrid = params.tgrid
    assert_shift(p, params, _shifted(params, running=c), sgrid, c * (tgrid.t1 - tgrid.nodes))


def _upwind(v, q, g, h, sgrid, axis):
    """(F, its minimiser, the move w) of the upwind Hamiltonian along ``axis`` at the price q."""
    slopes = ev_module._face_buffers(sgrid.shape, [axis])[0]
    minimiser = np.empty(sgrid.shape)
    f, _, w = ev_module._hamiltonian(v, q, g, h, sgrid.spacing(axis), axis_index(axis), slopes, minimiser)
    return f, minimiser, w


def assert_envelope(v, axes, sgrid, spread, hamiltonian=_upwind):
    """Per axis with its ``(p, g, h)``: F is concave in p, and its central difference in p is its minimiser.

    F rounds within a few ulps of the terms it sums, ``size``, so its
    central difference within that over delta, and its minimiser within a
    few ulps of |g| + w. ``spread`` is the half width of the chord that
    concavity is checked on.
    """
    for axis, (p, g, h) in enumerate(axes):
        prices = (p - spread, p - DELTA, p, p + DELTA, p + spread)
        (f_far, _, w_far), (f_lo, a_lo, w_lo), (f, a, w), (f_hi, a_hi, w_hi), (f_top, _, w_top) = (
            hamiltonian(v, q, g, h, sgrid, axis) for q in prices)
        moves = np.maximum.reduce([w_far, w_lo, w, w_hi, w_top])
        size = np.abs(g) * (abs(p) + spread) + h * (g * g + moves * moves)
        slope = (f_hi - f_lo) / (prices[3] - prices[1])
        slope_error, control_error = 8.0 * EPS * size / DELTA, 8.0 * EPS * (np.abs(g) + moves)
        assert np.all(f - 0.5 * (f_far + f_top) >= -8.0 * EPS * size)  # concave on the chord
        assert np.all(f - 0.5 * (f_lo + f_hi) >= -8.0 * EPS * size)
        # the minimiser falls as p rises, and the central difference lies between its ends
        assert np.all(a_hi <= a + control_error) and np.all(a <= a_lo + control_error)
        assert np.all(a_hi - control_error - slope_error <= slope)
        assert np.all(slope <= a_lo + control_error + slope_error)
        # between branch switches, within delta / (2 h) of the minimiser at p
        smooth = a_lo - a_hi <= 2.0 * DELTA / h + 2.0 * control_error
        assert np.all((np.abs(slope - a) <= DELTA / (2.0 * h) + slope_error + control_error) | ~smooth)


def _envelope_case(game, cells, seed):
    """(a value slice, the per-axis ``(p, g, h)`` of a random node, sgrid, the chord's half width) of a random case."""
    rng = np.random.default_rng(seed)
    tgrid, sgrid = TimeGrid(1.0, 8), SpaceGrid(cells)
    params = _params(game, tgrid, sgrid, rng, "explicit", np.zeros(sgrid.shape))
    price = rng.uniform(0.0, 2.0, tgrid.n_nodes)
    axes = params.game(sgrid.meshes()).hamiltonian(price, int(rng.integers(tgrid.n_nodes)))
    return rng.uniform(0.0, 1.0, sgrid.shape), axes, sgrid, rng.uniform(0.01, 2.0)


@st.composite
def envelope_cases(draw):
    game = draw(st.sampled_from(["ev", "phev"]))
    if game == "ev":
        cells = (draw(st.integers(4, 24)),)
    else:
        cells = (draw(st.integers(4, 8)), draw(st.integers(4, 8)))
    return _envelope_case(game, cells, draw(st.integers(0, 2**32 - 1)))


@PROPERTY_SETTINGS
@given(envelope_cases())
def test_the_hamiltonian_is_concave_in_the_price_with_its_minimiser_as_derivative(case):
    assert_envelope(*case)


def test_a_control_from_the_centred_difference_fails_the_envelope():
    def centred(v, q, g, h, sgrid, axis):
        # F stays upwind; the control reads the mean of the two face differences, -(Dc v + p) / h
        slopes, at = ev_module._face_buffers(sgrid.shape, [axis])[0], axis_index(axis)
        f, _, w = ev_module._hamiltonian(v, q, g, h, sgrid.spacing(axis), at, slopes)
        return f, -(0.5 * (slopes[at.lo] + slopes[at.hi]) + q) / h, w

    for game, cells in (("ev", (12,)), ("phev", (6, 6))):
        case = _envelope_case(game, cells, seed=3)
        assert_envelope(*case)
        with pytest.raises(AssertionError):
            assert_envelope(*case, hamiltonian=centred)
