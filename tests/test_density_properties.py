"""The density sweep's invariants as properties, on random cases of both games.

Each property holds for any control, drain, noise and initial density, so
it checks a scheme change without pinning the bits it produces:

- unit mass: every slice keeps the initial density's mass to roundoff;
- no negative cell: under the substep bound every update is a convex
  combination, so no cell goes below 0;
- a frozen population (control = drain, sigma = 0) stays where it is.

The sweep runs with its slice check passed through (``_raw_sweep``), so a
property reads what the scheme computes, not what the check clamps or
refuses. Each property also runs once against a planted defect and must
fail there: unit mass against a flux that takes the downwind cell (the
scheme grows without bound and loses its mass to rounding), no negative
cell against that flux and against a substep twice over the bound. Both
act only through a nonzero drift, so the frozen property fails against a
drift whose drain is off by a constant.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evmfg.ev as ev_module
from evmfg import EvParams, PhevParams, SpaceGrid, TimeGrid, fpk_forward_sweep

MASS_ROUNDOFF = 1e-12
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def _params(game, tgrid, rng, sigma_max):
    n = tgrid.n_nodes
    g = rng.uniform(0.0, 1.0, n)
    if game == "ev":
        zero = lambda t, x: np.zeros_like(x)  # noqa: E731
        return EvParams(tgrid=tgrid, g=g, sigma=rng.uniform(0.0, sigma_max, n), H=np.ones(n), d=np.ones(n),
                        f=zero, kappa=lambda x: np.zeros_like(x))
    return PhevParams(tgrid=tgrid, g=g, Q1=np.ones(n), Q2=np.ones(n), r2=0.7,
                      s=lambda t, z1, z2: np.zeros_like(z1), xi=lambda z1, z2: np.zeros_like(z1))


def _case(game, cells, steps, horizon, seed, sigma_max=0.0, frozen=False):
    """(control, m0, params, sgrid) of a random case; a frozen case's control is its drain at every node."""
    rng = np.random.default_rng(seed)
    tgrid, sgrid = TimeGrid(horizon, steps), SpaceGrid(cells)
    params = _params(game, tgrid, rng, sigma_max)
    nodes = np.arange(tgrid.n_nodes).reshape((-1,) + (1,) * len(cells))
    drains = params.game(sgrid.meshes()).transport(nodes)[0]
    shape = (tgrid.n_nodes,) + sgrid.shape
    if frozen:
        control = tuple(np.broadcast_to(g, shape).copy() for g in drains)
    else:
        control = tuple(rng.uniform(-2.0, 2.0, shape) for _ in cells)
    m0 = rng.random(sgrid.shape) * (rng.random(sgrid.shape) > 0.3)  # some cells empty
    m0.flat[rng.integers(m0.size)] += 1.0  # and some mass
    m0 /= m0.sum() * sgrid.cell_volume
    return control, m0, params, sgrid


@st.composite
def cases(draw, frozen=False):
    game = draw(st.sampled_from(["ev", "phev"]))
    if game == "ev":
        cells = (draw(st.integers(4, 24)),)
    else:
        cells = (draw(st.integers(4, 10)), draw(st.integers(4, 10)))
    sigma_max = 0.0 if frozen or game == "phev" else draw(st.sampled_from([0.0, 0.3, 2.0]))
    return _case(game, cells, draw(st.integers(2, 10)), draw(st.floats(0.05, 1.0)),
                 draw(st.integers(0, 2**32 - 1)), sigma_max, frozen)


def _raw_sweep(control, m0, params, sgrid):
    """The density sweep with ``_check_density_slice`` passed through: the slices as the scheme computes them."""
    with mock.patch.object(ev_module, "_check_density_slice", lambda m, time_node: m):
        return fpk_forward_sweep(control, m0, params, sgrid)


def assert_unit_mass(control, m0, params, sgrid):
    m = _raw_sweep(control, m0, params, sgrid)
    mass = m.reshape(len(m), -1).sum(axis=1) * sgrid.cell_volume
    assert np.abs(mass - 1.0).max() <= MASS_ROUNDOFF


def assert_no_negative_cell(control, m0, params, sgrid):
    assert _raw_sweep(control, m0, params, sgrid).min() >= 0.0


def assert_frozen(control, m0, params, sgrid):
    m = _raw_sweep(control, m0, params, sgrid)
    assert all(np.array_equal(m_i, m0) for m_i in m)


@PROPERTY_SETTINGS
@given(cases())
def test_every_density_slice_keeps_unit_mass(case):
    assert_unit_mass(*case)


@PROPERTY_SETTINGS
@given(cases())
def test_no_density_cell_goes_negative(case):
    assert_no_negative_cell(*case)


@PROPERTY_SETTINGS
@given(cases(frozen=True))
def test_a_frozen_population_stays_where_it_is(case):
    assert_frozen(*case)


# ---------------------------------------------------------------------------
# planted defects: each property must fail against one


def _over_bound():
    """Substeps twice as long as the bound allows: dt_sub * rate up to 2 * SUBSTEP_SAFETY."""
    count = ev_module.substep_count
    return mock.patch.object(ev_module, "substep_count", lambda dt, rate: count(dt / 2.0, rate))


def _downwind():
    """Each face flux takes the density of its downwind cell: the two rows of the substep's face velocities swap."""
    substep = ev_module._density_substep
    return mock.patch.object(ev_module, "_density_substep",
                             lambda m, faces, *args: substep(m, [u[::-1] for u in faces], *args))


def _drain_off_by(amount):
    """Face velocities of a drift whose drain is off by ``amount``: a population whose control is its drain moves."""
    faces = ev_module.face_velocities
    return mock.patch.object(ev_module, "face_velocities", lambda drift, *args: faces(drift + amount, *args))


@pytest.mark.parametrize("prop, defect", [
    (assert_unit_mass, _downwind),
    (assert_no_negative_cell, _over_bound),
    (assert_no_negative_cell, _downwind),
])
def test_each_flux_defect_fails_a_property(prop, defect):
    case = _case("ev", (20,), 40, 1.0, seed=3, sigma_max=0.3)
    prop(*case)
    with defect(), np.errstate(all="ignore"), pytest.raises(AssertionError):
        prop(*case)


def test_a_drain_off_by_a_constant_fails_the_frozen_property():
    # neither flux defect moves a population whose drift is 0: every weight of its face flux is 0
    case = _case("ev", (20,), 40, 1.0, seed=3, frozen=True)
    assert_frozen(*case)
    for defect in (_over_bound(), _downwind()):
        with defect:
            assert_frozen(*case)
    with _drain_off_by(0.1), pytest.raises(AssertionError):
        assert_frozen(*case)
