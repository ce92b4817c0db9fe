"""Observed order of accuracy of both sweeps, at the walls and inside.

Each check runs a sweep on two grids against an exact solution and reads
the order log2(e_coarse / e_fine) of the largest error over all time
nodes, separately in the cells within a tenth of the domain of a wall and
in the rest. The diffusion operator is stepped explicitly or exactly
(``numerics.diffuse``) depending on ``dt * diff / dx^2`` against
``SUBSTEP_SAFETY``, so each diffusive check runs on both branches and
asserts which one its grids take. The bounds state the scheme's order: a
scheme change that lowers one fails here.

Grounding: Roache, J. Fluids Eng. 124(1), 2002; Oberkampf & Roy,
Verification and Validation in Scientific Computing, 2010, ch. 5-6.
"""

import numpy as np
import pytest

from evmfg import (
    EvParams,
    PhevParams,
    SpaceGrid,
    TimeGrid,
    fpk_forward_sweep,
    hjb_backward_sweep,
)
from evmfg.numerics import SUBSTEP_SAFETY

G = 0.8  # consumption rate; with alpha = g the drift is zero


def ev_params(tgrid, sigma, H=3.0, f_cost=None, kappa=None):
    n = tgrid.n_nodes
    return EvParams(
        tgrid=tgrid, g=np.full(n, G), sigma=np.full(n, sigma), H=np.full(n, H), d=np.ones(n),
        f=f_cost or (lambda t, x: np.zeros_like(x)), kappa=kappa or (lambda x: np.zeros_like(x)),
    )


def exact_diffusion(tgrid: TimeGrid, sgrid: SpaceGrid, sigma: float) -> bool:
    """True when the sweeps diffuse exactly on this grid: diffusion alone breaks the explicit bound."""
    return tgrid.dt * (sigma * G) ** 2 / sgrid.spacing(0) ** 2 > SUBSTEP_SAFETY


def region_errors(err: np.ndarray, sgrid: SpaceGrid) -> dict[str, float]:
    """Largest |err| over (time, cell) in the wall band (a tenth of the domain) and the interior."""
    near = np.zeros(sgrid.shape, dtype=bool)
    for z in sgrid.meshes():
        near |= (z < 0.1) | (z > 0.9)
    return {"walls": float(np.abs(err[:, near]).max()), "interior": float(np.abs(err[:, ~near]).max())}


def observed_orders(errors) -> dict[str, float]:
    coarse, fine = errors
    return {region: float(np.log2(coarse[region] / fine[region])) for region in coarse}


# ---------------------------------------------------------------------------
# density sweep, diffusion mode: zero drift, m = 1 + cos(pi x) exp(-sigma^2 g^2 pi^2 t / 2) / 2

DIFFUSION_SIGMA = 1.5
DIFFUSION_T = 0.1


def diffusion_mode_errors(n_cells: int, n_steps: int) -> tuple[dict[str, float], bool]:
    tgrid = TimeGrid(DIFFUSION_T, n_steps)
    sgrid = SpaceGrid((n_cells,))
    params = ev_params(tgrid, DIFFUSION_SIGMA)
    x = sgrid.nodes(0)
    m = fpk_forward_sweep((np.full((tgrid.n_nodes, n_cells), G),), 1.0 + 0.5 * np.cos(np.pi * x), params, sgrid)
    rate = (DIFFUSION_SIGMA * G * np.pi) ** 2 / 2.0
    exact = 1.0 + 0.5 * np.cos(np.pi * x)[None, :] * np.exp(-rate * tgrid.nodes)[:, None]
    return region_errors(m - exact, sgrid), exact_diffusion(tgrid, sgrid, DIFFUSION_SIGMA)


@pytest.mark.parametrize(
    "grids,exact",
    [
        # dt * diff / dx^2 = 0.5 on both grids: one explicit substep per step
        (((20, 116), (40, 464)), False),
        # dt * diff / dx^2 = 36 and 144: the exact exponential
        (((50, 10), (100, 10)), True),
    ],
    ids=["explicit", "exponential"],
)
def test_diffusion_mode_is_second_order(grids, exact):
    runs = [diffusion_mode_errors(*grid) for grid in grids]
    assert [branch for _, branch in runs] == [exact, exact]
    orders = observed_orders([errors for errors, _ in runs])
    assert min(orders.values()) >= 1.8, orders


# ---------------------------------------------------------------------------
# value sweep, manufactured solution v = e^t cos(pi x), zero slope at both walls

VALUE_PRICE = 0.4
VALUE_T = 0.5


def value_errors(n_cells: int, sigma: float) -> tuple[dict[str, float], bool]:
    """Errors of the 1D value sweep with f_cost the residual of v = e^t cos(pi x), dt = T / (4 n)."""
    H, diff = 3.0, (sigma * G) ** 2
    tgrid = TimeGrid(VALUE_T, 4 * n_cells)
    sgrid = SpaceGrid((n_cells,))

    def f_cost(t, x):
        v, q = np.exp(t) * np.cos(np.pi * x), -np.pi * np.exp(t) * np.sin(np.pi * x)
        # -v_t = min_a [(a - g) q + a p + H a^2 / 2] + f + diff / 2 * v_xx
        return -v + G * q + (q + VALUE_PRICE) ** 2 / (2.0 * H) + 0.5 * diff * np.pi ** 2 * v

    params = ev_params(tgrid, sigma, H=H, f_cost=f_cost, kappa=lambda x: np.exp(VALUE_T) * np.cos(np.pi * x))
    v, _ = hjb_backward_sweep(np.full(tgrid.n_nodes, VALUE_PRICE), params, sgrid)
    exact = np.exp(tgrid.nodes)[:, None] * np.cos(np.pi * sgrid.nodes(0))[None, :]
    return region_errors(v - exact, sgrid), exact_diffusion(tgrid, sgrid, sigma)


@pytest.mark.parametrize("sigma,exact", [(0.1, False), (1.5, True)], ids=["explicit", "exponential"])
def test_value_sweep_is_first_order(sigma, exact):
    runs = [value_errors(n, sigma) for n in (50, 100)]
    assert [branch for _, branch in runs] == [exact, exact]
    orders = observed_orders([errors for errors, _ in runs])
    assert min(orders.values()) >= 0.9, orders


def phev_value_errors(n_cells: int) -> dict[str, float]:
    """Errors of the two-pack value sweep for v = e^t cos(pi z1) cos(pi z2), dt = T / (4 n).

    The game has no noise and drains beta g, (1 - beta) g, so the residual
    is that of a first-order HJB with one Hamiltonian term per pack.
    """
    Q1, Q2, r2 = 3.0, 2.0, 0.6
    tgrid = TimeGrid(VALUE_T, 4 * n_cells)
    sgrid = SpaceGrid((n_cells, n_cells))
    n = tgrid.n_nodes

    def exact(t, z1, z2):
        return np.exp(t) * np.cos(np.pi * z1) * np.cos(np.pi * z2)

    def s_cost(t, z1, z2):
        b = z1 / (z1 + z2)
        q1 = -np.pi * np.exp(t) * np.sin(np.pi * z1) * np.cos(np.pi * z2)
        q2 = -np.pi * np.exp(t) * np.cos(np.pi * z1) * np.sin(np.pi * z2)
        ham = -b * G * q1 - (q1 + VALUE_PRICE) ** 2 / (2.0 * Q1) - (1.0 - b) * G * q2 - (q2 + r2) ** 2 / (2.0 * Q2)
        return -exact(t, z1, z2) - ham

    params = PhevParams(
        tgrid=tgrid, g=np.full(n, G), Q1=np.full(n, Q1), Q2=np.full(n, Q2), r2=r2,
        s=s_cost, xi=lambda z1, z2: exact(VALUE_T, z1, z2),
    )
    v, _ = hjb_backward_sweep(np.full(n, VALUE_PRICE), params, sgrid)
    z1, z2 = sgrid.meshes()
    return region_errors(v - exact(tgrid.nodes[:, None, None], z1, z2), sgrid)


def test_phev_value_sweep_is_first_order():
    orders = observed_orders([phev_value_errors(n) for n in (40, 80)])
    assert min(orders.values()) >= 0.9, orders
