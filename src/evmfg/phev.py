"""The 2D plug-in-hybrid trading game.

State: the two battery levels (z1, z2) in [0, 1]^2. The car draws the
exogenous consumption g_t, split between the packs by the state-feedback
ratio beta = z1 / (z1 + z2): the fuller pack discharges proportionally
faster. Each pack is recharged at its own controlled rate (mu1 from the
grid at the endogenous price r1, mu2 from the range extender at the flat
fuel price r2). The dynamics are deterministic (sigma = 0):

    dz1 = (mu1 - beta g) dt
    dz2 = (mu2 - (1 - beta) g) dt

The agent minimizes

    integral_0^T (mu1 r1 + mu2 r2 + Q1 mu1^2/2 + Q2 mu2^2/2 + s_t(z)) dt
        + xi(z_T)

and the grid price reacts to the aggregate battery draw:

    r1 = [g int beta dm + d/dt int z1 m]+ + offset.

The price series r1, one value per time node, is the only coupling between
the vehicles, so it is what the operators pass around as a plain array. The
fuel price r2 is an exogenous constant and lives only in ``PhevParams.r2``.

The sweeps are the 1D model's sweep core in ``ev``. The Hamiltonian
separates by pack: pack k's term is the 1D upwind Hamiltonian along axis k
with g -> beta_k g, p -> r_k and H -> Q_k (beta_1 = beta, beta_2 = 1 - beta),
so each pack reflects at its own walls as the battery does. Both terms of
a (sub)step read the entering slice, which treats z1 and z2 symmetrically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ev import _Problem, _SeriesParams, _backward_sweep, _forward_sweep, _geometry, _hamiltonian_sum
from .grids import SpaceGrid, TimeGrid
from .numerics import mean_rate
from .numerics import substep_count  # noqa: F401  (perfbench's trace rebinds it by name)


def beta(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Discharge split beta = z1 / (z1 + z2); pack 1 covers the share beta."""
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    return z1 / (z1 + z2)


def beta_divergence(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """The exact identity d(beta)/dz1 - d(beta)/dz2 = 1 / (z1 + z2).

    Both partials of z1/(z1+z2) have magnitude z2/(z1+z2)^2 resp.
    z1/(z1+z2)^2, so their difference telescopes to 1/(z1+z2). The drift
    field mu - beta g therefore has divergence contribution -g/(z1+z2)
    regardless of the pack levels, which the transport scheme must honor.
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    return 1.0 / (z1 + z2)


@dataclass
class PhevParams(_SeriesParams):
    """Model coefficients; series carry one value per node of ``tgrid``."""

    SERIES = ("g", "Q1", "Q2")

    tgrid: TimeGrid
    g: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    r2: float
    s_cost: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    xi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    price_offset: float = 0.5

    def __post_init__(self) -> None:
        self._check_series(positive=("Q1", "Q2"))
        self.r2 = float(self.r2)


def phev_price(m: np.ndarray, params: PhevParams, sgrid: SpaceGrid) -> np.ndarray:
    """Grid price series r1 = [g int beta dm + d/dt int z1 m]+ + offset."""
    z1, z2 = sgrid.meshes()
    b = beta(z1, z2)
    draw = (np.asarray(m, dtype=float) * b).reshape(m.shape[0], -1).sum(axis=1) * sgrid.cell_volume
    rates = mean_rate(m, sgrid, params.tgrid)
    return np.maximum(params.g * draw + rates, 0.0) + params.price_offset


def _axes(r1: np.ndarray, params: PhevParams, b: np.ndarray, j: int) -> list:
    """The packs' ``_hamiltonian_sum`` terms at time node j; ``b`` is beta on the grid."""
    g = params.g[j]
    return [(r1[j], b * g, params.Q1[j]), (params.r2, (1.0 - b) * g, params.Q2[j])]


def phev_optimal_controls(
    v: np.ndarray, r1: np.ndarray, params: PhevParams, sgrid: SpaceGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Recharge rates mu_k*, the minimisers of the pack Hamiltonians, slice by slice.

    Away from the walls mu_k* = -(r_k + dv/dz_k) / Q_k, differenced on the
    side the pack's drift points to; a drift into a wall moves no charge.
    """
    b = beta(*sgrid.meshes())
    geometry = _geometry(sgrid)
    mu1 = np.empty_like(v)
    mu2 = np.empty_like(v)
    for i in range(v.shape[0]):
        mu1[i], mu2[i] = _hamiltonian_sum(v[i], _axes(r1, params, b, i), geometry)[1]
    return mu1, mu2


def phev_hjb_backward_sweep(
    r1: np.ndarray, params: PhevParams, sgrid: SpaceGrid
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Explicit backward value sweep, v(T, .) = xi.

    Returns (v, (mu1, mu2)), equal to ``phev_optimal_controls(v, r1, params, sgrid)``.
    """
    z1, z2 = sgrid.meshes()
    b = beta(z1, z2)
    t_nodes = params.tgrid.nodes

    def coefficients(j):
        return _axes(r1, params, b, j), params.s_cost(t_nodes[j], z1, z2), 0.0

    return _backward_sweep(params.xi(z1, z2), params.tgrid, sgrid, coefficients)


def phev_fpk_forward_sweep(
    mu: tuple[np.ndarray, np.ndarray], m0: np.ndarray, params: PhevParams, sgrid: SpaceGrid
) -> np.ndarray:
    """Conservative upwind transport under (mu1 - beta g, mu2 - (1-beta) g)."""
    mu1, mu2 = mu
    b = beta(*sgrid.meshes())

    def coefficients(i):
        g = params.g[i]
        return (mu1[i] - b * g, mu2[i] - (1.0 - b) * g), 0.0

    return _forward_sweep(m0, params.tgrid, sgrid, coefficients)


class PhevProblem(_Problem):
    """The hybrid game's operators on its params, grid and initial density."""

    def price(self, m: np.ndarray) -> np.ndarray:
        return phev_price(m, self.params, self.sgrid)

    def hjb(self, r1: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        return phev_hjb_backward_sweep(r1, self.params, self.sgrid)

    def control(self, v: np.ndarray, r1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return phev_optimal_controls(v, r1, self.params, self.sgrid)

    def fpk(self, mu: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        return phev_fpk_forward_sweep(mu, self.m0, self.params, self.sgrid)
