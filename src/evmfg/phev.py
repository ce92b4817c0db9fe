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

The sweeps and the control, one field per axis (mu1, mu2), are ``ev``'s;
they read this game through ``PhevParams.game``. The Hamiltonian separates
by pack: pack k's term is the 1D upwind Hamiltonian along axis k with
g -> beta_k g, p -> r_k and H -> Q_k (beta_1 = beta, beta_2 = 1 - beta), so
each pack reflects at its own walls as the battery does. Both terms of a
(sub)step read the entering slice, which treats z1 and z2 symmetrically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ScenarioError, as_float
from .ev import Game, _Problem, _SeriesParams
# The shared operators under this model's names: PhevProblem calls them
# here, so perfbench's trace rebinds them to phev.* spans.
from .ev import fpk_forward_sweep as phev_fpk_forward_sweep
from .ev import hjb_backward_sweep as phev_hjb_backward_sweep
from .ev import optimal_control as phev_optimal_controls
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
    COSTS = ("s", "xi")  # the scenario's cost keys: running, then terminal
    PRICE = ("offset", "r2")  # the scenario's price keys; r2 has no default

    tgrid: TimeGrid
    g: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    r2: float
    s: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    xi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    offset: float = 0.5

    def __post_init__(self) -> None:
        self._check_series(positive=("Q1", "Q2"))
        self.r2 = as_float(self.r2, "price.r2")
        self.offset = as_float(self.offset, "price.offset")
        if self.offset < 0.0:
            raise ScenarioError("price.offset", "must be nonnegative")

    def game(self, points: tuple[np.ndarray, ...]) -> Game:
        """This game on the pack levels ``points`` = (z1, z2): pack 1 drains beta g, pack 2 (1 - beta) g."""
        b, t = beta(*points), self.tgrid.nodes

        def transport(i):
            g = self.g[i]
            return (b * g, (1.0 - b) * g), 0.0, 0.0

        def axes(r1, j, drains):
            return [(r1[j], drains[0], self.Q1[j]), (self.r2, drains[1], self.Q2[j])]

        return Game(lambda: self.xi(*points), lambda j: self.s(t[j], *points), transport, axes)


def phev_price(m: np.ndarray, params: PhevParams, sgrid: SpaceGrid) -> np.ndarray:
    """Grid price series r1 = [g int beta dm + d/dt int z1 m]+ + offset."""
    z1, z2 = sgrid.meshes()
    b = beta(z1, z2)
    draw = (np.asarray(m, dtype=float) * b).reshape(m.shape[0], -1).sum(axis=1) * sgrid.cell_volume
    rates = mean_rate(m, sgrid, params.tgrid)
    return np.maximum(params.g * draw + rates, 0.0) + params.offset


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
