"""The 1D electric-vehicle trading game.

State: battery level x in [0, 1], drained at the exogenous consumption rate
g_t, topped up (or sold down) at the controlled trading rate alpha, reflected
at the walls. The representative agent minimizes

    E integral_0^T (alpha p_t + H_t alpha^2 / 2 + f_t(x)) dt + kappa(x_T)

against the price p_t set by aggregate demand. The equilibrium couples:

  HJB (backward):  -dv/dt = min_a [(a - g) dv/dx + a p + H a^2 / 2] + f
                            + sigma^2 g^2 / 2 * d2v/dx2,   dv/dx = 0 at the walls
  control:         alpha* = the minimiser, -(dv/dx + p) / H inside
  FPK (forward):   dm/dt = -d/dx[(alpha* - g) m] + sigma^2 g^2 / 2 * d2m/dx2
  price:           p = ([g + d/dt int x m]+ + d)^exponent

Sweeps are explicit with per-step substepping so every update stays a convex
combination (positivity and mass conservation are structural, not enforced).
The value sweep uses the monotone upwind Hamiltonian of Achdou &
Capuzzo-Dolcetta (SIAM J. Numer. Anal. 48(3), 2010): the transport term
reads the forward difference where the drift alpha - g is positive and the
backward one where it is negative, and the wall ghost cells copy their
neighbour, so a drift into a wall moves nothing and the walls reflect as in
the zero-flux density sweep.

The sweeps and the control below serve the two-pack model in ``phev`` too:
they read a model only through the per-axis ``Game`` its params build.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DivergenceError, ScenarioError
from .grids import SpaceGrid, TimeGrid
from .numerics import AxisIndex, axis_index, diff2, diff_upwind, integrate, mean_rate, substep_count
from .numerics import diff_central  # noqa: F401  (perfbench's trace rebinds it by name)

# Roundoff negativity is clamped; anything beyond this is a scheme failure.
NEGATIVITY_HARD_LIMIT = 1e-8
MASS_TOLERANCE = 1e-6


class _SeriesParams:
    """Rules of ``EvParams``/``phev.PhevParams``: each name in ``SERIES`` has one value per node of ``tgrid``."""

    def _check_series(self, positive: tuple[str, ...], nonnegative=()) -> None:
        """Make the ``SERIES`` float arrays and check their rules.

        Each has one value per time node, is finite, and is positive or nonnegative
        where named so; a breach raises ``ScenarioError`` on ``series.<name>``.
        """
        n_nodes = self.tgrid.n_nodes
        for name in self.SERIES:
            values = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            setattr(self, name, values)
            if len(values) != n_nodes:
                raise ScenarioError(f"series.{name}", f"expected {n_nodes} values (time_steps + 1), got {len(values)}")
            if not np.all(np.isfinite(values)):
                raise ScenarioError(f"series.{name}", "contains non-finite values")
        for name in positive:
            if np.any(getattr(self, name) <= 0.0):
                raise ScenarioError(f"series.{name}", "must be positive everywhere")
        for name in nonnegative:
            if np.any(getattr(self, name) < 0.0):
                raise ScenarioError(f"series.{name}", "must be nonnegative")

    def resampled(self, coarse: TimeGrid):
        """These params on ``coarse``, every series interpolated linearly."""
        fine = self.tgrid.nodes
        series = {name: np.interp(coarse.nodes, fine, getattr(self, name)) for name in self.SERIES}
        return dataclasses.replace(self, tgrid=coarse, **series)


@dataclass
class EvParams(_SeriesParams):
    """Model coefficients; all series carry one value per node of ``tgrid``."""

    SERIES = ("g", "d", "sigma", "H")

    tgrid: TimeGrid
    g: np.ndarray
    sigma: np.ndarray
    H: np.ndarray
    d: np.ndarray
    f_cost: Callable[[float, np.ndarray], np.ndarray]
    kappa: Callable[[np.ndarray], np.ndarray]
    price_exponent: float = 2.0
    demand_coupled: bool = True

    def __post_init__(self) -> None:
        self._check_series(positive=("H",), nonnegative=("sigma",))

    def game(self, points: tuple[np.ndarray, ...]) -> Game:
        """This game on the battery levels ``points`` = (x,); a node index may be a column of nodes."""
        (x,), t = points, self.tgrid.nodes

        def transport(i):
            g, sigma = self.g[i], self.sigma[i]
            return (g,), sigma * g, sigma ** 2 * g ** 2

        def axes(p, j, drains):
            return [(p[j], drains[0], self.H[j])]

        return Game(lambda: self.kappa(x), lambda j: self.f_cost(t[j], x), transport, axes)


class Game(NamedTuple):
    """A game's coefficients on a set of points: all that the sweeps, control and audits read of a model.

    The params' ``game`` builds it. ``terminal()`` and ``running(j)`` are the
    costs on the points. ``transport(i)`` gives the per-axis drains g_k, the
    noise sigma g and the diffusion sigma^2 g^2 at node i, and
    ``axes(p, j, drains)`` the per-axis ``(p, g, h)`` terms of
    ``_hamiltonian_sum`` from ``transport(j)``'s drains.
    """

    terminal: Callable[[], np.ndarray]
    running: Callable
    transport: Callable
    axes: Callable

    def hamiltonian(self, p, j) -> list:
        """The per-axis ``(p, g, h)`` terms at node j."""
        return self.axes(p, j, self.transport(j)[0])

    def step(self, p, j) -> tuple:
        """(Hamiltonian terms, running cost, noise, diffusion) at node j: what a value-sweep or DP step reads."""
        drains, noise, diffusion = self.transport(j)
        return self.axes(p, j, drains), self.running(j), noise, diffusion


def _check_initial_density(m0: np.ndarray, sgrid) -> np.ndarray:
    """``m0`` as a float array, which must match the grid and have unit mass (``ScenarioError``)."""
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != sgrid.shape:
        raise ScenarioError("initial_density", "m0 does not match the space grid")
    mass = integrate(m0, sgrid)
    if not abs(mass - 1.0) <= MASS_TOLERANCE:
        raise ScenarioError("initial_density", f"initial density mass {mass} deviates from 1 beyond {MASS_TOLERANCE}")
    return m0


def _check_density_slice(m: np.ndarray, time_node: int) -> np.ndarray:
    """Clamp roundoff negativity to zero; blow up on real scheme failure."""
    if not np.all(np.isfinite(m)):
        raise DivergenceError("density slice is not finite", time_node)
    low = float(m.min())
    if low < -NEGATIVITY_HARD_LIMIT:
        raise DivergenceError(f"density negativity {low:.3e} beyond roundoff", time_node)
    if low < 0.0:
        m = np.maximum(m, 0.0)
    return m


def ev_price(m: np.ndarray, params: EvParams, sgrid: SpaceGrid) -> np.ndarray:
    """Price series p_i = ([g_i + d/dt int x m]+ + d_i)^exponent.

    With ``demand_coupled`` off the vehicle demand term is zeroed, which
    makes the price a pure function of d (used to test the decoupled fixed
    point).
    """
    if params.demand_coupled:
        inner = np.maximum(params.g + mean_rate(m, sgrid, params.tgrid), 0.0)
    else:
        inner = np.zeros(params.tgrid.n_nodes)
    return (inner + params.d) ** params.price_exponent


def _geometry(sgrid) -> list[tuple[float, AxisIndex]]:
    """Spacing and ``axis_index`` of every axis of the grid, worked out once per sweep."""
    return [(sgrid.spacing(axis), axis_index(axis)) for axis in range(len(sgrid.shape))]


def _hamiltonian(v, p, g, h, dx: float, at: AxisIndex) -> tuple[np.ndarray, np.ndarray]:
    """Monotone upwind Hamiltonian and its minimiser along the axis that ``at`` indexes.

    F = min_a [(a-g)+ D+v + (a-g)- D-v + a p + h a^2 / 2]. The wall ghost
    cells copy their neighbour (as in ``diff2``), so D-v is zero in the
    first cell and D+v in the last: the walls reflect. On a >= g only D+v
    enters, on a <= g only D-v, so each branch is a clipped quadratic and F
    is the smaller of the two branch minima. The coefficients broadcast
    against ``v``.
    """
    fwd = np.zeros(v.shape)
    fwd[at.lo] = (v[at.hi] - v[at.lo]) / dx
    bwd = np.zeros(v.shape)
    bwd[at.hi] = fwd[at.lo]
    a_up = np.maximum(-(fwd + p) / h, g)
    a_dn = np.minimum(-(bwd + p) / h, g)
    f_up = (a_up - g) * fwd + a_up * p + 0.5 * h * a_up ** 2
    f_dn = (a_dn - g) * bwd + a_dn * p + 0.5 * h * a_dn ** 2
    up = f_up < f_dn
    return np.where(up, f_up, f_dn), np.where(up, a_up, a_dn)


def _hamiltonian_sum(v, axes, geometry) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sum of ``_hamiltonian`` over the axes (a ``(p, g, h)`` and a ``_geometry`` entry each) and each minimiser."""
    ham, minimisers = None, []
    for (p, g, h), (dx, at) in zip(axes, geometry):
        f, a = _hamiltonian(v, p, g, h, dx, at)
        ham = f if ham is None else ham + f
        minimisers.append(a)
    return ham, minimisers


def hjb_backward_sweep(p: np.ndarray, params: _SeriesParams, sgrid: SpaceGrid):
    """Explicit backward value sweep of either game, v(T, .) = the terminal cost: (v, control).

    Each step reads the params' game at its right endpoint and takes equal
    substeps within the stability bound of the rate sum
    max|a - g| / dx + diff / dx^2, so every substep is monotone. The control
    equals ``optimal_control(v, p, params, sgrid)``: one field per axis,
    (alpha,) for the battery and (mu1, mu2) for the packs.
    """
    tgrid = params.tgrid
    game = params.game(sgrid.meshes())
    v = np.empty((tgrid.n_nodes,) + sgrid.shape)
    # One array per axis, not one block: freeing a block larger than a field
    # lifts glibc's mmap threshold above the field size, later fields then
    # come from the heap, and the 2D benchmark's peak RSS rose by 5%.
    control = tuple(np.empty_like(v) for _ in sgrid.shape)
    v[-1] = game.terminal()
    geometry = _geometry(sgrid)
    dx2 = sgrid.spacing(0) ** 2
    for i in range(tgrid.n_steps - 1, -1, -1):
        j = i + 1
        axes, running, _, diff = game.step(p, j)
        cur = v[j]
        ham, minimisers = _hamiltonian_sum(cur, axes, geometry)
        rate = diff / dx2
        for out, (_, g, _), a, (dx, _) in zip(control, axes, minimisers, geometry):
            out[j] = a
            rate += float(np.abs(a - g).max()) / dx
        if not np.isfinite(rate):
            raise DivergenceError("non-finite coefficients in backward sweep", i)
        n_sub = substep_count(tgrid.dt, rate)
        dt_sub = tgrid.dt / n_sub
        half_diff = 0.5 * diff
        for k in range(n_sub):
            if k:
                ham, _ = _hamiltonian_sum(cur, axes, geometry)
            upd = ham + running
            if diff > 0.0:
                upd = upd + half_diff * diff2(cur, sgrid)
            cur = cur + dt_sub * upd
        if not np.all(np.isfinite(cur)):
            raise DivergenceError("value slice is not finite", i)
        v[i] = cur
    for out, a in zip(control, _hamiltonian_sum(v[0], game.hamiltonian(p, 0), geometry)[1]):
        out[0] = a
    return v, control


def _outflow_rate(drift: np.ndarray, dx: float, at: AxisIndex) -> float:
    """Worst-case per-cell outflow rate of the upwind flux along the axis that ``at`` indexes."""
    faces = 0.5 * (drift[at.lo] + drift[at.hi])
    out = float(np.maximum(faces, 0.0).max(initial=0.0) + np.maximum(-faces, 0.0).max(initial=0.0))
    return out / dx


def fpk_forward_sweep(alpha, m0: np.ndarray, params: _SeriesParams, sgrid: SpaceGrid) -> np.ndarray:
    """Explicit forward density sweep of either game under the drifts alpha_k - g_k.

    ``alpha`` is a control of ``optimal_control``'s shape: one field per
    axis, (alpha,) for the battery and (mu1, mu2) for the packs. Each step
    reads the params' game at its left endpoint.
    """
    tgrid = params.tgrid
    game = params.game(sgrid.meshes())
    m = np.empty((tgrid.n_nodes,) + sgrid.shape)
    m[0] = _check_density_slice(_check_initial_density(m0, sgrid), 0)
    geometry = _geometry(sgrid)
    dx2 = sgrid.spacing(0) ** 2
    for i in range(tgrid.n_steps):
        drains, _, diff = game.transport(i)
        drifts = [a[i] - g for a, g in zip(alpha, drains)]
        rate = diff / dx2
        for drift, (dx, at) in zip(drifts, geometry):
            rate += _outflow_rate(drift, dx, at)
        if not np.isfinite(rate):
            raise DivergenceError("non-finite drift in forward sweep", i + 1)
        n_sub = substep_count(tgrid.dt, rate)
        dt_sub = tgrid.dt / n_sub
        half_diff = 0.5 * diff
        cur = m[i]
        for _ in range(n_sub):
            upd = -diff_upwind(cur, drifts[0], sgrid, 0)
            for axis in range(1, len(drifts)):
                upd = upd - diff_upwind(cur, drifts[axis], sgrid, axis)
            if diff > 0.0:
                upd = upd + half_diff * diff2(cur, sgrid)
            cur = cur + dt_sub * upd
        m[i + 1] = _check_density_slice(cur, i + 1)
    return m


def optimal_control(v: np.ndarray, p: np.ndarray, params: _SeriesParams, sgrid: SpaceGrid):
    """Minimiser of the upwind Hamiltonian at every (time, cell) node, one field per axis: (alpha,) or (mu1, mu2).

    Away from the walls pack k's rate is -(dv/dz_k + p_k) / h_k, taken from
    the side its drift points to. In a wall cell a drift into the wall
    moves no charge, so that branch is -p_k / h_k (at the empty wall of the
    battery, the selling rate -p / H).
    """
    v = np.asarray(v, dtype=float)
    if v.shape[1:] != sgrid.shape:
        raise ValueError(f"value field shape {v.shape} does not match grid {sgrid.shape}")
    game = params.game(sgrid.meshes())
    if len(sgrid.shape) == 1:
        # The battery's coefficients do not vary in space, so one call on a
        # column of all nodes covers the field. The packs' drains do, and a
        # whole-field call would hold (time, cell, cell) temporaries.
        (terms,) = game.hamiltonian(p, np.arange(len(v))[:, None])
        return (_hamiltonian(v, *terms, sgrid.spacing(0), axis_index(1))[1],)
    geometry = _geometry(sgrid)
    control = tuple(np.empty_like(v) for _ in sgrid.shape)
    for i in range(len(v)):
        for out, a in zip(control, _hamiltonian_sum(v[i], game.hamiltonian(p, i), geometry)[1]):
            out[i] = a
    return control


def ev_cost(alpha: np.ndarray, m: np.ndarray, p: np.ndarray, params: EvParams, sgrid: SpaceGrid) -> float:
    """Population-averaged cost of a control field along a density flow."""
    if alpha.shape != m.shape or len(p) != m.shape[0]:
        raise ValueError("alpha, m and p shapes are inconsistent")
    tgrid = params.tgrid
    game = params.game(sgrid.meshes())
    total = 0.0
    for i in range(tgrid.n_steps):
        [(price, _, h)], running, _, _ = game.step(p, i)
        stage = alpha[i] * price + 0.5 * h * alpha[i] ** 2 + running
        total += tgrid.dt * integrate(m[i] * stage, sgrid)
    total += integrate(m[-1] * game.terminal(), sgrid)
    return float(total)


@dataclass
class _Problem:
    """Scenario instance wiring a model's operators to the fixed-point loop."""

    params: _SeriesParams
    sgrid: SpaceGrid
    m0: np.ndarray

    def __post_init__(self) -> None:
        self.m0 = _check_initial_density(self.m0, self.sgrid)

    @property
    def tgrid(self) -> TimeGrid:
        return self.params.tgrid

    @property
    def cell_volume(self) -> float:
        return self.sgrid.cell_volume

    def initial_iterate(self) -> np.ndarray:
        return np.tile(self.m0, (self.tgrid.n_nodes,) + (1,) * self.m0.ndim)


class EvProblem(_Problem):
    """The 1D game's operators on its params, grid and initial density."""

    def price(self, m: np.ndarray) -> np.ndarray:
        return ev_price(m, self.params, self.sgrid)

    def hjb(self, p: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray]]:
        return hjb_backward_sweep(p, self.params, self.sgrid)

    def control(self, v: np.ndarray, p: np.ndarray) -> tuple[np.ndarray]:
        return optimal_control(v, p, self.params, self.sgrid)

    def fpk(self, alpha: tuple[np.ndarray]) -> np.ndarray:
        return fpk_forward_sweep(alpha, self.m0, self.params, self.sgrid)
