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

The two-pack model in ``phev`` runs through the same sweep core below, which
takes per-axis coefficients and returns the control with the value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError
from .grids import SpaceGrid1D, TimeGrid
from .numerics import diff2, diff_upwind, integrate, mean_rate, substep_count
from .numerics import diff_central  # noqa: F401  (perfbench's trace rebinds it by name)

# Roundoff negativity is clamped; anything beyond this is a scheme failure.
NEGATIVITY_HARD_LIMIT = 1e-8
MASS_TOLERANCE = 1e-6


@dataclass
class EvParams:
    """Model coefficients; all series carry one value per time node."""

    g: np.ndarray
    sigma: np.ndarray
    H: np.ndarray
    d: np.ndarray
    f_cost: Callable[[float, np.ndarray], np.ndarray]
    kappa: Callable[[np.ndarray], np.ndarray]
    price_exponent: float = 2.0
    demand_coupled: bool = True

    def __post_init__(self) -> None:
        self.g = np.atleast_1d(np.asarray(self.g, dtype=float))
        self.sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        self.H = np.atleast_1d(np.asarray(self.H, dtype=float))
        self.d = np.atleast_1d(np.asarray(self.d, dtype=float))
        n = len(self.g)
        for name in ("sigma", "H", "d"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"series {name} has length {len(getattr(self, name))}, expected {n}")
        if np.any(self.H <= 0.0):
            raise ValueError("H must be positive at every time node")
        if np.any(self.sigma < 0.0):
            raise ValueError("sigma must be nonnegative")

    def check_nodes(self, tgrid: TimeGrid) -> None:
        if len(self.g) != tgrid.n_nodes:
            raise ValueError(f"series length {len(self.g)} does not match {tgrid.n_nodes} time nodes")


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


def ev_price(m: np.ndarray, params: EvParams, sgrid: SpaceGrid1D, tgrid: TimeGrid) -> np.ndarray:
    """Price series p_i = ([g_i + d/dt int x m]+ + d_i)^exponent.

    With ``demand_coupled`` off the vehicle demand term is zeroed, which
    makes the price a pure function of d (used to test the decoupled fixed
    point).
    """
    params.check_nodes(tgrid)
    if params.demand_coupled:
        rates = mean_rate(m, sgrid, tgrid)
        inner = np.maximum(params.g + rates, 0.0)
    else:
        inner = np.zeros(tgrid.n_nodes)
    return (inner + params.d) ** params.price_exponent


def _faces(axis: int) -> tuple[tuple, tuple]:
    """Index tuples of the cells below and above each interior face along ``axis`` (>= 0)."""
    return (slice(None),) * axis + (slice(None, -1),), (slice(None),) * axis + (slice(1, None),)


def _hamiltonian(v, p, g, h, dx: float, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Monotone upwind Hamiltonian and its minimiser along ``axis`` (>= 0).

    F = min_a [(a-g)+ D+v + (a-g)- D-v + a p + h a^2 / 2]. The wall ghost
    cells copy their neighbour (as in ``diff2``), so D-v is zero in the
    first cell and D+v in the last: the walls reflect. On a >= g only D+v
    enters, on a <= g only D-v, so each branch is a clipped quadratic and F
    is the smaller of the two branch minima. The coefficients broadcast
    against ``v``.
    """
    lo, hi = _faces(axis)
    fwd = np.zeros_like(v)
    fwd[lo] = (v[hi] - v[lo]) / dx
    bwd = np.zeros_like(v)
    bwd[hi] = fwd[lo]
    a_up = np.maximum(-(fwd + p) / h, g)
    a_dn = np.minimum(-(bwd + p) / h, g)
    f_up = (a_up - g) * fwd + a_up * p + 0.5 * h * a_up ** 2
    f_dn = (a_dn - g) * bwd + a_dn * p + 0.5 * h * a_dn ** 2
    up = f_up < f_dn
    return np.where(up, f_up, f_dn), np.where(up, a_up, a_dn)


def _hamiltonian_sum(v, axes, sgrid) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sum of ``_hamiltonian`` over the axes, one ``(p, g, h)`` per axis, and each minimiser."""
    ham, minimisers = None, []
    for axis, (p, g, h) in enumerate(axes):
        f, a = _hamiltonian(v, p, g, h, sgrid.spacing(axis), axis)
        ham = f if ham is None else ham + f
        minimisers.append(a)
    return ham, minimisers


def _backward_sweep(terminal, tgrid: TimeGrid, sgrid, coefficients) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Explicit backward value sweep of either model: (v, control).

    ``coefficients(j)`` gives ``(axes, running, diff)`` at node j: the
    ``_hamiltonian_sum`` terms, the running cost and sigma^2 g^2 (1D only).
    Each step takes the right endpoint's coefficients and equal substeps
    within the stability bound of the rate sum max|a - g| / dx + diff / dx^2,
    so every substep is monotone. ``control[k][j]`` is axis k's minimiser on v[j].
    """
    v = np.empty((tgrid.n_nodes,) + sgrid.shape)
    # One array per axis, not one block: freeing a block larger than a field
    # lifts glibc's mmap threshold above the field size, later fields then
    # come from the heap, and the 2D benchmark's peak RSS rose by 5%.
    control = tuple(np.empty_like(v) for _ in sgrid.shape)
    v[-1] = terminal
    for i in range(tgrid.n_steps - 1, -1, -1):
        j = i + 1
        axes, running, diff = coefficients(j)
        cur = v[j]
        ham, minimisers = _hamiltonian_sum(cur, axes, sgrid)
        rate = diff / sgrid.spacing(0) ** 2
        for axis, ((_, g, _), a) in enumerate(zip(axes, minimisers)):
            control[axis][j] = a
            rate += float(np.abs(a - g).max()) / sgrid.spacing(axis)
        if not np.isfinite(rate):
            raise DivergenceError("non-finite coefficients in backward sweep", i)
        n_sub = substep_count(tgrid.dt, rate)
        dt_sub = tgrid.dt / n_sub
        for k in range(n_sub):
            if k:
                ham, _ = _hamiltonian_sum(cur, axes, sgrid)
            upd = ham + running
            if diff > 0.0:
                upd = upd + 0.5 * diff * diff2(cur, sgrid)
            cur = cur + dt_sub * upd
        if not np.all(np.isfinite(cur)):
            raise DivergenceError("value slice is not finite", i)
        v[i] = cur
    for out, a in zip(control, _hamiltonian_sum(v[0], coefficients(0)[0], sgrid)[1]):
        out[0] = a
    return v, control


def _outflow_rate(drift: np.ndarray, axis: int, sgrid) -> float:
    """Worst-case per-cell outflow rate of the upwind flux along one axis."""
    lo, hi = _faces(axis)
    faces = 0.5 * (drift[lo] + drift[hi])
    out = float(np.maximum(faces, 0.0).max(initial=0.0) + np.maximum(-faces, 0.0).max(initial=0.0))
    return out / sgrid.spacing(axis)


def _forward_sweep(m0: np.ndarray, tgrid: TimeGrid, sgrid, coefficients) -> np.ndarray:
    """Explicit forward density sweep of either model.

    ``coefficients(i)`` gives one drift field per axis and sigma^2 g^2 (1D
    only) for the step leaving node i.
    """
    mass = integrate(np.asarray(m0, dtype=float), sgrid)
    if not abs(mass - 1.0) <= MASS_TOLERANCE:
        raise ValueError(f"initial density mass {mass} deviates from 1 beyond {MASS_TOLERANCE}")
    m = np.empty((tgrid.n_nodes,) + sgrid.shape)
    m[0] = _check_density_slice(np.asarray(m0, dtype=float).copy(), 0)
    for i in range(tgrid.n_steps):
        drifts, diff = coefficients(i)
        rate = diff / sgrid.spacing(0) ** 2
        for axis, drift in enumerate(drifts):
            rate += _outflow_rate(drift, axis, sgrid)
        if not np.isfinite(rate):
            raise DivergenceError("non-finite drift in forward sweep", i + 1)
        n_sub = substep_count(tgrid.dt, rate)
        dt_sub = tgrid.dt / n_sub
        cur = m[i]
        for _ in range(n_sub):
            upd = -diff_upwind(cur, drifts[0], sgrid, 0)
            for axis in range(1, len(drifts)):
                upd = upd - diff_upwind(cur, drifts[axis], sgrid, axis)
            if diff > 0.0:
                upd = upd + 0.5 * diff * diff2(cur, sgrid)
            cur = cur + dt_sub * upd
        m[i + 1] = _check_density_slice(cur, i + 1)
    return m


def optimal_control(v: np.ndarray, p: np.ndarray, params: EvParams, sgrid: SpaceGrid1D) -> np.ndarray:
    """Minimiser of the upwind Hamiltonian at every (time, cell) node.

    Away from the walls this is -(dv/dx + p) / H taken from the side the
    drift alpha - g points to. In the empty-wall cell a drift into the wall
    moves no charge, so the selling branch there is -p / H.
    """
    if np.any(params.H <= 0.0):
        raise ValueError("H must be positive")
    v = np.asarray(v, dtype=float)
    if v.shape[1:] != sgrid.shape:
        raise ValueError(f"value field shape {v.shape} does not match grid {sgrid.shape}")
    col = lambda series: np.asarray(series, dtype=float)[:, None]
    _, alpha = _hamiltonian(v, col(p), col(params.g), col(params.H), sgrid.dx, 1)
    return alpha


def hjb_backward_sweep(
    p: np.ndarray, params: EvParams, tgrid: TimeGrid, sgrid: SpaceGrid1D
) -> tuple[np.ndarray, np.ndarray]:
    """Explicit backward sweep of the value function, v(T, .) = kappa.

    Returns (v, alpha), with alpha = ``optimal_control(v, p, params, sgrid)``.
    """
    params.check_nodes(tgrid)
    x = sgrid.nodes
    t_nodes = tgrid.nodes

    def coefficients(j):
        g = params.g[j]
        return [(p[j], g, params.H[j])], params.f_cost(t_nodes[j], x), params.sigma[j] ** 2 * g ** 2

    v, control = _backward_sweep(params.kappa(x), tgrid, sgrid, coefficients)
    return v, control[0]


def fpk_forward_sweep(
    alpha: np.ndarray, m0: np.ndarray, params: EvParams, tgrid: TimeGrid, sgrid: SpaceGrid1D
) -> np.ndarray:
    """Explicit forward density transport under the drift alpha - g."""
    params.check_nodes(tgrid)

    def coefficients(i):
        g = params.g[i]
        return (alpha[i] - g,), params.sigma[i] ** 2 * g ** 2

    return _forward_sweep(m0, tgrid, sgrid, coefficients)


def ev_cost(
    alpha: np.ndarray,
    m: np.ndarray,
    p: np.ndarray,
    params: EvParams,
    tgrid: TimeGrid,
    sgrid: SpaceGrid1D,
) -> float:
    """Population-averaged cost of a control field along a density flow."""
    if alpha.shape != m.shape or len(p) != m.shape[0]:
        raise ValueError("alpha, m and p shapes are inconsistent")
    x = sgrid.nodes
    t_nodes = tgrid.nodes
    total = 0.0
    for i in range(tgrid.n_steps):
        stage = alpha[i] * p[i] + 0.5 * params.H[i] * alpha[i] ** 2 + params.f_cost(t_nodes[i], x)
        total += tgrid.dt * integrate(m[i] * stage, sgrid)
    total += integrate(m[-1] * params.kappa(x), sgrid)
    return float(total)


@dataclass
class EvProblem:
    """Scenario instance wiring the EV operators to the fixed-point loop."""

    params: EvParams
    tgrid: TimeGrid
    sgrid: SpaceGrid1D
    m0: np.ndarray
    name: str = field(default="ev")

    def __post_init__(self) -> None:
        self.m0 = np.asarray(self.m0, dtype=float)
        if self.m0.shape != self.sgrid.shape:
            raise ValueError("m0 does not match the space grid")
        self.params.check_nodes(self.tgrid)
        mass = integrate(self.m0, self.sgrid)
        if not abs(mass - 1.0) <= MASS_TOLERANCE:
            raise ValueError(f"initial density mass {mass} deviates from 1")

    @property
    def cell_volume(self) -> float:
        return self.sgrid.cell_volume

    def initial_iterate(self) -> np.ndarray:
        return np.tile(self.m0, (self.tgrid.n_nodes, 1))

    def price(self, m: np.ndarray) -> np.ndarray:
        return ev_price(m, self.params, self.sgrid, self.tgrid)

    def hjb(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return hjb_backward_sweep(p, self.params, self.tgrid, self.sgrid)

    def control(self, v: np.ndarray, p: np.ndarray) -> np.ndarray:
        return optimal_control(v, p, self.params, self.sgrid)

    def fpk(self, alpha: np.ndarray) -> np.ndarray:
        return fpk_forward_sweep(alpha, self.m0, self.params, self.tgrid, self.sgrid)
