"""Independent cross-checks: discrete dynamic programming and Monte Carlo.

Neither path touches the PDE sweeps. The DP solves a small discrete-state,
discrete-action best response against a FROZEN price series by exact
backward induction (semi-Lagrangian: the value table is interpolated
linearly at the candidate next states). Both DPs project next states onto
[0, 1], the projected Euler step of the reflected dynamics: an agent that
drives into a wall stays at it. Folding an overshoot back instead would
hand an agent draining into the empty wall (g - a) dt of free charge on
every step, a gain that grows as the step shrinks. The Monte Carlo
simulator integrates the agent dynamics directly with Gaussian increments,
projects the same way, and bins the population on the solver grid. It
works out one half-cell index floor(2 n x) per agent per step and reads
both the interpolated control and the bin from it; the result equals
``np.interp`` and ``np.histogram`` except for points within about one ulp
of a cell edge or a cell center (see ``_half_cell_index``).

Both use the right-endpoint coefficient convention of the value sweep
(stage cost and dynamics of the step [t_i, t_{i+1}] evaluated at t_{i+1}
for the DP, drift of the density step at t_i for the Monte Carlo), so the
first-order time-discretization bias matches the PDE solution it audits.

Prices are always inputs here: the oracle validates best responses against
a fixed population, never the coupled equilibrium itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ev import EvParams
from .grids import SpaceGrid1D, SpaceGrid2D, TimeGrid
from .phev import PhevParams, beta


def _coarse_series(series: np.ndarray, fine: TimeGrid, coarse: TimeGrid) -> np.ndarray:
    return np.interp(coarse.nodes, fine.nodes, np.asarray(series, dtype=float))


def _state_lattice(n: int) -> np.ndarray:
    """Endpoint-inclusive lattice: projected positions reach the walls, so
    the interpolation hull must reach them too or near-wall values clamp."""
    return np.linspace(0.0, 1.0, n)


def _cell_lattice(n: int) -> np.ndarray:
    """Cell-centered lattice for the 2D oracle, keeping beta off z1+z2=0."""
    return (np.arange(n) + 0.5) / n


def _action_lattice(g_max: float, n: int) -> np.ndarray:
    span = 3.0 * max(g_max, 1e-12)
    return np.linspace(-span, span, n)


@dataclass
class DiscreteMdp:
    """Battery lattice MDP for the 1D game against a frozen price series.

    Transitions: deterministic drift dt*(a - g) plus a two-point (binomial)
    noise +-sigma*g*sqrt(dt) with probability 1/2 each, which matches the
    Brownian increment's mean and variance; branch probabilities sum to 1
    by construction. Out-of-range positions are projected onto [0, 1] (the
    agent stays at the wall, it does not bounce off it), so the boundary
    states reflect.
    """

    states: np.ndarray
    actions: np.ndarray
    tgrid: TimeGrid
    g: np.ndarray
    sigma: np.ndarray
    H: np.ndarray
    p: np.ndarray
    f_cost: Callable[[float, np.ndarray], np.ndarray]
    kappa: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        self.states = np.asarray(self.states, dtype=float)
        self.actions = np.asarray(self.actions, dtype=float)
        for name in ("g", "sigma", "H", "p"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (self.tgrid.n_nodes,):
                raise ValueError(f"series {name} must have one value per coarse time node")
            setattr(self, name, value)
        if len(self.states) < 2:
            raise ValueError("need at least 2 states")


def ev_mdp(
    params: EvParams,
    tgrid: TimeGrid,
    p: np.ndarray,
    n_states: int = 20,
    n_steps: int = 13,
    n_actions: int = 241,
) -> DiscreteMdp:
    """Coarse MDP from fine-grid coefficients (series linearly resampled)."""
    coarse = TimeGrid(t1=tgrid.t1, n_steps=n_steps, t0=tgrid.t0)
    return DiscreteMdp(
        states=_state_lattice(n_states),
        actions=_action_lattice(float(np.abs(params.g).max()), n_actions),
        tgrid=coarse,
        g=_coarse_series(params.g, tgrid, coarse),
        sigma=_coarse_series(params.sigma, tgrid, coarse),
        H=_coarse_series(params.H, tgrid, coarse),
        p=_coarse_series(p, tgrid, coarse),
        f_cost=params.f_cost,
        kappa=params.kappa,
    )


@dataclass
class PhevMdp:
    """Minimal deterministic 2D lattice MDP for the hybrid game."""

    states1: np.ndarray
    states2: np.ndarray
    actions1: np.ndarray
    actions2: np.ndarray
    tgrid: TimeGrid
    g: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    r1: np.ndarray
    r2: float
    s_cost: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    xi: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        self.states1 = np.asarray(self.states1, dtype=float)
        self.states2 = np.asarray(self.states2, dtype=float)
        self.actions1 = np.asarray(self.actions1, dtype=float)
        self.actions2 = np.asarray(self.actions2, dtype=float)
        for name in ("g", "Q1", "Q2", "r1"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (self.tgrid.n_nodes,):
                raise ValueError(f"series {name} must have one value per coarse time node")
            setattr(self, name, value)


def phev_mdp(
    params: PhevParams,
    tgrid: TimeGrid,
    r1: np.ndarray,
    n_states: int = 10,
    n_steps: int | None = None,
    n_actions: int = 21,
) -> PhevMdp:
    coarse = tgrid if n_steps is None else TimeGrid(t1=tgrid.t1, n_steps=n_steps, t0=tgrid.t0)
    actions = _action_lattice(float(np.abs(params.g).max()), n_actions)
    return PhevMdp(
        states1=_cell_lattice(n_states),
        states2=_cell_lattice(n_states),
        actions1=actions,
        actions2=actions.copy(),
        tgrid=coarse,
        g=_coarse_series(params.g, tgrid, coarse),
        Q1=_coarse_series(params.Q1, tgrid, coarse),
        Q2=_coarse_series(params.Q2, tgrid, coarse),
        r1=_coarse_series(r1, tgrid, coarse),
        r2=params.r2,
        s_cost=params.s_cost,
        xi=params.xi,
    )


def dp_best_response(mdp: DiscreteMdp | PhevMdp):
    """Exact backward induction: (value table, policy table).

    V(T, .) is the terminal cost; V(i, s) = min over the action lattice of
    the stage cost plus the expected interpolated V(i+1, next). Ties break
    toward the smaller action magnitude (actions are scanned in increasing
    |a| order and the first minimum wins).
    """
    if isinstance(mdp, PhevMdp):
        return _dp_phev(mdp)
    if mdp.actions.size == 0:
        raise ValueError("empty action set")
    s = mdp.states
    order = np.lexsort((mdp.actions, np.abs(mdp.actions)))
    a = mdp.actions[order][:, None]
    dt = mdp.tgrid.dt
    nodes = mdp.tgrid.nodes
    value = np.empty((mdp.tgrid.n_nodes, len(s)))
    policy = np.empty((mdp.tgrid.n_steps, len(s)))
    value[-1] = mdp.kappa(s)
    for i in range(mdp.tgrid.n_steps - 1, -1, -1):
        j = i + 1
        g = mdp.g[j]
        eps = mdp.sigma[j] * g * math.sqrt(dt)
        nxt = s[None, :] + dt * (a - g)
        up = np.clip(nxt + eps, 0.0, 1.0)
        dn = np.clip(nxt - eps, 0.0, 1.0)
        expected = 0.5 * (
            np.interp(up.ravel(), s, value[j]).reshape(up.shape)
            + np.interp(dn.ravel(), s, value[j]).reshape(dn.shape)
        )
        stage = a * mdp.p[j] + 0.5 * mdp.H[j] * a ** 2 + mdp.f_cost(nodes[j], s)[None, :]
        total = dt * stage + expected
        best = np.argmin(total, axis=0)  # first minimum = smallest |a|
        value[i] = total[best, np.arange(len(s))]
        policy[i] = a[best, 0]
    return value, policy


def _bilinear(table: np.ndarray, s1: np.ndarray, s2: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Bilinear interpolation with clamping outside the lattice hull."""
    i1 = np.clip(np.searchsorted(s1, x1) - 1, 0, len(s1) - 2)
    i2 = np.clip(np.searchsorted(s2, x2) - 1, 0, len(s2) - 2)
    w1 = np.clip((x1 - s1[i1]) / (s1[i1 + 1] - s1[i1]), 0.0, 1.0)
    w2 = np.clip((x2 - s2[i2]) / (s2[i2 + 1] - s2[i2]), 0.0, 1.0)
    return (
        (1.0 - w1) * (1.0 - w2) * table[i1, i2]
        + w1 * (1.0 - w2) * table[i1 + 1, i2]
        + (1.0 - w1) * w2 * table[i1, i2 + 1]
        + w1 * w2 * table[i1 + 1, i2 + 1]
    )


def dp_deviation(mdp: DiscreteMdp | PhevMdp, dp_value: np.ndarray, v: np.ndarray, sgrid) -> np.ndarray:
    """Relative time-0 deviation |V_dp - v| / max|v| at each DP lattice state.

    ``dp_value`` is ``dp_best_response(mdp)``'s table and ``v`` the solver's
    field, interpolated onto the lattice (``np.interp`` in 1D, bilinear in 2D).
    """
    if isinstance(mdp, PhevMdp):
        v0 = _bilinear(v[0], sgrid.nodes1, sgrid.nodes2, mdp.states1[:, None], mdp.states2[None, :])
    else:
        v0 = np.interp(mdp.states, sgrid.nodes, v[0])
    return np.abs(dp_value[0] - v0) / np.abs(v0).max()


def _dp_phev(mdp: PhevMdp):
    if mdp.actions1.size == 0 or mdp.actions2.size == 0:
        raise ValueError("empty action set")
    a1_grid, a2_grid = np.meshgrid(mdp.actions1, mdp.actions2, indexing="ij")
    a1 = a1_grid.ravel()
    a2 = a2_grid.ravel()
    # Scan pairs by total magnitude so argmin's first hit is the laziest one.
    order = np.lexsort((a2, a1, np.abs(a2), np.abs(a1), np.abs(a1) + np.abs(a2)))
    a1 = a1[order][:, None, None]
    a2 = a2[order][:, None, None]
    z1, z2 = np.meshgrid(mdp.states1, mdp.states2, indexing="ij")
    b = beta(z1, z2)
    dt = mdp.tgrid.dt
    nodes = mdp.tgrid.nodes
    shape = z1.shape
    value = np.empty((mdp.tgrid.n_nodes,) + shape)
    pol1 = np.empty((mdp.tgrid.n_steps,) + shape)
    pol2 = np.empty((mdp.tgrid.n_steps,) + shape)
    value[-1] = mdp.xi(z1, z2)
    for i in range(mdp.tgrid.n_steps - 1, -1, -1):
        j = i + 1
        g = mdp.g[j]
        n1 = np.clip(z1[None] + dt * (a1 - b[None] * g), 0.0, 1.0)
        n2 = np.clip(z2[None] + dt * (a2 - (1.0 - b[None]) * g), 0.0, 1.0)
        expected = _bilinear(value[j], mdp.states1, mdp.states2, n1, n2)
        stage = (
            a1 * mdp.r1[j]
            + a2 * mdp.r2
            + 0.5 * mdp.Q1[j] * a1 ** 2
            + 0.5 * mdp.Q2[j] * a2 ** 2
            + mdp.s_cost(nodes[j], z1, z2)[None]
        )
        total = dt * stage + expected
        flat = total.reshape(total.shape[0], -1)
        best = np.argmin(flat, axis=0)
        cols = np.arange(flat.shape[1])
        value[i] = flat[best, cols].reshape(shape)
        pol1[i] = a1[best, 0, 0].reshape(shape)
        pol2[i] = a2[best, 0, 0].reshape(shape)
    return value, (pol1, pol2)


def sample_density(m0: np.ndarray, sgrid: SpaceGrid1D, n_agents: int) -> np.ndarray:
    """Stratified inverse-CDF draws from a piecewise-constant 1D density."""
    m0 = np.asarray(m0, dtype=float)
    masses = m0 * sgrid.dx
    total = masses.sum()
    if total <= 0.0:
        raise ValueError("initial density has no mass")
    cdf = np.concatenate(([0.0], np.cumsum(masses) / total))
    edges = np.linspace(0.0, 1.0, sgrid.n_cells + 1)
    u = (np.arange(n_agents) + 0.5) / n_agents
    return np.interp(u, cdf, edges)


def mc_population(
    control,
    m0: np.ndarray,
    params: EvParams,
    tgrid: TimeGrid,
    sgrid: SpaceGrid1D,
    n_agents: int = 100_000,
    seed: int = 0,
) -> np.ndarray:
    """Euler-Maruyama population simulation binned on the solver grid.

    ``control`` is either a control field of shape ``(n_nodes, n_cells)``
    (one row per time node on the grid's cell centers, interpolated linearly
    in space and clamped beyond the outer centers, as ``np.interp`` does) or
    a callable ``(t, x) -> alpha``. One standard-normal draw per agent per
    step, consumed in fixed agent order from a single seeded generator, so
    the result depends only on (inputs, n_agents, seed), never on scheduling.
    Histogram slices have unit mass exactly (integer counts over n_agents).

    Each step works out one half-cell index per agent
    (``_half_cell_index``). The control lookup reads the linear piece of
    that half cell and the binning counts its cell, so no agent pays for a
    binary search or an edge correction. Both agree with ``np.interp`` and
    ``np.histogram`` except within about one ulp of a cell edge or a cell
    center (the edge rule in ``_half_cell_index``).
    """
    if n_agents < 1:
        raise ValueError("need at least one agent")
    params.check_nodes(tgrid)
    if not callable(control):
        control = np.asarray(control, dtype=float)
        expected = (tgrid.n_nodes, sgrid.n_cells)
        if control.shape != expected:
            raise ValueError(
                f"control field must have shape (n_nodes, n_cells) = {expected}, found {control.shape}"
            )
    rng = np.random.default_rng(seed)
    x = sample_density(m0, sgrid, n_agents)
    k = _half_cell_index(x, sgrid.n_cells)
    drift = np.empty(n_agents)
    work = np.empty(n_agents)
    hist = np.empty((tgrid.n_nodes, sgrid.n_cells))
    _bin_population(k, sgrid, out=hist[0])
    sqrt_dt = math.sqrt(tgrid.dt)
    nodes = tgrid.nodes
    for i in range(tgrid.n_steps):
        if callable(control):
            a = np.asarray(control(nodes[i], x), dtype=float)
        else:
            a = _interp_half_cells(sgrid.nodes, control[i], k, x, out=drift, work=work)
        np.subtract(a, params.g[i], out=drift)
        np.multiply(drift, tgrid.dt, out=drift)
        np.add(x, drift, out=x)
        noise = params.sigma[i] * params.g[i]
        if noise != 0.0:
            rng.standard_normal(out=work)
            np.multiply(work, noise * sqrt_dt, out=work)
            np.add(x, work, out=x)
        np.clip(x, 0.0, 1.0, out=x)
        _half_cell_index(x, sgrid.n_cells, out=k)
        _bin_population(k, sgrid, out=hist[i + 1])
    return hist


def _half_cell_index(x: np.ndarray, n_cells: int, out: np.ndarray | None = None) -> np.ndarray:
    """Half-cell index k = floor(2 n x), capped at 2n - 1, of positions in [0, 1].

    Half cell k covers [k, k + 1) / (2n): cell j holds half cells 2j and
    2j + 1, and its center is the edge between them. So ``k >> 1`` is the
    cell, and half cell k lies between centers (k - 1) // 2 and (k + 1) // 2.

    Edge rule: k is the floor of one rounded product, while ``np.histogram``
    corrects its bin against the exact ``linspace`` edges and ``np.interp``
    binary-searches the rounded centers. A point within about one ulp of a
    cell edge or a center can therefore land one half cell over. Its bin
    then differs by one and its interpolated value by the continuity error
    of the piecewise-linear field (1e-14 to 1e-13 on 25 to 400 cells).
    Simulated positions come from continuous distributions and do not land
    on such points in practice, and exact corrections would cost most of
    what the index saves.
    """
    if out is None:
        out = np.empty(np.shape(x), dtype=np.intp)
    np.multiply(x, 2 * n_cells, out=out, casting="unsafe")  # truncation is floor on x >= 0
    np.minimum(out, 2 * n_cells - 1, out=out)
    return out


def _interp_half_cells(
    nodes: np.ndarray, values: np.ndarray, k: np.ndarray, x: np.ndarray, out=None, work=None
) -> np.ndarray:
    """``np.interp(x, nodes, values)`` for positions x in half cells k of the centers ``nodes``.

    Three tables of one entry per half cell hold the slope, left node and
    left value of the linear piece over it: half cells 2j + 1 and 2j + 2
    lie between centers j and j + 1, and the first and last half cells lie
    beyond the outer centers, where slope 0 gives the clamped end values.
    Each agent gathers its three entries and evaluates
    ``slope * (x - left) + value`` with ``np.interp``'s own slope formula.
    """
    n = len(nodes)
    piece = np.clip((np.arange(2 * n) - 1) // 2, 0, n - 1)
    slope = np.zeros(2 * n)
    slope[1:-1] = (np.diff(values) / np.diff(nodes))[piece[1:-1]]
    # mode="clip" keeps take from buffering ``out``; k is always in range.
    out = np.take(nodes[piece], k, out=out, mode="clip")
    np.subtract(x, out, out=out)
    work = np.take(slope, k, out=work, mode="clip")
    np.multiply(work, out, out=out)
    np.take(values[piece], k, out=work, mode="clip")
    np.add(out, work, out=out)
    return out


def _bin_population(k: np.ndarray, sgrid: SpaceGrid1D, out: np.ndarray | None = None) -> np.ndarray:
    counts = np.bincount(k >> 1, minlength=sgrid.n_cells)
    return np.divide(counts, k.size * sgrid.dx, out=out)
