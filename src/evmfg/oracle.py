"""Independent cross-checks: discrete dynamic programming and Monte Carlo.

Neither path touches the PDE sweeps. The DP solves a small discrete-state,
discrete-action best response against a FROZEN price series by exact
backward induction. Both games run through one induction over the product of
per-axis state and action lattices, which reads a model only through the
``Game`` of its params (semi-Lagrangian: the value table is interpolated
multilinearly at the candidate next states, clamped beyond the lattice
hull). Next states are projected onto [0, 1], the projected Euler step of
the reflected dynamics: an agent that drives into a wall stays at it.
Folding an overshoot back instead would hand an agent draining into the
empty wall (g - a) dt of free charge on every step, a gain that grows as the
step shrinks. The Monte Carlo simulator integrates the agent dynamics
directly with Gaussian increments, projects the same way, and bins the
population on the solver grid. It works out one half-cell index floor(2 n x)
per agent per step and reads both the interpolated control and the bin from
it; the result equals ``np.interp`` and ``np.histogram`` except for points
within about one ulp of a cell edge or a cell center (see
``_half_cell_index``).

Both use the right-endpoint coefficient convention of the value sweep
(stage cost and dynamics of the step [t_i, t_{i+1}] evaluated at t_{i+1}
for the DP, drift of the density step at t_i for the Monte Carlo), so the
first-order time-discretization bias matches the PDE solution it audits.

Prices are always inputs here: the oracle validates best responses against
a fixed population, never the coupled equilibrium itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ev import EvParams
from .grids import SpaceGrid, TimeGrid
from .phev import PhevParams


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

    ``params`` and ``p`` live on the MDP's (coarse) time grid.
    Transitions: deterministic drift dt*(a - g) plus a two-point (binomial)
    noise +-sigma*g*sqrt(dt) with probability 1/2 each, which matches the
    Brownian increment's mean and variance; branch probabilities sum to 1
    by construction. Out-of-range positions are projected onto [0, 1] (the
    agent stays at the wall, it does not bounce off it), so the boundary
    states reflect.
    """

    states: np.ndarray
    actions: np.ndarray
    params: EvParams
    p: np.ndarray

    @property
    def tgrid(self) -> TimeGrid:
        return self.params.tgrid

    @property
    def lattices(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """(state lattices, action lattices), one of each per axis."""
        return (self.states,), (self.actions,)

    price = property(lambda self: self.p, doc="The frozen price series.")


def ev_mdp(params: EvParams, p: np.ndarray, n_states: int = 20, n_steps: int = 13, n_actions: int = 241) -> DiscreteMdp:
    """Coarse MDP from fine-grid coefficients (series linearly resampled)."""
    coarse = TimeGrid(t1=params.tgrid.t1, n_steps=n_steps)
    return DiscreteMdp(
        states=_state_lattice(n_states),
        actions=_action_lattice(float(np.abs(params.g).max()), n_actions),
        params=params.resampled(coarse),
        p=np.interp(coarse.nodes, params.tgrid.nodes, p),
    )


@dataclass
class PhevMdp:
    """Minimal deterministic 2D lattice MDP for the hybrid game; ``params`` and ``r1`` live on its time grid."""

    states1: np.ndarray
    states2: np.ndarray
    actions1: np.ndarray
    actions2: np.ndarray
    params: PhevParams
    r1: np.ndarray

    @property
    def tgrid(self) -> TimeGrid:
        return self.params.tgrid

    @property
    def lattices(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """(state lattices, action lattices), one of each per axis."""
        return (self.states1, self.states2), (self.actions1, self.actions2)

    price = property(lambda self: self.r1, doc="The frozen price series.")


def phev_mdp(params: PhevParams, r1: np.ndarray, n_states: int = 10) -> PhevMdp:
    """MDP on the params' own time grid, with 21 actions per pack."""
    actions = _action_lattice(float(np.abs(params.g).max()), 21)
    return PhevMdp(
        states1=_cell_lattice(n_states),
        states2=_cell_lattice(n_states),
        actions1=actions,
        actions2=actions.copy(),
        params=params,
        r1=np.asarray(r1, dtype=float),
    )


def _interp(table: np.ndarray, lattices, points) -> np.ndarray:
    """Multilinear interpolation of ``table`` on the product of ``lattices``, clamped outside their hull.

    ``points`` holds one coordinate array per axis. The corners are summed
    with axis 0 varying fastest.
    """
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


def dp_best_response(mdp: DiscreteMdp | PhevMdp):
    """Exact backward induction: (value table, policy), the policy one table per axis.

    V(T, .) is the terminal cost; V(i, s) = min over the product of the
    action lattices of the stage cost sum_k (a_k p_k + h_k a_k^2 / 2) plus
    the running cost, plus the interpolated V(i+1, next) averaged over the
    noise shifts. Ties break toward the laziest action: the smallest
    sum_k |a_k|, then |a_1|, |a_2|, ..., then a_1, a_2, ... (actions are
    scanned in that order and the first minimum wins).
    """
    states, actions = mdp.lattices
    if min(len(s) for s in states) < 2:
        raise ValueError("need at least 2 states")
    if min(len(a) for a in actions) == 0:
        raise ValueError("empty action set")
    flat = [a.ravel() for a in np.meshgrid(*actions, indexing="ij")]
    size = [np.abs(a) for a in flat]
    order = np.lexsort(flat[::-1] + size[::-1] + [sum(size)])
    acts = [a[order].reshape((-1,) + (1,) * len(states)) for a in flat]
    mesh = np.meshgrid(*states, indexing="ij")
    game = mdp.params.game(mesh)
    shape = mesh[0].shape
    dt, root_dt = mdp.tgrid.dt, math.sqrt(mdp.tgrid.dt)
    value = np.empty((mdp.tgrid.n_nodes,) + shape)
    policy = tuple(np.empty((mdp.tgrid.n_steps,) + shape) for _ in states)
    value[-1] = game.terminal()
    cols = np.arange(value[-1].size)
    for i in range(mdp.tgrid.n_steps - 1, -1, -1):
        j = i + 1
        axes, running, noise, _ = game.step(mdp.price, j)
        eps = noise * root_dt
        shifts = (eps, -eps) if eps != 0.0 else (0.0,)
        nxt = [z + dt * (a - g) for z, a, (_, g, _) in zip(mesh, acts, axes)]
        expected = sum(
            _interp(value[j], states, [np.clip(x + shift, 0.0, 1.0) for x in nxt]) for shift in shifts
        ) / len(shifts)
        stage = sum(a * p for a, (p, _, _) in zip(acts, axes))
        stage = sum((0.5 * h * a ** 2 for a, (_, _, h) in zip(acts, axes)), stage)
        total = (dt * (stage + running) + expected).reshape(len(order), -1)
        best = np.argmin(total, axis=0)  # first minimum = laziest action
        value[i] = total[best, cols].reshape(shape)
        for out, a in zip(policy, acts):
            out[i] = a.ravel()[best].reshape(shape)
    return value, policy


def dp_deviation(mdp: DiscreteMdp | PhevMdp, dp_value: np.ndarray, v: np.ndarray, sgrid) -> np.ndarray:
    """Relative time-0 deviation |V_dp - v| / max|v| at each DP lattice state; absolute where v is 0 there.

    ``dp_value`` is ``dp_best_response(mdp)``'s table and ``v`` the solver's
    field, interpolated onto the lattice with the induction's multilinear
    helper, clamped beyond the outer cell centers.
    """
    nodes = [sgrid.nodes(k) for k in range(len(sgrid.shape))]
    v0 = _interp(v[0], nodes, np.meshgrid(*mdp.lattices[0], indexing="ij"))
    scale = np.abs(v0).max()
    return np.abs(dp_value[0] - v0) / (scale if scale > 0.0 else 1.0)


def sample_density(m0: np.ndarray, sgrid: SpaceGrid, n_agents: int) -> np.ndarray:
    """Stratified inverse-CDF draws from a piecewise-constant 1D density."""
    m0 = np.asarray(m0, dtype=float)
    masses = m0 * sgrid.spacing(0)
    total = masses.sum()
    if total <= 0.0:
        raise ValueError("initial density has no mass")
    cdf = np.concatenate(([0.0], np.cumsum(masses) / total))
    edges = np.linspace(0.0, 1.0, sgrid.shape[0] + 1)
    u = (np.arange(n_agents) + 0.5) / n_agents
    return np.interp(u, cdf, edges)


def mc_population(
    control: np.ndarray,
    m0: np.ndarray,
    params: EvParams,
    tgrid: TimeGrid,
    sgrid: SpaceGrid,
    n_agents: int = 100_000,
    seed: int = 0,
) -> np.ndarray:
    """Euler-Maruyama population simulation binned on the solver grid.

    ``control`` is the battery's one field (``sol.alpha[0]``), of shape
    ``(n_nodes, n_cells)``, one row per time node on the grid's cell centers,
    interpolated linearly in space and clamped beyond the outer centers, as
    ``np.interp`` does. ``tgrid`` must be ``params.tgrid``: perfbench's trace
    reads the step count from it. One standard-normal draw per agent per
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
    if tgrid != params.tgrid:
        raise ValueError(f"time grid {tgrid} is not the params' {params.tgrid}")
    control = np.asarray(control, dtype=float)
    expected = (tgrid.n_nodes, sgrid.shape[0])
    if control.shape != expected:
        raise ValueError(
            f"control field must have shape (n_nodes, n_cells) = {expected}, found {control.shape}"
        )
    rng = np.random.default_rng(seed)
    x = sample_density(m0, sgrid, n_agents)
    k = _half_cell_index(x, sgrid.shape[0])
    drift = np.empty(n_agents)
    work = np.empty(n_agents)
    hist = np.empty((tgrid.n_nodes, sgrid.shape[0]))
    _bin_population(k, sgrid, out=hist[0])
    sqrt_dt = math.sqrt(tgrid.dt)
    game = params.game((sgrid.nodes(0),))
    for i in range(tgrid.n_steps):
        (g,), noise, _ = game.transport(i)
        a = _interp_half_cells(sgrid.nodes(0), control[i], k, x, out=drift, work=work)
        np.subtract(a, g, out=drift)
        np.multiply(drift, tgrid.dt, out=drift)
        np.add(x, drift, out=x)
        if noise != 0.0:
            rng.standard_normal(out=work)
            np.multiply(work, noise * sqrt_dt, out=work)
            np.add(x, work, out=x)
        np.clip(x, 0.0, 1.0, out=x)
        _half_cell_index(x, sgrid.shape[0], out=k)
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


def _bin_population(k: np.ndarray, sgrid: SpaceGrid, out: np.ndarray | None = None) -> np.ndarray:
    counts = np.bincount(k >> 1, minlength=sgrid.shape[0])
    return np.divide(counts, k.size * sgrid.spacing(0), out=out)
