"""Independent cross-checks: discrete dynamic programming and Monte Carlo.

Neither path touches the PDE sweeps. The DP solves a small discrete-state,
discrete-action best response against a FROZEN price series by exact
backward induction. Both games run through one induction over the product of
per-axis state and action lattices, which reads a model only through the
``Game`` of its params (semi-Lagrangian: the value table is interpolated
multilinearly at the candidate next states, clamped beyond the lattice
hull). The next coordinate on an axis depends only on that axis's action
and the state, so the next states broadcast over the product of the
lattices and each axis is searched and weighted on its own points: on the
2D lattice that is 21 x 100 points per axis, not 441 x 100. The
interpolation is split into a plan (the search, the corner weights and the
flat corner indices, ``_interp_plan``) and an apply (one ``take`` per
corner, ``_interp_apply``). A step's transition depends only on its
coefficients, so the induction keeps the previous step's plans while the
next states and noise shifts repeat bit for bit: the two-pack game, with
constant consumption and no noise, builds one plan for all its steps. The
lattices lie inside [0, 1], so the clamp at their hull gives a next state
beyond a wall the weights of its projection onto [0, 1], the projected
Euler step of the reflected dynamics: an agent that drives into a wall
stays at it. Folding an overshoot back instead would hand an agent
draining into the empty wall (g - a) dt of free charge on every step, a
gain that grows as the step shrinks. The Monte Carlo simulator integrates the agent dynamics
directly with the simplified weak Euler scheme (weak order 1; Kloeden &
Platen, Numerical Solution of Stochastic Differential Equations, 1992,
section 14.1): the Brownian increment is replaced by the two-point one
+-sigma*g*sqrt(dt) of a fair sign, as in the DP's transitions, which has
its mean and variance. The density it is compared on is a weak quantity,
so the audit keeps its meaning. Agents are exchangeable, so the population
is one sorted array: each step gives the +-eps increments by rank,
alternating, with one random phase bit, restores the order with one stable
sort and bins it by the cell edges among the half-cell edges that the
next drift step searches anyway, exactly as ``np.histogram`` bins
(array-RQMC; L'Ecuyer, Lecot & Tuffin, Oper. Res. 56(4), 2008). Neighbours move apart, so the histogram carries almost no
sampling noise, and its distance to the PDE density reads the PDE's own
discretization error. It projects onto [0, 1] as the DP does. The control
is linear on each half cell, so the drift step is one affine map per half
cell (see ``mc_population``).

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

from .ev import CONTROL_BLOCK_CELLS, EvParams, _check_price
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
class LatticeMdp:
    """Lattice MDP of either game against a frozen price series.

    ``lattices`` is (state lattices, action lattices), one of each per axis;
    ``params`` and ``price`` live on the MDP's time grid. Each axis drifts by
    dt*(a - g); where the game has noise, a two-point shift +-sigma*g*sqrt(dt)
    of probability 1/2 each has the Brownian increment's mean and variance.
    Positions beyond the state lattice's hull clamp onto it, so a lattice
    spanning [0, 1] holds an agent at the wall it drives into.
    """

    lattices: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]
    params: EvParams | PhevParams
    price: np.ndarray

    def __post_init__(self) -> None:
        self.price = _check_price(self.price, self.tgrid)

    @property
    def tgrid(self) -> TimeGrid:
        return self.params.tgrid

    @property
    def states(self) -> np.ndarray:
        """Every state tuple: one row each, one column per axis, in ``meshgrid(..., indexing="ij")`` raveled order.

        perfbench's ``oracle.dp_evals`` counts ``len(states) * len(actions)``
        per step, for either game; its branch for per-axis fields is dead.
        """
        return _product(self.lattices[0])

    @property
    def actions(self) -> np.ndarray:
        """Every action tuple, as ``states`` holds every state tuple; the induction's tie order reads these rows."""
        return _product(self.lattices[1])


def _product(lattices) -> np.ndarray:
    return np.stack([a.ravel() for a in np.meshgrid(*lattices, indexing="ij")], axis=1)


def ev_mdp(params: EvParams, price: np.ndarray, n_states: int = 20) -> LatticeMdp:
    """Coarse MDP on 13 steps with 241 actions, from fine-grid coefficients (series linearly resampled)."""
    coarse = TimeGrid(t1=params.tgrid.t1, n_steps=13)
    return LatticeMdp(
        lattices=((_state_lattice(n_states),), (_action_lattice(float(np.abs(params.g).max()), 241),)),
        params=params.resampled(coarse),
        price=np.interp(coarse.nodes, params.tgrid.nodes, _check_price(price, params.tgrid)),
    )


def phev_mdp(params: PhevParams, price: np.ndarray, n_states: int = 10) -> LatticeMdp:
    """MDP on the params' own time grid, with 21 actions per pack; both packs share one read-only lattice of each."""
    states, actions = _cell_lattice(n_states), _action_lattice(float(np.abs(params.g).max()), 21)
    states.flags.writeable = actions.flags.writeable = False
    return LatticeMdp(lattices=((states, states), (actions, actions)), params=params, price=price)


def _interp_plan(lattices, points) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, flat index) of each corner of the multilinear interpolation at ``points``, clamped outside the hull.

    ``points`` holds one coordinate array per axis, and the arrays
    broadcast against each other: each is searched and weighted on its own
    axis of the product of ``lattices``, and every weight and index has
    their broadcast shape. The indices address the flattened table of the
    product, and the corners come with axis 0 varying fastest. The plan
    reads no table, so ``_interp_apply`` can reuse it on any table of the
    same lattices.
    """
    strides = [math.prod(len(s) for s in lattices[k + 1:]) for k in range(len(lattices))]
    base, factors = 0, []
    for s, x, stride in zip(lattices, points, strides):
        k = np.clip(np.searchsorted(s, x) - 1, 0, len(s) - 2)
        w = np.clip((x - s[k]) / (s[k + 1] - s[k]), 0.0, 1.0)
        base = base + k * stride
        factors.append((1.0 - w, w))
    corners = (bits[::-1] for bits in itertools.product((0, 1), repeat=len(lattices)))
    return [
        (math.prod(f[bit] for bit, f in zip(c, factors)), base + sum(bit * n for bit, n in zip(c, strides)))
        for c in corners
    ]


def _interp_apply(table: np.ndarray, plan) -> np.ndarray:
    """The interpolation of ``table`` that ``plan`` (``_interp_plan``) describes: one ``take`` per corner, summed in plan order."""
    table = np.ravel(table)
    return sum(weight * table.take(index) for weight, index in plan)


def dp_best_response(mdp: LatticeMdp):
    """Exact backward induction: (value table, policy), the policy one table per axis.

    V(T, .) is the terminal cost; V(i, s) = min over the product of the
    action lattices of the stage cost sum_k (a_k p_k + h_k a_k^2 / 2) plus
    the running cost, plus the interpolated V(i+1, next) averaged over the
    noise shifts. Ties break toward the laziest action: the smallest
    sum_k |a_k|, then |a_1|, |a_2|, ..., then a_1, a_2, ... (the rows of
    ``mdp.actions`` are put in that order before the ``argmin``, whose first
    minimum wins).

    The next coordinate on axis k, z_k + dt (a_k - g_k(z)), depends only on
    a_k and the state. So the actions of axis k take their own array axis,
    followed by the state axes, and every step works on the broadcast
    product of shape (*action counts, *states).

    The interpolation plan of each noise shift (``_interp_plan``) depends
    only on the next states and the shifts, so a step whose next states and
    shifts equal the previous step's bit for bit reuses its plans and only
    applies them to V(i+1). At most one step's plans are kept. The tables
    are those of a fresh interpolation on every step, bit for bit.
    """
    states, actions = mdp.lattices
    if min(len(s) for s in states) < 2:
        raise ValueError("need at least 2 states")
    if min(len(a) for a in actions) == 0:
        raise ValueError("empty action set")
    grid = [a.reshape(a.shape + (1,) * len(states)) for a in np.ix_(*actions)]
    flat = list(mdp.actions.T)
    size = [np.abs(a) for a in flat]
    order = np.lexsort(flat[::-1] + size[::-1] + [sum(size)])
    mesh = np.meshgrid(*states, indexing="ij")
    game = mdp.params.game(mesh)
    shape = mesh[0].shape
    dt, root_dt = mdp.tgrid.dt, math.sqrt(mdp.tgrid.dt)
    value = np.empty((mdp.tgrid.n_nodes,) + shape)
    policy = tuple(np.empty((mdp.tgrid.n_steps,) + shape) for _ in states)
    value[-1] = game.terminal()
    cols = np.arange(value[-1].size)
    transition, plans = None, None
    for i in range(mdp.tgrid.n_steps - 1, -1, -1):
        j = i + 1
        axes, running, noise, _ = game.step(mdp.price, j)
        eps = noise * root_dt
        shifts = (eps, -eps) if eps != 0.0 else (0.0,)
        nxt = [z + dt * (a - g) for z, a, (_, g, _) in zip(mesh, grid, axes)]
        key = [x.tobytes() for x in nxt] + [np.float64(shift).tobytes() for shift in shifts]
        if key != transition:
            transition, plans = key, [_interp_plan(states, [x + shift for x in nxt]) for shift in shifts]
        expected = sum(_interp_apply(value[j], plan) for plan in plans) / len(shifts)
        stage = sum(a * p for a, (p, _, _) in zip(grid, axes))
        stage = sum((0.5 * h * a ** 2 for a, (_, _, h) in zip(grid, axes)), stage)
        total = (dt * (stage + running) + expected).reshape(len(order), -1)[order]
        best = np.argmin(total, axis=0)  # first minimum = laziest action
        value[i] = total[best, cols].reshape(shape)
        for out, a in zip(policy, flat):
            out[i] = a[order[best]].reshape(shape)
    return value, policy


def dp_deviation(mdp: LatticeMdp, dp_value: np.ndarray, v: np.ndarray, sgrid) -> np.ndarray:
    """Relative time-0 deviation |V_dp - v| / max|v| at each DP lattice state; absolute where v is 0 there.

    ``dp_value`` is ``dp_best_response(mdp)``'s table and ``v`` the solver's
    field, interpolated onto the lattice with the induction's multilinear
    helper, clamped beyond the outer cell centers.
    """
    nodes = [sgrid.nodes(k) for k in range(len(sgrid.shape))]
    v0 = _interp_apply(v[0], _interp_plan(nodes, np.meshgrid(*mdp.lattices[0], indexing="ij", sparse=True)))
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
    """Simplified weak Euler population simulation binned on the solver grid.

    ``control`` is the battery's one field (``sol.alpha[0]``), of shape
    ``(n_nodes, n_cells)``, one row per time node on the grid's cell centers,
    interpolated linearly in space and clamped beyond the outer centers, as
    ``np.interp`` does. ``tgrid`` must be ``params.tgrid``: perfbench's trace
    reads the step count from it.

    Both fields must be finite and ``m0`` nonnegative (``ValueError``).
    Agents are exchangeable, so the population is one sorted array of
    positions, starting from ``sample_density``. The affine tables below come
    for a block of ``CONTROL_BLOCK_CELLS // (2 * n_cells)`` steps at once.
    Each step:

    - drifts every agent by x + dt (interp(x) - g), as the affine map
      scale[k] x + offset[k] of its half cell k (``_half_cell_step``; one
      ``searchsorted`` of the half-cell edges finds each half cell's run of
      agents). The map agrees with the interpolated step within a few ulps
      of 1 + dt (max|slope| + max|control| + g), and is exact at the walls,
      where the slope is 0;
    - where sigma*g != 0, moves the agents of even rank by +eps and those of
      odd rank by -eps, or the other way round by one fair phase bit
      (``rng.integers(2)``), eps = sigma*g*sqrt(dt): each agent takes the
      two-point increment of the simplified weak Euler scheme (see the
      module docstring) with probability 1/2 each way, while neighbours
      move apart. A step without noise draws nothing;
    - restores the order with one stable sort of the two shifted halves
      written one after the other: timsort finds two runs and merges them
      once. The drift keeps the order wherever its scale 1 + dt slope is
      positive; where it is not, the drift turns its half cell's run
      around, that step's ranks are the order before the drift, and the
      sort, a full sort, restores the order. On the reference runs the
      smallest scale is 0.985 (400 cells, H=3) to 0.9998. The sort is about
      half of a step: 0.34 of 0.65 ms at 100k agents on 100 cells;
    - clips to [0, 1], which on the sorted finite array sets its two ends.

    Each cell [edge_j, edge_(j+1)) of ``np.linspace(0, 1, n_cells + 1)``,
    the last closed, is counted from the half-cell search of the next step
    (one more search after the last step): the inner cell edges are every
    other inner half-cell edge, so the cells' runs of agents are every other
    half-cell bound. These are the bins of ``np.histogram(x, n_cells, (0,
    1))`` exactly.

    The result depends only on (inputs, n_agents, seed). Histogram slices
    have unit mass exactly (integer counts over n_agents).
    """
    if n_agents < 1:
        raise ValueError("need at least one agent")
    if tgrid != params.tgrid:
        raise ValueError(f"time grid {tgrid} is not the params' {params.tgrid}")
    control = np.asarray(control, dtype=float)
    n_cells = sgrid.shape[0]
    expected = (tgrid.n_nodes, n_cells)
    if control.shape != expected:
        raise ValueError(
            f"control field must have shape (n_nodes, n_cells) = {expected}, found {control.shape}"
        )
    m0 = np.asarray(m0, dtype=float)
    for name, field, rule, breach in (("control field", control, "finite", ~np.isfinite(control)),
                                      ("initial density", m0, "finite", ~np.isfinite(m0)),
                                      ("initial density", m0, "nonnegative", m0 < 0.0)):
        bad = np.argwhere(breach)
        if len(bad):
            raise ValueError(f"{name} must be {rule}, found {field[tuple(bad[0])]} at index {tuple(bad[0].tolist())}")
    rng = np.random.default_rng(seed)
    nodes = sgrid.nodes(0)
    edges = np.linspace(0.0, 1.0, n_cells + 1)
    # the inner edges of the half cells alternate cell centers and cell edges;
    # the centers are the nodes np.interp searches, so each agent reads its piece
    half_edges = np.empty(2 * n_cells - 1)
    half_edges[0::2], half_edges[1::2] = nodes, edges[1:-1]
    x = sample_density(m0, sgrid, n_agents)  # sorted
    spare = np.empty(n_agents)
    n_even = (n_agents + 1) // 2
    hist = np.empty((tgrid.n_nodes, n_cells))
    bounds = np.zeros(2 * n_cells + 1, dtype=np.intp)  # half cell k's run of agents is x[bounds[k]:bounds[k + 1]]
    bounds[-1], runs = n_agents, np.empty(2 * n_cells, dtype=np.intp)

    def search_and_bin(x, out):
        # the inner cell edges are every other inner half-cell edge, so the
        # cells' runs are every other bound: bounds[0] = 0, as no agent lies
        # below 0, and bounds[-1] = n_agents closes the last cell
        bounds[1:-1] = x.searchsorted(half_edges)
        np.divide(np.diff(bounds[::2]), n_agents * sgrid.spacing(0), out=out)

    sqrt_dt = math.sqrt(tgrid.dt)
    game = params.game((nodes,))
    rows = max(1, CONTROL_BLOCK_CELLS // (2 * n_cells))
    steps = np.arange(tgrid.n_steps)[:, None]
    for start in range(0, tgrid.n_steps, rows):
        block = steps[start:start + rows]
        (g,), noises, _ = game.transport(block)
        scales, offsets = _half_cell_step(nodes, control[start:start + len(block)], g, tgrid.dt)
        for r, i in enumerate(range(start, start + len(block))):
            search_and_bin(x, hist[i])
            np.subtract(bounds[1:], bounds[:-1], out=runs)
            np.multiply(x, np.repeat(scales[r], runs), out=x)
            np.add(x, np.repeat(offsets[r], runs), out=x)
            if noises[r, 0] != 0.0:
                eps = noises[r, 0] * sqrt_dt * (1.0 - 2.0 * rng.integers(2))
                np.add(x[0::2], eps, out=spare[:n_even])
                np.subtract(x[1::2], eps, out=spare[n_even:])
                x, spare = spare, x
            x.sort(kind="stable")
            # clip to [0, 1]: x is sorted and finite, so only its two ends can lie outside
            x[:x.searchsorted(0.0)] = 0.0
            x[x.searchsorted(1.0, "right"):] = 1.0
    search_and_bin(x, hist[-1])
    return hist


def _half_cell_pieces(nodes: np.ndarray, values: np.ndarray):
    """(slope, left node, left value) of the linear piece of ``np.interp(., nodes, values)`` over each half cell.

    One entry per half cell of the centers ``nodes``: half cells 2j + 1 and
    2j + 2 lie between centers j and j + 1, and the first and last half
    cells lie beyond the outer centers, where slope 0 gives the clamped end
    values. The slope is ``np.interp``'s own formula, so
    ``slope[k] * (x - left[k]) + value[k]`` is ``np.interp`` at x in half
    cell k; rows of ``values`` give a row of slopes and values each.
    """
    n = len(nodes)
    piece = np.clip((np.arange(2 * n) - 1) // 2, 0, n - 1)
    slope = np.zeros(values.shape[:-1] + (2 * n,))
    slope[..., 1:-1] = (np.diff(values) / np.diff(nodes))[..., piece[1:-1]]
    return slope, nodes[piece], values[..., piece]


def _half_cell_step(nodes: np.ndarray, values: np.ndarray, g: float, dt: float):
    """(scale, offset): the drift step x + dt (interp(x) - g) as the affine map scale[k] x + offset[k] on half cell k.

    scale = 1 + dt slope and offset = dt (value - slope left - g) from the
    tables of ``_half_cell_pieces``; ``mc_population`` states how the two
    forms round. Rows of ``values`` and a column ``g`` give a row each.
    """
    slope, left, value = _half_cell_pieces(nodes, values)
    return 1.0 + dt * slope, dt * (value - slope * left - g)
