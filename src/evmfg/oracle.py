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
so the audit keeps its meaning. It projects the same way, and bins the
population on the solver grid. It works out one half-cell index floor(2 n x)
per agent per step and reads both its drift step and its bin from it: the
control is linear on each half cell, so the step x + dt (interp(x) - g) is
one affine map scale[k] x + offset[k] per half cell, two gathers and two
passes. The +-eps increments are read eight agents at a time from a 256 x 8
table indexed by the random bytes. Bins match ``np.histogram`` except
within about one ulp of a cell edge or center, and steps match the
interpolated step within a few ulps, so an agent that close to an edge can
land one bin over (see ``mc_population``).

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

from .ev import EvParams, _check_price
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

    A step with noise sigma*g != 0 moves each agent by its drift and then by
    exactly +eps or -eps, eps = sigma*g*sqrt(dt), with one fair bit per
    agent: the two-point increment of the simplified weak Euler scheme (see
    the module docstring), which has the Brownian increment's mean and
    variance. The bits come from random bytes of a single seeded generator
    in fixed agent order, most significant bit first (``np.unpackbits``
    order), so the result depends only on (inputs, n_agents, seed), never
    on scheduling; a step without noise draws nothing. Each byte gathers
    its eight increments at once from the 256 x 8 table
    ``np.where(bits, eps, -eps)`` (``_byte_increments``); the last byte's
    unused bits are drawn and dropped. Histogram slices have unit mass
    exactly (integer counts over n_agents).

    Each step works out one half-cell index k per agent
    (``_half_cell_index``), so no agent pays for a binary search or an edge
    correction. The binning counts its cell. The control is linear on the
    half cell, so the drift step x + dt (interp(x) - g) is the affine map
    x <- scale[k] x + offset[k], with scale = 1 + dt slope and offset =
    dt (value - slope left - g) built once per step from the half cell's
    piece (``_half_cell_step``). Bins agree with ``np.histogram`` except
    within about one ulp of a cell edge or a cell center (the edge rule in
    ``_half_cell_index``). Caveat: the map rounds differently from the
    interpolated step, so a position may differ from it by a few ulps of
    1 + dt (max|slope| + max|control| + g), and an agent within that
    distance of a cell edge can land one bin over. At the walls the slope
    is 0 and the step is exact.
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
    work = np.empty(n_agents)
    n_bytes = (n_agents + 7) // 8
    shifts = np.empty((n_bytes, 8))
    hist = np.empty((tgrid.n_nodes, sgrid.shape[0]))
    _bin_population(k, sgrid, out=hist[0])
    sqrt_dt = math.sqrt(tgrid.dt)
    nodes = sgrid.nodes(0)
    game = params.game((nodes,))
    for i in range(tgrid.n_steps):
        (g,), noise, _ = game.transport(i)
        scale, offset = _half_cell_step(nodes, control[i], g, tgrid.dt)
        # mode="clip" keeps take from buffering ``out``; k is always in range.
        np.multiply(np.take(scale, k, out=work, mode="clip"), x, out=x)
        np.add(x, np.take(offset, k, out=work, mode="clip"), out=x)
        if noise != 0.0:
            _byte_increments(rng.bytes(n_bytes), noise * sqrt_dt, out=shifts)
            np.add(x, shifts.reshape(-1)[:n_agents], out=x)
        np.clip(x, 0.0, 1.0, out=x)
        _half_cell_index(x, sgrid.shape[0], out=k)
        _bin_population(k, sgrid, out=hist[i + 1])
    return hist


def multinomial_population(density: np.ndarray, sgrid: SpaceGrid, n_agents: int, seed: int = 0) -> np.ndarray:
    """One multinomial draw of ``n_agents`` agents per time node from ``density``, binned as ``mc_population`` bins.

    ``density`` has shape ``(n_nodes, n_cells)``; each row, normalised to
    unit mass, gives the cell probabilities of its node. The sup-t L1
    distance of the result to ``density`` is the Monte Carlo audit's
    sampling floor: what ``n_agents`` exact samples of the density read, with
    no time stepping and no discretisation error. The draws come from a
    generator of their own, ``default_rng(seed)``.
    """
    if n_agents < 1:
        raise ValueError("need at least one agent")
    density = np.asarray(density, dtype=float)
    counts = np.random.default_rng(seed).multinomial(n_agents, density / density.sum(axis=1, keepdims=True))
    return counts / (n_agents * sgrid.spacing(0))


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


def _half_cell_pieces(nodes: np.ndarray, values: np.ndarray):
    """(slope, left node, left value) of the linear piece of ``np.interp(., nodes, values)`` over each half cell.

    One entry per half cell of the centers ``nodes``: half cells 2j + 1 and
    2j + 2 lie between centers j and j + 1, and the first and last half
    cells lie beyond the outer centers, where slope 0 gives the clamped end
    values. The slope is ``np.interp``'s own formula, so
    ``slope[k] * (x - left[k]) + value[k]`` is ``np.interp`` at x in half
    cell k.
    """
    n = len(nodes)
    piece = np.clip((np.arange(2 * n) - 1) // 2, 0, n - 1)
    slope = np.zeros(2 * n)
    slope[1:-1] = (np.diff(values) / np.diff(nodes))[piece[1:-1]]
    return slope, nodes[piece], values[piece]


def _half_cell_step(nodes: np.ndarray, values: np.ndarray, g: float, dt: float):
    """(scale, offset): the drift step x + dt (interp(x) - g) as the affine map scale[k] x + offset[k] on half cell k.

    scale = 1 + dt slope and offset = dt (value - slope left - g) from the
    tables of ``_half_cell_pieces``; ``mc_population`` states how the two
    forms round.
    """
    slope, left, value = _half_cell_pieces(nodes, values)
    return 1.0 + dt * slope, dt * (value - slope * left - g)


# Bit j of byte b, most significant first, as np.unpackbits reads it.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(bool)


def _byte_increments(data: bytes, eps: float, out: np.ndarray | None = None) -> np.ndarray:
    """+eps per set bit and -eps per clear bit of ``data``: one row of 8 per byte, in ``np.unpackbits`` order.

    Each byte is one gather of its row from the 256 x 8 table
    ``np.where(bits, eps, -eps)``, so ``.reshape(-1)[:n]`` is exactly
    ``eps * (2.0 * np.unpackbits(data, count=n) - 1.0)``.
    """
    table = np.where(_BYTE_BITS, eps, -eps)
    return np.take(table, np.frombuffer(data, np.uint8), axis=0, out=out, mode="clip")


def _bin_population(k: np.ndarray, sgrid: SpaceGrid, out: np.ndarray | None = None) -> np.ndarray:
    # half cells 2j and 2j + 1 make up cell j
    counts = np.bincount(k, minlength=2 * sgrid.shape[0]).reshape(-1, 2).sum(axis=1)
    return np.divide(counts, k.size * sgrid.spacing(0), out=out)
