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

Sweeps step advection explicitly, with per-step substepping under a bound that
makes a density substep write each cell as at least (1 - ``SUBSTEP_SAFETY``) m
plus nonnegative inflows (LeVeque, *Finite Volume Methods for Hyperbolic
Problems*, 2002, ch. 4): positivity and mass conservation are structural, so a
negative cell is a scheme failure, not roundoff to clamp. Diffusion joins the
substeps unless it alone breaks their bound (dt sigma^2 g^2 / dx^2 >
``SUBSTEP_SAFETY``); then the step applies the exact exponential of the
diffusion operator (``numerics.diffuse``) once, after the value substeps and
before the density substeps, so the substeps see only the advection rate; its
positive unit-sum kernel keeps the mass to roundoff and a density nonnegative.
Both sweeps take that split, the substep count and its length from one step
plan (``_step_plan``), which stops a step that would need more than
``SUBSTEP_BUDGET`` substeps before it starts them.
The value sweep uses the monotone upwind Hamiltonian of Achdou &
Capuzzo-Dolcetta (SIAM J. Numer. Anal. 48(3), 2010): the transport term
reads the forward difference where the drift alpha - g is positive and the
backward one where it is negative, and the wall ghost cells copy their
neighbour, so a drift into a wall moves nothing and the walls reflect as in
the zero-flux density sweep.

At 100-400 cells a numpy call costs more than its arithmetic, so a sweep
step makes few of them. The density sweep plans
``CONTROL_BLOCK_CELLS`` cells' worth of steps in one pass (drains,
diffusion, ``face_velocities``, outflow rates), then each step only
diffuses, substeps and checks its slice. A density substep
(``_density_substep``) is one face flux per axis, advection and explicit
diffusion together, and one divergence per axis: the finite-volume form, in
which no mass crosses a wall. It writes through buffers allocated once per
sweep; two slices alternate, because in 2D both axes' fluxes read the
entering slice, and the last substep writes m[i + 1]. The value sweep reads
its running cost and its steps' (p, g, h) and diffusion once per block of
nodes (``_value_blocks``), as floats where a node's value is one number. A
block holds at most ``CONTROL_BLOCK_CELLS`` values in each array that grows
with it, and a number per node grows by one value, so a battery sweep
whose running cost ignores t reads them once.
``_hamiltonian`` takes the two branches in closed form on the cells, from
one array of face differences, and gives the value step all it reads
besides: the control, written into the control field, the move |a - g| that
sets the substep rate, and the differences whose own differences are the
explicit diffusion term. The running cost and that term accumulate into the
Hamiltonian's fresh result, which scaled by the substep lands in v[i].
Where only the minimiser is read (``optimal_control``, and the sweep at
node 0) the same stencil skips the Hamiltonian's value. Neither sweep calls
a difference stencil of ``numerics``. A temporary with a slice per node
stays within a block's bound, as whole-run ones cost 2D memory.

The sweeps and the control below serve the two-pack model in ``phev`` too:
they read a model only through the per-axis ``Game`` its params build.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DivergenceError, ScenarioError, as_float
from .grids import SpaceGrid, TimeGrid
from .numerics import (
    SUBSTEP_SAFETY,
    AxisIndex,
    axis_index,
    diffuse,
    face_velocities,
    integrate,
    mean_rate,
    substep_count,
)
from .numerics import diff_central  # noqa: F401  (perfbench's trace rebinds it by name)

MASS_TOLERANCE = 1e-6
# The most substeps one sweep step may take. The most that a run known to
# converge asks for is 336,773 (143 x 100 with H = 1, exponent 4, after 137
# iterations); runs that never end ask for millions after a price overshoot.
SUBSTEP_BUDGET = 500_000
CONTROL_BLOCK_CELLS = 4096  # cells per call in optimal_control: temporaries of 32 KiB


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
    COSTS = ("f", "kappa")  # the scenario's cost keys: running, then terminal
    PRICE = ("exponent", "coupled")  # the scenario's price keys, defaults below

    tgrid: TimeGrid
    g: np.ndarray
    sigma: np.ndarray
    H: np.ndarray
    d: np.ndarray
    f: Callable[[float, np.ndarray], np.ndarray]
    kappa: Callable[[np.ndarray], np.ndarray]
    exponent: float = 2.0
    coupled: bool = True

    def __post_init__(self) -> None:
        self._check_series(positive=("H",), nonnegative=("sigma",))
        self.exponent = as_float(self.exponent, "price.exponent")
        if not isinstance(self.coupled, (bool, np.bool_)):
            raise ScenarioError("price.coupled", "expected a boolean")
        # The price base [g + d/dt int x m]+ + d is at least d, and may equal it.
        if not self.exponent.is_integer() and np.any(self.d < 0.0):
            raise ScenarioError("price.exponent", "a fractional exponent needs series.d >= 0 at every node")
        if self.exponent < 0.0 and np.any(self.d <= 0.0):
            raise ScenarioError("price.exponent", "a negative exponent needs series.d > 0 at every node")

    def game(self, points: tuple[np.ndarray, ...]) -> Game:
        """This game on the battery levels ``points`` = (x,); a node index may be a column of nodes."""
        (x,), t = points, self.tgrid.nodes
        # one node's sigma ** 2 calls C pow, which may round away from the x * x of an array's ** 2;
        # np.float_power calls pow on arrays too, so a column of nodes has each node's bits
        diffusion = np.float_power(self.sigma, 2) * np.float_power(self.g, 2)

        def transport(i):
            g = self.g[i]
            return (g,), self.sigma[i] * g, diffusion[i]

        def axes(p, j, drains):
            return [(p[j], drains[0], self.H[j])]

        return Game(lambda: self.kappa(x), lambda j: self.f(t[j], x), transport, axes)


class Game(NamedTuple):
    """A game's coefficients on a set of points: all that the sweeps, control and audits read of a model.

    The params' ``game`` builds it. ``terminal()`` and ``running(j)`` are the
    costs on the points. ``transport(i)`` gives the per-axis drains g_k, the
    noise sigma g and the diffusion sigma^2 g^2 at node i, and
    ``axes(p, j, drains)`` the per-axis ``(p, g, h)`` terms of
    ``_hamiltonian_sum`` from ``transport(j)``'s drains. A node index may
    be a column of nodes, one per leading row against the points: the
    sweeps and the control read a block of nodes in one call. So a running
    cost must broadcast over a column of times, and it gives each node's
    bits only if its arithmetic rounds the same on an array as on one
    node's scalar: a scalar power of t calls C ``pow`` on one node and may
    round otherwise than ``x * x`` on a column (the battery's diffusion
    takes ``np.float_power`` for that reason). A cost that ignores t may
    return one slice for the whole column.
    """

    terminal: Callable[[], np.ndarray]
    running: Callable
    transport: Callable
    axes: Callable

    def hamiltonian(self, p, j) -> list:
        """The per-axis ``(p, g, h)`` terms at node j."""
        return self.axes(p, j, self.transport(j)[0])

    def step(self, p, j) -> tuple:
        """(Hamiltonian terms, running cost, noise, diffusion) at node j: what a DP step and ``ev_cost`` read."""
        drains, noise, diffusion = self.transport(j)
        return self.axes(p, j, drains), self.running(j), noise, diffusion


def _check_initial_density(m0: np.ndarray, sgrid) -> np.ndarray:
    """``m0`` as a float array, which must match the grid, have unit mass and no negative cell (``ScenarioError``)."""
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != sgrid.shape:
        raise ScenarioError("initial_density", "m0 does not match the space grid")
    mass = integrate(m0, sgrid)
    if not abs(mass - 1.0) <= MASS_TOLERANCE:
        raise ScenarioError("initial_density", f"initial density mass {mass} deviates from 1 beyond {MASS_TOLERANCE}")
    low = float(m0.min())
    if low < 0.0:
        raise ScenarioError("initial_density", f"m0 has a cell at {low:.3e}, below 0")
    return m0


def _check_density_slice(m: np.ndarray, time_node: int) -> np.ndarray:
    """``m``, which must be finite with no cell below 0 by any margin, as the scheme keeps it (``DivergenceError``)."""
    # a NaN gives both NaN; the ufuncs' own reductions skip the ndarray methods' Python call
    low, high = float(np.minimum.reduce(m, None)), float(np.maximum.reduce(m, None))
    if not (math.isfinite(low) and math.isfinite(high)):
        raise DivergenceError("density slice is not finite", time_node)
    if low < 0.0:
        raise DivergenceError(f"density slice has a cell at {low:.3e}, below 0", time_node)
    return m


def _check_price(price, tgrid: TimeGrid) -> np.ndarray:
    """``price`` as a float array of one value per node of ``tgrid`` (``ValueError``), all finite (``DivergenceError``)."""
    price = np.asarray(price, dtype=float)
    if price.shape != (tgrid.n_nodes,):
        found = f"{len(price)} values" if price.ndim == 1 else f"shape {price.shape}"
        raise ValueError(f"price series has {found}, expected {tgrid.n_nodes}: one per time node")
    bad = np.flatnonzero(~np.isfinite(price))
    if bad.size:
        raise DivergenceError("non-finite price", int(bad[0]))
    return price


def ev_load(m: np.ndarray, params: EvParams, sgrid: SpaceGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per time node: (purchases g + d/dt int x m, load purchases + d, load purchases.mean() + d of flat purchases)."""
    purchases = params.g + mean_rate(m, sgrid, params.tgrid)
    return purchases, purchases + params.d, float(purchases.mean()) + params.d


def ev_price(m: np.ndarray, params: EvParams, sgrid: SpaceGrid) -> np.ndarray:
    """Price series p_i = ([g_i + d/dt int x m]+ + d_i)^exponent, the bracket being ``ev_load``'s purchases.

    With ``coupled`` off the vehicle demand term is zeroed, which makes the price
    a pure function of d: the tests' decoupled fixed point, demo 04's demand-only price.
    """
    if params.coupled:
        inner = np.maximum(ev_load(m, params, sgrid)[0], 0.0)
    else:
        inner = np.zeros(params.tgrid.n_nodes)
    return (inner + params.d) ** params.exponent


def _geometry(sgrid) -> list[tuple[float, AxisIndex]]:
    """Spacing and ``axis_index`` of every axis of the grid, worked out once per sweep."""
    return [(sgrid.spacing(axis), axis_index(axis)) for axis in range(len(sgrid.shape))]


def _face_buffers(shape: tuple[int, ...], axes) -> list[np.ndarray]:
    """Per axis in ``axes``, zeros of ``shape`` with one more entry along that axis: a face array whose walls stay 0."""
    return [np.zeros([n + (k == axis) for k, n in enumerate(shape)]) for axis in axes]


def _hamiltonian(v, p, g, h, dx: float, at: AxisIndex, slopes: np.ndarray, out=None, value: bool = True):
    """Monotone upwind Hamiltonian along the axis ``at`` indexes: (F or None, its minimiser or None, the move w).

    F = min_a [(a-g)+ D+v + (a-g)- D-v + a p + h a^2 / 2]. ``slopes`` (a
    ``_face_buffers`` array) gets the face differences d, zero at the
    walls: the wall ghost cells copy their neighbour, so D-v = d[lo] is
    zero in the first cell and D+v = d[hi] in the last, and the walls
    reflect. Each branch is a clipped quadratic in the control. With the
    face candidates c = -(d + p) / h, the branch a <= g moves by
    e0 = min(c[lo] - g, 0) from g and the branch a >= g by
    e1 = max(c[hi] - g, 0); a branch that moves by e lowers
    g p + h g^2 / 2 by h e^2 / 2, so F takes the larger move w =
    max(e1, -e0) and the minimiser is g + e1 where e1 > -e0, else
    g + e0 (a tie takes D-v), so w is |a - g| up to the rounding of a.
    The coefficients broadcast against ``v``. F is a fresh array, computed
    only where ``value`` is set: the control alone needs the face
    differences, the candidates and w, not F. The minimiser is written into
    ``out`` where one is given, else not computed.
    """
    inner = np.subtract(v[at.hi], v[at.lo], out=slopes[at.inner])
    inner /= dx
    c = slopes + p
    c /= -h  # the bits of -(d + p) / h
    up = c[at.hi] - g  # e1 before its clip
    down = g - c[at.lo]  # -e0 before its clip
    w = np.maximum(up, down)
    np.maximum(w, 0.0, out=w)
    f = None
    if value:
        half_h = 0.5 * h
        f = w * w
        f *= half_h
        np.subtract(g * p + half_h * (g * g), f, out=f)
    if out is None:
        return f, None, w
    down -= up  # its sign picks the branch: negative for e1, else e0 = -w
    return f, np.subtract(g, np.copysign(w, down, out=down), out=out), w


def _hamiltonian_sum(v, axes, geometry, slopes, out=None, value: bool = True) -> tuple[np.ndarray | None, list]:
    """Sum of ``_hamiltonian`` over the axes (a ``(p, g, h)``, a ``_geometry`` entry and a slopes buffer each).

    Also per axis its move w. Where ``out`` holds one array per axis, each
    axis's minimiser goes into its own; without it none is computed. The
    sum is a fresh array, or None where ``value`` is off and no axis
    computes its F. ``slopes`` holds each axis's face differences after the
    call.
    """
    ham, moves = None, []
    for (p, g, h), (dx, at), d, a in zip(axes, geometry, slopes, out or [None] * len(axes)):
        f, _, w = _hamiltonian(v, p, g, h, dx, at, d, a, value)
        ham = f if ham is None else np.add(ham, f, out=ham)  # without F, f and so ham stay None
        moves.append(w)
    return ham, moves


def _step_plan(dt: float, diff: float, dx2: float, rates, what: str, node: int) -> tuple[int, float, float, float]:
    """(substeps, substep length, explicit coefficient, exact diffusion time) of a sweep step dt.

    The explicit rate sums the diffusion rate diff / dx2, then the per-axis
    advection ``rates``. Where diffusion alone breaks the substep bound
    (dt diff / dx2 > ``SUBSTEP_SAFETY``), it leaves the substeps, which then
    carry none of it, for an exact ``diffuse`` over the time dt diff / 2. A
    rate that is not finite or needs more than ``SUBSTEP_BUDGET`` substeps
    raises ``DivergenceError`` on the sweep's ``what`` at ``node``.
    """
    rate, half_diff, diffusion_time = diff / dx2, 0.5 * diff, 0.0
    if dt * rate > SUBSTEP_SAFETY:
        rate, half_diff, diffusion_time = 0.0, 0.0, 0.5 * diff * dt
    for axis_rate in rates:
        rate += axis_rate
    if not math.isfinite(rate):
        raise DivergenceError(f"non-finite {what}", node)
    n_sub = substep_count(dt, rate)
    if n_sub > SUBSTEP_BUDGET:
        raise DivergenceError(f"{n_sub} substeps in one step at rate {rate:.6g}, over the budget of "
                              f"{SUBSTEP_BUDGET}, for the {what}", node)
    return n_sub, dt / n_sub, half_diff, diffusion_time


def _per_node(c, n: int) -> list:
    """A coefficient of a block of n nodes, per node: a float where a node's value is one number, else its slice."""
    c = np.asarray(c)
    if c.ndim == 0:
        return [c.item()] * n
    return c.ravel().tolist() if c.size == n else list(c)


def _value_blocks(game: Game, p: np.ndarray, n_nodes: int, shape: tuple[int, ...]):
    """The value sweep's blocks of nodes 1 .. n_nodes - 1, the last first: (start, stop, running cost, diffusion, axes).

    A block reads its running cost, ``transport`` and ``axes`` in one call
    each, as a call per node costs more than its arithmetic. It is at
    least two nodes long (the last block may be shorter) and holds at most
    ``CONTROL_BLOCK_CELLS`` values in each array that grows with it, unless
    two nodes' slices exceed that. A number per node (the battery's
    coefficients, the price) grows by one value a node and a slice per node
    (the packs' drains, a running cost of t) by a slice. A running cost
    that ignores t, one slice with no node axis, does not grow: it is read
    once and serves every block. The last nodes are read first, as many as
    if every array held a slice per node; what they give sets the block
    length, and where that length differs they are read again as a block
    of it (the running cost only if it grows).
    """
    nodes = np.arange(n_nodes).reshape((-1,) + (1,) * len(shape))
    top = max(1, n_nodes - max(2, CONTROL_BLOCK_CELLS // math.prod(shape)))
    first = nodes[top:]
    running = game.running(first)
    fixed = np.ndim(running) <= len(shape)
    drains, _, diffs = game.transport(first)
    held = [*drains, diffs, *(c for axis in game.axes(p, first, drains) for c in axis)] + ([] if fixed else [running])
    per_node = max([np.size(c) // len(first) for c in held if np.ndim(c) > len(shape)] + [1])
    rows = max(2, CONTROL_BLOCK_CELLS // per_node)
    for stop in range(n_nodes, 1, -rows):
        start = max(1, stop - rows)
        block = nodes[start:stop]
        if not fixed and (start, stop) != (top, n_nodes):
            running = game.running(block)
        drains, _, diffs = game.transport(block)
        yield start, stop, running, diffs, game.axes(p, block, drains)


def hjb_backward_sweep(p: np.ndarray, params: _SeriesParams, sgrid: SpaceGrid, out=None):
    """Backward value sweep of either game, v(T, .) = the terminal cost: (v, control).

    Each step reads the params' game at its right endpoint and takes equal
    explicit substeps within the stability bound of the rate sum
    max|a - g| / dx + diff / dx^2, so every substep is monotone. Where the
    diffusion term alone breaks that bound (``_step_plan``), the
    substeps advect only and the step ends with the exact diffusion
    ``diffuse``: advect, then diffuse. The control equals
    ``optimal_control(v, p, params, sgrid)``: one field per axis, (alpha,)
    for the battery and (mu1, mu2) for the packs. An earlier sweep's
    (v, control) on the same grid, passed as ``out``, is overwritten and
    returned instead of new arrays. The running cost and the steps'
    coefficients are read per block of nodes (``Game``), so the running
    cost must broadcast over a column of times. A block is as long as
    ``_value_blocks`` lets the values per node it holds be: the whole sweep
    for the battery with a cost that ignores t. The update lands in
    ``v[i]`` and the minimiser in ``control[k][j]`` in place.
    """
    tgrid = params.tgrid
    p = _check_price(p, tgrid)
    game = params.game(sgrid.meshes())
    if out is None:
        v = np.empty((tgrid.n_nodes,) + sgrid.shape)
        # One array per axis, not one block: freeing a block larger than a field
        # lifts glibc's mmap threshold above the field size, later fields then
        # come from the heap, and the 2D benchmark's peak RSS rose by 5%.
        control = tuple(np.empty_like(v) for _ in sgrid.shape)
    else:
        v, control = out
    v[-1] = game.terminal()
    geometry = _geometry(sgrid)
    slopes = _face_buffers(sgrid.shape, range(len(sgrid.shape)))
    (dx, at), d = geometry[0], slopes[0]  # a game's diffusion acts along axis 0, the battery's one axis
    dt, dx2 = tgrid.dt, dx ** 2
    second = np.empty(sgrid.shape)  # a substep's explicit second difference
    for start, stop, running, diffs, block_axes in _value_blocks(game, p, tgrid.n_nodes, sgrid.shape):
        n = stop - start
        running = np.broadcast_to(running, (n,) + sgrid.shape)
        diffs = _per_node(diffs, n)
        # per node of the block: its (p, g, h) per axis, and its slice of each control
        terms = [zip(*(_per_node(c, n) for c in axis)) for axis in block_axes]
        node_axes, node_controls = list(zip(*terms)), list(zip(*(a[start:stop] for a in control)))
        for row in range(n - 1, -1, -1):
            j = start + row
            i, axes, cur = j - 1, node_axes[row], v[j]
            ham, moves = _hamiltonian_sum(cur, axes, geometry, slopes, node_controls[row])
            # the ufuncs' own reductions: the ndarray methods add a Python call to each
            rates = (float(np.maximum.reduce(w, None)) / spacing for w, (spacing, _) in zip(moves, geometry))
            n_sub, dt_sub, half_diff, diffusion_time = _step_plan(
                dt, diffs[row], dx2, rates, "coefficients in backward sweep", i)
            for k in range(n_sub):
                if k:
                    ham, _ = _hamiltonian_sum(cur, axes, geometry, slopes)
                ham += running[row]
                if half_diff > 0.0:  # the Neumann second difference of cur
                    np.subtract(d[at.hi], d[at.lo], out=second)
                    second /= dx
                    second *= half_diff
                    ham += second
                ham *= dt_sub
                cur = np.add(cur, ham, out=v[i])
            if diffusion_time:
                cur = v[i] = diffuse(cur, diffusion_time, sgrid)
            if not np.logical_and.reduce(np.isfinite(cur), None):
                raise DivergenceError("value slice is not finite", i)
    _hamiltonian_sum(v[0], game.hamiltonian(p, 0), geometry, slopes, [a[0] for a in control], value=False)
    return v, control


def _density_substep(m: np.ndarray, faces, scales, fluxes, geometry, products, div: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """One explicit density substep into ``out``: m - (dt_sub / dx)(F[hi] - F[lo]) summed over the axes, F the face flux.

    Per axis, ``faces`` stacks u+ + k and u- - k on the interior faces, u+
    and u- the split ``face_velocities`` and k the explicit diffusion
    (diff / 2) / dx (0 off the battery's axis), and ``scales`` holds
    dt_sub / dx. The face flux F = (u+ + k) m[lo] + (u- - k) m[hi] takes
    the upwind cell and the diffusive difference at once. It fills that
    axis's ``_face_buffers`` array in ``fluxes``, whose walls stay 0, so
    the cell sum telescopes. ``products`` holds a buffer of each axis's
    interior faces for the second product, ``div`` one of the slice's
    shape for the divergence. ``out`` must not be ``m``: every axis's flux
    reads the entering slice.
    """
    new = m
    for u, scale, flux, product, (_, at) in zip(faces, scales, fluxes, products, geometry):
        inner = flux[at.inner]
        np.multiply(u[0], m[at.lo], inner)
        inner += np.multiply(u[1], m[at.hi], product)
        np.subtract(flux[at.hi], flux[at.lo], div)
        div *= scale
        new = np.subtract(new, div, out)
    return new


def fpk_forward_sweep(alpha, m0: np.ndarray, params: _SeriesParams, sgrid: SpaceGrid, out=None) -> np.ndarray:
    """Forward density sweep of either game under the drifts alpha_k - g_k.

    ``alpha`` is a control of ``optimal_control``'s shape: one field of
    shape (n_nodes, *cells) per axis, (alpha,) for the battery and (mu1,
    mu2) for the packs (``ValueError``). Each step reads the params' game
    at its left endpoint and takes explicit substeps (``_density_substep``)
    under the value sweep's bound: one face flux per axis that takes the
    upwind cell, with the diffusion term on the battery's axis. Where that
    term alone breaks the bound (``_step_plan``), the step first diffuses
    exactly (``diffuse``) and the substeps advect only: the value step's
    order, transposed. An earlier sweep's density on the same grid, passed
    as ``out``, is overwritten and returned instead of a new array. Blocks
    of steps are planned at once.
    """
    tgrid = params.tgrid
    shape = (tgrid.n_nodes,) + sgrid.shape
    if len(alpha) != len(sgrid.shape) or any(np.shape(a) != shape for a in alpha):
        raise ValueError(f"control needs one field of shape {shape} per axis, got {[np.shape(a) for a in alpha]}")
    game = params.game(sgrid.meshes())
    m = np.empty(shape) if out is None else out
    m[0] = _check_initial_density(m0, sgrid)
    geometry = _geometry(sgrid)
    dt, dx = tgrid.dt, sgrid.spacing(0)
    dx2 = dx ** 2
    fluxes = _face_buffers(sgrid.shape, range(len(sgrid.shape)))
    products = [np.empty_like(flux[at.inner]) for flux, (_, at) in zip(fluxes, geometry)]
    div = np.empty(sgrid.shape)
    # a substep's own slice: two alternate, so that no substep writes the slice it reads, and the last writes m[i + 1]
    slices = (np.empty(sgrid.shape), np.empty(sgrid.shape))
    # at least two steps a block: a one-step block pays the block's set-up for one step
    rows = max(2, CONTROL_BLOCK_CELLS // m[0].size)
    steps = np.arange(tgrid.n_steps).reshape((-1,) + (1,) * len(sgrid.shape))
    cells = tuple(range(1, len(shape)))  # the cell axes of a block of slices
    for start in range(0, tgrid.n_steps, rows):
        block = steps[start:start + rows]
        drains, _, diffs = game.transport(block)
        faces = [face_velocities(a[start:start + len(block)] - g, sgrid, axis)
                 for axis, (a, g) in enumerate(zip(alpha, drains))]
        # per step and axis, the worst-case outflow rate of the upwind flux: (max u+ - min u-) / dx
        outflow = [[(high - low) / dx for high, low in zip(u[0].max(cells, initial=0.0).tolist(),
                                                          u[1].min(cells, initial=0.0).tolist())]
                   for u, (dx, _) in zip(faces, geometry)]
        diffs = np.ravel(diffs).tolist()
        diffs *= len(block) // len(diffs)  # a game without noise gives one 0.0 for the block
        # a step that diffuses explicitly adds k = (diff / 2) / dx to the battery axis's faces: u+ + k and u- - k
        diffusive = faces
        if any(diffs):
            k = (0.5 * np.array(diffs) / dx).reshape(block.shape)
            diffusive = [np.stack((faces[0][0] + k, faces[0][1] - k))] + faces[1:]
        for i, diff, *rates in zip(range(start, start + len(block)), diffs, *outflow):
            n_sub, dt_sub, half_diff, diffusion_time = _step_plan(dt, diff, dx2, rates, "drift in forward sweep", i + 1)
            step_faces = [u[:, i - start] for u in (diffusive if half_diff else faces)]
            scales = [dt_sub / spacing for spacing, _ in geometry]
            cur = diffuse(m[i], diffusion_time, sgrid) if diffusion_time else m[i]
            for left in range(n_sub - 1, -1, -1):  # the substeps left after this one
                cur = _density_substep(cur, step_faces, scales, fluxes, geometry, products, div,
                                       slices[left % 2] if left else m[i + 1])
            m[i + 1] = _check_density_slice(cur, i + 1)
    return m


def optimal_control(v: np.ndarray, p: np.ndarray, params: _SeriesParams, sgrid: SpaceGrid):
    """Minimiser of the upwind Hamiltonian at every (time, cell) node, one field per axis: (alpha,) or (mu1, mu2).

    Away from the walls pack k's rate is -(dv/dz_k + p_k) / h_k, taken from
    the side its drift points to. In a wall cell a drift into the wall
    moves no charge, so that branch is -p_k / h_k (at the empty wall of the
    battery, the selling rate -p / H). Only the minimiser is computed
    (``_hamiltonian`` without F): it takes the face differences, the
    candidates and the moves, and has the bits of the value sweep's control.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[1:] != sgrid.shape:
        raise ValueError(f"value field shape {v.shape} does not match grid {sgrid.shape}")
    if len(v) != params.tgrid.n_nodes:
        raise ValueError(f"value field has {len(v)} time nodes, expected {params.tgrid.n_nodes}: one per time node")
    p = _check_price(p, params.tgrid)
    game = params.game(sgrid.meshes())
    # One call covers a block of time nodes, a column of nodes against the
    # grid. Blocks of CONTROL_BLOCK_CELLS cells keep ``_hamiltonian``'s
    # temporaries in cache: whole-field ones slowed verify, and on the
    # packs' grid they raised the peak memory.
    rows = max(1, CONTROL_BLOCK_CELLS // v[0].size)
    nodes = np.arange(len(v)).reshape((-1,) + (1,) * len(sgrid.shape))
    geometry = [(sgrid.spacing(axis), axis_index(axis + 1)) for axis in range(len(sgrid.shape))]
    control = tuple(np.empty_like(v) for _ in sgrid.shape)
    slopes = None
    for block in (slice(start, start + rows) for start in range(0, len(v), rows)):
        if slopes is None or slopes[0].shape[0] != len(v[block]):  # the first block, and a shorter last one
            slopes = _face_buffers(v[block].shape, range(1, v.ndim))
        _hamiltonian_sum(v[block], game.hamiltonian(p, nodes[block]), geometry, slopes, [a[block] for a in control],
                         value=False)
    return control


def ev_cost(alpha: np.ndarray, m: np.ndarray, p: np.ndarray, params: EvParams, sgrid: SpaceGrid) -> float:
    """Population-averaged cost of a control field along a density flow."""
    if alpha.shape != m.shape or len(p) != m.shape[0]:
        raise ValueError("alpha, m and p shapes are inconsistent")
    tgrid = params.tgrid
    p = _check_price(p, tgrid)
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

    def hjb(self, p: np.ndarray, out=None) -> tuple[np.ndarray, tuple[np.ndarray]]:
        return hjb_backward_sweep(p, self.params, self.sgrid, out)

    def control(self, v: np.ndarray, p: np.ndarray) -> tuple[np.ndarray]:
        return optimal_control(v, p, self.params, self.sgrid)

    def fpk(self, alpha: tuple[np.ndarray], out=None) -> np.ndarray:
        return fpk_forward_sweep(alpha, self.m0, self.params, self.sgrid, out)
