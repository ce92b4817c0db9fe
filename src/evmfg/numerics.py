"""Finite-difference operators and quadrature on cell-centered grids.

All operators act on a single time slice. Boundary handling is fixed by the
no-flux (reflecting) walls of the model:

* ``diff_central``: second order in the interior, first-order one-sided at
  the two boundary cells (exact for affine slices at interior nodes). The
  one-sided wall rows impose no wall condition, so they do not reflect: a
  value sweep built on them would read past the wall. No sweep uses it;
  both value sweeps take upwind differences with reflecting ghost cells
  (``ev._hamiltonian``), and tests keep it as a reference operator.
* ``diff_upwind``: conservative upwind divergence of a flux ``drift * f``
  with zero flux through the walls; discrete mass is conserved exactly.
* ``diff2``: 3-point second difference with Neumann ghost cells (ghost value
  equals the adjacent interior value), also exactly conservative.

2D fields use the same stencils axis by axis (pass ``axis=0`` for z1,
``axis=1`` for z2).
"""

from __future__ import annotations

import math

import numpy as np

from .grids import SpaceGrid1D, SpaceGrid2D, TimeGrid


def _resolve_axis(f: np.ndarray, grid, axis: int | None) -> tuple[int, float]:
    """Validate the slice shape against the grid, return (axis, spacing)."""
    if isinstance(grid, SpaceGrid1D):
        if f.shape != grid.shape:
            raise ValueError(f"slice shape {f.shape} does not match grid {grid.shape}")
        return 0, grid.dx
    if isinstance(grid, SpaceGrid2D):
        if f.shape != grid.shape:
            raise ValueError(f"slice shape {f.shape} does not match grid {grid.shape}")
        if axis not in (0, 1):
            raise ValueError("axis (0 for z1, 1 for z2) is required on 2D grids")
        return axis, grid.spacing(axis)
    raise TypeError(f"unsupported grid type {type(grid).__name__}")


def diff_central(f: np.ndarray, grid, axis: int | None = None) -> np.ndarray:
    """Central difference with one-sided first-order boundary stencils."""
    ax, dx = _resolve_axis(np.asarray(f, dtype=float), grid, axis)
    g = np.moveaxis(np.asarray(f, dtype=float), ax, 0)
    out = np.empty_like(g)
    out[1:-1] = (g[2:] - g[:-2]) / (2.0 * dx)
    out[0] = (g[1] - g[0]) / dx
    out[-1] = (g[-1] - g[-2]) / dx
    return np.moveaxis(out, 0, ax)


def diff_upwind(f: np.ndarray, drift: np.ndarray, grid, axis: int | None = None) -> np.ndarray:
    """Divergence of the upwind flux ``drift * f`` with zero-flux walls.

    Face velocities are averages of the adjacent cell values of ``drift``;
    each face flux takes the density from its upwind cell. The cell sum of
    the output times the cell volume telescopes to zero.
    """
    f = np.asarray(f, dtype=float)
    drift = np.asarray(drift, dtype=float)
    if drift.shape != f.shape:
        raise ValueError(f"drift shape {drift.shape} does not match slice {f.shape}")
    ax, dx = _resolve_axis(f, grid, axis)
    g = np.moveaxis(f, ax, 0)
    d = np.moveaxis(drift, ax, 0)
    u = 0.5 * (d[:-1] + d[1:])
    flux_interior = np.maximum(u, 0.0) * g[:-1] + np.minimum(u, 0.0) * g[1:]
    flux = np.zeros((g.shape[0] + 1,) + g.shape[1:])
    flux[1:-1] = flux_interior
    out = (flux[1:] - flux[:-1]) / dx
    return np.moveaxis(out, 0, ax)


def diff2(f: np.ndarray, grid, axis: int | None = None) -> np.ndarray:
    """3-point second difference with Neumann ghost cells."""
    ax, dx = _resolve_axis(np.asarray(f, dtype=float), grid, axis)
    g = np.moveaxis(np.asarray(f, dtype=float), ax, 0)
    out = np.empty_like(g)
    out[1:-1] = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / (dx * dx)
    out[0] = (g[1] - g[0]) / (dx * dx)
    out[-1] = (g[-2] - g[-1]) / (dx * dx)
    return np.moveaxis(out, 0, ax)


def integrate(f: np.ndarray, grid) -> float:
    """Midpoint quadrature over the whole grid."""
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape:
        raise ValueError(f"slice shape {f.shape} does not match grid {grid.shape}")
    return float(f.sum() * grid.cell_volume)


def space_mean(slice_values: np.ndarray, grid) -> float:
    """First moment of a density slice: the battery-level mean."""
    if isinstance(grid, SpaceGrid1D):
        coord = grid.nodes
    else:
        coord = grid.meshes()[0]
    return integrate(np.asarray(slice_values) * coord, grid)


def mean_rate(m: np.ndarray, grid, tgrid: TimeGrid) -> np.ndarray:
    """Forward-difference time derivative of the density's first moment.

    On a 2D grid the moment is taken along z1 (the battery axis). The rate
    of interval i is attributed to time node i; the final node reuses the
    last interval's rate, leaving one value per node.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[0] != tgrid.n_nodes:
        raise ValueError(f"expected {tgrid.n_nodes} time slices, got {m.shape[0]}")
    if m.shape[0] < 2:
        raise ValueError("need at least 2 time slices")
    if isinstance(grid, SpaceGrid1D):
        coord = grid.nodes
    else:
        coord = grid.meshes()[0]
    means = (m * coord).reshape(m.shape[0], -1).sum(axis=1) * grid.cell_volume
    rates = np.empty(tgrid.n_nodes)
    rates[:-1] = np.diff(means) / tgrid.dt
    rates[-1] = rates[-2]
    return rates


def substep_count(dt: float, rate: float, safety: float = 0.9) -> int:
    """Smallest count of equal substeps with ``dt_sub * rate <= safety``.

    ``rate`` is the total explicit update rate (advection speeds over cell
    widths plus diffusion coefficients over squared widths). The bound keeps
    every upwind/diffusion update a convex combination of neighbor values.
    """
    if rate <= 0.0 or dt * rate <= safety:
        return 1
    return int(math.ceil(dt * rate / safety))
