"""Finite-difference operators and quadrature on cell-centered grids.

All operators act on a single time slice. Boundary handling is fixed by the
no-flux (reflecting) walls of the model:

* ``diff_central``: second order in the interior, first-order one-sided at
  the two boundary cells (exact for affine slices at interior nodes). The
  one-sided wall rows impose no wall condition, so they do not reflect: a
  value sweep built on them would read past the wall. No sweep uses it;
  both value sweeps take upwind differences with reflecting ghost cells
  (``ev._hamiltonian``), and tests keep it as a reference operator.
  The value sweeps call no stencil here: ``ev._hamiltonian`` takes its face
  differences inline, and their differences give the sweeps' diffusion
  term, which is ``diff2`` up to roundoff.
* ``diff_upwind``: conservative upwind divergence of a flux ``drift * f``
  at the split face velocities of ``face_velocities`` (once per block of
  sweep steps), zero through the walls; discrete mass is conserved exactly.
* ``diff2``: 3-point second difference with Neumann ghost cells (ghost value
  equals the adjacent interior value), also exactly conservative.
* ``diffuse``: ``exp(kappa * diff2)`` as one positive unit-sum convolution on
  the even reflection of the slice, which keeps constants, the cell sum and
  nonnegativity; the sweeps take it when diffusion breaks the explicit bound.

The stencils take any axis of the grid (``axis=k``; on the 2D grid 0 is z1
and 1 is z2), and the axis may be left out only on a one-axis grid. A stencil
reads its neighbours along the axis through the index tuples of
``axis_index`` (``[:-1]``, ``[1:]``, ``[1:-1]``, ... along that axis, full
slices before it), built once per axis and shared with the upwind
Hamiltonian in ``ev``. It never moves the axis to the front, so a call costs
its arithmetic plus the shape check, and each output cell comes from the
same operations in the same order on every axis.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .grids import TimeGrid

SUBSTEP_SAFETY = 0.9  # the largest explicit substep, as a share of the stability limit


def _resolve_axis(shape: tuple[int, ...], grid, axis: int | None) -> tuple[int, float]:
    """Validate the slice shape and the axis against the grid, return (axis, spacing)."""
    if shape != grid.shape:
        raise ValueError(f"slice shape {shape} does not match grid {grid.shape}")
    axis = 0 if axis is None and len(shape) == 1 else axis
    if axis is None or not 0 <= axis < len(shape):
        raise ValueError(f"axis must be one of the grid's {len(shape)} axes, got {axis}")
    return axis, grid.spacing(axis)


class AxisIndex(NamedTuple):
    """Index tuples that select cells along one axis of a field."""

    lo: tuple  # [:-1], the cell below each interior face
    hi: tuple  # [1:], the cell above each interior face
    inner: tuple  # [1:-1]
    below: tuple  # [:-2], the lower neighbour of each inner cell
    above: tuple  # [2:], the upper neighbour of each inner cell
    first: tuple  # [0]
    second: tuple  # [1]
    penult: tuple  # [-2]
    last: tuple  # [-1]


@functools.cache
def axis_index(axis: int) -> AxisIndex:
    """The ``AxisIndex`` of ``axis`` (>= 0): full slices before it, the cell index on it."""
    lead = (slice(None),) * axis
    cells = (slice(None, -1), slice(1, None), slice(1, -1), slice(None, -2), slice(2, None), 0, 1, -2, -1)
    return AxisIndex(*(lead + (cell,) for cell in cells))


def diff_central(f: np.ndarray, grid, axis: int | None = None) -> np.ndarray:
    """Central difference with one-sided first-order boundary stencils."""
    f = np.asarray(f, dtype=float)
    ax, dx = _resolve_axis(f.shape, grid, axis)
    at = axis_index(ax)
    out = np.empty_like(f)
    out[at.inner] = (f[at.above] - f[at.below]) / (2.0 * dx)
    out[at.first] = (f[at.second] - f[at.first]) / dx
    out[at.last] = (f[at.last] - f[at.penult]) / dx
    return out


def face_velocities(drift: np.ndarray, grid, axis: int | None = None) -> np.ndarray:
    """Interior face averages of a cell ``drift`` along ``axis``: row 0 their positive, row 1 their negative parts.

    A stack of slices on a leading axis of ``drift`` gives its faces stacked on axis 1.
    """
    drift = np.asarray(drift, dtype=float)
    stacked = drift.ndim > len(grid.shape)
    at = axis_index(_resolve_axis(drift.shape[stacked:], grid, axis)[0] + stacked)
    u = 0.5 * (drift[at.lo] + drift[at.hi])
    faces = np.empty((2,) + u.shape)
    np.maximum(u, 0.0, out=faces[0])
    np.minimum(u, 0.0, out=faces[1])
    return faces


def diff_upwind(f: np.ndarray, faces: np.ndarray, grid, axis: int | None = None, flux=None) -> np.ndarray:
    """Divergence of the upwind flux with zero-flux walls, at the ``face_velocities`` ``faces``.

    Each face flux takes the density from its upwind cell. The cell sum of
    the output times the cell volume telescopes to zero. A sweep may pass a
    ``flux`` buffer to reuse: zero walls, one face more than the cells.
    """
    f = np.asarray(f, dtype=float)
    ax, dx = _resolve_axis(f.shape, grid, axis)
    shape = f.shape[:ax] + (f.shape[ax] - 1,) + f.shape[ax + 1:]
    if faces.shape != (2,) + shape:
        raise ValueError(f"face velocities shape {faces.shape} does not match slice {f.shape} along axis {ax}")
    at = axis_index(ax)
    if flux is None:
        flux = np.zeros(f.shape[:ax] + (f.shape[ax] + 1,) + f.shape[ax + 1:])
    flux[at.inner] = faces[0] * f[at.lo] + faces[1] * f[at.hi]
    return (flux[at.hi] - flux[at.lo]) / dx


def diff2(f: np.ndarray, grid, axis: int | None = None) -> np.ndarray:
    """3-point second difference with Neumann ghost cells."""
    f = np.asarray(f, dtype=float)
    ax, dx = _resolve_axis(f.shape, grid, axis)
    at = axis_index(ax)
    out = np.empty_like(f)
    out[at.inner] = (f[at.above] - 2.0 * f[at.inner] + f[at.below]) / (dx * dx)
    out[at.first] = (f[at.second] - f[at.first]) / (dx * dx)
    out[at.last] = (f[at.penult] - f[at.last]) / (dx * dx)
    return out


@functools.lru_cache(maxsize=1024)
def _heat_kernel(n: int, dx: float, kappa: float) -> np.ndarray:
    """Taps at lags -w .. w of ``exp(kappa * diff2)`` on the 2n-cell even extension, positive with unit sum.

    The circulant column, cut before the first lag below eps * peak; uncut (w = n), lags -n and n halve lag n's tap.
    """
    eigenvalues = -4.0 * np.sin(np.pi * np.arange(n + 1) / (2 * n)) ** 2 / (dx * dx)  # diff2's, rfft modes k = 0 .. n
    col = np.fft.irfft(np.exp(kappa * eigenvalues), 2 * n)
    below = np.flatnonzero(col[1:n + 1] < np.finfo(float).eps * col[0])
    w = int(below[0]) if below.size else n  # the last lag kept
    taps = np.concatenate((col[w:0:-1], col[:w + 1]))
    if w == n:
        taps[0] = taps[-1] = 0.5 * col[n]
    taps /= taps.sum()
    taps.flags.writeable = False
    return taps


@functools.lru_cache(maxsize=256)
def _reflected_index(n: int) -> np.ndarray:
    """Cells -n .. 2n - 1 of the even (Neumann) reflection of n cells, as indices into them."""
    index = np.concatenate((np.arange(n)[::-1], np.arange(n), np.arange(n)[::-1]))
    index.flags.writeable = False
    return index


def diffuse(f: np.ndarray, kappa: float, grid, axis: int | None = None) -> np.ndarray:
    """The slice after diffusion for time ``kappa``: ``exp(kappa * D2) f``, D2 the ``diff2`` operator.

    The even extension [f, reversed f] turns the Neumann walls into a period
    of 2n cells, on which D2 is circulant: one reflected ``take``, then one
    ``np.convolve`` per line with the cached ``_heat_kernel``, whose positive
    unit-sum taps keep a slice nonnegative and, at kappa = 0, its bits. A
    kappa that is not finite and nonnegative raises ``ValueError``.
    """
    f = np.asarray(f, dtype=float)
    ax, dx = _resolve_axis(f.shape, grid, axis)
    if not 0.0 <= kappa < math.inf:
        raise ValueError(f"diffusion time must be finite and nonnegative, got {kappa}")
    n = f.shape[ax]
    taps = _heat_kernel(n, dx, float(kappa))
    w = len(taps) // 2
    ext = f.take(_reflected_index(n)[n - w:2 * n + w], axis=ax)
    out = np.empty_like(f)
    for cell in itertools.product(*map(range, f.shape[:ax] + f.shape[ax + 1:])):
        line = cell[:ax] + (slice(None),) + cell[ax:]
        out[line] = np.convolve(ext[line], taps, "valid")
    return out


def integrate(f: np.ndarray, grid) -> float:
    """Midpoint quadrature over the whole grid."""
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape:
        raise ValueError(f"slice shape {f.shape} does not match grid {grid.shape}")
    return float(f.sum() * grid.cell_volume)


def space_mean(slice_values: np.ndarray, grid) -> float:
    """First moment of a density slice along axis 0: the battery-level mean."""
    return integrate(np.asarray(slice_values) * grid.meshes()[0], grid)


def mean_rate(m: np.ndarray, grid, tgrid: TimeGrid) -> np.ndarray:
    """Forward-difference time derivative of the density's first moment.

    The moment is taken along axis 0 (x, or z1 on the 2D grid). The rate
    of interval i is attributed to time node i; the final node reuses the
    last interval's rate, leaving one value per node.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[0] != tgrid.n_nodes:
        raise ValueError(f"expected {tgrid.n_nodes} time slices, got {m.shape[0]}")
    means = (m * grid.meshes()[0]).reshape(m.shape[0], -1).sum(axis=1) * grid.cell_volume
    rates = np.empty(tgrid.n_nodes)
    rates[:-1] = np.diff(means) / tgrid.dt
    rates[-1] = rates[-2]
    return rates


def substep_count(dt: float, rate: float) -> int:
    """Smallest count of equal substeps with ``dt_sub * rate <= SUBSTEP_SAFETY``.

    ``rate`` is the total explicit update rate: advection speeds over cell
    widths, plus the diffusion coefficient over the squared width where the
    sweep steps the diffusion explicitly (where ``dt`` times that term alone
    exceeds ``SUBSTEP_SAFETY``, the sweep takes ``diffuse`` instead and the
    rate is advection only). The bound keeps every upwind/diffusion update
    a convex combination of neighbor values.
    """
    if rate <= 0.0 or dt * rate <= SUBSTEP_SAFETY:
        return 1
    return int(math.ceil(dt * rate / SUBSTEP_SAFETY))
