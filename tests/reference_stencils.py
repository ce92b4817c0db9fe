"""Reference copies of the two stencils that the density sweep used before its face flux.

The sweep now builds one face flux per axis (``ev._density_substep``), so
the package has no ``diff_upwind`` or ``diff2``. Tests keep these as
reference operators: the substep is checked against them, and they give the
dense matrix of the Neumann second difference that ``numerics.diffuse``
exponentiates.
"""

import numpy as np

from evmfg.numerics import _resolve_axis, axis_index


def diff_upwind(f: np.ndarray, faces: np.ndarray, grid, axis: int | None = None, flux=None) -> np.ndarray:
    """Divergence of the upwind flux with zero-flux walls, at the ``face_velocities`` ``faces``.

    Each face flux takes the density from its upwind cell. The cell sum of
    the output times the cell volume telescopes to zero. A ``flux`` buffer
    may be passed to reuse: zero walls, one face more than the cells.
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
