"""Uniform time and space grids.

Space grids are cell centered: nodes sit strictly inside the domain, which
keeps the battery split ratio well defined at every node (z1 + z2 > 0) and
makes zero-flux walls natural for the finite volume advection scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t1] with ``n_steps`` intervals, n_steps + 1 nodes."""

    t1: float
    n_steps: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.t1):
            raise ScenarioError("horizon", "must be finite")
        if self.t1 <= 0.0:
            raise ScenarioError("horizon", "must be positive")
        if self.n_steps < 2:
            raise ScenarioError("time_steps", "must be at least 2")

    @property
    def dt(self) -> float:
        return self.t1 / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def nodes(self) -> np.ndarray:
        return self.dt * np.arange(self.n_nodes)


@dataclass(frozen=True)
class SpaceGrid:
    """Cell-centered grid on [0, 1]^d: node j of axis k is (j + 1/2) / shape[k].

    The 1D game has one axis (x), the 2D game two (z1, z2). An int ``shape`` is one axis.
    """

    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(np.atleast_1d(self.shape).tolist()))
        if min(self.shape, default=0) < 4:
            raise ScenarioError("space.cells", "each axis needs at least 4 cells")

    def spacing(self, axis: int) -> float:
        return 1.0 / self.shape[axis]

    def nodes(self, axis: int) -> np.ndarray:
        return (np.arange(self.shape[axis]) + 0.5) * self.spacing(axis)

    def meshes(self) -> tuple[np.ndarray, ...]:
        """One coordinate array of the grid's shape per axis (``indexing="ij"``)."""
        return tuple(np.meshgrid(*(self.nodes(k) for k in range(len(self.shape))), indexing="ij"))

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing(k) for k in range(len(self.shape)))
