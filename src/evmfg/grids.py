"""Uniform time and space grids.

Space grids are cell centered: nodes sit strictly inside the domain, which
keeps the battery split ratio well defined at every node (z1 + z2 > 0) and
makes zero-flux walls natural for the finite volume advection scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError, as_float, as_int


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t1] with ``n_steps`` intervals, n_steps + 1 nodes."""

    t1: float
    n_steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "t1", as_float(self.t1, "horizon"))
        if self.t1 <= 0.0:
            raise ScenarioError("horizon", "must be positive")
        object.__setattr__(self, "n_steps", as_int(self.n_steps, "time_steps"))
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
        cells = [self.shape] if np.ndim(self.shape) == 0 else list(self.shape)
        fields = ["space.cells"] if len(cells) == 1 else [f"space.cells[{k}]" for k in range(len(cells))]
        object.__setattr__(self, "shape", tuple(map(as_int, cells, fields)))
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
