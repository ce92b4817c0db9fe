"""Uniform time and space grids.

Space grids are cell centered: nodes sit strictly inside the domain, which
keeps the battery split ratio well defined at every node (z1 + z2 > 0) and
makes zero-flux walls natural for the finite volume advection scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t0, t1] with ``n_steps`` intervals, n_steps + 1 nodes."""

    t1: float
    n_steps: int
    t0: float = 0.0

    def __post_init__(self) -> None:
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if not self.t1 > self.t0:
            raise ValueError("t1 must exceed t0")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def nodes(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_nodes)


@dataclass(frozen=True)
class SpaceGrid1D:
    """Cell-centered grid on [0, 1]: x_j = (j + 1/2) / n_cells."""

    n_cells: int

    def __post_init__(self) -> None:
        if self.n_cells < 4:
            raise ValueError("n_cells must be at least 4")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def cell_volume(self) -> float:
        return self.dx

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_cells,)

    def spacing(self, axis: int) -> float:
        return self.dx


@dataclass(frozen=True)
class SpaceGrid2D:
    """Cell-centered grid on [0, 1]^2; axis 0 is z1, axis 1 is z2."""

    n1: int
    n2: int

    def __post_init__(self) -> None:
        if self.n1 < 4 or self.n2 < 4:
            raise ValueError("n1 and n2 must be at least 4")

    @property
    def dz1(self) -> float:
        return 1.0 / self.n1

    @property
    def dz2(self) -> float:
        return 1.0 / self.n2

    @property
    def nodes1(self) -> np.ndarray:
        return (np.arange(self.n1) + 0.5) * self.dz1

    @property
    def nodes2(self) -> np.ndarray:
        return (np.arange(self.n2) + 0.5) * self.dz2

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """(Z1, Z2) coordinate arrays of shape (n1, n2)."""
        return np.meshgrid(self.nodes1, self.nodes2, indexing="ij")

    @property
    def cell_volume(self) -> float:
        return self.dz1 * self.dz2

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n1, self.n2)

    def spacing(self, axis: int) -> float:
        if axis == 0:
            return self.dz1
        if axis == 1:
            return self.dz2
        raise ValueError("axis must be 0 or 1")
