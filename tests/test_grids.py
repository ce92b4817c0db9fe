"""Grid containers: node placement, spacing, and validation."""

import numpy as np
import pytest

from evmfg import SpaceGrid1D, SpaceGrid2D, TimeGrid


def test_time_grid_nodes_and_dt():
    tg = TimeGrid(1.0, 4)
    assert tg.n_nodes == 5
    assert tg.dt == pytest.approx(0.25)
    np.testing.assert_allclose(tg.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)


def test_space_grid_1d_cell_centers():
    sg = SpaceGrid1D(4)
    assert sg.dx == pytest.approx(0.25)
    assert sg.cell_volume == pytest.approx(0.25)
    np.testing.assert_allclose(sg.nodes, [0.125, 0.375, 0.625, 0.875])
    # nodes stay strictly inside the unit interval
    assert sg.nodes[0] > 0.0 and sg.nodes[-1] < 1.0


def test_space_grid_1d_validation():
    with pytest.raises(ValueError):
        SpaceGrid1D(3)


def test_space_grid_2d_meshes():
    sg = SpaceGrid2D(4, 5)
    assert sg.shape == (4, 5)
    assert sg.spacing(0) == pytest.approx(0.25)
    assert sg.spacing(1) == pytest.approx(0.2)
    assert sg.cell_volume == pytest.approx(0.05)
    z1, z2 = sg.meshes()
    assert z1.shape == (4, 5) and z2.shape == (4, 5)
    # axis 0 indexes z1, axis 1 indexes z2
    np.testing.assert_allclose(z1[:, 0], sg.nodes1)
    np.testing.assert_allclose(z2[0, :], sg.nodes2)
    assert np.all(np.diff(z1, axis=1) == 0.0)
    assert np.all(np.diff(z2, axis=0) == 0.0)


def test_space_grid_2d_validation():
    with pytest.raises(ValueError):
        SpaceGrid2D(3, 8)
    with pytest.raises(ValueError):
        SpaceGrid2D(8, 8).spacing(2)
