"""Grid containers: node placement, spacing, and validation."""

import numpy as np
import pytest

from evmfg import ScenarioError, SpaceGrid, TimeGrid


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
    for t1 in (float("nan"), float("inf")):
        with pytest.raises(ScenarioError, match="horizon: must be finite"):
            TimeGrid(t1, 10)


@pytest.mark.parametrize(
    "shape, spacings, volume, nodes",
    [
        ((4,), (0.25,), 0.25, ([0.125, 0.375, 0.625, 0.875],)),
        ((4, 5), (0.25, 0.2), 0.05, ([0.125, 0.375, 0.625, 0.875], [0.1, 0.3, 0.5, 0.7, 0.9])),
    ],
    ids=["1d", "2d"],
)
def test_space_grid_nodes_spacing_volume_and_meshes(shape, spacings, volume, nodes):
    sg = SpaceGrid(shape)
    assert sg.shape == shape
    assert sg.cell_volume == pytest.approx(volume)
    meshes = sg.meshes()
    assert len(meshes) == len(shape)
    for k, (dx, want) in enumerate(zip(spacings, nodes)):
        assert sg.spacing(k) == pytest.approx(dx)
        np.testing.assert_allclose(sg.nodes(k), want)
        # nodes stay strictly inside the unit interval
        assert sg.nodes(k)[0] > 0.0 and sg.nodes(k)[-1] < 1.0
        # mesh k has the grid's shape, runs through axis k's nodes along
        # axis k and is constant along every other axis
        assert meshes[k].shape == shape
        line = tuple(slice(None) if axis == k else 0 for axis in range(len(shape)))
        np.testing.assert_allclose(meshes[k][line], sg.nodes(k))
        for other in set(range(len(shape))) - {k}:
            assert np.all(np.diff(meshes[k], axis=other) == 0.0)


@pytest.mark.parametrize("shape", [4, [4, 5], np.array([4, 5])], ids=["int", "list", "array"])
def test_space_grid_shape_is_a_tuple_of_plain_ints(shape):
    # the run manifest writes list(sgrid.shape) as JSON
    sg = SpaceGrid(shape)
    assert sg == SpaceGrid(tuple(np.atleast_1d(shape).tolist()))
    assert all(type(n) is int for n in sg.shape)


@pytest.mark.parametrize("shape", [(3,), (3, 8), (8, 3)], ids=["1d", "2d-axis0", "2d-axis1"])
def test_space_grid_validation(shape):
    with pytest.raises(ScenarioError, match="each axis needs at least 4 cells"):
        SpaceGrid(shape)


def test_space_grid_2d_validation():
    # an axis beyond the grid's has no spacing
    with pytest.raises(IndexError):
        SpaceGrid((8, 8)).spacing(2)
