"""Finite-difference operators: exactness, conservation, and convergence order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmfg import (
    SpaceGrid,
    TimeGrid,
    diff_central,
    diffuse,
    face_velocities,
    integrate,
    mean_rate,
    space_mean,
    substep_count,
)
from evmfg import numerics
from reference_stencils import diff2, diff_upwind


# ---------------------------------------------------------------------------
# diff_central


def test_diff_central_constant_is_zero():
    sg = SpaceGrid((32,))
    out = diff_central(np.full(32, 3.7), sg)
    np.testing.assert_allclose(out, 0.0, atol=1e-14)


def test_diff_central_exact_for_linear():
    sg = SpaceGrid((100,))
    out = diff_central(sg.nodes(0), sg)
    # one-sided boundary stencils are exact for affine slices too
    np.testing.assert_allclose(out, 1.0, rtol=1e-12)


def test_diff_central_quadratic_boundary_error():
    sg = SpaceGrid((50,))
    out = diff_central(sg.nodes(0)**2, sg)
    exact = 2.0 * sg.nodes(0)
    err = np.abs(out - exact)
    np.testing.assert_allclose(err[1:-1], 0.0, atol=1e-12)
    assert err[0] <= 2.0 / 50 and err[-1] <= 2.0 / 50


def test_diff_central_second_order_interior():
    errors = []
    for n in (50, 100):
        sg = SpaceGrid((n,))
        out = diff_central(np.sin(2 * np.pi * sg.nodes(0)), sg)
        exact = 2 * np.pi * np.cos(2 * np.pi * sg.nodes(0))
        errors.append(np.abs(out - exact)[1:-1].max())
    assert errors[0] / errors[1] >= 3.5


def test_diff_central_2d_axes():
    sg = SpaceGrid((8, 8))
    z1, z2 = sg.meshes()
    f = 2.0 * z1 - 3.0 * z2
    np.testing.assert_allclose(diff_central(f, sg, axis=0), 2.0, rtol=1e-12)
    np.testing.assert_allclose(diff_central(f, sg, axis=1), -3.0, rtol=1e-12)


def test_diff_central_shape_validation():
    sg = SpaceGrid((10,))
    with pytest.raises(ValueError):
        diff_central(np.zeros(11), sg)
    with pytest.raises(ValueError):
        diff_central(np.zeros((8, 8)), SpaceGrid((8, 8)))  # axis required in 2D


# ---------------------------------------------------------------------------
# diff_upwind


def test_diff_upwind_zero_drift():
    sg = SpaceGrid((16,))
    f = np.random.default_rng(0).random(16)
    np.testing.assert_allclose(diff_upwind(f, face_velocities(np.zeros(16), sg), sg), 0.0, atol=1e-14)


def test_diff_upwind_spike_moves_right():
    # uniform drift c > 0 drains a single-cell spike into its right neighbor
    sg = SpaceGrid((4,))
    c = 0.3
    f = np.array([0.0, 1.0, 0.0, 0.0])
    out = diff_upwind(f, face_velocities(np.full(4, c), sg), sg)
    np.testing.assert_allclose(out[1], c / sg.spacing(0), rtol=1e-12)
    np.testing.assert_allclose(out[2], -c / sg.spacing(0), rtol=1e-12)
    np.testing.assert_allclose(out[[0, 3]], 0.0, atol=1e-14)


def test_diff_upwind_direction():
    # negative drift drains the spike into its left neighbor instead
    sg = SpaceGrid((4,))
    f = np.array([0.0, 0.0, 1.0, 0.0])
    out = diff_upwind(f, face_velocities(np.full(4, -0.5), sg), sg)
    assert out[2] > 0.0 and out[1] < 0.0
    np.testing.assert_allclose(out[[0, 3]], 0.0, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_diff_upwind_conserves_mass(seed):
    rng = np.random.default_rng(seed)
    sg = SpaceGrid((12,))
    f = rng.random(12)
    drift = rng.uniform(-2.0, 2.0, 12)
    assert abs(integrate(diff_upwind(f, face_velocities(drift, sg), sg), sg)) < 1e-13


def test_diff_upwind_first_order():
    errors = []
    for n in (64, 128):
        sg = SpaceGrid((n,))
        f = np.sin(2 * np.pi * sg.nodes(0)) + 2.0
        drift = np.full(n, 0.7)
        out = diff_upwind(f, face_velocities(drift, sg), sg)
        exact = 0.7 * 2 * np.pi * np.cos(2 * np.pi * sg.nodes(0))
        errors.append(np.abs(out - exact)[2:-2].max())
    assert errors[0] / errors[1] >= 1.8


def test_diff_upwind_2d_conserves_mass():
    rng = np.random.default_rng(1)
    sg = SpaceGrid((6, 7))
    f = rng.random((6, 7))
    for axis in (0, 1):
        out = diff_upwind(f, face_velocities(rng.uniform(-1, 1, (6, 7)), sg, axis), sg, axis=axis)
        assert abs(integrate(out, sg)) < 1e-13


def test_diff_upwind_drift_shape_validation():
    sg = SpaceGrid((8,))
    with pytest.raises(ValueError):
        diff_upwind(np.zeros(8), face_velocities(np.zeros(7), sg), sg)


# ---------------------------------------------------------------------------
# diff2


def test_diff2_constant_and_quadratic():
    sg = SpaceGrid((40,))
    np.testing.assert_allclose(diff2(np.full(40, 2.2), sg), 0.0, atol=1e-12)
    out = diff2(sg.nodes(0)**2, sg)
    np.testing.assert_allclose(out[1:-1], 2.0, rtol=1e-9)


def test_diff2_conserves_mass():
    rng = np.random.default_rng(2)
    sg = SpaceGrid((16,))
    f = rng.random(16)
    assert abs(integrate(diff2(f, sg), sg)) < 1e-11


def test_diff2_second_order_interior():
    errors = []
    for n in (50, 100):
        sg = SpaceGrid((n,))
        out = diff2(np.sin(2 * np.pi * sg.nodes(0)), sg)
        exact = -((2 * np.pi) ** 2) * np.sin(2 * np.pi * sg.nodes(0))
        errors.append(np.abs(out - exact)[1:-1].max())
    assert errors[0] / errors[1] >= 3.5


def test_diff2_2d_conserves_mass():
    rng = np.random.default_rng(3)
    sg = SpaceGrid((6, 6))
    f = rng.random((6, 6))
    for axis in (0, 1):
        assert abs(integrate(diff2(f, sg, axis=axis), sg)) < 1e-12


# ---------------------------------------------------------------------------
# diffuse: the exact exponential exp(kappa * diff2)


def _dense_exponential(n: int, kappa: float) -> np.ndarray:
    """Q diag(exp(kappa lambda)) Q^T from the eigendecomposition of the dense diff2 matrix."""
    sg = SpaceGrid((n,))
    lam, q = np.linalg.eigh(np.array([diff2(e, sg) for e in np.eye(n)]).T)
    return q @ np.diag(np.exp(kappa * lam)) @ q.T


@pytest.mark.parametrize("n", [4, 25, 100, 400])
def test_diffuse_matches_dense_exponential(n):
    sg = SpaceGrid((n,))
    x = sg.nodes(0)
    f = 1.0 + np.sin(7.0 * x) + np.random.default_rng(n).random(n)
    # kappa / dx^2 from an explicit-range step to past the 800-cell run's 12
    for ratio in (0.3, 3.0, 12.0, 100.0):
        kappa = ratio * sg.spacing(0) ** 2
        np.testing.assert_allclose(diffuse(f, kappa, sg), _dense_exponential(n, kappa) @ f, rtol=0, atol=1e-12)


def test_diffuse_keeps_constants_and_cell_sum():
    sg = SpaceGrid((400,))
    f = np.random.default_rng(4).random(400)
    for kappa in (1e-5, 1e-3, 1.0):
        np.testing.assert_allclose(diffuse(np.full(400, 2.5), kappa, sg), 2.5, rtol=0, atol=1e-14)
        assert abs(diffuse(f, kappa, sg).sum() - f.sum()) <= 1e-12 * f.sum()


def test_diffuse_composes_and_tends_to_the_mean():
    sg = SpaceGrid((64,))
    f = np.random.default_rng(5).random(64)
    np.testing.assert_allclose(diffuse(diffuse(f, 2e-4, sg), 3e-4, sg), diffuse(f, 5e-4, sg), rtol=0, atol=1e-14)
    np.testing.assert_allclose(diffuse(f, 10.0, sg), f.mean(), rtol=0, atol=1e-14)


def _fft_diffuse(f: np.ndarray, kappa: float, sg: SpaceGrid) -> np.ndarray:
    """exp(kappa * diff2) f in the DCT-II eigenbasis: rfft of the even extension, scale mode k, irfft."""
    n, dx = f.shape[0], sg.spacing(0)
    decay = np.exp(-4.0 * kappa * np.sin(np.pi * np.arange(n + 1) / (2 * n)) ** 2 / (dx * dx))
    return np.fft.irfft(np.fft.rfft(np.concatenate((f, f[::-1]))) * decay, 2 * n)[:n]


# kappa / dx^2 from an explicit-range step, past the 800-cell run's 12.4, to a flat slice
DIFFUSION_RATIOS = (0.0, 0.1, 0.45, 3.1, 12.4, 50.0, 1e3, 1e6)


@pytest.mark.parametrize("n", [4, 7, 40, 100, 400, 800])
def test_diffuse_kernel_matches_the_fft_formula(n):
    sg = SpaceGrid((n,))
    f = 1.0 + np.sin(7.0 * sg.nodes(0)) + np.random.default_rng(n).random(n)
    for ratio in DIFFUSION_RATIOS:
        kappa = ratio * sg.spacing(0) ** 2
        np.testing.assert_allclose(diffuse(f, kappa, sg), _fft_diffuse(f, kappa, sg),
                                   rtol=0, atol=1e-13 * np.abs(f).max())


@pytest.mark.parametrize("n", [4, 7, 40, 400])
def test_diffuse_keeps_a_nonnegative_slice_nonnegative(n):
    sg = SpaceGrid((n,))
    rng = np.random.default_rng(n)
    # point masses and sparse slices: zeros next to mass, where a transform's roundoff goes negative
    slices = [np.eye(n)[0], np.eye(n)[n // 2], np.where(rng.random(n) < 0.3, rng.random(n), 0.0)]
    for f in slices:
        for ratio in DIFFUSION_RATIOS:
            assert diffuse(f, ratio * sg.spacing(0) ** 2, sg).min() >= 0.0


def test_diffuse_for_no_time_returns_the_slice_bits():
    f = np.random.default_rng(7).standard_normal(40)
    assert diffuse(f, 0.0, SpaceGrid((40,))).tobytes() == f.tobytes()


def test_diffuse_has_the_same_bits_from_a_cold_and_a_warm_cache():
    sg = SpaceGrid((400,))
    f = np.random.default_rng(8).random(400)
    kappas = [ratio * sg.spacing(0) ** 2 for ratio in DIFFUSION_RATIOS]
    numerics._heat_kernel.cache_clear()
    numerics._reflected_index.cache_clear()
    cold = [diffuse(f, kappa, sg).tobytes() for kappa in kappas]
    warm = [diffuse(f, kappa, sg).tobytes() for kappa in kappas]
    assert cold == warm
    assert numerics._heat_kernel.cache_info().hits == len(kappas)


def _convolved(f: np.ndarray, kappa: float, sg: SpaceGrid) -> np.ndarray:
    """``diffuse`` as a convolution: the reflected ``take``, then ``np.convolve`` with the cached kernel."""
    n, dx = len(f), sg.spacing(0)
    taps = numerics._heat_kernel(n, dx, float(kappa))
    w = len(taps) // 2
    return np.convolve(f.take(numerics._reflected_index(n)[n - w:2 * n + w]), taps, "valid")


@pytest.mark.parametrize("n", [40, 100, 400, 800])
def test_diffuse_is_the_convolution_bit_for_bit(n):
    # np.convolve reverses its taps; diffuse correlates with them, which is the same only for a palindrome
    sg = SpaceGrid((n,))
    f = np.random.default_rng(n).random(n)
    dx = sg.spacing(0)
    widths = []
    for ratio in DIFFUSION_RATIOS:
        kappa = ratio * dx ** 2
        taps = numerics._heat_kernel(n, dx, kappa)
        assert taps.tobytes() == taps[::-1].tobytes()
        assert diffuse(f, kappa, sg).tobytes() == _convolved(f, kappa, sg).tobytes()
        widths.append(len(taps) // 2)
    assert 0 < min(w for w in widths if w) < n == max(widths)  # cut kernels and the uncut one


def test_diffuse_rejects_a_slice_of_a_grid_with_two_axes():
    with pytest.raises(ValueError, match=r"one-axis grid, got grid \(6, 7\)"):
        diffuse(np.ones((6, 7)), 0.01, SpaceGrid((6, 7)))


@pytest.mark.parametrize("kappa", [-1e-6, float("nan"), float("inf"), -float("inf")])
def test_diffuse_rejects_a_negative_or_non_finite_time(kappa):
    sg = SpaceGrid((40,))
    with pytest.raises(ValueError, match=f"got {kappa}"):
        diffuse(np.ones(40), kappa, sg)


# ---------------------------------------------------------------------------
# axis slicing: the stencils must equal their move-the-axis-to-the-front form


def _moved(stencil):
    """Reference stencil that moves ``axis`` to the front, applies ``stencil`` there, and moves it back."""

    def apply(*fields, dx, axis):
        out = stencil(*(np.moveaxis(f, axis, 0) for f in fields), dx)
        return np.moveaxis(out, 0, axis)

    return apply


@_moved
def _ref_central(g, dx):
    out = np.empty_like(g)
    out[1:-1] = (g[2:] - g[:-2]) / (2.0 * dx)
    out[0] = (g[1] - g[0]) / dx
    out[-1] = (g[-1] - g[-2]) / dx
    return out


@_moved
def _ref_upwind(g, d, dx):
    u = 0.5 * (d[:-1] + d[1:])
    flux = np.zeros((g.shape[0] + 1,) + g.shape[1:])
    flux[1:-1] = np.maximum(u, 0.0) * g[:-1] + np.minimum(u, 0.0) * g[1:]
    return (flux[1:] - flux[:-1]) / dx


@_moved
def _ref_diff2(g, dx):
    out = np.empty_like(g)
    out[1:-1] = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / (dx * dx)
    out[0] = (g[1] - g[0]) / (dx * dx)
    out[-1] = (g[-2] - g[-1]) / (dx * dx)
    return out


def _stencils(f, drift, grid, axis):
    """(sliced, reference) pairs of all three stencils along ``axis``."""
    dx = grid.spacing(axis)
    return [
        (diff_central(f, grid, axis), _ref_central(f, dx=dx, axis=axis)),
        (diff_upwind(f, face_velocities(drift, grid, axis), grid, axis), _ref_upwind(f, drift, dx=dx, axis=axis)),
        (diff2(f, grid, axis), _ref_diff2(f, dx=dx, axis=axis)),
    ]


def test_stencils_equal_moved_axis_reference_1d():
    rng = np.random.default_rng(4)
    sg = SpaceGrid((13,))
    for got, want in _stencils(rng.random(13), rng.uniform(-1, 1, 13), sg, 0):
        assert np.array_equal(got, want)


def test_stencils_equal_moved_axis_reference_on_each_2d_axis():
    rng = np.random.default_rng(5)
    sg = SpaceGrid((5, 7))
    f, drift = rng.random((5, 7)), rng.uniform(-1, 1, (5, 7))
    for axis in (0, 1):
        for got, want in _stencils(f, drift, sg, axis):
            assert got.shape == (5, 7)
            assert np.array_equal(got, want)


def test_stencils_axis_1_equals_axis_0_of_the_transpose():
    rng = np.random.default_rng(6)
    f, drift = rng.random((5, 7)), rng.uniform(-1, 1, (5, 7))
    along_1 = _stencils(f, drift, SpaceGrid((5, 7)), 1)
    along_0 = _stencils(f.T, drift.T, SpaceGrid((7, 5)), 0)
    for (got, _), (got_t, _) in zip(along_1, along_0):
        assert np.array_equal(got, got_t.T)


def test_stencils_along_axis_0_of_a_2d_field_equal_the_1d_stencil_per_column():
    rng = np.random.default_rng(7)
    line, plane = SpaceGrid((9,)), SpaceGrid((9, 5))
    f, drift = rng.random((9, 5)), rng.uniform(-1, 1, (9, 5))
    upwind, second = diff_upwind(f, face_velocities(drift, plane, 0), plane, 0), diff2(f, plane, 0)
    for c in range(5):
        assert np.array_equal(upwind[:, c], diff_upwind(f[:, c], face_velocities(drift[:, c], line), line))
        assert np.array_equal(second[:, c], diff2(f[:, c], line))


def test_upwind_at_face_velocities_equals_the_cell_drift_reference_on_each_axis():
    # a density step computes its face velocities once and its substeps
    # share them and one flux buffer; each substep has the reference bits
    rng = np.random.default_rng(8)
    sg = SpaceGrid((6, 9))
    drift = rng.uniform(-1, 1, sg.shape)
    for axis in (0, 1):
        faces = face_velocities(drift, sg, axis)
        flux = np.zeros([n + (k == axis) for k, n in enumerate(sg.shape)])
        for f in (rng.random(sg.shape), rng.random(sg.shape)):
            want = _ref_upwind(f, drift, dx=sg.spacing(axis), axis=axis)
            assert np.array_equal(diff_upwind(f, faces, sg, axis, flux), want)
            assert np.array_equal(diff_upwind(f, faces, sg, axis), want)
        with pytest.raises(ValueError, match="face velocities shape"):
            diff_upwind(f, faces, sg, 1 - axis)


@pytest.mark.parametrize(
    "grid, axis",
    [(SpaceGrid((8,)), 1), (SpaceGrid((8, 6)), 2), (SpaceGrid((8, 6)), -1)],
    ids=["1d-axis1", "2d-axis2", "2d-axis-1"],
)
def test_stencils_reject_an_axis_the_grid_lacks(grid, axis):
    f = np.zeros(grid.shape)
    for stencil in (lambda: diff2(f, grid, axis), lambda: diff_upwind(f, face_velocities(f, grid, axis), grid, axis)):
        with pytest.raises(ValueError, match="axis"):
            stencil()


# ---------------------------------------------------------------------------
# integrate / space_mean


def test_integrate_unit_mass():
    sg = SpaceGrid((25,))
    assert integrate(np.ones(25), sg) == pytest.approx(1.0, abs=1e-15)


def test_integrate_linear_symmetry():
    sg = SpaceGrid((25,))
    assert integrate(sg.nodes(0), sg) == pytest.approx(0.5, abs=1e-14)
    assert space_mean(np.ones(25), sg) == pytest.approx(0.5, abs=1e-14)


def test_integrate_triangle_density():
    # tent on [0.3, 0.7] peaking at 0.5, normalized height 5
    sg = SpaceGrid((100,))
    x = sg.nodes(0)
    tri = 5.0 * np.maximum(0.0, 1.0 - np.abs(x - 0.5) / 0.2)
    assert integrate(tri, sg) == pytest.approx(1.0, abs=1e-3)


def test_integrate_2d():
    sg = SpaceGrid((10, 20))
    assert integrate(np.ones((10, 20)), sg) == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# mean_rate


def test_mean_rate_constant_density():
    sg = SpaceGrid((20,))
    tg = TimeGrid(1.0, 5)
    m = np.tile(np.ones(20), (tg.n_nodes, 1))
    np.testing.assert_allclose(mean_rate(m, sg, tg), 0.0, atol=1e-13)


def test_mean_rate_linear_growth():
    # density mean grows by 0.1 per unit time; the final node reuses the
    # last interval's rate so the series is constant end to end
    sg = SpaceGrid((50,))
    tg = TimeGrid(1.0, 4)
    m = np.empty((tg.n_nodes, 50))
    for i, t in enumerate(tg.nodes):
        center = 0.3 + 0.1 * t
        m[i] = np.maximum(0.0, 1.0 - np.abs(sg.nodes(0) - center) / 0.2)
        m[i] /= integrate(m[i], sg)
    rate = mean_rate(m, sg, tg)
    assert rate.shape == (tg.n_nodes,)
    np.testing.assert_allclose(rate, 0.1, atol=2e-3)
    assert rate[-1] == rate[-2]


def test_mean_rate_single_interval_value():
    # mean moves 0.02 over dt = 0.5 -> rate 0.04 on that interval
    sg = SpaceGrid((50,))
    tg = TimeGrid(1.0, 2)
    m = np.empty((3, 50))
    for i, center in enumerate((0.40, 0.42, 0.42)):
        m[i] = np.maximum(0.0, 1.0 - np.abs(sg.nodes(0) - center) / 0.2)
        m[i] /= integrate(m[i], sg)
    rate = mean_rate(m, sg, tg)
    assert rate[0] == pytest.approx(0.04, abs=1e-6)


def test_mean_rate_validation():
    sg = SpaceGrid((10,))
    tg = TimeGrid(1.0, 3)
    with pytest.raises(ValueError):
        mean_rate(np.ones((3, 10)), sg, tg)


def test_moments_of_a_2d_density_constant_along_axis_1_equal_its_1d_marginal():
    rng = np.random.default_rng(8)
    tg = TimeGrid(1.0, 4)
    line, plane = SpaceGrid((9,)), SpaceGrid((9, 5))
    m = np.repeat(rng.random((tg.n_nodes, 9, 1)), 5, axis=2)
    marginal = m.sum(axis=2) * plane.spacing(1)
    np.testing.assert_allclose(mean_rate(m, plane, tg), mean_rate(marginal, line, tg), rtol=1e-12, atol=1e-13)
    for i in range(tg.n_nodes):
        assert space_mean(m[i], plane) == pytest.approx(space_mean(marginal[i], line), rel=1e-13)


# ---------------------------------------------------------------------------
# substep_count


@given(
    st.floats(min_value=1e-6, max_value=10.0),
    st.floats(min_value=0.0, max_value=1e6),
)
def test_substep_count_satisfies_bound_minimally(dt, rate):
    n = substep_count(dt, rate)
    assert n >= 1
    assert (dt / n) * rate <= 0.9 + 1e-12
    if n > 1:
        assert (dt / (n - 1)) * rate > 0.9 - 1e-9


def test_substep_count_zero_rate():
    assert substep_count(0.5, 0.0) == 1
