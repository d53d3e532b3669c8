"""Spectral substrate: quadrature, gradient, laplacian, and their algebra."""

import numpy as np
import pytest

from qrel import (
    ConfigurationError,
    FunctionalTag,
    GaussianParams,
    Grid,
    GridMismatchError,
    fd_functional_derivative,
    make_gaussian,
    run_trajectory,
    to_wave,
)

from conftest import gaussian_density


class TestConstruction:
    def test_spacing_times_n_is_length(self, grid):
        assert grid.spacing * grid.n == grid.length

    @pytest.mark.parametrize("n", [8, 12, 500, 100])
    def test_rejects_bad_point_counts(self, n):
        with pytest.raises(ConfigurationError):
            Grid(n=n, length=40.0)

    def test_rejects_bad_length_and_dim(self):
        with pytest.raises(ConfigurationError):
            Grid(n=64, length=-1.0)
        with pytest.raises(ConfigurationError):
            Grid(n=64, length=40.0, dim=4)

    def test_axis_is_centered(self, grid):
        assert grid.axis[0] == -grid.length / 2
        assert grid.axis[grid.n // 2] == 0.0

    def test_mismatched_field_rejected(self, grid):
        with pytest.raises(GridMismatchError):
            grid.quadrature(np.zeros(grid.n // 2))


class TestQuadrature:
    def test_normalized_gaussian(self, grid):
        rho = gaussian_density(grid, 1.0)
        assert abs(grid.quadrature(rho) - 1.0) < 1e-12

    def test_constant_field(self, grid):
        f = np.full(grid.shape, 1.0 / grid.length)
        assert grid.quadrature(f) == pytest.approx(1.0, abs=1e-15)

    def test_gaussian_second_moment(self, grid):
        # analytic oracle: integral rho x^2 = sigma^2 = 1 for the unit Gaussian
        rho = gaussian_density(grid, 1.0)
        assert abs(grid.quadrature(rho * grid.coords[0] ** 2) - 1.0) < 1e-12


class TestGradient:
    def test_single_fourier_mode(self, grid):
        x = grid.coords[0]
        k = 2 * np.pi / grid.length
        (g,) = grid.gradient(np.sin(k * x))
        assert np.abs(g - k * np.cos(k * x)).max() < 1e-12

    def test_constant_gives_zero(self, grid):
        (g,) = grid.gradient(np.ones(grid.shape))
        assert np.abs(g).max() < 1e-14

    def test_gaussian_amplitude_gradient_integral(self, grid):
        # integral |d sqrt(rho)/dx|^2 = 1/(4 sigma^2) = 0.25 for sigma^2 = 1
        amp = np.sqrt(gaussian_density(grid, 1.0))
        (g,) = grid.gradient(amp)
        assert abs(grid.quadrature(g**2) - 0.25) < 1e-10


class TestLaplacian:
    def test_complex_mode(self, grid):
        x = grid.coords[0]
        k = 2 * np.pi / grid.length
        f = np.exp(1j * k * x)
        assert np.abs(grid.laplacian(f) + k**2 * f).max() < 1e-12

    def test_constant_gives_zero(self, grid):
        assert np.abs(grid.laplacian(np.ones(grid.shape))).max() < 1e-14

    def test_laplacian_integrates_to_zero(self, grid):
        # divergence theorem on the torus
        f = gaussian_density(grid, 2.0) + 0.3 * gaussian_density(grid, 0.7, x0=2.0)
        assert abs(grid.quadrature(grid.laplacian(f))) < 1e-12


class TestOperatorAlgebra:
    def test_gradient_twice_matches_laplacian(self, grid):
        f = gaussian_density(grid, 1.5, x0=-1.0)
        (g,) = grid.gradient(f)
        (gg,) = grid.gradient(g)
        assert np.abs(gg - grid.laplacian(f)).max() < 1e-12

    def test_integration_by_parts(self, grid):
        f = gaussian_density(grid, 1.0, x0=-2.0)
        g = gaussian_density(grid, 2.0, x0=1.5)
        (df,) = grid.gradient(f)
        (dg,) = grid.gradient(g)
        assert abs(grid.quadrature(df * g) + grid.quadrature(f * dg)) < 1e-10

    def test_fd_summation_by_parts_is_exact(self, grid):
        rng = np.random.default_rng(7)
        f = rng.standard_normal(grid.shape)
        g = rng.standard_normal(grid.shape)
        (df,) = grid.fd_gradient(f)
        (dg,) = grid.fd_gradient(g)
        assert abs(grid.quadrature(df * g) + grid.quadrature(f * dg)) < 1e-13


class TestTwoDimensional:
    def test_quadrature_and_laplacian(self):
        g2 = Grid(n=32, length=20.0, dim=2)
        x, y = g2.coords
        rho = np.exp(-(x**2 + y**2) / 2)
        rho /= g2.quadrature(rho)
        assert abs(g2.quadrature(rho) - 1.0) < 1e-13
        k = 2 * np.pi / g2.length
        f = np.sin(k * x) * np.cos(2 * k * y)
        assert np.abs(g2.laplacian(f) + (k**2 + 4 * k**2) * f).max() < 1e-12

    def test_gradient_axes(self):
        g2 = Grid(n=32, length=20.0, dim=2)
        x, y = g2.coords
        k = 2 * np.pi / g2.length
        gx, gy = g2.gradient(np.sin(k * x))
        assert np.abs(gx - k * np.cos(k * x)).max() < 1e-12
        assert np.abs(gy).max() < 1e-12


class TestModeRestriction:
    def test_derivatives_commute_with_mode_projection(self, grid):
        # restricting to a Fourier band commutes with gradient and laplacian
        rng = np.random.default_rng(11)
        f = rng.standard_normal(grid.shape)
        k = grid.wavenumbers
        band = np.abs(k) <= 12.0

        def project(g):
            return np.fft.ifft(np.fft.fft(g) * band).real

        (d_of_p,) = grid.gradient(project(f))
        p_of_d = project(grid.gradient(f)[0])
        assert np.abs(d_of_p - p_of_d).max() < 1e-12
        assert np.abs(grid.laplacian(project(f)) - project(grid.laplacian(f))).max() < 1e-11


def test_long_double_fields_stay_long_double(grid):
    # numpy 1.x transforms in complex128, which would void the bump oracle's extended precision
    (g,) = grid.gradient(gaussian_density(grid, 1.0).astype(np.longdouble))
    assert g.dtype == np.longdouble
    assert grid.laplacian(gaussian_density(grid, 1.0).astype(np.longdouble)).dtype == np.longdouble


def _reference_derivative(grid, f, ax):
    """d f / d x_ax from the full complex spectrum, Nyquist mode zeroed."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    k[grid.n // 2] = 0.0
    shape = [1] * grid.dim
    shape[ax] = grid.n
    return np.fft.ifftn(np.fft.fftn(f) * (1j * k.reshape(shape))).real


def _owns_real_memory(a):
    return a.base is None or not np.iscomplexobj(a.base)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("dim", [1, 2, 3])
class TestRealFieldsOnTheHalfSpectrum:
    """Real fields go through rfftn/irfftn and agree with the full complex spectrum."""

    def test_gradient(self, dim, dtype):
        g = Grid(n=16, length=10.0, dim=dim)
        f = np.random.default_rng(dim).standard_normal(g.shape).astype(dtype)
        for ax, got in enumerate(g.gradient(f)):
            want = _reference_derivative(g, f, ax)
            assert got.dtype == dtype
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            assert _owns_real_memory(got)

    def test_divergence(self, dim, dtype):
        g = Grid(n=16, length=10.0, dim=dim)
        rng = np.random.default_rng(10 + dim)
        comps = [rng.standard_normal(g.shape).astype(dtype) for _ in range(dim)]
        got = g.divergence(comps)
        want = sum(_reference_derivative(g, c, ax) for ax, c in enumerate(comps))
        assert got.dtype == dtype
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert _owns_real_memory(got)

    def test_gradient_energy_is_the_squared_gradient_integral(self, dim, dtype):
        # Parseval on the half spectrum against the transform pair per axis, on
        # white noise (every mode, Nyquist included); 200 seeds measured at most
        # 2.8 eps of either dtype, the bound is 8 eps
        g = Grid(n=16, length=10.0, dim=dim)
        f = np.random.default_rng(20 + dim).standard_normal(g.shape).astype(dtype)
        got = g.gradient_energy(f)
        want = g.quadrature(sum(d**2 for d in g.gradient(f)))
        assert type(got) is (float if dtype is np.float64 else np.longdouble)
        assert abs(got - want) <= 8 * np.finfo(dtype).eps * want


STACK_GRIDS = [Grid(n=64, length=20.0), Grid(n=32, length=20.0, dim=2)]
LEAD = (2, 3)


def _stack(grid, dtype, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(LEAD + grid.shape)
    if np.dtype(dtype).kind == "c":
        f = f + 1j * rng.standard_normal(LEAD + grid.shape)
    return f.astype(dtype)


def _members():
    return list(np.ndindex(LEAD))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble, np.complex128])
@pytest.mark.parametrize("g", STACK_GRIDS, ids=["1d", "2d"])
class TestStacks:
    """Leading axes are a batch: each member gets, bit for bit, its result alone."""

    def test_quadrature(self, g, dtype):
        f = _stack(g, dtype, 1)
        q = g.quadrature(f)
        assert q.shape == LEAD
        for m in _members():
            assert q[m] == g.quadrature(f[m])

    def test_gradient_and_laplacian(self, g, dtype):
        f = _stack(g, dtype, 2)
        grads, lap = g.gradient(f), g.laplacian(f)
        for m in _members():
            assert all(np.array_equal(a[m], b) for a, b in zip(grads, g.gradient(f[m]), strict=True))
            assert np.array_equal(lap[m], g.laplacian(f[m]))

    def test_fd_gradient(self, g, dtype):
        f = _stack(g, dtype, 3)
        grads = g.fd_gradient(f)
        for m in _members():
            assert all(np.array_equal(a[m], b) for a, b in zip(grads, g.fd_gradient(f[m]), strict=True))

    def test_divergences(self, g, dtype):
        comps = [_stack(g, dtype, 4 + ax) for ax in range(g.dim)]
        spectral, centered = g.divergence(comps), g.fd_divergence(comps)
        for m in _members():
            assert np.array_equal(spectral[m], g.divergence([c[m] for c in comps]))
            assert np.array_equal(centered[m], g.fd_divergence([c[m] for c in comps]))


def test_fd_divergence_is_the_adjoint_of_fd_gradient_on_a_2d_stack():
    # one antisymmetric stencil: summation by parts holds for every member, to rounding
    g = STACK_GRIDS[1]
    f = _stack(g, np.float64, 8)
    comps = [_stack(g, np.float64, 9 + ax) for ax in range(g.dim)]
    lhs = g.quadrature(f * g.fd_divergence(comps))
    rhs = -sum(g.quadrature(d * c) for d, c in zip(g.fd_gradient(f), comps, strict=True))
    assert lhs.shape == LEAD
    assert np.abs(lhs - rhs).max() < 1e-13


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("g", STACK_GRIDS, ids=["1d", "2d"])
def test_gradient_energy_of_a_stack(g, dtype):
    f = _stack(g, dtype, 6)
    energy = g.gradient_energy(f)
    assert energy.shape == LEAD and energy.dtype == dtype
    for m in _members():
        assert energy[m] == g.gradient_energy(f[m])


def test_stack_with_wrong_trailing_shape_rejected(grid):
    with pytest.raises(GridMismatchError):
        grid.quadrature(np.zeros((3, grid.n // 2)))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("g", STACK_GRIDS, ids=["1d", "2d"])
def test_position_moments_of_a_stack(g, dtype):
    # the integrals against 1, x along each axis and |x|^2, one product per member: each
    # row bit for bit its lone row, and within 64 eps of the summed products
    f = _stack(g, dtype, 7)
    moments = g._position_moments(f)
    assert moments.shape == LEAD + (g.dim + 2,) and moments.dtype == dtype
    weights = [1.0, *g.coords, sum(c**2 for c in g.coords)]
    for m in _members():
        assert np.array_equal(moments[m], g._position_moments(f[m]))
        want = [g.quadrature(f[m] * w) for w in weights]
        scale = g.quadrature(np.abs(f[m]) * (1.0 + weights[-1]))
        assert np.abs(moments[m] - want).max() <= 64 * np.finfo(dtype).eps * scale


@pytest.mark.parametrize("g", STACK_GRIDS, ids=["1d", "2d"])
def test_spectral_moments_of_a_stack(g):
    # the squared float view of a spectrum against the spectral table: sums of |fhat|^2
    # against 1, k along each axis and |k|^2
    fhat = _stack(g, np.complex128, 8)
    parts = fhat.view(np.float64)
    moments = g._moments(parts * parts, g._spectral_moment_table)
    assert moments.shape == LEAD + (g.dim + 2,)
    power = np.abs(fhat) ** 2
    weights = [1.0, *(g._wavenumber_table[..., ax] for ax in range(g.dim)), g.k_squared]
    for m in _members():
        assert np.array_equal(moments[m], g._moments(parts[m] * parts[m], g._spectral_moment_table))
        want = [(power[m] * w).sum() for w in weights]
        scale = (power[m] * (1.0 + g.k_squared)).sum()
        assert np.abs(moments[m] - want).max() <= 64 * np.finfo(np.float64).eps * scale


TRANSFORM_GRIDS = [Grid(n=32, length=20.0), Grid(n=16, length=20.0, dim=2), Grid(n=16, length=20.0, dim=3)]


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble, np.complex128, np.clongdouble])
@pytest.mark.parametrize("lead", [(), (2,), (2, 3)], ids=["lone", "stack", "stack2"])
@pytest.mark.parametrize("g", TRANSFORM_GRIDS, ids=["1d", "2d", "3d"])
def test_transforms_are_numpys_nd_transforms(g, lead, dtype):
    # the grid's transforms call numpy's 1-D transforms axis by axis: each gives bit for
    # bit what numpy's n-D function gives, also made in place into its complex input
    rng = np.random.default_rng(len(lead) + 3 * g.dim)
    real = np.dtype(dtype).kind == "f"
    f = rng.standard_normal(lead + g.shape)
    if not real:
        f = f + 1j * rng.standard_normal(f.shape)
    f = f.astype(dtype)
    axes = g._trailing_axes
    pairs = [(g._fftn(f), np.fft.fftn(f, axes=axes)), (g._ifftn(f), np.fft.ifftn(f, axes=axes))]
    if real:
        half = np.fft.rfftn(f, axes=axes)
        pairs.append((g._rfftn(f), half))
    else:
        half = f[..., :g.n // 2 + 1].copy()  # a half spectrum of the input's precision
        for ours, theirs in ((g._fftn, np.fft.fftn), (g._ifftn, np.fft.ifftn)):
            inplace = f.copy()
            assert ours(inplace, out=inplace) is inplace
            pairs.append((inplace, theirs(f, axes=axes)))
    pairs.append((g._irfftn(half), np.fft.irfftn(half, s=g.shape, axes=axes)))
    for got, want in pairs:
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_no_path_calls_numpys_nd_transforms(monkeypatch):
    # a tau-run, a t-run, one oracle field and a long-double Fisher integral, on fresh fields
    # whose caches hold no transform yet, all transform through the grid's 1-D calls only
    def refused(*args, **kwargs):
        raise AssertionError("an n-D numpy transform was called")

    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, refused)
    grid = Grid(n=256, length=40.0)
    state = make_gaussian(GaussianParams(sigma2=1.0, b=0.5), grid)
    assert len(run_trajectory(to_wave(state), "tau", 1e-3, 20).records) == 21
    assert len(run_trajectory(to_wave(state), "t", 0.05, 20).records) == 21
    where = np.zeros(grid.shape, dtype=bool)
    where[grid.n // 2 - 2:grid.n // 2 + 2] = True
    assert np.count_nonzero(fd_functional_derivative(FunctionalTag.H_Q, state, "rho", where=where)) == 4
    assert grid.gradient_energy(state.sqrt_rho.astype(np.longdouble)).dtype == np.longdouble


def _rolled_difference(g, f, ax):
    """The centred stencil on two rolled copies of ``f``: the reference for the grid's sliced one."""
    return (np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax)) * (1.0 / (2.0 * g.spacing))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("lead", [(), (1,), (2, 3)], ids=["lone", "one-row", "stack"])
@pytest.mark.parametrize("g", TRANSFORM_GRIDS, ids=["1d", "2d", "3d"])
def test_centred_stencil_is_the_rolled_difference(g, lead, dtype):
    # bit for bit the rolled formula, into one new C-ordered array, also for a broadcast view
    rng = np.random.default_rng(len(lead) + 3 * g.dim)
    f = rng.standard_normal(lead + g.shape).astype(dtype)
    comps = [rng.standard_normal(lead + g.shape).astype(dtype) for _ in range(g.dim)]
    wanted = [_rolled_difference(g, f, ax) for ax in g._trailing_axes]
    for got in (g.fd_gradient(f), [g._centred_difference(f, ax) for ax in g._trailing_axes]):
        for a, b in zip(got, wanted, strict=True):
            assert a.dtype == b.dtype and a.flags.c_contiguous and np.array_equal(a, b)
    divergence = g.fd_divergence(comps)
    want = sum(_rolled_difference(g, c, ax) for ax, c in zip(g._trailing_axes, comps, strict=True))
    assert divergence.dtype == want.dtype and divergence.flags.c_contiguous
    assert np.array_equal(divergence, want)
    wide = np.broadcast_to(f, (2,) + f.shape)
    (got, *_) = g.fd_gradient(wide)
    assert got.flags.c_contiguous and np.array_equal(got, _rolled_difference(g, wide, -g.dim))
