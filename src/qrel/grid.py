"""Periodic uniform grid with spectral calculus and quadrature.

Every field in the package is a plain ndarray sampled on a centered
periodic box.  The box is deliberately large compared to the states of
interest so that localized fields decay below 1e-12 before the boundary;
spectral differentiation and rectangle-rule quadrature are then accurate
to machine precision for band-limited integrands.

First derivatives of a real field (``gradient``, ``divergence``) go
through the rfftn half spectrum, which holds every independent mode of
a real field at half the work of a complex transform; complex fields
keep the full spectrum.  The integral of a real field's squared
gradient (``gradient_energy``, the Fisher term of every functional)
follows from the half spectrum by Parseval, so it takes one forward
transform and no inverse.  The Laplacian stays on complex transforms for
both.  The quantum potential ``laplacian(sqrt rho) / sqrt rho`` divides
by sqrt rho ~ 1e-6 at the rim of its comparison region, so it magnifies
the Laplacian's rounding noise: on the half spectrum the functionals
suite's quantum-potential field check reads 1.9e-8 against its 1e-8
bound, against 5.0e-9 on the full spectrum.

Every transform in the package is one of four ``Grid`` methods
(``_fftn``, ``_ifftn``, ``_rfftn``, ``_irfftn``), which call numpy's 1-D
transforms once per grid axis, in the order numpy's n-D functions take
the axes, and so give their bits.  The n-D wrappers check and normalize
their shape and axes arguments on every call: with numpy 2.4 that is
about a fifth of a 512-point transform's time, and the tau-march, bound
by per-call overhead, makes four transforms a step.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, GridMismatchError


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on a box of side ``length`` centered at 0.

    Parameters
    ----------
    n : int
        Points per axis; must be a power of two and at least 16.
    length : float
        Box side L in position units.
    dim : int, optional
        Spatial dimension (1 is the primary case; 2 and 3 are supported).

    Notes
    -----
    Coordinates run from -L/2 to L/2 - h with spacing h = L/n, and the
    wavenumbers are the standard discrete Fourier set of the periodic box.
    All derived arrays are cached and marked read-only; a ``Grid`` is safe
    to share across threads.

    Operators act on the trailing ``dim`` axes of their input; any leading
    axes are a batch (a *stack* of fields), and each member of a stack
    gets bit for bit the result it gets alone.
    """

    n: int
    length: float
    dim: int = 1

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not _is_power_of_two(int(self.n)) or self.n < 16:
            raise ConfigurationError(f"grid.n must be a power of two >= 16, got {self.n!r}")
        if not self.length > 0:
            raise ConfigurationError(f"grid.length must be positive, got {self.length!r}")
        # an integer type, so that 1.0 and True are refused rather than compared equal to 1
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)) \
                or self.dim not in (1, 2, 3):
            raise ConfigurationError(f"grid.dim must be 1, 2 or 3, got {self.dim!r}")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def size(self) -> int:
        return self.n**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @cached_property
    def axis(self) -> np.ndarray:
        """1-D coordinate array, identical for every axis."""
        x = (np.arange(self.n) - self.n // 2) * self.spacing
        x.setflags(write=False)
        return x

    @cached_property
    def coords(self) -> tuple:
        """Per-axis coordinate fields of shape ``self.shape`` (ij indexing)."""
        mesh = np.meshgrid(*([self.axis] * self.dim), indexing="ij")
        for m in mesh:
            m.setflags(write=False)
        return tuple(mesh)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """1-D wavenumber array 2*pi*fftfreq(n, spacing)."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)
        k.setflags(write=False)
        return k

    @cached_property
    def k_squared(self) -> np.ndarray:
        """Field of |k|^2 values, shape ``self.shape``."""
        mesh = np.meshgrid(*([self.wavenumbers] * self.dim), indexing="ij")
        k2 = sum(m**2 for m in mesh)
        k2.setflags(write=False)
        return k2

    @cached_property
    def _minus_k_squared(self) -> np.ndarray:
        # the Laplacian's spectral factor -|k|^2
        k2 = -self.k_squared
        k2.setflags(write=False)
        return k2

    @cached_property
    def _axis_wavenumbers(self) -> tuple:
        # the wavenumbers along each axis, shaped to broadcast over the grid axes
        # (read-only views of ``wavenumbers``)
        return tuple(self.wavenumbers.reshape([self.n if ax == i else 1 for i in range(self.dim)])
                     for ax in range(self.dim))

    @cached_property
    def _derivative_factors(self) -> tuple:
        # ik per axis, broadcast-shaped; the Nyquist mode is zeroed so the
        # first-derivative operator stays a real antisymmetric map.
        nyquist = self.wavenumbers[self.n // 2]
        factors = tuple(np.where(k == nyquist, 0j, 1j * k) for k in self._axis_wavenumbers)
        for f in factors:
            f.setflags(write=False)
        return factors

    @cached_property
    def _half_derivative_factors(self) -> tuple:
        # the same factors on the rfftn half spectrum, whose last axis holds
        # the n//2 + 1 non-negative wavenumbers (rfftfreq), Nyquist zeroed
        return tuple(f[..., : self.n // 2 + 1] for f in self._derivative_factors)

    @cached_property
    def _gradient_energy_weights(self) -> dict:
        # w |k|^2 on the half spectrum (see gradient_energy), per real dtype: |k|^2
        # from the Nyquist-zeroed factors, squared in long double so that long
        # double input keeps its precision; w = 2 off the last axis's first and
        # Nyquist columns
        columns = np.full(self.n // 2 + 1, 2.0)
        columns[[0, -1]] = 1.0
        exact = columns * sum(f.imag.astype(np.longdouble) ** 2 for f in self._half_derivative_factors)
        weights = {np.dtype(np.longdouble): exact, np.dtype(np.float64): exact.astype(np.float64)}
        for w in weights.values():
            w.setflags(write=False)
        return weights

    @cached_property
    def _wavenumber_table(self) -> np.ndarray:
        # the wavenumber of each mode along each axis, shape ``self.shape + (dim,)``
        table = np.stack(np.meshgrid(*([self.wavenumbers] * self.dim), indexing="ij"), axis=-1)
        table.setflags(write=False)
        return table

    @cached_property
    def _spectral_moment_table(self) -> np.ndarray:
        # [1, k along each axis, |k|^2] for each mode in C order, each row twice: the float
        # view of a complex spectrum interleaves real and imaginary parts, so its squares
        # times this table sum |fhat|^2 against each column (see _moments)
        k = self._wavenumber_table.reshape(self.size, self.dim)
        table = np.repeat(np.column_stack([np.ones(self.size), k, (k * k).sum(axis=1)]), 2, axis=0)
        table.setflags(write=False)
        return table

    @cached_property
    def _position_moment_tables(self) -> dict:
        # [1, x along each axis, |x|^2] for each sample in C order, by real dtype, each
        # table made on first use (see _position_moments)
        return {}

    def _moments(self, f: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Sums of each member of ``f`` (flattened in C order) times each column of ``table``.

        One matrix product per member, each the product its lone field
        makes, so every member's row is bit for bit its lone row; the
        result has one row of ``table.shape[1]`` sums per member.
        """
        rows = f.reshape(-1, 1, table.shape[0]) @ table
        return rows.reshape(f.shape[:f.ndim - self.dim] + table.shape[1:])

    def _position_moments(self, f: np.ndarray) -> np.ndarray:
        """Integrals of a real ``f`` against [1, x along each axis, |x|^2], one row per member."""
        table = self._position_moment_tables.get(f.dtype)
        if table is None:
            x = np.stack([c.ravel() for c in self.coords], axis=1).astype(f.dtype)
            table = np.column_stack([np.ones(self.size, dtype=f.dtype), x, (x * x).sum(axis=1)])
            table.setflags(write=False)
            self._position_moment_tables[f.dtype] = table
        return self._moments(f, table) * self.cell_volume

    @cached_property
    def _trailing_axes(self) -> tuple:
        return tuple(range(-self.dim, 0))

    # Transforms over the trailing axes, one numpy 1-D transform per axis in
    # the order numpy's n-D functions take them (see the module docstring):
    # their wrappers' argument handling costs a few microseconds a call on
    # the per-call-bound tau path.  ``out`` may be the complex input itself
    # (the transform is then made in place, with the same values).

    def _fftn(self, f: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        for ax in reversed(self._trailing_axes):
            f = np.fft.fft(f, axis=ax, out=out)
        return f

    def _ifftn(self, f: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        for ax in reversed(self._trailing_axes):
            f = np.fft.ifft(f, axis=ax, out=out)
        return f

    def _rfftn(self, f: np.ndarray) -> np.ndarray:
        f = np.fft.rfft(f, axis=-1)
        for ax in reversed(self._trailing_axes[:-1]):
            f = np.fft.fft(f, axis=ax)
        return f

    def _irfftn(self, f: np.ndarray) -> np.ndarray:
        for ax in self._trailing_axes[:-1]:
            f = np.fft.ifft(f, axis=ax)
        return np.fft.irfft(f, self.n, axis=-1)

    def _first_derivative_transforms(self, f: np.ndarray) -> tuple:
        """Forward and inverse transform and ik factors for ``f``: the half spectrum for a real field."""
        if np.iscomplexobj(f):
            return self._fftn, self._ifftn, self._derivative_factors
        return self._rfftn, self._irfftn, self._half_derivative_factors

    def bind(self, f: np.ndarray) -> np.ndarray:
        """Validate that ``f`` is a sample array, or a stack of them, on this grid."""
        f = np.asarray(f)
        if f.shape[-self.dim:] != self.shape:
            raise GridMismatchError(f"field shape {f.shape} does not match grid shape {self.shape}")
        return f

    def quadrature(self, f: np.ndarray):
        """Integrate ``f`` over the box: spacing^dim times the sample sum.

        The rectangle rule is spectrally accurate for periodic integrands.
        A stack gives an array of one value per member.  Each member is
        summed bit for bit as it is alone only while its own axes have the
        smallest strides (a C-contiguous stack): numpy adds pairwise along
        the innermost stride, so a stack whose batch axis is innermost
        would be summed element by element across members instead.
        """
        f = self.bind(f)
        return self._integral_value(f, f.sum(axis=self._trailing_axes) * self.cell_volume)

    def _integral_value(self, f: np.ndarray, total):
        # the integral ``total`` of ``f`` as quadrature returns it
        if f.ndim != self.dim or f.dtype in (np.longdouble, np.clongdouble):
            return total  # one value per member, or extended precision for the oracle
        return complex(total) if np.iscomplexobj(f) else float(total)

    def gradient_energy(self, f: np.ndarray):
        """integral |grad f|^2 of a real field, from its rfftn half spectrum alone.

        By Parseval the quadrature of the squared :meth:`gradient` is
        (h^d / n^d) * sum over the half spectrum of w |k|^2 |fhat|^2, with
        each axis's Nyquist mode zeroed as the gradient zeroes it and w
        counting the last axis's interior columns twice (they stand for
        their conjugate partners).  So the integral costs one forward
        transform instead of a transform pair per axis.  Values are
        returned as :meth:`quadrature` returns them: one per member of a
        stack, each bit for bit its lone value, and long double for long
        double input.
        """
        f = self.bind(f)
        fhat = self._rfftn(f)
        power = fhat.real**2 + fhat.imag**2
        total = (self._gradient_energy_weights[power.dtype] * power).sum(axis=self._trailing_axes)
        return self._integral_value(f, total * (self.cell_volume / self.size))

    def gradient(self, f: np.ndarray, fhat: np.ndarray = None) -> list:
        """Spectral per-axis derivative; exact for band-limited fields.

        Intended for fields that decay at the boundary (densities,
        amplitudes, wave functions).  Phase fields are generally not
        periodic and must not be differentiated this way.  A real ``f``
        goes through the rfftn half spectrum and gives real arrays of its
        own precision; a complex ``f`` goes through the full spectrum.
        ``fhat``, when given, must be that transform of ``f`` over the
        grid axes (the half spectrum for a real ``f``); it saves
        recomputing the transform of a field whose transform is already
        held.
        """
        f = self.bind(f)
        forward, inverse, factors = self._first_derivative_transforms(f)
        if fhat is None:
            fhat = forward(f)
        return [inverse(fhat * factor) for factor in factors]

    def divergence(self, components: list) -> np.ndarray:
        """Spectral divergence, the counterpart of :meth:`fd_divergence`.

        Each component is differentiated along its own axis only: one
        transform pair per component, on the rfftn half spectrum for a
        real component (see :meth:`gradient`).
        """
        out = 0
        for ax, comp in zip(range(self.dim), components, strict=True):
            comp = self.bind(comp)
            forward, inverse, factors = self._first_derivative_transforms(comp)
            out = out + inverse(forward(comp) * factors[ax])
        return out

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Spectral Laplacian: multiplication by -|k|^2 in Fourier space.

        Complex transforms for real fields too; see the module docstring.
        """
        f = self.bind(f)
        fhat = self._fftn(f)
        fhat *= self._minus_k_squared
        g = self._ifftn(fhat, out=fhat)
        return g.real if not np.iscomplexobj(f) else g

    def _centred_difference(self, f: np.ndarray, ax: int) -> np.ndarray:
        # (f[j+1] - f[j-1]) / 2h along grid axis ``ax``, wrapping at one cell on each face:
        # the differences of slices of f, written into one new C-ordered array and then
        # scaled, the same elementwise operations as on two rolled copies of f
        def along(cells):
            return (Ellipsis, cells) + (slice(None),) * (-1 - ax)

        out = np.empty(f.shape, dtype=np.result_type(f, 1.0))
        np.subtract(f[along(slice(2, None))], f[along(slice(None, -2))], out=out[along(slice(1, -1))])
        np.subtract(f[along(slice(1, 2))], f[along(slice(-1, None))], out=out[along(slice(None, 1))])
        np.subtract(f[along(slice(None, 1))], f[along(slice(-2, -1))], out=out[along(slice(-1, None))])
        out *= 1.0 / (2.0 * self.spacing)
        return out

    def fd_gradient(self, f: np.ndarray) -> list:
        """Centered-difference per-axis derivative with periodic wrap.

        The stencil it shares with :meth:`fd_divergence` (``_centred_difference``)
        has 2 wrap cells per axis.  Exact for quadratic fields away from them;
        the safe choice for phase fields, whose wrap error sits where the
        density weight vanishes.
        """
        f = self.bind(f)
        return [self._centred_difference(f, ax) for ax in self._trailing_axes]

    def fd_divergence(self, components: list) -> np.ndarray:
        """Centered-difference divergence, the exact adjoint of :meth:`fd_gradient`.

        Each component is differenced along its own axis by the stencil
        they share, antisymmetric and with 2 wrap cells per axis.
        """
        out = 0
        for ax, comp in zip(self._trailing_axes, components, strict=True):
            out = out + self._centred_difference(self.bind(comp), ax)
        return out
