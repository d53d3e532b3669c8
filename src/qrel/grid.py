"""Periodic uniform grid with spectral calculus and quadrature.

Every field in the package is a plain ndarray sampled on a centered
periodic box.  The box is deliberately large compared to the states of
interest so that localized fields decay below 1e-12 before the boundary;
spectral differentiation and rectangle-rule quadrature are then accurate
to machine precision for band-limited integrands.
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
    """

    n: int
    length: float
    dim: int = 1

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not _is_power_of_two(int(self.n)) or self.n < 16:
            raise ConfigurationError(f"grid.n must be a power of two >= 16, got {self.n!r}")
        if not self.length > 0:
            raise ConfigurationError(f"grid.length must be positive, got {self.length!r}")
        if self.dim not in (1, 2, 3):
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
    def _derivative_factors(self) -> tuple:
        # ik per axis, broadcast-shaped; the Nyquist mode is zeroed so the
        # first-derivative operator stays a real antisymmetric map.
        factors = []
        kd = 1j * self.wavenumbers.copy()
        kd[self.n // 2] = 0.0
        for ax in range(self.dim):
            shape = [1] * self.dim
            shape[ax] = self.n
            f = kd.reshape(shape)
            f.setflags(write=False)
            factors.append(f)
        return tuple(factors)

    def bind(self, f: np.ndarray) -> np.ndarray:
        """Validate that ``f`` is a sample array on this grid."""
        f = np.asarray(f)
        if f.shape != self.shape:
            raise GridMismatchError(f"field shape {f.shape} does not match grid shape {self.shape}")
        return f

    def quadrature(self, f: np.ndarray):
        """Integrate ``f`` over the box: spacing^dim times the sample sum.

        The rectangle rule is spectrally accurate for periodic integrands.
        """
        f = self.bind(f)
        total = f.sum() * self.cell_volume
        if f.dtype in (np.longdouble, np.clongdouble):
            return total  # keep extended precision for the oracle
        return complex(total) if np.iscomplexobj(f) else float(total)

    def gradient(self, f: np.ndarray, fhat: np.ndarray = None) -> list:
        """Spectral per-axis derivative; exact for band-limited fields.

        Intended for fields that decay at the boundary (densities,
        amplitudes, wave functions).  Phase fields are generally not
        periodic and must not be differentiated this way.  ``fhat``, when
        given, must be ``np.fft.fftn(f)``; it saves recomputing the
        transform of a field whose transform is already held.
        """
        f = self.bind(f)
        if fhat is None:
            fhat = np.fft.fftn(f)
        real = not np.iscomplexobj(f)
        out = []
        for factor in self._derivative_factors:
            g = np.fft.ifftn(fhat * factor)
            out.append(g.real if real else g)
        return out

    def divergence(self, components: list) -> np.ndarray:
        """Spectral divergence, the counterpart of :meth:`fd_divergence`.

        Each component is differentiated along its own axis only: one
        transform pair per component.
        """
        out = 0
        for comp, factor in zip(components, self._derivative_factors, strict=True):
            comp = self.bind(comp)
            g = np.fft.ifftn(np.fft.fftn(comp) * factor)
            out = out + (g if np.iscomplexobj(comp) else g.real)
        return out

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Spectral Laplacian: multiplication by -|k|^2 in Fourier space."""
        f = self.bind(f)
        g = np.fft.ifftn(-self.k_squared * np.fft.fftn(f))
        return g.real if not np.iscomplexobj(f) else g

    def fd_gradient(self, f: np.ndarray) -> list:
        """Centered-difference per-axis derivative with periodic wrap.

        Exact for polynomial fields away from the wrap cells; the safe
        choice for phase fields, whose wrap error sits where the density
        weight vanishes.
        """
        f = self.bind(f)
        inv = 1.0 / (2.0 * self.spacing)
        return [(np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax)) * inv for ax in range(self.dim)]

    def fd_divergence(self, components: list) -> np.ndarray:
        """Centered-difference divergence, the adjoint of :meth:`fd_gradient`."""
        inv = 1.0 / (2.0 * self.spacing)
        out = np.zeros(self.shape, dtype=np.result_type(*[np.asarray(c).dtype for c in components]))
        for ax, comp in enumerate(components):
            comp = self.bind(comp)
            out += (np.roll(comp, -1, axis=ax) - np.roll(comp, 1, axis=ax)) * inv
        return out
