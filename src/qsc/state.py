"""Pure states as truncated Fock-coefficient sequences, and their densities.

The rotation by an angle theta of the quadrature observable
s_theta = cos(theta) x - sin(theta) p is diagonal in the oscillator basis:
each coefficient just picks up the phase exp(i n theta).  That phase rule is
exact, so rotation never touches a grid; only density evaluation does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import NumericsError
from .hermite import BasisTable

__all__ = ["DensityProfile", "FockState", "Grid", "canonical_theta",
           "default_grid", "density_block", "eval_density", "make_state",
           "rotate"]

NORM_TOL = 1e-10


def canonical_theta(theta: float) -> float:
    """Reduce theta to the canonical manifold [0, pi)."""
    t = math.fmod(theta, math.pi)
    if t < 0.0:
        t += math.pi
    return 0.0 if t == math.pi else t


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric lattice x_j = -L + j*dx with dx = 2L/(M-1).

    Points are built antisymmetrically (x[M-1-j] == -x[j] exactly) so parity
    relations survive at the bit level.
    """

    extent: float
    count: int
    points: np.ndarray = field(init=False, repr=False, compare=False)
    dx: float = field(init=False)

    def __post_init__(self):
        if self.extent <= 0.0:
            raise ValueError("grid extent must be positive")
        if self.count < 2:
            raise ValueError("grid needs at least 2 points")
        m = self.count
        pts = self.extent * (2.0 * np.arange(m) - (m - 1)) / (m - 1)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dx", 2.0 * self.extent / (m - 1))


def default_grid(n_max: int, grid_points: int = 4096, margin: float = 6.0) -> Grid:
    """Classical turning point of the highest basis function plus ``margin``
    units of Gaussian decay; tail contributions land below 1e-12."""
    return Grid(extent=math.sqrt(2.0 * n_max + 1.0) + margin, count=grid_points)


@dataclass(frozen=True)
class FockState:
    """Unit-norm complex coefficients c_0..c_N in the oscillator basis."""

    coeffs: np.ndarray

    @property
    def n_max(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    @property
    def trailing_weight(self) -> float:
        """|c_N|^2 of the last kept coefficient, a truncation diagnostic."""
        return float(np.abs(self.coeffs[-1]) ** 2)


def make_state(coeffs, renormalize: bool = False) -> FockState:
    """Build a FockState, verifying (or restoring) unit norm.

    Without ``renormalize`` the squared norm must already be within 1e-10 of
    one; with it, any nonzero vector is accepted and scaled.
    """
    c = np.ascontiguousarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.shape[0] == 0:
        raise ValueError("coefficients must be a non-empty 1-d sequence")
    norm = math.sqrt(float(np.sum(np.abs(c) ** 2)))
    if norm == 0.0:
        raise ValueError("state vector is identically zero")
    if renormalize:
        c = c / norm
    elif abs(norm - 1.0) > NORM_TOL:
        raise ValueError(
            f"norm {norm!r} deviates from 1 by more than {NORM_TOL}; "
            "pass renormalize=True to accept")
    c.setflags(write=False)
    return FockState(coeffs=c)


def rotate(state: FockState, theta: float) -> FockState:
    """Apply c_n -> c_n exp(i n theta); the norm is preserved exactly."""
    n = np.arange(state.coeffs.shape[0])
    c = state.coeffs * np.exp(1j * n * theta)
    c.setflags(write=False)
    return FockState(coeffs=c)


@dataclass(frozen=True)
class DensityProfile:
    """Density rho(s_theta) and its analytic derivative on a grid.

    ``dpsi_abs2`` carries |psi'(x_j)|^2 when the profile comes from a
    wavefunction; it supplies the finite limit of the Fisher integrand at
    nodes.  Profiles built from bare samples leave it None.
    """

    grid: Grid
    theta: float
    rho: np.ndarray
    drho: np.ndarray
    dpsi_abs2: np.ndarray | None = None

    @classmethod
    def from_samples(cls, grid: Grid, rho, theta: float = 0.0) -> "DensityProfile":
        """Wrap sampled density values; drho falls back to finite differences."""
        rho = np.ascontiguousarray(rho, dtype=float)
        if rho.shape[0] != grid.count:
            raise ValueError("sample length does not match grid")
        drho = np.gradient(rho, grid.dx)
        return cls(grid=grid, theta=canonical_theta(theta), rho=rho, drho=drho)

    def mass(self) -> float:
        """Trapezoid integral of rho over the grid."""
        return float(_kernels.trapezoid(self.rho, self.grid.dx))


def density_block(state: FockState, thetas, grid: Grid, table: BasisTable):
    """rho = |psi|^2, drho = 2 Re(conj(psi) psi') and |psi'|^2 at every angle
    of ``thetas``, as (len(thetas) x M) arrays, one row per angle.

    psi(x_j) = sum_n c_n exp(i n theta) u_n(x_j); the derivative uses the
    tabulated ladder derivatives, never finite differences.  The phase is
    applied with the raw angles.
    """
    k = state.coeffs.shape[0]
    if table.n_max < state.n_max:
        raise NumericsError(
            f"basis table holds n <= {table.n_max} but state needs {state.n_max}")
    if table.points.shape[0] != grid.count or table.points[0] != grid.points[0]:
        raise NumericsError("basis table was built on a different grid")
    phases = np.exp(1j * np.multiply.outer(np.asarray(thetas, dtype=float),
                                           np.arange(k)))
    return _kernels.density_terms(state.coeffs * phases,
                                  table.values[:k], table.derivs[:k])


def eval_density(state: FockState, theta: float, grid: Grid,
                 table: BasisTable) -> DensityProfile:
    """The density profile at one angle: a one-row ``density_block``.  The
    stored angle is canonicalized to [0, pi)."""
    rho, drho, dpsi_abs2 = density_block(state, [theta], grid, table)
    return DensityProfile(grid=grid, theta=canonical_theta(theta),
                          rho=rho[0], drho=drho[0], dpsi_abs2=dpsi_abs2[0])
