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

from .errors import NumericsError
from .hermite import BasisTable, ladder

__all__ = ["AnalyticGaussian", "DensityProfile", "FockState", "Grid",
           "canonical_theta", "default_grid", "density_block", "eval_density",
           "gaussian_sigma_theta", "make_state", "mirror_axis", "rotate"]

NORM_TOL = 1e-10
# Largest imaginary residual, relative to the largest coefficient, that
# ``mirror_axis`` forgives: the rounding of the phases, no more
MIRROR_TOL = 1e-12
_TINY = np.finfo(float).tiny
# Float rows per angle in the buffer of a ``_Workspace``; its ``_Scratch``
# adds the eighth, the scratch row
_DENSITY_ROWS = 7
# Gaussian widths whose sigma^4 and sigma^-4 are normal floats, so the
# rotated variance neither overflows nor loses its smaller term to underflow
SIGMA_MIN = float(_TINY) ** 0.25
SIGMA_MAX = 1.0 / SIGMA_MIN


def canonical_theta(theta: float) -> float:
    """Reduce theta to the canonical manifold [0, pi); 0 is always +0.0."""
    t = math.fmod(theta, math.pi)
    if t < 0.0:
        t += math.pi
    # fmod keeps the sign of a zero (-0.0, -pi), and -tiny + pi rounds to pi
    return 0.0 if t == 0.0 or t == math.pi else t


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


def _check_sigma(sigma: float) -> None:
    if not SIGMA_MIN <= sigma <= SIGMA_MAX:
        raise ValueError(f"sigma must lie in [{SIGMA_MIN:.3g}, "
                         f"{SIGMA_MAX:.3g}], got {sigma!r}")


def gaussian_sigma_theta(sigma: float, theta: float) -> float:
    """Variance of a Gaussian density after rotation to angle theta:
    sigma_theta^2 = (sin^2 theta + sigma^4 cos^2 theta) / sigma^2."""
    _check_sigma(sigma)
    s, c = math.sin(theta), math.cos(theta)
    return (s * s + sigma ** 4 * c * c) / (sigma * sigma)


@dataclass(frozen=True)
class AnalyticGaussian:
    """A state whose density is Gaussian in every rotated quadrature, of
    variance ``gaussian_sigma_theta(sigma, theta)``."""

    sigma: float

    def __post_init__(self):
        _check_sigma(self.sigma)


def make_state(coeffs, renormalize: bool = False) -> FockState:
    """Build a FockState, verifying (or restoring) unit norm.

    Without ``renormalize`` the squared norm must already be within 1e-10 of
    one; with it, any finite nonzero vector is accepted and scaled.
    """
    c = np.ascontiguousarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.shape[0] == 0:
        raise ValueError("coefficients must be a non-empty 1-d sequence")
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    if not c.any():
        raise ValueError("state vector is identically zero")
    with np.errstate(over="ignore", under="ignore"):
        sum_sq = float(np.sum(np.abs(c) ** 2))
    if renormalize and not _TINY <= sum_sq < math.inf:
        # the squares underflow or overflow: divide the real and imaginary
        # parts by the largest of them first (as floats: a complex quotient
        # by a subnormal overflows), leaving every modulus below sqrt(2)
        parts = c.view(float)
        c = (parts / np.max(np.abs(parts))).view(complex)
        sum_sq = float(np.sum(np.abs(c) ** 2))
    norm = math.sqrt(sum_sq)
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


def mirror_axis(state: FockState) -> float | None:
    """An angle a in [0, pi/2) about which the complexity curve is even,
    cfs(a + t) = cfs(a - t), or None when the coefficients show none.

    When c_n = r_n exp(i(phi + n beta)) with real r_n, the state rotated by
    -beta + t is, up to a global phase, the complex conjugate of the state
    rotated by -beta - t, and conjugation leaves every density as it is; so
    a = -beta, reduced mod pi/2 (the curve is pi-periodic).  The two
    largest coefficients fix beta mod pi up to a multiple of pi/d, d their
    index gap; each candidate, beta = 0 first (a real state has axis 0
    exactly), is kept when every c_n exp(-i(phi + n beta)) is real within
    MIRROR_TOL of the largest |c_n|.
    """
    c = state.coeffs
    mag = np.abs(c)
    n0 = int(np.argmax(mag))
    tol = MIRROR_TOL * mag[n0]
    unit = c[n0] / mag[n0]
    n = np.arange(c.shape[0]) - n0

    def fits(beta: float) -> bool:
        w = c * np.conj(unit) * np.exp(-1j * beta * n)
        return bool(np.max(np.abs(w.imag)) <= tol)

    if fits(0.0):
        return 0.0
    others = mag.copy()
    others[n0] = -1.0
    n1 = int(np.argmax(others))
    d = n1 - n0
    base = float(np.angle(c[n1] * np.conj(c[n0])))
    for j in range(abs(d)):
        beta = (base + j * math.pi) / d
        if fits(beta):
            axis = math.fmod(-beta, 0.5 * math.pi)
            if axis < 0.0:
                axis += 0.5 * math.pi
            return 0.0 if axis in (0.0, 0.5 * math.pi) else axis
    return None


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


class _Scratch:
    """The temporaries of the functionals for up to ``rows`` angles on
    ``points`` grid points: a float ``scratch`` row and the boolean rows
    ``mask`` and ``keep``, one each per angle.  A block of a <= rows angles
    uses the first a rows.  ``report_from_profile`` takes one of these
    alone: the profile it reads already holds a one-row workspace.  A
    second whole one per angle let glibc give both back to the kernel and
    fault them in again at every step in a process that had filled no
    lattice yet, which doubled the cost of a single-angle evaluation of a
    short state."""

    def __init__(self, rows: int, points: int):
        self.scratch = np.empty((rows, points))
        masks = np.empty((2 * rows, points), dtype=bool)
        self.mask, self.keep = masks[:rows], masks[rows:]


class _Workspace(_Scratch):
    """A ``_Scratch`` and the rows that ``density_block`` writes, for up to
    ``rows`` angles: the GEMM product ``pq`` (psi real, psi imaginary, psi'
    real, psi' imaginary), then ``rho``, ``drho`` and ``dpsi_abs2``, in one
    buffer of ``_DENSITY_ROWS`` rows per angle; the density products also
    use the scratch row.  A block of a <= rows angles uses the first a rows
    of each and 4a of ``pq``, all written by one product.  Every block
    overwrites the one before, so arrays that must outlive a block need a
    workspace of their own."""

    def __init__(self, rows: int, points: int):
        super().__init__(rows, points)
        # 8 doubles after each GEMM row: rows 32 KiB apart share L1 cache
        # sets, and a short-K GEMM of 32 such rows ran 3-4x slower unpadded
        width = points + 8
        floats = np.empty(rows * (4 * width + 3 * points))
        self.pq = floats[:4 * rows * width].reshape(-1, width)[:, :points]
        self.rho, self.drho, self.dpsi_abs2 = floats[4 * rows * width:].reshape(
            3, rows, points)


def density_block(state: FockState, thetas, grid: Grid, table: BasisTable,
                  ws: _Workspace):
    """rho = |psi|^2, drho = 2 Re(conj(psi) psi') and |psi'|^2 at every angle
    of ``thetas``, as (len(thetas) x M) views into ``ws``, one row per angle.

    psi = sum_n d_n u_n with d_n = c_n exp(i n theta) (the raw angles), and
    psi' = sum_m d'_m u_m with d' from ``hermite.ladder``, never finite
    differences.  The real and imaginary rows of d (a zero in column K) and
    d' form one (4A x (K+1)) real matrix: one GEMM against table rows 0..K.
    """
    k = state.coeffs.shape[0]
    if table.n_max < k:
        raise NumericsError(
            f"basis table holds n <= {table.n_max} but psi' needs n <= {k}")
    if table.points.shape[0] != grid.count or table.points[0] != grid.points[0]:
        raise NumericsError("basis table was built on a different grid")
    phased = state.coeffs * np.exp(np.multiply.outer(thetas, 1j * np.arange(k)))
    a = phased.shape[0]
    c = np.zeros((4 * a, k + 1))
    c[:a, :k], c[a:2 * a, :k] = phased.real, phased.imag
    ladder(c[:2 * a, :k], out=c[2 * a:])
    pq = np.matmul(c, table.values[:k + 1], out=ws.pq[:4 * a])
    pr, pi, qr, qi = pq[:a], pq[a:2 * a], pq[2 * a:3 * a], pq[3 * a:]
    tmp = ws.scratch[:a]
    rho = np.multiply(pr, pr, out=ws.rho[:a])
    rho += np.multiply(pi, pi, out=tmp)
    drho = np.multiply(pr, qr, out=ws.drho[:a])
    drho += np.multiply(pi, qi, out=tmp)
    drho *= 2.0
    dpsi_abs2 = np.multiply(qr, qr, out=ws.dpsi_abs2[:a])
    dpsi_abs2 += np.multiply(qi, qi, out=tmp)
    return rho, drho, dpsi_abs2


def eval_density(state: FockState, theta: float, grid: Grid,
                 table: BasisTable) -> DensityProfile:
    """The density profile at one angle: a one-row ``density_block`` in a
    workspace of its own.  The stored angle is canonicalized to [0, pi)."""
    rho, drho, dpsi_abs2 = density_block(state, [theta], grid, table,
                                         _Workspace(1, grid.count))
    return DensityProfile(grid=grid, theta=canonical_theta(theta),
                          rho=rho[0], drho=drho[0], dpsi_abs2=dpsi_abs2[0])
