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
from .hermite import (MAX_TABLE_CELLS, BasisTable, _aligned_empty,
                      _ladder_weights, ladder)

__all__ = ["AnalyticGaussian", "DensityProfile", "FockState", "Grid",
           "canonical_theta", "default_grid", "density_block", "eval_density",
           "gaussian_sigma_theta", "integrate", "make_state", "mirror_axis",
           "rotate"]

NORM_TOL = 1e-10
# Units of Gaussian decay that every grid reaches past the state: past the
# top basis function's turning point (``default_grid``), or past the widest
# standard deviation of an analytic Gaussian.  A discretization constant
GRID_MARGIN = 6.0
# Largest deviation from 1 of the discrete mass of basis row N (``_Plan``)
# or of a Gaussian's extreme densities.  Grids that hold the state measure
# below 1e-11; grids too coarse or too short, 2e-3 and more.
MASS_TOL = 1e-6
# Largest imaginary residual, relative to the largest coefficient, that
# ``mirror_axis`` forgives: the rounding of the phases, no more
MIRROR_TOL = 1e-12
_TINY = np.finfo(float).tiny
# Rows of grid points per angle in a ``_Workspace``, about: its 12 padded
# half rows (psi and psi' on both sides, where rho and j go, and their odd
# part)
_DENSITY_ROWS = 6
# Doubles after each half row of a ``_Workspace``: rows a power of two of
# bytes apart share L1 cache sets, and a short-K GEMM of 32 rows 32 KiB
# apart ran 3-4x slower unpadded
_PAD = 8
# Fewest terms K whose density block splits its product by parity: two
# products of half the size, then a combine over four half rows per side.
# Below it, two products of full size write the two sides directly, since
# at these K the combine costs more than the halved GEMM saves (per angle
# of an 8-angle block, measured in BENCH_short_products.json)
_SPLIT_TERMS = 24
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
        # the largest intermediate of the points below
        if not math.isfinite(self.extent * (m - 1)):
            raise NumericsError(
                f"a grid of {m} points on +-{self.extent:.6g} overflows "
                "its points")
        pts = self.extent * (2.0 * np.arange(m) - (m - 1)) / (m - 1)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dx", 2.0 * self.extent / (m - 1))

    @property
    def half_points(self) -> np.ndarray:
        """The points x >= 0, ``points[count // 2:]``; an odd count keeps
        x = 0 once.  The basis table of a density is built on these."""
        return self.points[self.count // 2:]


def integrate(values, grid: Grid):
    """Composite trapezoid rule over the grid along the last axis: a float
    for one profile, one value per row of a block.  The points x < 0, then
    the points x >= 0, are each a pairwise sum, as a folded row is summed
    (``_integrate_folded``): the same bits at every grid count."""
    y = np.asarray(values, dtype=float)
    if y.shape[-1] != grid.count:
        raise ValueError("value count does not match grid")
    left = grid.count // 2
    total = np.add.reduce(y[..., :left], axis=-1)
    total += np.add.reduce(y[..., left:], axis=-1)
    return grid.dx * (total - 0.5 * (y[..., 0] + y[..., -1]))


def default_grid(n_max: int, grid_points: int = 4096) -> Grid:
    """Classical turning point of the highest basis function plus
    GRID_MARGIN units of Gaussian decay; tail contributions land below
    1e-12."""
    return Grid(extent=math.sqrt(2.0 * n_max + 1.0) + GRID_MARGIN,
                count=grid_points)


@dataclass(frozen=True)
class FockState:
    """Unit-norm complex coefficients c_0..c_N in the oscillator basis.

    Two moments are computed once, when the state is built: ``n_half``,
    sum |c_n|^2 (n + 1/2) = <n> + 1/2, and ``a_sq``, <a^2> = sum
    conj(c_n) c_{n+2} sqrt((n+1)(n+2)).  They give the kinetic term of
    every angle in closed form (``kinetic``).
    """

    coeffs: np.ndarray
    n_half: float = field(init=False, repr=False, compare=False)
    a_sq: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = self.coeffs
        n = np.arange(c.shape[0], dtype=float)
        object.__setattr__(self, "n_half", float(np.dot(
            np.square(np.abs(c)), n + 0.5)))
        object.__setattr__(self, "a_sq", complex(np.vdot(
            c[:-2], c[2:] * np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0)))))

    def kinetic(self, phase2) -> np.ndarray:
        """4 <p_theta^2> = 4 (<n> + 1/2 - Re(<a^2> e^{2 i theta})) at each
        angle, given as its phase e^{2 i theta} in ``phase2``: the integral
        of 4 |psi'|^2 of the rotated state."""
        return 4.0 * (self.n_half - (self.a_sq * phase2).real)

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
    """Density rho(s_theta) on a grid, with the two terms of its Fisher
    information I = kinetic - 4 integral of current^2 / rho.

    From a wavefunction psi, ``current`` is j = Im(conj(psi) psi') on the
    grid and ``kinetic`` the closed form 4 <p_theta^2>, the integral of
    4 |psi'|^2: pointwise (rho')^2 / rho = 4 |psi'|^2 - 4 j^2 / rho (M. J.
    W. Hall, Phys. Rev. A 62, 012107, 2000).  A density of its own has no
    psi: ``from_samples`` gives it j = 0 and a finite-difference kinetic
    term.
    """

    grid: Grid
    theta: float
    rho: np.ndarray
    current: np.ndarray
    kinetic: float

    @classmethod
    def from_samples(cls, grid: Grid, rho, theta: float = 0.0) -> "DensityProfile":
        """Wrap sampled density values.  The current is zero and the kinetic
        term is the Fisher integral of (rho')^2 / rho itself, with rho' from
        finite differences and the points where rho is not positive left
        out: the sampled route's approximation of I."""
        rho = np.ascontiguousarray(rho, dtype=float)
        if rho.shape[0] != grid.count:
            raise ValueError("sample length does not match grid")
        if np.any(rho < 0.0):
            raise ValueError("density samples must not be negative")
        drho = np.gradient(rho, grid.dx)
        ratio = np.divide(drho * drho, rho, out=np.zeros_like(rho),
                          where=rho > 0.0)
        return cls(grid=grid, theta=canonical_theta(theta), rho=rho,
                   current=np.zeros_like(rho),
                   kinetic=float(integrate(ratio, grid)))


class _Workspace:
    """The rows that ``density_block`` writes, for up to ``rows`` angles, in
    the folded layout: every row is a pair of half rows, side 0 the grid
    points x >= 0 and side 1 the points x <= 0, each at ascending |x| and
    padded to ``_PAD`` more doubles, W in all.  A block of a <= rows angles
    writes into the contiguous views ``block(a)``: ``psi`` (2 x 4a x W,
    side first) holds the rows psi real, psi imaginary, psi' real and
    psi' imaginary, ``odd`` (4a x W) the odd part of those rows when the
    product is split by parity and a temporary in any case.  That is 12
    half rows, about 6 rows of grid points, per angle.  Each value lives
    in rows already dead when it is written: j over the psi' real rows,
    rho over the psi' imaginary rows (``densities(a)``), and the
    functionals' two temporaries over the psi rows.

    On an odd grid x = 0 belongs to side 0 only, and column 0 of side 1 is
    never summed (``_integrate_folded``).  The pads are zeroed here and no
    GEMM writes them; every later pass keeps them zero, so they add no NaN
    and no floating-point warning to any block.  Every block overwrites the
    one before, so arrays that must outlive a block need a workspace of
    their own."""

    def __init__(self, rows: int, points: int):
        self.rows = rows
        self.floats = _aligned_empty(self.shape(rows, points))
        self.floats[:, points - points // 2:] = 0.0

    @staticmethod
    def shape(rows: int, points: int) -> tuple[int, int]:
        """(half rows, doubles per padded half row) of a workspace of
        ``rows`` angles on ``points`` grid points, as a cell cap counts it."""
        return 12 * rows, points - points // 2 + _PAD

    @staticmethod
    def check(rows: int, points: int) -> None:
        """Refuse a workspace of ``rows`` angles on ``points`` grid points
        past the cell cap, before it exists, in those terms."""
        half_rows, width = _Workspace.shape(rows, points)
        cells = half_rows * width
        if cells > MAX_TABLE_CELLS:
            angles = "1 angle" if rows == 1 else f"{rows} angles"
            raise NumericsError(
                f"the workspace of {angles} on {points} grid points would "
                f"exceed the cap of {MAX_TABLE_CELLS} cells: {cells} cells is "
                f"{cells - MAX_TABLE_CELLS} over the cap")

    def block(self, a: int):
        """The views (psi, odd) of a block of ``a`` angles."""
        f, r = self.floats, self.rows
        return f[:8 * a].reshape(2, 4 * a, -1), f[8 * r:8 * r + 4 * a]

    def densities(self, a: int):
        """The views (rho, current), 2 x a x W each, of a block of ``a``
        angles: its psi' imaginary and psi' real rows."""
        psi = self.block(a)[0]
        return psi[:, 3 * a:], psi[:, 2 * a:3 * a]


def _unfold(folded, grid: Grid) -> np.ndarray:
    """The natural rows, grid points in ascending order, of ``folded``
    rows (2 x ... x W, side first), as a copy."""
    h = grid.count - grid.count // 2
    return np.concatenate((folded[1, ..., grid.count % 2:h][..., ::-1],
                           folded[0, ..., :h]), axis=-1)


def _profile(grid: Grid, theta: float, block) -> DensityProfile:
    """The profile at ``theta`` of a one-row ``density_block`` result."""
    rho, current, kinetic = block
    return DensityProfile(grid=grid, theta=theta,
                          rho=_unfold(rho[:, 0], grid),
                          current=_unfold(current[:, 0], grid),
                          kinetic=float(kinetic[0]))


def _integrate_folded(values, grid: Grid):
    """``integrate`` of folded rows (2 x ... x W, side first), one value
    per row, in the same summation order: the points x < 0, then x >= 0,
    so each value is the natural row's bit for bit."""
    h = grid.count - grid.count // 2
    # natural points 0 and M - 1
    ends = values[..., h - 1]
    total = np.add.reduce(values[1, ..., grid.count % 2:h][..., ::-1],
                          axis=-1)
    total += np.add.reduce(values[0, ..., :h], axis=-1)
    return grid.dx * (total - 0.5 * (ends[1] + ends[0]))


def _check_mass(grid: Grid, mass) -> None:
    """Refuse a grid on which a discrete mass is not 1 within MASS_TOL."""
    worst = float(np.max(np.abs(mass - 1.0)))
    if not worst <= MASS_TOL:
        raise NumericsError(
            f"the grid of {grid.count} points on +-{grid.extent:.6g} cannot "
            f"hold the state: its mass is off by {worst:.3g} (tolerance "
            f"{MASS_TOL:g}); it needs more points")


def _check_top_row(grid: Grid, top) -> None:
    """Refuse a grid that does not hold the basis row N, the state's top
    row, given on the grid's half ``top``: its norm does not depend on the
    angle.  u_N^2 is even: both sides of its folded row are ``top``."""
    top = np.square(top)
    _check_mass(grid, _integrate_folded(np.stack((top, top)), grid))


class _Plan:
    """The basis rows of one state on one grid as ``density_block`` reads
    them, and the angle-free pieces of every block: the exponents i n of
    the phases, the ladder weights, and the parity signs (-1)^n of the
    short route or the column order of the split one.

    ``table`` is a ``BasisTable`` built on ``grid.half_points`` or the row
    chunks of one (``hermite.row_chunks``), rows 0, 1, ... in order; a
    table is one chunk.  psi' of K terms needs rows 0..K.  The rows are
    walked once, a table and the short route's chunks here, the split
    route's chunks by the one block that reads them, each chunk used once
    and never held.  A grid that cannot hold row N = K - 1, the state's
    top row, is refused as that row passes (``_check_top_row``)."""

    def __init__(self, state: FockState, grid: Grid, table):
        k = state.coeffs.shape[0]
        half = grid.half_points
        self.state, self.grid = state, grid
        self.k, self.h = k, half.shape[0]
        self.exponents = 1j * np.arange(max(k, 3))
        self.weights = _ladder_weights(k)
        self.split = k >= _SPLIT_TERMS
        n = np.arange(k + 1)
        if self.split:
            # the even columns first, then the odd ones
            self.order = np.concatenate((n[0::2], n[1::2]))
        else:
            self.signs = np.where(n % 2, -1.0, 1.0)
        if isinstance(table, BasisTable):
            if (table.points.shape[0] != self.h or table.points[0] != half[0]
                    or table.points[-1] != half[-1]):
                raise NumericsError("basis table was not built on the "
                                    "nonnegative half of this grid")
            self.chunks = list(self._terms((table.values,)))
        else:
            self.chunks = self._terms(table)
        if not self.split:
            # the short route's rows are one product: one chunk as it is,
            # several copied as they come (a chunk may reuse the buffer)
            pieces = [rows if len(rows) > k else rows.copy()
                      for _, ((_, rows),) in self.chunks]
            rows = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            self.chunks = [(0, ((slice(0, k + 1), rows),))]

    def _terms(self, chunks):
        """Per chunk of basis rows 0, 1, ... in order: its first row and
        the (columns of the coefficient matrix, rows of the chunk) of each
        product, the even and the odd one on the split route.  Row N is
        checked before its chunk is used."""
        k, start = self.k, 0
        evens = (k + 2) // 2
        for chunk in chunks:
            if chunk.shape[-1] != self.h:
                raise NumericsError("basis rows do not span the "
                                    "nonnegative half of this grid")
            if start < k <= start + chunk.shape[0]:
                _check_top_row(self.grid, chunk[k - 1 - start])
            stop = min(start + chunk.shape[0], k + 1)
            if self.split:
                # the chunk's first even and first odd row
                e0, o0 = start + start % 2, start + 1 - start % 2
                yield start, ((slice(e0 // 2, (stop + 1) // 2),
                               chunk[e0 - start:stop - start:2]),
                              (slice(evens + o0 // 2, evens + stop // 2),
                               chunk[o0 - start:stop - start:2]))
            else:
                yield start, ((slice(start, stop), chunk[:stop - start]),)
            start = stop
            if start > k:
                return
        raise NumericsError(f"basis table holds n <= {start - 1} but psi' "
                            f"needs n <= {k}")


def _psi_block(plan: _Plan, thetas, ws: _Workspace):
    """psi and psi' at every angle of ``thetas`` into ``ws``: its
    ``block(len(thetas))`` views (psi, odd), the psi rows holding pr, pi,
    qr and qi, and the phases e^{2 i theta} of the angles."""
    k, h = plan.k, plan.h
    # e^{i n theta} for n < max(K, 3): the phases of d, and e^{2 i theta}
    phases = np.exp(np.multiply.outer(thetas, plan.exponents))
    phased = plan.state.coeffs * phases[:, :k]
    a = phased.shape[0]
    psi, odd = ws.block(a)
    # the short route stacks the coefficients of side 1 under those of
    # side 0: its one product writes both sides at once
    c = np.empty(((4 if plan.split else 8) * a, k + 1))
    c[:a, :k], c[a:2 * a, :k] = phased.real, phased.imag
    c[:2 * a, k] = 0.0
    ladder(c[:2 * a, :k], out=c[2 * a:4 * a], weights=plan.weights)
    if plan.split:
        c = c.take(plan.order, axis=1)
        # E into side 0, O into odd; side 1 is free until the combine
        sides, spare = (psi[0, :, :h], odd[:, :h]), psi[1, :, :h]
    else:
        np.multiply(c[:4 * a], plan.signs, out=c[4 * a:])
        sides, spare = (psi.reshape(8 * a, -1)[:, :h],), None
    for start, terms in plan.chunks:
        for out, (cols, rows) in zip(sides, terms):
            if start:
                out += np.matmul(c[:, cols], rows, out=spare)
            else:
                np.matmul(c[:, cols], rows, out=out)
    if plan.split:
        np.subtract(psi[0], odd, out=psi[1])
        psi[0] += odd
    return psi, odd, phases[:, 2]


def density_block(plan: _Plan, thetas, ws: _Workspace):
    """rho = |psi|^2 and the current j = Im(conj(psi) psi') at every angle
    of ``thetas``, as folded (2 x len(thetas) x W) views into ``ws`` (its
    ``densities``; see ``_Workspace``), and the kinetic term 4 <p_theta^2>
    of each angle (``FockState.kinetic``).

    psi = sum_n d_n u_n with d_n = c_n exp(i n theta) (the raw angles), and
    psi' = sum_m d'_m u_m with d' from ``hermite.ladder``, never finite
    differences.  The real and imaginary rows of d (a zero in column K) and
    d' form one (4A x (K+1)) real matrix, times the rows 0..K of the basis
    on the grid's half, as ``plan`` holds them.  u_n(-x) = (-1)^n u_n(x),
    and ``tabulate`` meets it as float equality on an antisymmetric grid.
    Below ``_SPLIT_TERMS`` terms the matrix stacked over itself with its
    odd columns negated, times those rows, is the block's ``psi``: the rows
    pr, pi, qr, qi at x >= 0 on side 0 and at x <= 0 on side 1, in one
    product of all K + 1 rows, chunks joined.  From ``_SPLIT_TERMS`` on its
    even columns times the even rows give the even part E of those rows
    and its odd columns times the odd rows the odd part O, two products of
    half the size; side 0 is E + O and side 1 E - O.  Over several chunks
    each is a sum of one product per chunk.  j = pr qi - pi qr.
    """
    psi, odd, phase2 = _psi_block(plan, thetas, ws)
    a = phase2.shape[0]
    pr, pi, qr, qi = (psi[:, i * a:(i + 1) * a] for i in range(4))
    # odd is dead after the products on the short route and after the
    # combine on the split one; current is the qr rows, read first, and
    # rho the qi rows, last read by current
    rho, current = ws.densities(a)
    tmp = odd[:2 * a].reshape(2, a, -1)
    np.multiply(pi, qr, out=tmp)
    np.multiply(pr, qi, out=current)
    current -= tmp
    np.multiply(pr, pr, out=rho)
    rho += np.multiply(pi, pi, out=tmp)
    return rho, current, plan.state.kinetic(phase2)


def eval_density(state: FockState, theta: float, grid: Grid,
                 table) -> DensityProfile:
    """The density profile at the canonical angle of ``theta`` in [0, pi):
    a one-row ``density_block`` in a workspace of its own, unfolded.
    ``table`` is a ``_Plan`` of ``state`` on ``grid`` or what one is built
    from."""
    theta = canonical_theta(theta)
    plan = table if isinstance(table, _Plan) else _Plan(state, grid, table)
    return _profile(grid, theta, density_block(plan, [theta],
                                               _Workspace(1, grid.count)))
