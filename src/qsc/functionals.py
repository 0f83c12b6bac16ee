"""Information functionals on density profiles and the composite measures.

Everything reduces through one composite trapezoid rule, ``integrate``
(defined next to ``Grid`` in ``state``), along the last (grid) axis with a
fixed summation order, so one profile and a block of profiles (one row per
angle) go through the same code and outputs are reproducible bit for bit.
Accuracy comes from resolution (4096 points by default), not from a
higher-order rule.  The rule is spectrally accurate only for smooth,
exponentially decaying densities such as those of short Fock
superpositions.  Not every density here is of that kind: a well eigenstate
has kinked edges, which its Fock projection resolves only through rapidly
oscillating high-order terms, and a density sampled across a jump is not
smooth at all.  There the error falls only algebraically with the grid
spacing.

The Fisher information comes from Hall's split of the momentum spread
(M. J. W. Hall, Phys. Rev. A 62, 012107, 2000): with j = Im(conj(psi)
psi') the current, pointwise (rho')^2 / rho = 4 |psi'|^2 - 4 j^2 / rho,
and the integral of 4 |psi'|^2 is 4 <p_theta^2>, which the evaluator
supplies in closed form as the kinetic term.  So

    I = kinetic - 4 integral of j^2 / rho,

and no quotient is 0/0 at a node: j^2 <= rho |psi'|^2, and j = 0 wherever
rho = 0.  One clamped row, rho + tiny with tiny the smallest normal float,
serves both functionals: it divides j^2, and S = -integral of
rho log(rho + tiny) takes 0 log 0 = 0.  It equals rho wherever
rho >= 2^-969; below that j^2 underflows to 0 and rho log(rho + tiny) is
under 1e-289, so it serves as max(rho, tiny), which numpy computes several
times slower.  A sampled density has no psi; its profile carries j = 0 and
the finite-difference Fisher integral as its kinetic term.

An angle lattice is filled in blocks of rows.  One fill allocates one
workspace, sized for a block, and every block of it writes its GEMM
products, density rows and temporaries into that workspace, which
is dropped when the fill returns.  A single angle runs the same code on a
one-row workspace of its own, so a profile never shares memory with a
later fill.

LMC and Cramer-Rao composites are extensions beyond the core measure set
(standard definitions C_LMC = D * exp(S), C_CR = V * I) and are tagged as
such in every user-facing output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hermite
from .errors import NumericsError
from .state import (_DENSITY_ROWS, _TINY, AnalyticGaussian, DensityProfile,
                    FockState, Grid, _Scratch, _Workspace, canonical_theta,
                    default_grid, density_block, eval_density,
                    gaussian_sigma_theta, integrate, mirror_axis)

__all__ = [
    "ComplexityReport", "FockEvaluator", "GaussianEvaluator", "Numerics",
    "ProfileEvaluator", "entropy_power", "evaluator_for", "fs_complexity",
    "integrate", "report_from_profile",
]

ENTROPY_POWER_GUARD = 350.0

# Bytes of the float workspace that one lattice fill holds, on top of the
# basis table and reused by every block of the fill: ``_DENSITY_ROWS`` rows
# of grid points per angle (four GEMM rows, the odd part's four half rows,
# whose space the two scratch rows reuse, rho and j), so 8 angles at the
# default 4096 points.  Larger blocks gain little speed once the GEMMs have
# 16 rows, and every byte adds to the peak memory.
BLOCK_BYTES = 2 ** 21

# Largest deviation from 1 of the discrete mass that an evaluator accepts in
# the densities it checks when it is built.  Grids that hold the state
# measure below 1e-11; grids too coarse or too short, 2e-3 and more.
MASS_TOL = 1e-6


@dataclass(frozen=True)
class Numerics:
    """Resolution and tolerance knobs, mirrored by the CLI flags; checked
    at construction (ValueError)."""

    grid_points: int = 4096
    grid_margin: float = 6.0
    gfs_rel_tol: float = 1e-5
    mfs_theta_tol: float = 1e-6

    def __post_init__(self):
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be >= 2, got {self.grid_points}")
        for name in ("grid_margin", "gfs_rel_tol", "mfs_theta_tol"):
            value = getattr(self, name)
            tol = name.endswith("_tol")        # tolerances must be positive
            if not math.isfinite(value) or value < 0.0 or (tol and value == 0.0):
                raise ValueError(f"{name} must be finite and "
                                 f"{'> 0' if tol else '>= 0'}, got {value!r}")


DEFAULT_NUMERICS = Numerics()


@dataclass(frozen=True)
class ComplexityReport:
    """Per-angle bundle of the information functionals.

    ``cfs`` is always the exact product fisher * entropy_power.  ``lmc`` and
    ``cr`` stay None unless extension measures were requested.
    """

    theta: float
    fisher: float
    entropy: float
    entropy_power: float
    cfs: float
    lmc: float | None = None
    cr: float | None = None


# The functions below take a block of profiles (A x M arrays, one row per
# angle) and reduce along the last axis.

def _fisher_entropy(rho, current, kinetic, grid: Grid, ws: _Scratch):
    """I = kinetic - 4 integral of j^2 / rho and S = -integral of rho log rho
    (nats), both on the one clamped row rho + tiny in ``ws``, a ``_Scratch``
    of at least A rows.  A row whose max(rho) is not finite and positive is
    refused."""
    peak = rho.max(axis=-1, initial=0.0)
    if not np.all((peak > 0.0) & (peak < math.inf)):     # NaN fails both
        raise NumericsError("degenerate profile: max(rho) is not finite and "
                            "positive")
    a = rho.shape[0]
    clamped = np.add(rho, _TINY, out=ws.clamped[:a])
    tmp = np.multiply(current, current, out=ws.temp[:a])
    tmp /= clamped
    fisher = kinetic - 4.0 * integrate(tmp, grid)
    np.log(clamped, out=tmp)
    tmp *= rho
    return fisher, -integrate(tmp, grid)


def _variance(rho, grid: Grid):
    """V = <s^2> - <s>^2 under the density."""
    s = grid.points
    mean = integrate(s * rho, grid)
    second = integrate(s * s * rho, grid)
    return second - mean * mean


def entropy_power(entropy: float) -> float:
    """J = exp(2 S) / (2 pi e), the variance of a Gaussian of entropy S."""
    if entropy > ENTROPY_POWER_GUARD:
        raise NumericsError(f"entropy {entropy} overflows exp(2S)")
    return math.exp(2.0 * entropy) / (2.0 * math.pi * math.e)


def _reports(thetas, rho, current, kinetic, grid: Grid, extensions: bool,
             ws: _Scratch) -> list[ComplexityReport]:
    """Reports of a block of profiles: rho and the current j, (A x M) arrays
    with one row per angle of ``thetas`` (canonical angles), and the kinetic
    term of each, with the temporaries in ``ws``.  The extensions are the
    disequilibrium D = integral of rho^2 and the variance V, combined as
    C_LMC = D exp(S) and C_CR = I V."""
    fisher, entropy = _fisher_entropy(rho, current, kinetic, grid, ws)
    if extensions:
        diseq = integrate(rho * rho, grid)
        var = _variance(rho, grid)
    reports = []
    for k, theta in enumerate(thetas):
        f, s = float(fisher[k]), float(entropy[k])
        power = entropy_power(s)
        lmc = cr = None
        if extensions:
            lmc = float(diseq[k]) * math.exp(s)
            cr = f * float(var[k])
        reports.append(ComplexityReport(
            theta=theta, fisher=f, entropy=s, entropy_power=power,
            cfs=f * power, lmc=lmc, cr=cr))
    return reports


def report_from_profile(profile: DensityProfile,
                        extensions: bool = False) -> ComplexityReport:
    """Assemble the full per-angle report from one density profile: the
    block computation with a single row, on temporaries of its own.  With
    ``extensions`` it carries every per-profile measure: I, S, J, C_FS,
    C_LMC and C_CR."""
    return _reports([profile.theta], profile.rho[None], profile.current[None],
                    profile.kinetic, profile.grid, extensions,
                    _Scratch(1, profile.grid.count))[0]


class ProfileEvaluator:
    """One state evaluated at many angles.  Subclasses supply ``grid`` and
    ``density_block(thetas, ws)``: rho and the current j as (A x M) views
    into the workspace ``ws``, one row per angle, and the kinetic term
    4 <p_theta^2> of each angle.  Reports are memoized by the exact float
    angle; ``reports`` fills the missing angles of a lattice in blocks, all
    written into one workspace that lives as long as the call.
    ``mirror_axis`` is an angle a with cfs(a + t) = cfs(a - t) for all t,
    read from the state, or None when the state shows no such axis."""

    numerics: Numerics
    grid: Grid
    mirror_axis: float | None = None

    def __init__(self, numerics: Numerics = DEFAULT_NUMERICS):
        self.numerics = numerics
        self._cache: dict[float, ComplexityReport] = {}

    def density_block(self, thetas, ws: _Workspace):
        raise NotImplementedError

    def _check_mass(self, mass) -> None:
        """Refuse a grid on which a discrete mass is not 1 within MASS_TOL."""
        worst = float(np.max(np.abs(mass - 1.0)))
        if not worst <= MASS_TOL:
            raise NumericsError(
                f"the grid of {self.grid.count} points on +-"
                f"{self.grid.extent:.6g} cannot hold the state: its mass is "
                f"off by {worst:.3g} (tolerance {MASS_TOL:g}); it needs more "
                "points or another margin")

    def profile(self, theta: float) -> DensityProfile:
        """The one-row block at ``theta``, in a workspace of its own; the
        stored angle is canonical."""
        rho, current, kinetic = self.density_block(
            [theta], _Workspace(1, self.grid.count))
        return DensityProfile(grid=self.grid, theta=canonical_theta(theta),
                              rho=rho[0], current=current[0],
                              kinetic=float(kinetic[0]))

    def reports(self, thetas) -> list[ComplexityReport]:
        """Reports of all ``thetas`` in input order; the missing ones are
        evaluated in blocks of ``block_rows`` rows, every block in the same
        workspace."""
        todo = [t for t in thetas if t not in self._cache]
        if todo:
            rows = block_rows(self.grid.count)
            ws = _Workspace(min(rows, len(todo)), self.grid.count)
            for start in range(0, len(todo), rows):
                block = todo[start:start + rows]
                self._cache.update(zip(block, self._block_reports(block, ws)))
        return [self.report(t) for t in thetas]

    def _block_reports(self, block, ws: _Workspace):
        return _reports([canonical_theta(t) for t in block],
                        *self.density_block(block, ws), self.grid, False, ws)

    def report(self, theta: float) -> ComplexityReport:
        hit = self._cache.get(theta)
        if hit is None:
            hit = report_from_profile(self.profile(theta))
            self._cache[theta] = hit
        return hit

    def cfs(self, theta: float) -> float:
        return self.report(theta).cfs


def block_rows(grid_points: int) -> int:
    """Angles per lattice block: BLOCK_BYTES over the workspace bytes of
    one angle, its ``_DENSITY_ROWS`` float rows of ``grid_points`` points.
    One lattice fill holds one workspace of this many angles and reuses it
    for every block."""
    row_bytes = np.dtype(float).itemsize * grid_points
    return max(1, BLOCK_BYTES // (_DENSITY_ROWS * row_bytes))


class FockEvaluator(ProfileEvaluator):
    """Fock-pipeline evaluator: caches the grid and basis table of one state.
    The table holds rows 0..N + 1 on the grid's nonnegative half
    (``Grid.half_points``); ``density_block`` unfolds it by parity.  The
    grid must hold basis row N, the state's top row, whose norm does not
    depend on the angle.  The mirror axis comes from the coefficients."""

    def __init__(self, state: FockState, numerics: Numerics = DEFAULT_NUMERICS):
        super().__init__(numerics)
        self.state = state
        # the (N + 2)-row basis table at the full grid width, twice the half
        # table it builds, before the grid exists
        hermite.check_cells(state.n_max + 2, numerics.grid_points)
        self.grid = default_grid(state.n_max, numerics.grid_points,
                                 numerics.grid_margin)
        self.table = hermite.tabulate(self.grid.half_points, state.n_max + 1)
        # u_N^2 is even: its full-grid row is the half row and its mirror
        top = np.square(self.table.values[-2])
        self._check_mass(integrate(np.concatenate(
            (top[::-1][:self.grid.count // 2], top)), self.grid))
        self.mirror_axis = mirror_axis(state)

    def density_block(self, thetas, ws: _Workspace):
        return density_block(self.state, thetas, self.grid, self.table, ws)

    def profile(self, theta: float) -> DensityProfile:
        # the same one-row block as the base class, through eval_density:
        # the benchmark's tracer times single-angle density work at that name
        return eval_density(self.state, theta, self.grid, self.table)


class GaussianEvaluator(ProfileEvaluator):
    """Closed-form Gaussian densities fed through the standard functional
    pipeline; exercises the quadrature path without any Fock machinery.
    The grid must hold the narrowest and the widest density, at theta = 0
    and pi/2.  The variance is even in theta, so the mirror axis is 0."""

    mirror_axis = 0.0

    def __init__(self, state: AnalyticGaussian,
                 numerics: Numerics = DEFAULT_NUMERICS):
        super().__init__(numerics)
        self.sigma = state.sigma
        # its largest array, the workspace below, before the grid exists
        hermite.check_cells(2 * _DENSITY_ROWS, numerics.grid_points)
        widest = max(self.sigma, 1.0 / self.sigma)
        self.grid = Grid(extent=(1.0 + numerics.grid_margin) * widest,
                         count=numerics.grid_points)
        # a grid that cannot hold the state may overflow s^2 / v
        with np.errstate(over="ignore", invalid="ignore"):
            rho = self.density_block([0.0, 0.5 * math.pi],
                                     _Workspace(2, self.grid.count))[0]
        self._check_mass(integrate(rho, self.grid))

    def density_block(self, thetas, ws: _Workspace):
        # one variance per row from the scalar formula, broadcast along the grid
        v = np.array([[gaussian_sigma_theta(self.sigma, t)] for t in thetas])
        a = v.shape[0]
        s = self.grid.points
        rho = np.divide(-0.5 * s * s, v, out=ws.rho[:a])
        np.exp(rho, out=rho)
        rho /= np.sqrt(2.0 * math.pi * v)
        # psi = sqrt(rho) up to a global phase: no current, and
        # 4 <p^2> = integral of (rho')^2 / rho = 1 / v
        current = ws.current[:a]
        current.fill(0.0)
        return rho, current, 1.0 / v[:, 0]


def evaluator_for(state, numerics: Numerics = DEFAULT_NUMERICS):
    """The evaluator of a FockState or an AnalyticGaussian."""
    if isinstance(state, FockState):
        return FockEvaluator(state, numerics)
    if isinstance(state, AnalyticGaussian):
        return GaussianEvaluator(state, numerics)
    raise TypeError(f"cannot evaluate complexity of {type(state).__name__}")


def fs_complexity(state, theta: float, numerics: Numerics = DEFAULT_NUMERICS,
                  extensions: bool = False) -> ComplexityReport:
    """Fisher-Shannon complexity report of a state at one angle."""
    ev = evaluator_for(state, numerics)
    return report_from_profile(ev.profile(theta), extensions)
