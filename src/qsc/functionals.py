"""Information functionals on density profiles and the composite measures.

Everything reduces through one composite trapezoid rule, ``integrate``
(defined next to ``Grid`` in ``state``), along the last (grid) axis with a
fixed summation order, so one profile and a block of profiles (one row per
angle) go through the same code and outputs are reproducible bit for bit.
Accuracy comes from resolution (``state.GRID_POINTS`` by default), not
from a higher-order rule.  The rule is spectrally accurate only for smooth,
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
is dropped when the fill returns.  The workspace is folded
(``state._Workspace``): each row is the half x >= 0 and the half x <= 0,
each at ascending |x| and padded.  The GEMMs write the two halves, directly
for a short state and through a parity combine for a long one, and every
later pass, rho, j and the functionals, is one flat ufunc over contiguous
runs of a whole block.  Each pass writes over rows that earlier passes
have read for the last time: rho and j over psi', the functionals'
temporaries over psi.  An evaluator builds the angle-free pieces of its
blocks once, next to its table (``state._Plan``).  The sums run over the
real points in the natural order, the x < 0 points in one pairwise sum,
then the x >= 0 points in another, as ``integrate`` sums every natural
row.  A single angle runs the same density code, with its evaluator's
pieces, on a one-row workspace of its own, so a profile never shares
memory with a later fill; its ``DensityProfile`` is unfolded to the
natural order, and ``report_from_profile`` sums it with ``integrate``, so
an angle has the same bits on a lattice and alone.

An evaluator holds its state's basis table, which every block reuses.
``fs_complexity``, one angle of a FockState, holds none: it takes the
table's rows in chunks of ``CHUNK_BYTES`` as the recurrence finishes
them, adds each chunk's products to its one-row block and drops the chunk.
So its memory does not grow with the table, 6.3 MB at 385 terms on the
default grid, and the rows are read back while still in cache.  Its grid
and cell cap are the evaluator's, and both hand their rows to one plan
(``state._Plan``), which refuses a grid that cannot hold row N as that row
passes.  Its report has the evaluator's bits, except for a state of
``state._SPLIT_TERMS`` terms or more whose rows span several chunks: its
summed chunk products round differently (see ``fs_complexity``).

LMC and Cramer-Rao composites are extensions beyond the core measure set
(standard definitions C_LMC = D * exp(S), C_CR = V * I) and are tagged as
such in every user-facing output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import hermite
from .errors import NumericsError
from .state import (_DENSITY_ROWS, _TINY, GRID_MARGIN, GRID_POINTS,
                    AnalyticGaussian,
                    DensityProfile, FockState, Grid, _check_mass,
                    _integrate_folded, _Plan, _profile, _Workspace,
                    canonical_theta, default_grid, density_block,
                    eval_density, gaussian_sigma_theta, integrate,
                    mirror_axis)

__all__ = [
    "ComplexityReport", "FockEvaluator", "GaussianEvaluator",
    "ProfileEvaluator", "entropy_power", "evaluator_for", "fs_complexity",
    "integrate", "report_from_profile",
]

ENTROPY_POWER_GUARD = 350.0

# Bytes of the float workspace that one lattice fill holds, on top of the
# basis table and reused by every block of the fill: ``_DENSITY_ROWS`` rows
# of grid points per angle (12 padded half rows: psi and psi' on both
# sides, whose space rho, j and the functionals' two temporaries reuse,
# and their odd part), so 8 angles at the default grid.  Larger
# blocks gain little speed once the GEMMs have 16 rows (10 angles in 2 MiB
# ran no faster), and every byte adds to the peak memory.
BLOCK_BYTES = 3 * 2 ** 19

# Bytes of the basis rows that ``fs_complexity`` holds at once: its one
# angle streams the rows of its table in chunks of this size, each used by
# one product and dropped (``hermite.row_chunks``), so 64 rows of the
# default grid's half width, where the whole table of a 385-term state is
# 6.3 MB and one of the 4096-row ``gauss:`` cap 67 MB
CHUNK_BYTES = 2 ** 20


@dataclass(frozen=True, slots=True)
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


def _fisher_entropy(rho, current, kinetic, pair, sums):
    """I = kinetic - 4 integral of j^2 / rho and S = -integral of rho log rho
    (nats) of a block of profiles, one row per angle: rho and j folded
    (2 x A x W; see ``state._Workspace``) or natural (1 x A x M).  Both
    integrands are written on the one clamped row rho + tiny into ``pair``
    (2 x rho.shape), and ``sums`` integrates them in one pass, in the
    summation order of the layout.  On folded rows every pass covers the
    pads, where rho = j = 0: j^2 / (rho + tiny) and, in place of the
    clamped row, rho log(rho + tiny) leave them zero.  A row whose
    max(rho) is not finite and positive is refused."""
    peak = rho.max(axis=(0, 2), initial=0.0)
    if not (peak.min() > 0.0 and peak.max() < math.inf):  # NaN fails both
        raise NumericsError("degenerate profile: max(rho) is not finite and "
                            "positive")
    clamped, tmp = pair
    np.add(rho, _TINY, out=clamped)
    np.multiply(current, current, out=tmp)
    tmp /= clamped
    np.log(clamped, out=clamped)
    clamped *= rho
    entropy, ratio = sums(pair)
    return kinetic - 4.0 * ratio, -entropy


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


def _reports(thetas, rho, current, kinetic, pair,
             sums) -> list[ComplexityReport]:
    """Reports of a block of profiles, one row per angle of ``thetas``
    (canonical angles); the other arguments are ``_fisher_entropy``'s."""
    fisher, entropy = _fisher_entropy(rho, current, kinetic, pair, sums)
    reports = []
    for theta, f, s in zip(thetas, fisher.tolist(), entropy.tolist()):
        power = entropy_power(s)
        reports.append(ComplexityReport(
            theta=theta, fisher=f, entropy=s, entropy_power=power,
            cfs=f * power))
    return reports


def report_from_profile(profile: DensityProfile,
                        extensions: bool = False) -> ComplexityReport:
    """Assemble the full per-angle report from one density profile: the
    block computation on its natural rows, with temporaries of its own,
    each integral summed as a lattice block sums its folded row.  With
    ``extensions`` it carries every per-profile measure: I, S, J, C_FS,
    C_LMC and C_CR, from the disequilibrium D = integral of rho^2 and the
    variance V as C_LMC = D exp(S) and C_CR = I V."""
    grid = profile.grid
    rho = profile.rho
    report = _reports(
        [profile.theta], rho[None, None], profile.current[None, None],
        profile.kinetic, hermite._aligned_empty((2, 1, 1, grid.count)),
        lambda pair: integrate(pair[:, 0], grid))[0]
    if not extensions:
        return report
    return replace(report, lmc=float(integrate(rho * rho, grid))
                   * math.exp(report.entropy),
                   cr=report.fisher * float(_variance(rho, grid)))


class ProfileEvaluator:
    """One state evaluated at many angles.  Subclasses supply ``grid`` and
    ``density_block(thetas, ws)``: rho and the current j as folded
    (2 x A x W) views into the workspace ``ws``, its ``densities`` (see
    ``state._Workspace``), one row per angle, and the kinetic term
    4 <p_theta^2> of each angle.
    Every angle is evaluated, and reported, at its canonical angle in
    [0, pi): a rotation by pi mirrors the density, so every angle has the
    measures of its canonical one, and an angle far outside [0, pi) would
    lose its phases to rounding.  Reports are memoized by the exact float
    angle given; ``reports`` fills the missing angles of a lattice in
    blocks of nearly equal size, all written into one workspace that lives
    as long as the call.
    ``mirror_axis`` is an angle a with cfs(a + t) = cfs(a - t) for all t,
    read from the state, or None when the state shows no such axis."""

    grid: Grid
    mirror_axis: float | None = None

    def __init__(self):
        self._cache: dict[float, ComplexityReport] = {}

    def density_block(self, thetas, ws: _Workspace):
        raise NotImplementedError

    def profile(self, theta: float) -> DensityProfile:
        """The one-row block at the canonical angle of ``theta``, in a
        workspace of its own, unfolded."""
        theta = canonical_theta(theta)
        return _profile(self.grid, theta, self.density_block(
            [theta], _Workspace(1, self.grid.count)))

    def reports(self, thetas) -> list[ComplexityReport]:
        """Reports of all ``thetas`` in input order; the n missing ones are
        evaluated in ceil(n / ``block_rows``) blocks of nearly equal size,
        every block in the same workspace.  A row's GEMM result does not
        depend on the size of its block."""
        todo = list(dict.fromkeys(t for t in thetas if t not in self._cache))
        if todo:
            n, rows = len(todo), block_rows(self.grid.count)
            blocks = -(-n // rows)
            ws = _Workspace(min(rows, n), self.grid.count)
            for b in range(blocks):
                block = todo[b * n // blocks:(b + 1) * n // blocks]
                self._cache.update(zip(block, self._block_reports(block, ws)))
        return [self.report(t) for t in thetas]

    def _block_reports(self, block, ws: _Workspace):
        # the two temporaries take the block's psi rows, dead once rho and
        # j are written
        thetas = [canonical_theta(t) for t in block]
        rho, current, kinetic = self.density_block(thetas, ws)
        psi = ws.block(len(thetas))[0]
        return _reports(
            thetas, rho, current, kinetic,
            psi[:, :2 * len(thetas)].reshape(2, *rho.shape),
            lambda pair: _integrate_folded(pair.swapaxes(0, 1), self.grid))

    def report(self, theta: float) -> ComplexityReport:
        hit = self._cache.get(theta)
        if hit is None:
            hit = report_from_profile(self.profile(theta))
            self._cache[theta] = hit
        return hit

    def cfs(self, theta: float) -> float:
        return self.report(theta).cfs


def _fock_grid(state: FockState, grid_points: int) -> Grid:
    """The grid of a FockState's densities, built once its basis table of
    N + 2 rows (at the full grid width, twice the half table) and its
    one-angle workspace, larger for N <= 3, pass the cell cap."""
    hermite.check_cells(state.n_max + 2, grid_points)
    _Workspace.check(1, grid_points)
    return default_grid(state.n_max, grid_points)


def chunk_rows(grid_points: int) -> int:
    """Basis rows per chunk of a streamed angle (``fs_complexity``):
    CHUNK_BYTES over the bytes of one half row of ``grid_points`` points."""
    half = grid_points - grid_points // 2
    return max(3, CHUNK_BYTES // (np.dtype(float).itemsize * half))


def block_rows(grid_points: int) -> int:
    """Angles per lattice block, at most: BLOCK_BYTES over the workspace
    bytes of one angle, about ``_DENSITY_ROWS`` float rows of
    ``grid_points`` points.
    One lattice fill holds one workspace of this many angles and reuses it
    for every block."""
    row_bytes = np.dtype(float).itemsize * grid_points
    return max(1, BLOCK_BYTES // (_DENSITY_ROWS * row_bytes))


class FockEvaluator(ProfileEvaluator):
    """Fock-pipeline evaluator: caches the grid and basis table of one state.
    The table holds rows 0..N + 1 on the grid's nonnegative half
    (``Grid.half_points``); ``density_block`` unfolds it by parity, with
    the angle-free pieces of every block built once next to it
    (``state._Plan``), which refuses, as it walks the table, a grid that
    does not hold basis row N.  The mirror axis comes from the
    coefficients."""

    def __init__(self, state: FockState, grid_points: int = GRID_POINTS):
        super().__init__()
        self.state = state
        self.grid = _fock_grid(state, grid_points)
        self.table = hermite.tabulate(self.grid.half_points, state.n_max + 1)
        self._plan = _Plan(state, self.grid, self.table)
        self.mirror_axis = mirror_axis(state)

    def density_block(self, thetas, ws: _Workspace):
        return density_block(self._plan, thetas, ws)

    def profile(self, theta: float) -> DensityProfile:
        # the same one-row block as the base class, through eval_density:
        # the benchmark's tracer times single-angle density work at that name
        return eval_density(self.state, theta, self.grid, self._plan)


class GaussianEvaluator(ProfileEvaluator):
    """Closed-form Gaussian densities fed through the standard functional
    pipeline; exercises the quadrature path without any Fock machinery.
    The grid must hold the narrowest and the widest density, at theta = 0
    and pi/2.  The variance is even in theta, so the mirror axis is 0."""

    mirror_axis = 0.0

    def __init__(self, state: AnalyticGaussian,
                 grid_points: int = GRID_POINTS):
        super().__init__()
        self.sigma = state.sigma
        # its largest array, the workspace below, before the grid exists
        _Workspace.check(2, grid_points)
        widest = max(self.sigma, 1.0 / self.sigma)
        self.grid = Grid(extent=(1.0 + GRID_MARGIN) * widest,
                         count=grid_points)
        # a grid that cannot hold the state may overflow s^2 / v
        with np.errstate(over="ignore", invalid="ignore"):
            rho = self.density_block([0.0, 0.5 * math.pi],
                                     _Workspace(2, self.grid.count))[0]
        _check_mass(self.grid, _integrate_folded(rho, self.grid))

    def density_block(self, thetas, ws: _Workspace):
        # one variance per row from the scalar formula, broadcast along the
        # half grid; s * s is even on the antisymmetric grid, so the side
        # x <= 0 is a copy of the side x >= 0
        v = np.array([[gaussian_sigma_theta(self.sigma, t)] for t in thetas])
        a = v.shape[0]
        s = self.grid.half_points
        rho, current = ws.densities(a)
        plus = np.divide(-0.5 * s * s, v, out=rho[0, :, :s.shape[0]])
        np.exp(plus, out=plus)
        plus /= np.sqrt(2.0 * math.pi * v)
        rho[1] = rho[0]
        # psi = sqrt(rho) up to a global phase: no current, and
        # 4 <p^2> = integral of (rho')^2 / rho = 1 / v
        current.fill(0.0)
        return rho, current, 1.0 / v[:, 0]


def evaluator_for(state, grid_points: int = GRID_POINTS):
    """The evaluator of a FockState or an AnalyticGaussian on a grid of
    ``grid_points`` points."""
    if isinstance(state, FockState):
        return FockEvaluator(state, grid_points)
    if isinstance(state, AnalyticGaussian):
        return GaussianEvaluator(state, grid_points)
    raise TypeError(f"cannot evaluate complexity of {type(state).__name__}")


def fs_complexity(state, theta: float, grid_points: int = GRID_POINTS,
                  extensions: bool = False) -> ComplexityReport:
    """Fisher-Shannon complexity report of a state at one angle, evaluated
    at the canonical angle it reports (see ``ProfileEvaluator``).

    A FockState holds no basis table: its one angle takes the rows of the
    table in chunks of ``chunk_rows`` as the recurrence finishes them
    (``hermite.row_chunks``).  Grid and cell cap are ``FockEvaluator``'s,
    its plan refuses a grid that does not hold row N when that row's chunk
    passes, and its report has the evaluator's bits, but for a state of
    ``state._SPLIT_TERMS`` terms or more over several chunks.  Its one
    product per chunk, each added to the block and dropped, rounds
    differently: by up to 2e-15 relative in the measures of random states,
    and up to 2.4e-14 in the Fisher information of squeezed states of
    sigma 3 to 4, where kinetic - 4 integral of j^2 / rho cancels most of
    its two terms."""
    if isinstance(state, FockState):
        grid = _fock_grid(state, grid_points)
        profile = eval_density(state, theta, grid, hermite.row_chunks(
            grid.half_points, state.n_max + 1, chunk_rows(grid.count)))
    else:
        profile = evaluator_for(state, grid_points).profile(theta)
    return report_from_profile(profile, extensions)
