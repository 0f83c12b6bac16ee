"""Information functionals on density profiles and the composite measures.

Everything reduces through the composite trapezoid rule with a fixed
summation order, so outputs are reproducible bit for bit.  Accuracy comes
from resolution (4096 points by default plus doubling checks), not from a
higher-order rule: the densities handled here decay exponentially and are
smooth, a regime where the trapezoid rule is spectrally accurate.

The Fisher integrand (rho')^2 / rho is finite at simple nodes of the
wavefunction but numerically 0/0 there; points where rho falls below
``node_eps * max(rho)`` are replaced by the analytic limit 4 |psi'|^2.

LMC and Cramer-Rao composites are extensions beyond the core measure set
(standard definitions C_LMC = D * exp(S), C_CR = V * I) and are tagged as
such in every user-facing output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import NumericsError
from .hermite import build_basis_table
from .state import (DensityProfile, FockState, Grid, canonical_theta,
                    default_grid, density_block, eval_density)

__all__ = [
    "ComplexityReport", "FockEvaluator", "Numerics", "ProfileEvaluator",
    "cr_complexity", "disequilibrium", "entropy_power", "evaluator_for",
    "fisher_information", "fs_complexity", "integrate", "is_edge_dominated",
    "lmc_complexity", "report_from_profile", "shannon_entropy", "variance",
]

ENTROPY_POWER_GUARD = 350.0

# Byte budget of one lattice block's working set, on top of the basis table:
# 8 angles at the default 4096 grid points.  Larger blocks gain little speed
# once the GEMMs have 16 rows, and every byte adds to the peak memory.
BLOCK_BYTES = 2 ** 21


@dataclass(frozen=True)
class Numerics:
    """Resolution and tolerance knobs, mirrored by the CLI flags."""

    grid_points: int = 4096
    grid_margin: float = 6.0
    node_eps: float = 1e-13        # relative to max(rho)
    gfs_start: int = 32
    gfs_max_resolution: int = 1024
    gfs_rel_tol: float = 1e-5
    mfs_scan: int = 128
    mfs_theta_tol: float = 1e-6

    def with_grid_points(self, m: int) -> "Numerics":
        return replace(self, grid_points=m)


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
    edge_dominated: bool = False


def integrate(values, grid: Grid) -> float:
    """Composite trapezoid rule over the grid, fixed summation order."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] != grid.count:
        raise ValueError("value count does not match grid")
    return float(_kernels.trapezoid(values, grid.dx))


def _dpsi_abs2(profile: DensityProfile) -> np.ndarray:
    if profile.dpsi_abs2 is not None:
        return profile.dpsi_abs2
    # sampled profile: no wavefunction available, nodes contribute zero
    return np.zeros_like(profile.rho)


# The functions below take one profile (arrays of M points) or a block of
# profiles (A x M arrays, one row per angle) and reduce along the last axis.

def _fisher_terms(rho, drho, dpsi_abs2, dx, node_eps):
    """Fisher integrand and its integral, with the node limit below
    ``node_eps * max(rho)`` of each row."""
    peak = rho.max(axis=-1, initial=0.0)
    if np.any(peak <= 0.0):
        raise NumericsError("degenerate profile: density has no mass")
    integrand = _kernels.fisher_integrand(rho, drho, dpsi_abs2,
                                          node_eps * peak[..., None])
    return integrand, _kernels.trapezoid(integrand, dx)


def _entropy(rho, dx):
    return _kernels.trapezoid(_kernels.entropy_integrand(rho), dx)


def _variance(rho, grid: Grid):
    s = grid.points
    mean = _kernels.trapezoid(s * rho, grid.dx)
    second = _kernels.trapezoid(s * s * rho, grid.dx)
    return second - mean * mean


def _edge_dominated(integrand, cell_share: float = 0.002, fraction: float = 0.5):
    total = np.sum(integrand, axis=-1)
    k = max(1, int(math.ceil(cell_share * integrand.shape[-1])))
    top = np.sum(np.sort(integrand, axis=-1)[..., -k:], axis=-1)
    return (total > 0.0) & (top > fraction * total)


def fisher_information(profile: DensityProfile, node_eps: float = 1e-13) -> float:
    """I = integral of (rho')^2 / rho with the node limit 4 |psi'|^2."""
    _, fisher = _fisher_terms(profile.rho, profile.drho, _dpsi_abs2(profile),
                              profile.grid.dx, node_eps)
    return float(fisher)


def shannon_entropy(profile: DensityProfile) -> float:
    """S = -integral of rho log rho (nats), with 0 log 0 = 0."""
    return float(_entropy(profile.rho, profile.grid.dx))


def entropy_power(entropy: float) -> float:
    """J = exp(2 S) / (2 pi e), the variance of a Gaussian of entropy S."""
    if entropy > ENTROPY_POWER_GUARD:
        raise NumericsError(f"entropy {entropy} overflows exp(2S)")
    return math.exp(2.0 * entropy) / (2.0 * math.pi * math.e)


def disequilibrium(profile: DensityProfile) -> float:
    """D = integral of rho^2, the density's self-overlap."""
    return float(_kernels.trapezoid(profile.rho * profile.rho, profile.grid.dx))


def variance(profile: DensityProfile) -> float:
    """V = <s^2> - <s>^2 under the density."""
    return float(_variance(profile.rho, profile.grid))


def lmc_complexity(profile: DensityProfile) -> float:
    """Extension measure: disequilibrium times exp(entropy)."""
    return disequilibrium(profile) * math.exp(shannon_entropy(profile))


def cr_complexity(profile: DensityProfile, node_eps: float = 1e-13) -> float:
    """Extension measure: Fisher information times variance."""
    return fisher_information(profile, node_eps) * variance(profile)


def is_edge_dominated(profile: DensityProfile, node_eps: float = 1e-13,
                      cell_share: float = 0.002, fraction: float = 0.5) -> bool:
    """True when a tiny share of grid cells carries most of the Fisher
    integral, the signature of a density with sharp support edges whose
    grid-scale jumps dominate the value (making it resolution-dependent)."""
    if profile.rho.max(initial=0.0) <= 0.0:
        return False
    integrand, _ = _fisher_terms(profile.rho, profile.drho, _dpsi_abs2(profile),
                                 profile.grid.dx, node_eps)
    return bool(_edge_dominated(integrand, cell_share, fraction))


def _reports(thetas, rho, drho, dpsi_abs2, grid: Grid, node_eps: float,
             extensions: bool) -> list[ComplexityReport]:
    """Reports of a block of profiles, (A x M) arrays with one row per angle
    of ``thetas`` (canonical angles)."""
    entropy = _entropy(rho, grid.dx)
    integrand, fisher = _fisher_terms(rho, drho, dpsi_abs2, grid.dx, node_eps)
    if extensions:
        diseq = _kernels.trapezoid(rho * rho, grid.dx)
        var = _variance(rho, grid)
        edge = _edge_dominated(integrand)
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
            cfs=f * power, lmc=lmc, cr=cr,
            edge_dominated=bool(extensions and edge[k])))
    return reports


def report_from_profile(profile: DensityProfile, node_eps: float = 1e-13,
                        extensions: bool = False) -> ComplexityReport:
    """Assemble the full per-angle report from one density profile: the
    block computation with a single row."""
    return _reports([profile.theta], profile.rho[None], profile.drho[None],
                    _dpsi_abs2(profile)[None], profile.grid, node_eps,
                    extensions)[0]


class ProfileEvaluator:
    """Base for repeated per-theta evaluation of one state: subclasses supply
    ``profile(theta)``; reports are memoized by the exact float angle."""

    numerics: Numerics

    def __init__(self, numerics: Numerics = DEFAULT_NUMERICS):
        self.numerics = numerics
        self._cache: dict[tuple[float, bool], ComplexityReport] = {}

    def profile(self, theta: float) -> DensityProfile:
        raise NotImplementedError

    def fill(self, thetas, extensions: bool = False) -> None:
        """Memoize the reports of all ``thetas``; here one angle at a time."""
        for theta in thetas:
            self.report(theta, extensions)

    def report(self, theta: float, extensions: bool = False) -> ComplexityReport:
        key = (theta, extensions)
        hit = self._cache.get(key)
        if hit is None:
            hit = report_from_profile(self.profile(theta),
                                      self.numerics.node_eps, extensions)
            self._cache[key] = hit
        return hit

    def cfs(self, theta: float) -> float:
        return self.report(theta).cfs


def block_rows(grid_points: int) -> int:
    """Angles per lattice block: BLOCK_BYTES over the working set of one
    angle, which peaks at about 8 float rows of ``grid_points`` points (the
    two GEMM products of 2 rows each, the density terms and a temporary)."""
    return max(1, BLOCK_BYTES // (64 * grid_points))


class FockEvaluator(ProfileEvaluator):
    """Fock-pipeline evaluator: caches the grid and basis table of one state."""

    def __init__(self, state: FockState, numerics: Numerics = DEFAULT_NUMERICS):
        super().__init__(numerics)
        self.state = state
        self.grid = default_grid(state.n_max, numerics.grid_points,
                                 numerics.grid_margin)
        self.table = build_basis_table(state.n_max, self.grid)

    def profile(self, theta: float) -> DensityProfile:
        return eval_density(self.state, theta, self.grid, self.table)

    def fill(self, thetas, extensions: bool = False) -> None:
        """Memoize the reports of all ``thetas``, evaluating the missing
        angles in blocks of ``block_rows`` rows."""
        todo = [t for t in thetas if (t, extensions) not in self._cache]
        rows = block_rows(self.grid.count)
        for start in range(0, len(todo), rows):
            block = todo[start:start + rows]
            self._cache.update(zip([(t, extensions) for t in block],
                                   self._block_reports(block, extensions)))

    def _block_reports(self, block, extensions: bool):
        # a function of its own, so one block's arrays are freed before the
        # next block is evaluated
        terms = density_block(self.state, block, self.grid, self.table)
        return _reports([canonical_theta(t) for t in block], *terms,
                        self.grid, self.numerics.node_eps, extensions)


def evaluator_for(state, numerics: Numerics = DEFAULT_NUMERICS):
    """Dispatch: FockStates get the Fock pipeline; anything exposing
    ``complexity_evaluator`` (the analytic Gaussian family) supplies its own."""
    maker = getattr(state, "complexity_evaluator", None)
    if maker is not None:
        return maker(numerics)
    if isinstance(state, FockState):
        return FockEvaluator(state, numerics)
    raise TypeError(f"cannot evaluate complexity of {type(state).__name__}")


def fs_complexity(state, theta: float, numerics: Numerics = DEFAULT_NUMERICS,
                  extensions: bool = False) -> ComplexityReport:
    """Fisher-Shannon complexity report of a state at one angle."""
    return evaluator_for(state, numerics).report(theta, extensions)
