"""Angle sweeps: the global (averaged) and minimum Fisher-Shannon measures.

The complexity curve cfs(theta) is continuous and pi-periodic but not
smooth: it has a cusp wherever the rotated wavefunction gains a real node
(for (|0> + |2>)/sqrt(2) at theta = pi/2).  The global measure uses the
periodic trapezoid rule on the lattice theta_k = k pi / n (the plain lattice
mean), refined by doubling until successive estimates agree; across such
cusps the rule converges only as O(h^2), not spectrally.  The minimum measure
scans a coarse periodic lattice and then runs a derivative-free
golden-section refinement inside the bracketing interval: the curve can
carry several local minima, so scan-then-bracket is the robust choice.
Lattice angles are evaluated in blocks by the evaluator (one matrix product
per block); every aggregation walks the results in fixed index order,
keeping outputs deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functionals import (ComplexityReport, DEFAULT_NUMERICS, Numerics,
                          evaluator_for)
from .state import canonical_theta

__all__ = ["SweepResult", "analyze", "global_fs", "min_fs", "sweep"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# lattice sizes: the first and the largest gfs lattice, and the mfs scan
GFS_START = 32
GFS_MAX_RESOLUTION = 1024
MFS_SCAN = 128


@dataclass(frozen=True)
class SweepResult:
    """Angle lattice, per-angle reports, and (when computed) the global and
    minimum measures.  ``resolution`` is the lattice size actually used;
    ``converged`` reports whether the global refinement met its tolerance."""

    thetas: np.ndarray
    reports: tuple[ComplexityReport, ...]
    gfs: float | None
    mfs: float | None
    mfs_theta: float | None
    converged: bool
    resolution: int


def _lattice(n: int) -> list[float]:
    # k * pi / n written so coarser power-of-two lattices reuse the exact
    # same floats as their refinements (cache hits in the evaluator)
    return [(k * math.pi) / n for k in range(n)]


def sweep(state, n_theta: int,
          numerics: Numerics = DEFAULT_NUMERICS) -> SweepResult:
    """Evaluate the complexity report on the periodic lattice k pi / n_theta,
    k = 0..n_theta-1 (endpoint pi excluded)."""
    if n_theta < 4:
        raise ValueError("need at least 4 theta samples")
    ev = evaluator_for(state, numerics)
    thetas = _lattice(n_theta)
    reports = ev.reports(thetas)
    return SweepResult(thetas=np.array(thetas), reports=tuple(reports),
                       gfs=None, mfs=None, mfs_theta=None,
                       converged=True, resolution=n_theta)


def _gfs(ev, numerics: Numerics):
    """Periodic-trapezoid average of cfs with resolution doubling."""
    res = GFS_START
    values = [r.cfs for r in ev.reports(_lattice(res))]
    estimate = float(np.mean(values))
    converged = False
    while res < GFS_MAX_RESOLUTION:
        res *= 2
        values = [r.cfs for r in ev.reports(_lattice(res))]
        refined = float(np.mean(values))
        if abs(refined - estimate) <= numerics.gfs_rel_tol * max(abs(refined), 1e-300):
            estimate = refined
            converged = True
            break
        estimate = refined
    return estimate, converged, res


def _golden_min(f, lo: float, hi: float, tol: float):
    """Golden-section minimization on [lo, hi]; returns the best point seen.
    Stops once the bracket is within ``tol`` or no longer shrinks (it has
    reached the float spacing, which a tiny ``tol`` would never undercut)."""
    h = hi - lo
    c = hi - _INV_PHI * h
    d = lo + _INV_PHI * h
    fc = f(c)
    fd = f(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    prev = math.inf
    while tol < h < prev:
        prev = h
        if fc < fd:
            hi, d, fd = d, c, fc
            h = hi - lo
            c = hi - _INV_PHI * h
            fc = f(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            lo, c, fc = c, d, fd
            h = hi - lo
            d = lo + _INV_PHI * h
            fd = f(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def _mfs(ev, numerics: Numerics, extra_seeds=()):
    """Coarse periodic scan, then golden-section refinement around the best
    sample (ties break toward smaller theta).  ``extra_seeds`` adds lattice
    angles from other computations whose minima must not be missed."""
    n = MFS_SCAN
    thetas = _lattice(n)
    values = [r.cfs for r in ev.reports(thetas)]
    k = int(np.argmin(values))
    seeds = [(thetas[k], math.pi / n)]
    for theta, spacing in extra_seeds:
        seeds.append((theta, spacing))
    best_x, best_f = thetas[k], values[k]
    for center, spacing in seeds:
        x, fx = _golden_min(ev.cfs, center - spacing, center + spacing,
                            numerics.mfs_theta_tol)
        if fx < best_f:
            best_x, best_f = x, fx
    return canonical_theta(best_x), best_f


def global_fs(state, numerics: Numerics = DEFAULT_NUMERICS) -> float:
    """Global Fisher-Shannon measure: the angle average of cfs."""
    value, _, _ = _gfs(evaluator_for(state, numerics), numerics)
    return value


def min_fs(state, numerics: Numerics = DEFAULT_NUMERICS) -> tuple[float, float]:
    """Minimum Fisher-Shannon measure and its canonical arg-min angle."""
    return _mfs(evaluator_for(state, numerics), numerics)


def analyze(state, numerics: Numerics = DEFAULT_NUMERICS) -> SweepResult:
    """Full sweep bundle: lattice reports, global measure, minimum measure.

    One evaluator (hence one report cache) backs all three computations; the
    minimum search additionally seeds from any lattice sample that undercuts
    the scan, so mfs <= min(reports) always holds.
    """
    ev = evaluator_for(state, numerics)
    gfs_value, converged, resolution = _gfs(ev, numerics)
    thetas = _lattice(resolution)
    reports = ev.reports(thetas)
    cfs_values = [r.cfs for r in reports]
    k_best = int(np.argmin(cfs_values))
    mfs_theta, mfs_value = _mfs(
        ev, numerics, extra_seeds=[(thetas[k_best], math.pi / resolution)])
    if cfs_values[k_best] < mfs_value:
        mfs_theta, mfs_value = canonical_theta(thetas[k_best]), cfs_values[k_best]
    return SweepResult(thetas=np.array(thetas), reports=tuple(reports),
                       gfs=gfs_value, mfs=mfs_value, mfs_theta=mfs_theta,
                       converged=converged, resolution=resolution)
