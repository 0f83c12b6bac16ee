"""Angle sweeps: the global (averaged) and minimum Fisher-Shannon measures.

The complexity curve cfs(theta) is continuous and pi-periodic but not
smooth: it has a cusp wherever the rotated wavefunction gains a real node
(for (|0> + |2>)/sqrt(2) at theta = pi/2).  The global measure uses the
periodic trapezoid rule on an n-point lattice (the plain lattice mean),
refined by doubling until successive estimates agree; across such cusps the
rule converges only as O(h^2), not spectrally.  The minimum measure scans a
coarse periodic lattice and then runs a derivative-free golden-section
refinement inside the bracketing interval: the curve can carry several local
minima, so scan-then-bracket is the robust choice.  Each measure has one
owner: ``analyze`` the global one (its ``gfs``, with the lattice reports
beside it), ``min_fs`` the minimum.

Most states have a mirror axis a, read from the state by its evaluator
(``mirror_axis``): cfs(a + t) = cfs(a - t).  That holds whenever
c_n = r_n exp(i(phi + n beta)) with real r_n, a = -beta: every ``fock:``,
``gauss:`` and ``box:`` state, every real superposition and every rotation
of one.  ``analyze`` and the ``min_fs`` scan then use the lattice
a + k pi / n, evaluate only k = 0..n/2 and take value n - k for
k > n/2; a real state has a = 0, hence the plain lattice k pi / n.  A
state without an axis is evaluated on the whole lattice k pi / n.  Minima
of a mirrored curve come in mirror pairs, and the reported arg-min may be
either angle of its pair.  ``sweep`` always evaluates the full lattice
k pi / n.  Lattice angles are evaluated in blocks by the evaluator (one
matrix product per block); every aggregation walks the results in fixed
index order, keeping outputs deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .functionals import (ComplexityReport, DEFAULT_NUMERICS, Numerics,
                          evaluator_for)
from .hermite import MAX_TABLE_CELLS
from .state import canonical_theta

__all__ = ["SweepResult", "analyze", "min_fs", "sweep"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# lattice sizes: the first and the largest gfs lattice, and the mfs scan
GFS_START = 32
GFS_MAX_RESOLUTION = 1024
MFS_SCAN = 128


@dataclass(frozen=True)
class SweepResult:
    """Angle lattice, per-angle reports, and (when computed) the global
    measure.  ``thetas`` holds the raw lattice angles (from the mirror axis
    in ``analyze``), each report its canonical angle.  ``resolution`` is the
    lattice size actually used; ``converged`` reports whether the global
    refinement met its tolerance.  The minimum measure is ``min_fs``'s."""

    thetas: np.ndarray
    reports: tuple[ComplexityReport, ...]
    gfs: float | None
    converged: bool
    resolution: int


def _lattice(n: int, axis: float = 0.0) -> list[float]:
    # axis + k * pi / n written so coarser power-of-two lattices reuse the
    # exact same floats as their refinements (cache hits in the evaluator)
    return [axis + (k * math.pi) / n for k in range(n)]


def _lattice_reports(ev, n: int):
    """The lattice of ``n`` angles (n even) about the evaluator's mirror
    axis, the reports on it, and how many of them were evaluated.  With an
    axis only k = 0..n/2 are evaluated, and report n - k, with its own
    angle, stands for each later k."""
    axis = ev.mirror_axis
    thetas = _lattice(n, axis or 0.0)
    if axis is None:
        return thetas, ev.reports(thetas), n
    half = ev.reports(thetas[: n // 2 + 1])
    return thetas, half + half[-2:0:-1], len(half)


def _lattice_values(ev, n: int):
    """The lattice of ``n`` angles about the mirror axis, and cfs on it."""
    thetas, reports, _ = _lattice_reports(ev, n)
    return thetas, [r.cfs for r in reports]


def sweep(state, n_theta: int,
          numerics: Numerics = DEFAULT_NUMERICS) -> SweepResult:
    """Evaluate the complexity report on the periodic lattice k pi / n_theta,
    k = 0..n_theta-1 (endpoint pi excluded).  The lattice may hold at most
    MAX_TABLE_CELLS grid values, n_theta * grid_points: 32768 angles at the
    default grid."""
    if n_theta < 4:
        raise ValueError("need at least 4 theta samples")
    if n_theta * numerics.grid_points > MAX_TABLE_CELLS:
        raise ValueError(
            f"{n_theta} theta samples of {numerics.grid_points} grid points "
            f"exceed the cap of {MAX_TABLE_CELLS} values")
    ev = evaluator_for(state, numerics)
    thetas = _lattice(n_theta)
    reports = ev.reports(thetas)
    return SweepResult(thetas=np.array(thetas), reports=tuple(reports),
                       gfs=None, converged=True, resolution=n_theta)


def _gfs(ev):
    """Periodic-trapezoid average of cfs with resolution doubling, to the
    evaluator's ``gfs_rel_tol``."""
    tol = ev.numerics.gfs_rel_tol
    res = GFS_START
    estimate = float(np.mean(_lattice_values(ev, res)[1]))
    converged = False
    while res < GFS_MAX_RESOLUTION and not converged:
        res *= 2
        refined = float(np.mean(_lattice_values(ev, res)[1]))
        converged = abs(refined - estimate) <= tol * max(abs(refined), 1e-300)
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


def min_fs(state, numerics: Numerics = DEFAULT_NUMERICS) -> tuple[float, float]:
    """Minimum Fisher-Shannon measure and its canonical arg-min angle.

    Scans the MFS_SCAN lattice, then refines by golden section to the
    ``mfs_theta_tol`` within pi/MFS_SCAN of its best sample (ties break
    toward smaller theta), keeping the sample unless the refinement is
    lower.  One search settles in one basin: when a node event splits the
    two cells around the best sample into two basins, it can report the
    higher one."""
    ev = evaluator_for(state, numerics)
    thetas, values = _lattice_values(ev, MFS_SCAN)
    k = int(np.argmin(values))
    x, fx = _golden_min(ev.cfs, thetas[k] - math.pi / MFS_SCAN,
                        thetas[k] + math.pi / MFS_SCAN,
                        ev.numerics.mfs_theta_tol)
    if fx < values[k]:
        return canonical_theta(x), fx
    return canonical_theta(thetas[k]), values[k]


def analyze(state, numerics: Numerics = DEFAULT_NUMERICS) -> SweepResult:
    """Global-measure bundle: the lattice reports, the global measure, its
    convergence flag and resolution (the minimum measure is ``min_fs``'s).

    One evaluator (hence one report cache) backs the refinement and the
    reports.  The lattice is the gfs lattice: about the state's mirror axis
    when it has one, its mirrored half built from the evaluated half with
    the angles replaced.
    """
    ev = evaluator_for(state, numerics)
    gfs_value, converged, resolution = _gfs(ev)
    thetas, reports, done = _lattice_reports(ev, resolution)
    reports[done:] = [replace(r, theta=canonical_theta(t))
                      for r, t in zip(reports[done:], thetas[done:])]
    return SweepResult(thetas=np.array(thetas), reports=tuple(reports),
                       gfs=gfs_value, converged=converged,
                       resolution=resolution)
