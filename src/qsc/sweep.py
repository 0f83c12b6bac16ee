"""Angle sweeps: the global (averaged) and minimum Fisher-Shannon measures.

The complexity curve cfs(theta) is continuous and pi-periodic but not
smooth: it has a cusp wherever the rotated wavefunction gains a real node
(for (|0> + |2>)/sqrt(2) at theta = pi/2).  The global measure uses the
periodic trapezoid rule on an n-point lattice (the plain lattice mean),
refined by doubling until successive estimates agree; across such cusps the
rule converges only as O(h^2), not spectrally.  The minimum measure scans a
coarse periodic lattice, evaluates a lattice MFS_FINE times finer over the
two scan cells around its best sample, and refines the best fine sample by
Brent's method: the curve can carry several local minima, so
scan-then-bracket is the robust choice, and each minimum is a smooth
interior point (the cusps point up), where parabolic steps converge
superlinearly.  Each measure returns what it computes: ``analyze`` the
global one (a ``GlobalMeasure``), ``min_fs`` the minimum and its angle,
``sweep`` the curve (a ``SweepResult`` of lattice reports).

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
from dataclasses import dataclass

import numpy as np

from .functionals import ComplexityReport, evaluator_for
from .hermite import MAX_TABLE_CELLS
from .state import GRID_POINTS, canonical_theta

__all__ = ["GlobalMeasure", "SweepResult", "analyze", "min_fs", "sweep"]

# a golden step: the share of the larger side of the bracket it covers
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0

# lattice sizes: the first and the largest gfs lattice, and the mfs scan;
# the mfs refinement lattice is MFS_FINE times finer than the scan
GFS_START = 32
GFS_MAX_RESOLUTION = 1024
MFS_SCAN = 128
MFS_FINE = 8
# the targets: the relative agreement of successive gfs estimates, and the
# bracket width at which Brent's search of the mfs arg-min stops
GFS_REL_TOL = 1e-5
MFS_THETA_TOL = 1e-6


@dataclass(frozen=True)
class SweepResult:
    """The curve of ``sweep``: the lattice angles k pi / n and the report
    at each, which carries its canonical angle."""

    thetas: np.ndarray
    reports: tuple[ComplexityReport, ...]


@dataclass(frozen=True)
class GlobalMeasure:
    """The global measure of ``analyze``: its value, whether the refinement
    met its tolerance, and the size of the lattice it ended on."""

    gfs: float
    converged: bool
    resolution: int


def _lattice(n: int, axis: float = 0.0) -> list[float]:
    # axis + k * pi / n written so coarser power-of-two lattices reuse the
    # exact same floats as their refinements (cache hits in the evaluator)
    return [axis + (k * math.pi) / n for k in range(n)]


def _lattice_cfs(ev, n: int):
    """The lattice of ``n`` angles (n even) about the evaluator's mirror
    axis and the cfs on it.  With an axis only k = 0..n/2 are evaluated,
    and value n - k stands for each later k."""
    axis = ev.mirror_axis
    thetas = _lattice(n, axis or 0.0)
    if axis is None:
        return thetas, [r.cfs for r in ev.reports(thetas)]
    half = [r.cfs for r in ev.reports(thetas[: n // 2 + 1])]
    return thetas, half + half[-2:0:-1]


def sweep(state, n_theta: int, grid_points: int = GRID_POINTS) -> SweepResult:
    """Evaluate the complexity report on the periodic lattice k pi / n_theta,
    k = 0..n_theta-1 (endpoint pi excluded).  Its work, n_theta *
    grid_points angle-points, is capped at MAX_TABLE_CELLS (32768 angles at
    the default grid); blocked fills hold no array of that size."""
    if n_theta < 4:
        raise ValueError("need at least 4 theta samples")
    if n_theta * grid_points > MAX_TABLE_CELLS:
        raise ValueError(
            f"{n_theta} theta samples of {grid_points} grid points "
            f"exceed the cap of {MAX_TABLE_CELLS} values")
    ev = evaluator_for(state, grid_points)
    thetas = _lattice(n_theta)
    return SweepResult(thetas=np.array(thetas),
                       reports=tuple(ev.reports(thetas)))


def _brent_min(f, seeds, values, tol: float):
    """Brent's minimization of ``f`` (R. P. Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 5) in the bracket of three
    ``seeds`` a < x < b, h apart, whose ``values`` are known and lowest at
    x, so the first step is the parabola through them.  A parabolic step is
    taken only inside the bracket and shorter than half the step before
    last (h stands for the two steps before the first); otherwise a golden
    step into the larger side.  No point is evaluated closer than tol / 4
    to the best one, and a point only as low as the best one closes the
    bracket instead of replacing it, so stretches flat to rounding end the
    search.  Returns the best point seen and its value.  Stops once the
    bracket is within ``tol`` or no longer shrinks (it has reached the
    float spacing, which a tiny ``tol`` would never undercut)."""
    (a, x, b), (fa, fx, fb) = seeds, values
    # x the lowest point, w the next, v the third
    w, fw, v, fv = (a, fa, b, fb) if fa <= fb else (b, fb, a, fa)
    least = 0.25 * tol
    earlier = step = 0.5 * (b - a)
    prev = math.inf
    while tol < b - a < prev:
        prev = b - a
        mid = 0.5 * (a + b)
        # the vertex of the parabola through x, w, v is x + p / q
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        if q > 0.0:
            p = -p
        q = abs(q)
        if (abs(earlier) > least and abs(p) < abs(0.5 * q * earlier)
                and q * (a - x) < p < q * (b - x)):
            earlier, step = step, p / q
            if x + step - a < 2.0 * least or b - (x + step) < 2.0 * least:
                step = math.copysign(least, mid - x)
        else:
            earlier = (a - x) if x >= mid else (b - x)
            step = _GOLDEN_STEP * earlier
        u = x + (step if abs(step) >= least else math.copysign(least, step))
        fu = f(u)
        if fu < fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def min_fs(state, grid_points: int = GRID_POINTS) -> tuple[float, float]:
    """Minimum Fisher-Shannon measure and its canonical arg-min angle.

    Scans the MFS_SCAN lattice and takes its best sample theta_k (ties
    break toward smaller theta).  The 2 MFS_FINE - 1 angles theta_k +
    i pi / (MFS_FINE MFS_SCAN), 0 < |i| < MFS_FINE, are evaluated as one
    lattice; with theta_k and its two scan neighbours they make a fine
    lattice over the two scan cells around theta_k.  Brent's method then
    refines to MFS_THETA_TOL in the two fine cells around the best
    interior fine sample, seeded with it and its neighbours.  The result is
    never above the scan.  One search settles in one basin: when a node
    event splits the fine cells around the best fine sample into two
    basins, it can report the higher one."""
    ev = evaluator_for(state, grid_points)
    thetas, values = _lattice_cfs(ev, MFS_SCAN)
    n = len(values)
    k = int(np.argmin(values))
    h = math.pi / (MFS_SCAN * MFS_FINE)
    xs = [thetas[k] + i * h for i in range(-MFS_FINE, MFS_FINE + 1)]
    # theta_k and its scan neighbours keep their scan values
    fresh = [r.cfs for r in ev.reports(xs[1:MFS_FINE] + xs[MFS_FINE + 1:-1])]
    fs = ([values[(k - 1) % n]] + fresh[:MFS_FINE - 1] + [values[k]]
          + fresh[MFS_FINE - 1:] + [values[(k + 1) % n]])
    # theta_k is interior and no end is below it
    j = 1 + int(np.argmin(fs[1:-1]))
    x, fx = _brent_min(ev.cfs, xs[j - 1:j + 2], fs[j - 1:j + 2],
                       MFS_THETA_TOL)
    return canonical_theta(x), fx


def analyze(state, grid_points: int = GRID_POINTS) -> GlobalMeasure:
    """Global measure: the periodic-trapezoid average of cfs on the lattice
    about the state's mirror axis, doubled from GFS_START angles until
    successive estimates agree to GFS_REL_TOL or the lattice reaches
    GFS_MAX_RESOLUTION (the minimum measure is ``min_fs``'s)."""
    ev = evaluator_for(state, grid_points)
    res = GFS_START
    estimate = float(np.mean(_lattice_cfs(ev, res)[1]))
    converged = False
    while res < GFS_MAX_RESOLUTION and not converged:
        res *= 2
        refined = float(np.mean(_lattice_cfs(ev, res)[1]))
        converged = (abs(refined - estimate)
                     <= GFS_REL_TOL * max(abs(refined), 1e-300))
        estimate = refined
    return GlobalMeasure(gfs=estimate, converged=converged, resolution=res)
