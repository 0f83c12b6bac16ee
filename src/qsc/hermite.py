"""Orthonormal harmonic-oscillator eigenfunctions (m = hbar = omega = 1).

``tabulate`` is the one entry point: it fills rows n = 0..n_max at any set
of points (the nonnegative half of a grid, quadrature nodes) through the
normalized three-term recurrence

    u_0(x)     = pi**-0.25 * exp(-x**2 / 2)
    u_{n+1}(x) = sqrt(2/(n+1)) * x * u_n(x) - sqrt(n/(n+1)) * u_{n-1}(x)

which stays bounded up to quantum numbers of order 10^3, where the bare
Hermite polynomials have long since overflowed.  It takes one of two
routes at each point, by g = log(pi**-0.25) - x**2 / 2:

- near points, where exp(g) is a normal float (g > -690, |x| < 37.14):
  the recurrence runs on u_n itself, straight into the table rows.  u_0 is
  normal and u_n only grows with n in the classically forbidden region, so
  nothing underflows or overflows.  A row costs four ufunc calls over the
  near points and no other Python work: the coefficients of every row are
  computed once per table;
- far points (|x| > 37.14), where u_0 underflows: the recurrence runs on
  v_n = u_n exp(-g) with a per-point exponent, v rescaled by 2**-512 and g
  raised to match whenever |v| passes 2**512, and a row is v exp(g), or
  exp(g + log|v|) while exp(g) is still below the normal floats.  Values
  far in the tail (|x| >> sqrt(2n+1)) underflow to zero there, which is
  harmless because every integrand built from them vanishes as well.  Only
  large truncations reach such points: at the default margin, the
  evaluator grid of a state of more than 485 terms.

Both routes are right over the full (n <= 10^3, |x| <= 60) range.
Derivatives have no table of their own: by the exact ladder identity

    u_n'(x) = sqrt(n/2) * u_{n-1}(x) - sqrt((n+1)/2) * u_{n+1}(x)

the derivative of sum_n d_n u_n is sum_m d'_m u_m on the same rows, with
the coefficients d' of ``ladder``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError

__all__ = ["BasisTable", "MAX_TABLE_CELLS", "check_cells", "ladder", "tabulate"]

# guards accidental huge allocations, not a tuning knob
MAX_TABLE_CELLS = 1 << 27

_LOG_PI4 = -0.25 * np.log(np.pi)
_RESCALE = 2.0 ** 512
_INV_RESCALE = 2.0 ** -512
_LOG_RESCALE = 512.0 * np.log(2.0)
_EXP_SAFE = -690.0       # exp(g) is a normal float above this


def check_cells(rows: int, points: int) -> None:
    """Refuse an array of ``rows`` rows of ``points`` points past
    MAX_TABLE_CELLS, before anything of that size is allocated."""
    cells = rows * points
    if cells > MAX_TABLE_CELLS:
        raise NumericsError(
            f"{rows} rows of {points} points exceed the cap of {MAX_TABLE_CELLS}"
            f" cells: {cells} cells is {cells - MAX_TABLE_CELLS} over the cap")


@dataclass(frozen=True)
class BasisTable:
    """Eigenfunction values tabulated on a set of points.

    Rows run n = 0..n_max; columns follow ``points``.  psi of K terms and
    psi' (see ``ladder``) need rows 0..K.  Immutable after construction.
    """

    n_max: int
    points: np.ndarray
    values: np.ndarray


def ladder(coeffs, out):
    """Write into ``out`` (..., K+1) the coefficients d'_0..d'_K of psi' from
    those d_0..d_{K-1} of psi in ``coeffs``, along the last axis:
    d'_m = sqrt((m+1)/2) d_{m+1} - sqrt(m/2) d_{m-1}, d_n = 0 outside 0..K-1."""
    k = coeffs.shape[-1]
    w = np.sqrt(np.arange(0.5, 0.5 * k + 0.25, 0.5))   # sqrt(m/2), m = 1..K
    np.multiply(coeffs[..., 1:], w[:-1], out=out[..., :k - 1])
    out[..., k - 1:] = 0.0
    out[..., 1:] -= coeffs * w
    return out


def _near_rows(x, g, rows):
    # u_n itself into ``rows``, from u_0 = exp(g), a normal float at every
    # x here.  Row n + 1 is (x a) u_n - u_{n-1} b, in that order, with
    # a = sqrt(2/(n+1)) and b = sqrt(n/(n+1)); numpy's sqrt is correctly
    # rounded, as math.sqrt is, so the lists hold the same floats
    np.exp(g, out=rows[0])
    m = np.arange(1.0, rows.shape[0])
    a = np.sqrt(2.0 / m).tolist()
    b = np.sqrt((m - 1.0) / m).tolist()
    mul, sub = np.multiply, np.subtract
    lo = np.zeros_like(x)               # row -1
    tmp = np.empty_like(x)
    for hi, nxt, an, bn in zip(rows, rows[1:], a, b):
        mul(x, an, nxt)
        mul(nxt, hi, nxt)
        mul(lo, bn, tmp)
        sub(nxt, tmp, nxt)
        lo = hi


def _far_rows(x, g, values, cols):
    # u_n = v_n exp(g) into ``values[:, cols]``, v rescaled by 2**-512
    # whenever it passes 2**512.  Every x here starts with exp(g) below the
    # normal floats; idx lists the points where it still is, and those take
    # exp(g + log|v|) instead, which underflows to zero far in the tail
    w = np.zeros_like(x)
    idx = np.arange(x.shape[0])
    lo, hi, nxt = np.zeros_like(x), np.ones_like(x), np.empty_like(x)
    tmp, row = np.empty_like(x), np.empty_like(x)
    # row n is written before row n + 1 is built, since a rescale updates
    # v_n, g and w in place
    for n in range(values.shape[0]):
        if n:
            # sqrt(2/n) x v_{n-1} - sqrt((n-1)/n) v_{n-2}
            np.multiply(x, math.sqrt(2.0 / n), out=nxt)
            nxt *= hi
            np.multiply(lo, math.sqrt((n - 1.0) / n), out=tmp)
            nxt -= tmp
            if (np.maximum.reduce(nxt) > _RESCALE
                    or np.minimum.reduce(nxt) < -_RESCALE):
                big = np.flatnonzero(np.abs(nxt) > _RESCALE)
                nxt[big] *= _INV_RESCALE
                hi[big] *= _INV_RESCALE
                g[big] += _LOG_RESCALE
                w[big] = np.exp(g[big])       # read only where normal
                idx = np.flatnonzero(g <= _EXP_SAFE)
            lo, hi, nxt = hi, nxt, lo
        np.multiply(hi, w, out=row)
        if idx.size:
            v = hi[idx]
            row[idx] = np.copysign(np.exp(g[idx] + np.log(np.abs(v))), v)
        values[n, cols] = row


def tabulate(points: np.ndarray, n_max: int) -> BasisTable:
    """Rows u_0..u_{n_max} at ``points``, one column per point: every
    eigenfunction value in the package is a row of such a table.

    Near points (|x| < 37.14) take the direct recurrence, four ufunc calls
    per row written into the table (on a few hundred points their call
    overhead is most of a row's cost); far points take the rescaled one
    (see the module docstring).  A column depends on its own point
    only, so it equals the one-point table of that point bit for bit.  The
    direct recurrence runs over the columns from the first near point to
    the last: on sorted points, such as every grid and node set of the
    package, far points lie outside that span; otherwise the far route
    overwrites the far columns inside it.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    points = np.ascontiguousarray(points, dtype=float)
    check_cells(n_max + 1, points.shape[0])
    values = np.empty((n_max + 1, points.shape[0]))
    g = _LOG_PI4 - 0.5 * points * points
    safe = g > _EXP_SAFE
    if safe.any():
        first, last = np.flatnonzero(safe)[[0, -1]]
        span = slice(first, last + 1)
        _near_rows(points[span], g[span], values[:, span])
    far = np.flatnonzero(~safe)
    if far.size:
        # one run of far points, the right end of a half grid, is written
        # as a slice, which is faster than an index
        cols = (slice(far[0], far[-1] + 1) if far[-1] - far[0] == far.size - 1
                else far)
        with np.errstate(divide="ignore"):      # log(0) is -inf: u = 0
            _far_rows(points[far], g[far], values, cols)
    for arr in (points, values):
        arr.setflags(write=False)
    return BasisTable(n_max=n_max, points=points, values=values)
