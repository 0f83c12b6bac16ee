"""Orthonormal harmonic-oscillator eigenfunctions (m = hbar = omega = 1).

``tabulate`` is the one entry point: it fills rows n = 0..n_max at any set
of points (a grid's points, quadrature nodes) through the normalized
three-term recurrence on the Gaussian-weighted functions

    u_0(x)     = pi**-0.25 * exp(-x**2 / 2)
    u_1(x)     = sqrt(2) * x * u_0(x)
    u_{n+1}(x) = sqrt(2/(n+1)) * x * u_n(x) - sqrt(n/(n+1)) * u_{n-1}(x)

which stays bounded up to quantum numbers of order 10^3, where the bare
Hermite polynomials have long since overflowed.  The recurrence carries a
per-point exponent besides: values are kept as v * exp(g), with v rescaled
whenever it grows past 2**512, so points inside the classical turning point
but beyond the float range of exp(-x^2/2) (|x| > 38.6) still come out right
over the full (n <= 10^3, |x| <= 60) range.  Derivatives have no table of
their own: by the exact ladder identity

    u_n'(x) = sqrt(n/2) * u_{n-1}(x) - sqrt((n+1)/2) * u_{n+1}(x)

the derivative of sum_n d_n u_n is sum_m d'_m u_m on the same rows, with
the coefficients d' of ``ladder``.  Far in the tail (|x| >> sqrt(2n+1))
the weighted functions underflow to zero silently, which is harmless
because every integrand built from them vanishes there as well.
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
_LOG_TINY = -745.0       # exp below this underflows to zero


def check_cells(rows: int, points: int) -> None:
    """Refuse an array of ``rows`` rows of ``points`` points past
    MAX_TABLE_CELLS, before anything of that size is allocated."""
    cells = rows * points
    if cells > MAX_TABLE_CELLS:
        raise NumericsError(
            f"{rows} rows of {points} points exceed the cap of {MAX_TABLE_CELLS}"
            f" cells: {cells} cells is {cells - MAX_TABLE_CELLS} over the cap")


def _unscale(v, g, w, unsafe, out=None):
    # unsafe: the points where w underflows, or None when there are none
    out = np.multiply(v, w, out=out)
    if unsafe is not None:
        idx = unsafe & (v != 0.0)
        t = g[idx] + np.log(np.abs(v[idx]))
        out[idx] = np.where(t < _LOG_TINY, 0.0,
                            np.copysign(np.exp(np.minimum(t, 0.0)), v[idx]))
        out[unsafe & (v == 0.0)] = 0.0
    return out


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


def tabulate(points: np.ndarray, n_max: int) -> BasisTable:
    """Single-pass recurrence fill over arbitrary points: every eigenfunction
    value is a row of such a table."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    points = np.ascontiguousarray(points, dtype=float)
    check_cells(n_max + 1, points.shape[0])
    values = np.empty((n_max + 1, points.shape[0]))
    g = _LOG_PI4 - 0.5 * points * points
    unsafe = g <= _EXP_SAFE
    w = np.where(unsafe, 0.0, np.exp(np.maximum(g, _EXP_SAFE)))
    flags = unsafe if unsafe.any() else None
    lo, hi = np.zeros_like(points), np.ones_like(points)  # v of rows n-1, n
    _unscale(hi, g, w, flags, out=values[0])
    # each row is unscaled before the next one is built, since a rescale
    # updates the previous v, g, w and unsafe in place
    for n in range(n_max):
        # sqrt(2/(n+1)) x v_n - sqrt(n/(n+1)) v_{n-1}, in place
        nxt = math.sqrt(2.0 / (n + 1.0)) * points
        nxt *= hi
        nxt -= math.sqrt(n / (n + 1.0)) * lo
        if (np.maximum.reduce(nxt, initial=0.0) > _RESCALE   # or no points
                or np.minimum.reduce(nxt, initial=0.0) < -_RESCALE):
            big = np.flatnonzero(np.abs(nxt) > _RESCALE)
            nxt[big] *= _INV_RESCALE
            hi[big] *= _INV_RESCALE
            g[big] += _LOG_RESCALE
            unsafe[big] = g[big] <= _EXP_SAFE
            w[big] = np.where(unsafe[big], 0.0,
                              np.exp(np.maximum(g[big], _EXP_SAFE)))
            # a rescale only raises g, so unsafe points can only go away
            flags = unsafe if flags is not None and unsafe.any() else None
        lo, hi = hi, nxt
        _unscale(hi, g, w, flags, out=values[n + 1])
    for arr in (points, values):
        arr.setflags(write=False)
    return BasisTable(n_max=n_max, points=points, values=values)
