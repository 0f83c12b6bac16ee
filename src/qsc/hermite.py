"""Orthonormal harmonic-oscillator eigenfunctions (m = hbar = omega = 1).

``row_chunks`` is the one recurrence: it yields rows n = 0..n_max at any
set of points (the nonnegative half of a grid, quadrature nodes) in chunks
of finished rows, through the normalized three-term recurrence (Bunck, BIT
49, 2009)

    u_0(x)     = pi**-0.25 * exp(-x**2 / 2)
    u_{n+1}(x) = sqrt(2/(n+1)) * x * u_n(x) - sqrt(n/(n+1)) * u_{n-1}(x)

which stays bounded up to quantum numbers of order 10^3, where the bare
Hermite polynomials have long since overflowed.  One loop runs it for
every point, four ufunc calls per row.  ``tabulate`` keeps the one chunk
that holds all rows as a table; a single angle of ``fs_complexity``
contracts each chunk as it comes and never holds the table.  Each
column holds u_n = s_n 2**e, s_n in the rows and one binary exponent e
per column (an "X-number", Fukushima, J. Geodesy 86, 2012).  With
g = log(pi**-0.25) - x**2 / 2:

- near points, where exp(g) is a normal float (g > -690, |x| < 37.14),
  keep e = 0, so s_n is u_n itself.  u_0 is normal and u_n only grows
  with n in the classically forbidden region, so nothing underflows or
  overflows;
- far points (|x| > 37.14), where u_0 underflows, start from
  s_0 = exp(g - e log 2) in [1, 2).  Every few rows e takes over the
  binary exponent of s (frexp and ldexp, both exact), and the finished
  rows become ldexp(s, e), which rounds once: into the subnormals, or to
  zero far in the tail (|x| >> sqrt(2n+1)), which is harmless because
  every integrand built from them vanishes as well.  Only large
  truncations reach such points: the evaluator grid (``default_grid``) of
  a state of more than 485 terms.

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

__all__ = ["BasisTable", "MAX_TABLE_CELLS", "check_cells", "ladder",
           "row_chunks", "tabulate"]

# guards accidental huge allocations, not a tuning knob
MAX_TABLE_CELLS = 1 << 27

_LOG_PI4 = -0.25 * np.log(np.pi)
_LN2 = math.log(2.0)
_EXP_SAFE = -690.0       # exp(g) is a normal float above this
# past |x| = 2**20, x**2 / 2 outweighs the n log(1 + sqrt(2) |x|) that s can
# gain on every row the cell cap allows, so u_n is 0.0 there; g is taken at
# that |x|, which keeps x**2 and e finite
_X_CLAMP = 2.0 ** 20


def _aligned_empty(shape) -> np.ndarray:
    """np.empty(shape) of floats whose data starts on a 64-byte cache line.
    malloc aligns to 16 bytes only, so where a large array starts within a
    line follows the allocation history of the process, and with it the
    speed of every ufunc pass over it: an mfs op ran 4.4 or 5.6 ms as its
    density workspace happened to land."""
    n = math.prod(shape)
    raw = np.empty(n + 7)
    skip = (-raw.ctypes.data % 64) // raw.itemsize
    return raw[skip:skip + n].reshape(shape)


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


def _ladder_weights(k: int) -> np.ndarray:
    """sqrt(m/2), m = 1..K: the weights of ``ladder`` for K terms."""
    return np.sqrt(np.arange(0.5, 0.5 * k + 0.25, 0.5))


def ladder(coeffs, out, weights=None):
    """Write into ``out`` (..., K+1) the coefficients d'_0..d'_K of psi' from
    those d_0..d_{K-1} of psi in ``coeffs``, along the last axis:
    d'_m = sqrt((m+1)/2) d_{m+1} - sqrt(m/2) d_{m-1}, d_n = 0 outside 0..K-1.
    ``weights`` are ``_ladder_weights(K)``, when the caller holds them."""
    k = coeffs.shape[-1]
    w = _ladder_weights(k) if weights is None else weights
    np.multiply(coeffs[..., 1:], w[:-1], out=out[..., :k - 1])
    out[..., k - 1:] = 0.0
    out[..., 1:] -= coeffs * w
    return out


def _recur(x, lo, hi, rows, a, b, tmp):
    # rows n + 1, n + 2, ... into ``rows`` from lo = s_{n-1} and hi = s_n.
    # Row n + 1 is (x a) s_n - s_{n-1} b, in that order, with
    # a = sqrt(2/(n+1)) and b = sqrt(n/(n+1)), given as lists of floats
    # (numpy's sqrt is correctly rounded, as math.sqrt is): four ufunc calls
    # over all points (on a few hundred points their call overhead is most
    # of a row's cost) and no other Python work
    mul, sub = np.multiply, np.subtract
    for nxt, an, bn in zip(rows, a, b):
        mul(x, an, nxt)
        mul(nxt, hi, nxt)
        mul(lo, bn, tmp)
        sub(nxt, tmp, nxt)
        lo, hi = hi, nxt
    return lo, hi


def _ldexp_rows(rows, e):
    # s 2**e in place, a row at a time: over a 2-D view numpy's ufunc loop
    # takes buffers of up to 64 KiB per operand
    for row in rows:
        np.ldexp(row, e, out=row)


def row_chunks(points: np.ndarray, n_max: int, rows: int):
    """Rows u_0..u_{n_max} at ``points``, one column per point, yielded in
    order as chunks of finished rows.

    One recurrence fills every column as s_n 2**e with a binary exponent e
    per column (see the module docstring): e = 0 at near points
    (|x| < 37.14), where the rows are u_n as computed; at far points the
    rows run in steps short enough that s stays below 2**901, and e takes
    over the exponent of s between steps.  A column depends on its own
    point only, so it equals the one-point table of that point bit for
    bit.  Finite points past |x| = 2**20 give rows of 0.0.

    The rows live in one buffer of min(max(``rows``, 3), n_max + 1) rows,
    and every chunk is a view into it, good until the next chunk is asked
    for.  A far row is finished, ldexp(s, e), before its chunk is yielded;
    the last two rows of a full buffer still carry the recurrence, so they
    move to its front as s and lead the next chunk.  With ``rows`` > n_max
    the whole table is one chunk, and every chunk row is the row a single
    chunk holds, bit for bit.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    points = np.ascontiguousarray(points, dtype=float)
    size = min(max(rows, 3), n_max + 1)
    check_cells(size, points.shape[0])
    values = _aligned_empty((size, points.shape[0]))
    x = np.minimum(np.abs(points), _X_CLAMP)
    g = _LOG_PI4 - 0.5 * x * x
    far = np.flatnonzero(g <= _EXP_SAFE)
    # the far columns and the near ones between them, whose e stays 0: one
    # run at the right end of a half grid, and a slice is written in place
    span = slice(far[0], far[-1] + 1) if far.size else slice(0, 0)
    is_far = g[span] <= _EXP_SAFE
    e = np.where(is_far, np.floor(g[span] / _LN2), 0.0).astype(np.int64)
    g[span] -= e * _LN2
    np.exp(g, out=values[0])
    # |s| grows by at most a factor 1 + sqrt(2)|x| per row, from below 2 at
    # the start of a step: ``step`` rows keep it below 2**901
    step = n_max or 1
    if far.size:
        grow = math.log1p(math.sqrt(2.0) * np.max(np.abs(points[far])))
        step = max(1, int(900.0 * _LN2 / grow))
    m = np.arange(1.0, n_max + 1)
    a, b = np.sqrt(2.0 / m), np.sqrt((m - 1.0) / m)
    lo, hi = np.zeros_like(points), values[0]          # rows -1 and 0
    tmp = np.empty_like(points)
    base = 0                    # the row in values[0]
    done = 0                    # far rows from here on still hold s
    last = 0                    # the last row computed
    while last < n_max:
        stop = min((last // step + 1) * step, base + size - 1, n_max)
        lo, hi = _recur(points, lo, hi,
                        values[last + 1 - base:stop + 1 - base],
                        a[last:stop].tolist(), b[last:stop].tolist(), tmp)
        last = stop
        if stop == n_max:
            break
        if stop % step == 0:
            # rows done..stop - 2 are finished; the two that carry on give
            # their common binary exponent to e
            _ldexp_rows(values[done - base:stop - 1 - base, span], e)
            k = np.frexp(np.maximum(np.abs(lo[span]), np.abs(hi[span])))[1]
            k *= is_far
            _ldexp_rows((lo[span], hi[span]), -k)
            e += k
            done = stop - 1
        if stop == base + size - 1:
            # the buffer is full: rows up to stop - 2 are finished with the
            # e they end with, the two that carry on move to the front
            if far.size:
                _ldexp_rows(values[done - base:stop - 1 - base, span], e)
            yield values[:stop - 1 - base]
            values[:2] = values[stop - 1 - base:]
            lo, hi = values[0], values[1]
            base = done = stop - 1
    if far.size:
        _ldexp_rows(values[done - base:last + 1 - base, span], e)
    yield values[:last + 1 - base]


def tabulate(points: np.ndarray, n_max: int) -> BasisTable:
    """Rows u_0..u_{n_max} at ``points``, one column per point: the one
    chunk of ``row_chunks`` that holds them all, kept as a table."""
    (values,) = row_chunks(points, n_max, n_max + 1)
    points = np.ascontiguousarray(points, dtype=float)
    for arr in (points, values):
        arr.setflags(write=False)
    return BasisTable(n_max=n_max, points=points, values=values)
