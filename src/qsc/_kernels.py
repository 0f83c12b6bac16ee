"""Hot numeric kernels in numpy.

The recurrence kernel tracks a per-point exponent: the weighted functions
start at exp(-x^2/2), which underflows float64 for |x| > 38.6 even though
high-order eigenfunctions are O(1) there, inside their classical turning
points.  Values are carried as v * exp(g) with v renormalized whenever it
grows past 2**512, which keeps the recurrence exact-to-rounding over the
full (n <= 10^3, |x| <= 60) range.

The density kernel takes a block of angles at once: psi and psi' of every
angle come from two matrix products against the basis table.  The integrands
and the trapezoid rule act along the last (grid) axis, so a single profile
and a block of profiles go through the same code.  Every reduction runs in a
fixed order, so a given input produces bit-identical results run to run.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "density_terms",
    "entropy_integrand",
    "fisher_integrand",
    "hermite_table",
    "klog_integrand",
    "trapezoid",
]

_SQRT2 = np.sqrt(2.0)
_LOG_PI4 = -0.25 * np.log(np.pi)
_RESCALE = 2.0 ** 512
_INV_RESCALE = 2.0 ** -512
_LOG_RESCALE = 512.0 * np.log(2.0)
_EXP_SAFE = -690.0       # exp(g) is a normal float above this
_LOG_TINY = -745.0       # exp below this underflows to zero


def _unscale(v, g, w, unsafe):
    out = v * w
    if unsafe.any():
        idx = unsafe & (v != 0.0)
        t = g[idx] + np.log(np.abs(v[idx]))
        out[idx] = np.where(t < _LOG_TINY, 0.0,
                            np.copysign(np.exp(np.minimum(t, 0.0)), v[idx]))
        out[unsafe & (v == 0.0)] = 0.0
    return out


def hermite_table(points, n_max):
    """Rows u_0..u_{n_max} and their derivatives at ``points``."""
    m = points.shape[0]
    g = _LOG_PI4 - 0.5 * points * points
    unsafe = g <= _EXP_SAFE
    w = np.where(unsafe, 0.0, np.exp(np.maximum(g, _EXP_SAFE)))
    lo = np.ones(m)                      # v of row n-1 (row 0 to start)
    hi = _SQRT2 * points                 # v of row n
    values = np.empty((n_max + 2, m))
    values[0] = _unscale(lo, g, w, unsafe)
    values[1] = _unscale(hi, g, w, unsafe)
    for n in range(1, n_max + 1):
        nxt = (np.sqrt(2.0 / (n + 1.0)) * points * hi
               - np.sqrt(n / (n + 1.0)) * lo)
        big = np.abs(nxt) > _RESCALE
        if big.any():
            nxt[big] *= _INV_RESCALE
            hi[big] *= _INV_RESCALE
            g = g + np.where(big, _LOG_RESCALE, 0.0)
            unsafe = g <= _EXP_SAFE
            w = np.where(unsafe, 0.0, np.exp(np.maximum(g, _EXP_SAFE)))
        lo, hi = hi, nxt
        values[n + 1] = _unscale(hi, g, w, unsafe)
    derivs = np.empty((n_max + 1, m))
    derivs[0] = -np.sqrt(0.5) * values[1]
    for n in range(1, n_max + 1):
        derivs[n] = (np.sqrt(0.5 * n) * values[n - 1]
                     - np.sqrt(0.5 * (n + 1.0)) * values[n + 1])
    return np.ascontiguousarray(values[: n_max + 1]), derivs


def density_terms(phased, values, derivs):
    """rho = |psi|^2, drho = 2 Re(conj(psi) psi') and |psi'|^2, each (A x M),
    for an (A x K) block of phased coefficients against (K x M) table rows.

    The real and imaginary rows are stacked into one (2A x K) real matrix, so
    psi and psi' are one GEMM each.
    """
    a = phased.shape[0]
    c = np.concatenate((phased.real, phased.imag))
    p = c @ values
    q = c @ derivs
    pr, pi, qr, qi = p[:a], p[a:], q[:a], q[a:]
    rho = pr * pr
    rho += pi * pi
    drho = pr * qr
    drho += pi * qi
    drho *= 2.0
    dpsi_abs2 = qr * qr
    dpsi_abs2 += qi * qi
    return rho, drho, dpsi_abs2


def trapezoid(y, dx):
    """Composite trapezoid rule along the last axis."""
    return dx * (np.sum(y, axis=-1) - 0.5 * (y[..., 0] + y[..., -1]))


def fisher_integrand(rho, drho, dpsi_abs2, eps):
    """(rho')^2 / rho, replaced by the node limit 4 |psi'|^2 where rho <= eps;
    ``eps`` broadcasts against ``rho`` (one threshold per row)."""
    node = rho <= eps
    out = np.square(drho)
    np.divide(out, rho, out=out, where=~node)
    out[node] = 4.0 * dpsi_abs2[node]
    return out


def entropy_integrand(rho):
    """-rho log rho, with 0 log 0 = 0."""
    pos = rho > 0.0
    out = np.zeros_like(rho)
    np.log(rho, out=out, where=pos)
    np.multiply(out, rho, out=out, where=pos)
    return np.negative(out, out=out, where=pos)


def klog_integrand(t, n):
    denom = t * t + (np.pi * n) * t
    s = np.sin(t)
    g = (n * n) * (s * s) / (denom * denom)
    out = np.zeros_like(t)
    pos = g > 0.0
    out[pos] = g[pos] * np.log(g[pos])
    return out
