"""Independent realization of the quadrature rotation as an integral kernel.

The production path rotates states by Fock-basis phases; this module applies
the explicit rotation kernel to grid-sampled wavefunctions instead, which
makes it a genuinely independent cross-check: it uses no basis table and no
Fock phases.  ``transform`` rotates one wavefunction or a block of them, one
per column.  It builds each block of kernel rows once per call and applies
it to every column as one matrix product, so the O(M^2) exponentials of
the dense kernel are paid once for all columns.  Dense application is fine
here: it is a test oracle, not a production path.

Convention: the kernel is fixed so the oscillator eigenfunctions are its
eigenvectors with eigenvalue exp(+i n alpha), the same phase rule the Fock
path uses (that rule arbitrates the sign).  At alpha = pi/2 it reduces to
the ordinary Fourier kernel up to this phase convention.  The remaining
global phase (the branch of the square-root prefactor) is unobservable in
every density-level quantity computed here and is pinned to the principal
branch.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import hermite
from .errors import NumericsError
from .state import Grid, default_grid, eval_density, integrate, make_state

__all__ = ["DEGENERATE_SIN", "kernel", "transform"]

DEGENERATE_SIN = 1e-8
EDGE_MASS_WARN = 1e-10
# kernel rows built at a time: 256 x 1024 complex values are 4 MiB
_KERNEL_ROWS = 256


def _check_alpha(alpha: float) -> tuple[float, float]:
    sa = math.sin(alpha)
    if abs(sa) <= DEGENERATE_SIN:
        raise NumericsError(
            f"alpha={alpha} is within {DEGENERATE_SIN} of a multiple of pi; "
            "the kernel degenerates to identity/reflection there and the "
            "caller must special-case it")
    return sa, math.cos(alpha) / sa


def kernel(alpha: float, u, v):
    """Rotation kernel K_alpha(u, v); symmetric in u <-> v, with constant
    modulus (2 pi |sin alpha|)**-1/2."""
    sa, cot = _check_alpha(alpha)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    pref = np.sqrt((1.0 + 1j * cot) / (2.0 * math.pi))
    out = pref * np.exp(-0.5j * cot * (u * u + v * v) + 1j * u * v / sa)
    return out if out.ndim else complex(out)


def transform(psi, alpha: float, grid: Grid) -> np.ndarray:
    """Discretized kernel application (K psi) * dx on the same grid, to one
    wavefunction (M,) or to a block (M, S) of them, one per column.

    Warns when any column carries significant mass in the outermost grid
    cells, where the discretization aliases.
    """
    sa, cot = _check_alpha(alpha)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[:1] != (grid.count,):
        raise ValueError("sample count does not match grid")
    block = psi.reshape(grid.count, -1)
    prob = np.abs(block[:3]) ** 2 + np.abs(block[-3:]) ** 2
    edge = float(np.max(np.sum(prob, axis=0))) * grid.dx
    if edge > EDGE_MASS_WARN:
        warnings.warn(f"edge mass {edge:.2e} will alias under the kernel",
                      RuntimeWarning)
    pts = grid.points
    pref = np.sqrt((1.0 + 1j * cot) / (2.0 * math.pi)) * grid.dx
    chirp = np.exp(-0.5j * cot * pts * pts)[:, None]
    weighted = chirp * block
    out = np.empty_like(weighted)
    for lo in range(0, grid.count, _KERNEL_ROWS):
        rows = slice(lo, lo + _KERNEL_ROWS)
        out[rows] = np.exp(1j * np.outer(pts[rows], pts) / sa) @ weighted
    out *= pref * chirp
    return out.reshape(psi.shape)


def equivalence_failures() -> list[str]:
    """Cross-validate the kernel against the Fock phase pipeline.

    Rotates 20 seeded random states (13 coefficients on 1024 points) through
    the kernel, all of them in one call per angle, and compares the
    densities with the phase-rule densities in L1.  Also checks output-norm
    conservation and, on the first three states, kernel composition
    (densities only; the composed kernel differs by a global phase).
    Returns human-readable failures in state order, empty on success.
    """
    n_max, alphas = 12, (0.2, 0.7, 1.1, 2.4)
    l1_tol, comp_tol, unit_tol = 1e-5, 1e-4, 1e-6
    rng = np.random.default_rng(2024)
    grid = default_grid(n_max, 1024)
    table = hermite.tabulate(grid.half_points, n_max + 1)
    states = [make_state(rng.normal(size=n_max + 1)
                         + 1j * rng.normal(size=n_max + 1), renormalize=True)
              for _ in range(20)]
    coeffs = np.array([s.coeffs for s in states])
    # the kernel's input from a table on the full grid, not the parity fold
    psi0 = (coeffs @ hermite.tabulate(grid.points, n_max).values).T

    def rho(psi):                   # one row per state
        return np.abs(psi.T) ** 2

    rotated = {alpha: rho(transform(psi0, alpha, grid)) for alpha in alphas}
    a, b = 0.4, 0.9
    head = psi0[:, :3]
    comp = integrate(np.abs(rho(transform(transform(head, a, grid), b, grid))
                            - rho(transform(head, a + b, grid))), grid)

    failures: list[str] = []
    for idx, state in enumerate(states):
        for alpha in alphas:
            norm = integrate(rotated[alpha][idx], grid)
            if abs(norm - 1.0) > unit_tol:
                failures.append(
                    f"state {idx} alpha {alpha}: output norm off by "
                    f"{abs(norm - 1.0):.2e}")
            dist = integrate(np.abs(rotated[alpha][idx] - eval_density(
                state, alpha, grid, table).rho), grid)
            if dist > l1_tol:
                failures.append(
                    f"state {idx} alpha {alpha}: oracle/pipeline L1 distance "
                    f"{dist:.2e} > {l1_tol}")
        if idx < comp.shape[0] and comp[idx] > comp_tol:
            failures.append(
                f"state {idx}: composition {a}+{b} L1 distance "
                f"{comp[idx]:.2e} > {comp_tol}")
    return failures
