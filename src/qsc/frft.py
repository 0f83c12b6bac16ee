"""Independent realization of the quadrature rotation as an integral kernel.

The production path rotates states by Fock-basis phases; this module applies
the explicit rotation kernel to grid-sampled wavefunctions instead, which
makes it a genuinely independent cross-check.  Dense O(M^2) application is
fine here: it is a test oracle, not a production path.

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
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .state import Grid

__all__ = ["DEGENERATE_SIN", "KernelTransform", "kernel", "transform"]

DEGENERATE_SIN = 1e-8
EDGE_MASS_WARN = 1e-10


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


def transform(psi, alpha: float, grid: Grid, block: int = 256) -> np.ndarray:
    """Discretized kernel application (K psi) * dx on the same grid.

    Warns when the input carries significant mass in the outermost grid
    cells, where the discretization aliases.
    """
    sa, cot = _check_alpha(alpha)
    psi = np.ascontiguousarray(psi, dtype=complex)
    if psi.shape[0] != grid.count:
        raise ValueError("sample count does not match grid")
    prob = np.abs(psi) ** 2
    edge = float(np.sum(prob[:3]) + np.sum(prob[-3:])) * grid.dx
    if edge > EDGE_MASS_WARN:
        warnings.warn(f"edge mass {edge:.2e} will alias under the kernel",
                      RuntimeWarning)
    pts = grid.points
    pref = np.sqrt((1.0 + 1j * cot) / (2.0 * math.pi)) * grid.dx
    chirp = np.exp(-0.5j * cot * pts * pts)
    weighted = chirp * psi
    out = np.empty(grid.count, dtype=complex)
    for lo in range(0, grid.count, block):
        hi = min(lo + block, grid.count)
        osc = np.exp(1j * np.outer(pts[lo:hi], pts) / sa)
        out[lo:hi] = osc @ weighted
    out *= pref * chirp
    return out


@dataclass(frozen=True)
class KernelTransform:
    """Explicit kernel matrix K[j][k] = kernel(alpha, u_j, v_k) on one grid;
    approximately unitary on band-limited inputs."""

    alpha: float
    grid: Grid
    matrix: np.ndarray

    @classmethod
    def build(cls, alpha: float, grid: Grid) -> "KernelTransform":
        mat = kernel(alpha, grid.points[:, None], grid.points[None, :])
        mat.setflags(write=False)
        return cls(alpha=alpha, grid=grid, matrix=mat)

    def apply(self, psi) -> np.ndarray:
        return (self.matrix @ np.asarray(psi, dtype=complex)) * self.grid.dx


def equivalence_failures(n_states: int = 20, seed: int = 2024, n_max: int = 12,
                         grid_points: int = 1024,
                         alphas=(0.2, 0.7, 1.1, 2.4), l1_tol: float = 1e-5,
                         comp_tol: float = 1e-4,
                         unit_tol: float = 1e-6) -> list[str]:
    """Cross-validate the kernel against the Fock phase pipeline.

    Draws seeded random states, rotates their sampled wavefunctions through
    the kernel, and compares the resulting densities with the phase-rule
    densities in L1.  Also checks output-norm conservation and kernel
    composition (densities only; the composed kernel differs by a global
    phase).  Returns a list of human-readable failures, empty on success.
    """
    from .functionals import integrate
    from .hermite import build_basis_table
    from .state import default_grid, eval_density, make_state

    rng = np.random.default_rng(seed)
    grid = default_grid(n_max, grid_points)
    table = build_basis_table(n_max, grid)
    failures: list[str] = []

    def l1(a, b):
        return integrate(np.abs(a - b), grid)

    for idx in range(n_states):
        raw = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
        state = make_state(raw, renormalize=True)
        psi0 = state.coeffs @ table.values.astype(complex)
        for alpha in alphas:
            phi = transform(psi0, alpha, grid)
            norm = integrate(np.abs(phi) ** 2, grid)
            if abs(norm - 1.0) > unit_tol:
                failures.append(
                    f"state {idx} alpha {alpha}: output norm off by "
                    f"{abs(norm - 1.0):.2e}")
            dist = l1(np.abs(phi) ** 2,
                      eval_density(state, alpha, grid, table).rho)
            if dist > l1_tol:
                failures.append(
                    f"state {idx} alpha {alpha}: oracle/pipeline L1 distance "
                    f"{dist:.2e} > {l1_tol}")
        if idx < 3:
            a, b = 0.4, 0.9
            two_step = transform(transform(psi0, a, grid), b, grid)
            one_step = transform(psi0, a + b, grid)
            dist = l1(np.abs(two_step) ** 2, np.abs(one_step) ** 2)
            if dist > comp_tol:
                failures.append(
                    f"state {idx}: composition {a}+{b} L1 distance "
                    f"{dist:.2e} > {comp_tol}")
    return failures
