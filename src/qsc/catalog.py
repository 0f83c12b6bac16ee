"""Concrete state families: Fock superpositions, Gaussian/squeezed states,
and the infinite-well (box) eigenstates, plus the box closed-form values.

Box eigenstates live on the fixed well [-1, 1]; their wavefunctions are
already unit-normalized there.  Projection onto the oscillator basis is the
canonical route to general angles.  The kinked well edges make the Fock
coefficients decay algebraically, which is why the box numbers carry looser
tolerances than everything else in the package.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels, hermite
from .errors import NumericsError, ParseError
from .functionals import DEFAULT_NUMERICS, Numerics, ProfileEvaluator
from .state import DensityProfile, FockState, Grid, canonical_theta, make_state

__all__ = [
    "AnalyticGaussian", "BoxSpec", "box_cfs_momentum", "box_cfs_position",
    "box_k_integral", "box_state", "box_wavefunction",
    "choose_squeezed_truncation", "gaussian_sigma_theta", "parse_state_literal",
    "squeezed_vacuum_fock", "superposition_state",
]

TRAILING_WARN = 1e-8


def superposition_state(m: int, a: float) -> FockState:
    """Two-component state a|0> + sqrt(1-a^2)|m>."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if abs(a) > 1.0:
        raise ValueError("|a| must not exceed 1")
    coeffs = np.zeros(m + 1, dtype=complex)
    coeffs[0] = a
    coeffs[m] = math.sqrt(1.0 - a * a)
    if coeffs[m] == 0.0:
        return make_state(coeffs[:1])
    return make_state(coeffs)


def gaussian_sigma_theta(sigma: float, theta: float) -> float:
    """Variance of a Gaussian density after rotation to angle theta:
    sigma_theta^2 = (sin^2 theta + sigma^4 cos^2 theta) / sigma^2."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    s, c = math.sin(theta), math.cos(theta)
    return (s * s + sigma ** 4 * c * c) / (sigma * sigma)


class GaussianEvaluator(ProfileEvaluator):
    """Closed-form Gaussian densities fed through the standard functional
    pipeline; exercises the quadrature path without any Fock machinery."""

    def __init__(self, sigma: float, numerics: Numerics = DEFAULT_NUMERICS):
        super().__init__(numerics)
        self.sigma = sigma
        widest = max(sigma, 1.0 / sigma)
        self.grid = Grid(extent=(1.0 + numerics.grid_margin) * widest,
                         count=numerics.grid_points)

    def profile(self, theta: float) -> DensityProfile:
        v = gaussian_sigma_theta(self.sigma, theta)
        s = self.grid.points
        rho = np.exp(-0.5 * s * s / v) / math.sqrt(2.0 * math.pi * v)
        drho = -(s / v) * rho
        # psi = sqrt(rho) up to a global phase, so |psi'|^2 = drho^2 / (4 rho)
        dpsi_abs2 = (s * s) / (4.0 * v * v) * rho
        return DensityProfile(grid=self.grid, theta=canonical_theta(theta),
                              rho=rho, drho=drho, dpsi_abs2=dpsi_abs2)


@dataclass(frozen=True)
class AnalyticGaussian:
    """A state whose density is Gaussian in every rotated quadrature."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")

    def complexity_evaluator(self, numerics: Numerics = DEFAULT_NUMERICS):
        return GaussianEvaluator(self.sigma, numerics)


def _squeezed_ratio(sigma: float) -> float:
    # -tanh(r) with exp(-2r) = 2 sigma^2; squeezing below machine noise is
    # snapped to zero so sigma = 1/sqrt(2) yields the ground state exactly
    num = 2.0 * sigma * sigma - 1.0
    if abs(num) < 1e-14:
        return 0.0
    return num / (2.0 * sigma * sigma + 1.0)


def choose_squeezed_truncation(sigma: float, deficit: float = 1e-12,
                               cap: int = 4096) -> int:
    """Smallest even truncation whose squared-coefficient tail is below
    ``deficit`` for the squeezed vacuum of position variance sigma^2."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    q = _squeezed_ratio(sigma)
    u = math.sqrt(2.0) * sigma
    c = math.sqrt(2.0 * u / (1.0 + u * u))   # 1/sqrt(cosh r)
    total = c * c
    k = 0
    while 1.0 - total > deficit:
        c *= q * math.sqrt((2 * k + 1) / (2 * k + 2))
        total += c * c
        k += 1
        if 2 * k > cap:
            raise NumericsError(f"no adequate truncation below {cap}")
    return max(2, 2 * k)


def squeezed_vacuum_fock(sigma: float, n_max: int) -> FockState:
    """Squeezed vacuum whose position density is the Gaussian of variance
    sigma^2, expanded over |0>, |2>, ..., |n_max>.

    c_{2k+2}/c_{2k} = -tanh(r) sqrt((2k+1)/(2k+2)) with exp(-2r) = 2 sigma^2;
    the sign is fixed so the angle-zero density reproduces the target
    Gaussian exactly.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if n_max < 2 or n_max % 2:
        raise ValueError("n_max must be even and >= 2")
    q = _squeezed_ratio(sigma)
    u = math.sqrt(2.0) * sigma
    coeffs = np.zeros(n_max + 1, dtype=complex)
    c = math.sqrt(2.0 * u / (1.0 + u * u))
    coeffs[0] = c
    for k in range(n_max // 2):
        c *= q * math.sqrt((2 * k + 1) / (2 * k + 2))
        coeffs[2 * k + 2] = c
    captured = float(np.sum(np.abs(coeffs) ** 2))
    if 1.0 - captured > 1e-10:
        raise NumericsError(
            f"truncation norm deficit {1.0 - captured:.3e} at n_max={n_max}; "
            "increase the truncation")
    return make_state(coeffs, renormalize=True)


def box_wavefunction(n: int, x):
    """Energy eigenstate n of the unit-half-width infinite well:
    sin(pi n (x - 1) / 2) inside |x| <= 1, zero outside."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x) <= 1.0,
                   np.sin(0.5 * math.pi * n * (x - 1.0)), 0.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class BoxSpec:
    """Well eigenstate n with its oscillator-basis truncation."""

    n: int
    n_fock: int = 256
    half_width: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.half_width != 1.0:
            raise ValueError("only the unit half-width well is supported")
        if self.n_fock < 4 * self.n:
            raise ValueError("truncation must be at least 4n")


def box_state(spec: BoxSpec, norm_tol: float = 5e-3,
              quad_points: int = 2048) -> FockState:
    """Project the well eigenstate onto the truncated oscillator basis.

    Coefficients come from Gauss-Legendre quadrature over [-1, 1]; the
    opposite-parity half is exactly zero and is pinned so.  Raises when the
    captured norm falls short of 1 - norm_tol (the remedy is a larger
    truncation).  The kinked well edges make |c_k|^2 decay like k**-5/2, so
    the squared-norm deficit shrinks only like n_fock**-3/2: about 4e-5 for
    n = 1 and 1.2e-3 for n = 5 at the default truncation of 256.
    """
    nodes, weights = np.polynomial.legendre.leggauss(max(quad_points, 4 * spec.n_fock))
    table = hermite.tabulate(nodes, spec.n_fock)
    psi = box_wavefunction(spec.n, nodes)
    coeffs = table.values @ (weights * psi)
    k = np.arange(spec.n_fock + 1)
    coeffs[(k + spec.n) % 2 == 0] = 0.0      # parity (-1)^(n+1) is exact
    coeffs[np.abs(coeffs) < 1e-14] = 0.0
    captured = float(np.sum(coeffs * coeffs))
    deficit = 1.0 - captured
    if deficit > norm_tol:
        raise NumericsError(
            f"box projection captured only {captured:.9f} of the norm "
            f"(deficit {deficit:.3e} > {norm_tol:.1e}); increase n_fock")
    if coeffs[-1] ** 2 > TRAILING_WARN or coeffs[-2] ** 2 > TRAILING_WARN:
        warnings.warn(
            f"box truncation n_fock={spec.n_fock} leaves trailing weight "
            f"{max(coeffs[-1] ** 2, coeffs[-2] ** 2):.2e}", RuntimeWarning)
    return make_state(coeffs.astype(complex), renormalize=True)


def box_cfs_position(n: int) -> float:
    """Closed-form position-space complexity of well eigenstate n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 8.0 * math.pi * n * n / math.exp(3.0)


def _k_tail_bound(t0: float, n: int) -> float:
    # |g log g| <= n^2/t^4 * (4 log t + c) for t >= t0, integrated exactly
    c = 2.0 * abs(math.log(n)) + 2.0 * math.log(1.0 + math.pi * n / t0) + math.exp(-1.0)
    return math.pi * n * n * ((4.0 * math.log(t0) + c) / (3.0 * t0 ** 3)
                              + 4.0 / (9.0 * t0 ** 3))


def box_k_integral(n: int, points_per_panel: int = 64, tail_tol: float = 1e-8,
                   max_panels: int = 10 ** 6, full_output: bool = False):
    """The entropy integral of the well's momentum density:

        K(n) = log(8/pi)
               - pi * int_{pi n/2}^inf g(t) log g(t) dt,
        g(t) = n^2 sin^2(t) / (t^2 + pi n t)^2.

    The improper integral is split between consecutive zeros of sin(t) so the
    oscillation never cancels across a panel, each panel gets Gauss-Legendre
    quadrature (interior nodes, so the 0 log 0 endpoints need no special
    case), and panels accumulate until the analytic envelope bound on the
    remaining tail drops below ``tail_tol``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xg, wg = np.polynomial.legendre.leggauss(points_per_panel)
    z0 = 0.5 * math.pi * n
    m0 = (n + 1) // 2            # first zero of sin at or above z0 is m0 * pi
    partial = bool(n % 2)        # odd n starts halfway between zeros
    total = 0.0
    panels = 0
    block = 1024
    m = m0
    while True:
        lowers = np.arange(m, m + block, dtype=float) * math.pi
        uppers = lowers + math.pi
        if partial:
            lowers = np.concatenate(([z0], lowers))
            uppers = np.concatenate(([m0 * math.pi], uppers))
            partial = False
        half = 0.5 * (uppers - lowers)
        mid = 0.5 * (uppers + lowers)
        t = mid[:, None] + half[:, None] * xg[None, :]
        f = _kernels.klog_integrand(np.ascontiguousarray(t.ravel()), float(n))
        total += float(np.sum((f.reshape(t.shape) @ wg) * half))
        panels += uppers.shape[0]
        m += block
        bound = _k_tail_bound(float(uppers[-1]), n)
        if bound < tail_tol:
            break
        if panels > max_panels:
            raise NumericsError(
                f"K({n}) tail bound {bound:.2e} still above {tail_tol:.1e} "
                f"after {panels} panels")
    value = math.log(8.0 / math.pi) - math.pi * total
    if full_output:
        return value, {"panels": panels, "tail_bound": bound, "converged": True}
    return value


def box_cfs_momentum(n: int, **kwargs) -> float:
    """Momentum-space complexity of well eigenstate n:
    exp(2 K(n)) / (24 pi e) * (1 - 6 / (pi^2 n^2))."""
    k = box_k_integral(n, **kwargs)
    return (math.exp(2.0 * k) / (24.0 * math.pi * math.e)
            * (1.0 - 6.0 / (math.pi * math.pi * n * n)))


# ---------------------------------------------------------------------------
# state literals (shared with the CLI)
# ---------------------------------------------------------------------------

def _parse_complex(token: str) -> complex:
    token = token.strip().replace("i", "j")
    try:
        value = complex(token)
    except ValueError:
        raise ParseError(f"bad complex literal {token!r}") from None
    if not cmath.isfinite(value):
        raise ParseError(f"coefficient {token!r} is not finite")
    return value


def parse_state_literal(text: str):
    """Parse ``fock:n``, ``super:c0,c1,...``, ``gauss:sigma=S[,N=..|,analytic]``
    or ``box:n=N[,N=..]`` into a state object.

    Superposition coefficients are renormalized, so shortened decimals like
    0.70710678 are accepted.  A bare ``gauss:`` literal takes the Fock route
    with an automatically chosen truncation; ``analytic`` selects the
    closed-form Gaussian family instead.
    """
    kind, sep, body = text.partition(":")
    if not sep:
        raise ParseError(f"state literal {text!r} has no ':'")
    kind = kind.strip().lower()
    body = body.strip()
    if kind == "fock":
        try:
            n = int(body)
        except ValueError:
            raise ParseError(f"bad Fock index {body!r}") from None
        if n < 0:
            raise ParseError("Fock index must be >= 0")
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[n] = 1.0
        return make_state(coeffs)
    if kind == "super":
        items = [s for s in body.split(",") if s.strip()]
        if not items:
            raise ParseError("super: needs at least one coefficient")
        try:
            return make_state([_parse_complex(s) for s in items], renormalize=True)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    if kind in ("gauss", "box"):
        fields = {}
        analytic = False
        for part in body.split(","):
            part = part.strip()
            if not part:
                continue
            if part.lower() == "analytic":
                analytic = True
                continue
            key, sep, val = part.partition("=")
            if not sep:
                raise ParseError(f"expected key=value, got {part!r}")
            fields[key.strip()] = val.strip()

        def take_int(key):
            try:
                return int(fields.pop(key))
            except ValueError:
                raise ParseError(f"{kind}: {key} must be an integer") from None

        if kind == "gauss":
            if analytic and "N" in fields:
                raise ParseError("gauss: takes either N= or analytic, not both")
            if "sigma" not in fields:
                raise ParseError("gauss: needs sigma=")
            try:
                sigma = float(fields.pop("sigma"))
            except ValueError:
                raise ParseError("gauss: sigma must be a number") from None
            if not math.isfinite(sigma):
                raise ParseError("gauss: sigma must be finite")
            trunc = take_int("N") if "N" in fields else None
            if fields:
                raise ParseError(f"gauss: unknown fields {sorted(fields)}")
            if sigma <= 0:
                raise ParseError("gauss: sigma must be positive")
            if analytic:
                return AnalyticGaussian(sigma)
            try:
                if trunc is None:
                    trunc = choose_squeezed_truncation(sigma)
                return squeezed_vacuum_fock(sigma, trunc)
            except (ValueError, NumericsError) as exc:
                raise ParseError(f"gauss: {exc}") from None
        if analytic:
            raise ParseError("box: has no analytic route")
        if "n" not in fields:
            raise ParseError("box: needs n=")
        n = take_int("n")
        trunc = take_int("N") if "N" in fields else 256
        if fields:
            raise ParseError(f"box: unknown fields {sorted(fields)}")
        try:
            return box_state(BoxSpec(n=n, n_fock=trunc))
        except ValueError as exc:
            raise ParseError(f"box: {exc}") from None
    raise ParseError(f"unknown state kind {kind!r}")
