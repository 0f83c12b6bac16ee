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
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import hermite
from .errors import NumericsError, ParseError
from .functionals import DEFAULT_NUMERICS, entropy_power
from .state import AnalyticGaussian, FockState, make_state

__all__ = [
    "BoxSpec", "box_cfs_momentum", "box_cfs_position", "box_momentum_entropy",
    "box_state", "box_wavefunction", "choose_squeezed_truncation",
    "parse_state_literal", "squeezed_vacuum_fock", "superposition_state",
]

TRAILING_WARN = 1e-8
# squeezed-vacuum truncation: squared-coefficient tail below SQUEEZED_DEFICIT,
# at most SQUEEZED_CAP terms
SQUEEZED_DEFICIT = 1e-12
SQUEEZED_CAP = 4096
# box projection: largest accepted squared-norm deficit, and the largest
# change of any coefficient between the m- and 2m-interval Clenshaw-Curtis
# rules, both read from one basis table on the 2m + 1 nodes of the finer
# rule, at which the interval count stops doubling.  The count starts at the
# next power of two above the integrand's top wavenumber plus 24
# (_box_start_nodes) and is capped by hermite.MAX_TABLE_CELLS, checked
# before any nodes are computed.
BOX_NORM_TOL = 5e-3
_BOX_NODE_AGREE = 1e-12
# box momentum entropy: Gauss-Legendre nodes per panel, the tail bound at
# which panels stop, and the largest panel count
_MOMENTUM_NODES = 64
_MOMENTUM_TAIL_TOL = 1e-8
_MOMENTUM_MAX_PANELS = 10 ** 6


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


def _squeezed_coefficients(sigma: float):
    """c_0, c_2, c_4, ... of the squeezed vacuum of position variance
    sigma^2, without end: c_0 = 1/sqrt(cosh r) and c_{2k+2}/c_{2k} =
    -tanh(r) sqrt((2k+1)/(2k+2)) with exp(-2r) = 2 sigma^2."""
    # q = -tanh(r); squeezing below machine noise is snapped to zero so
    # sigma = 1/sqrt(2) yields the ground state exactly
    num = 2.0 * sigma * sigma - 1.0
    q = 0.0 if abs(num) < 1e-14 else num / (2.0 * sigma * sigma + 1.0)
    u = math.sqrt(2.0) * sigma
    c = math.sqrt(2.0 * u / (1.0 + u * u))   # 1/sqrt(cosh r)
    for k in itertools.count():
        yield c
        c *= q * math.sqrt((2 * k + 1) / (2 * k + 2))


def choose_squeezed_truncation(sigma: float) -> int:
    """Smallest even truncation whose squared-coefficient tail is below
    SQUEEZED_DEFICIT for the squeezed vacuum of position variance sigma^2."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    total = 0.0
    for k, c in enumerate(_squeezed_coefficients(sigma)):
        total += c * c
        if 2 * k > SQUEEZED_CAP:
            raise NumericsError(
                f"no adequate truncation below {SQUEEZED_CAP}")
        if 1.0 - total <= SQUEEZED_DEFICIT:
            return max(2, 2 * k)


def squeezed_vacuum_fock(sigma: float, n_max: int) -> FockState:
    """Squeezed vacuum whose position density is the Gaussian of variance
    sigma^2, expanded over |0>, |2>, ..., |n_max>.  The sign of the
    coefficient ratio (``_squeezed_coefficients``) is fixed so the
    angle-zero density reproduces the target Gaussian exactly.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if n_max < 2 or n_max % 2:
        raise ValueError("n_max must be even and >= 2")
    coeffs = np.zeros(n_max + 1, dtype=complex)
    coeffs[::2] = list(itertools.islice(_squeezed_coefficients(sigma),
                                        n_max // 2 + 1))
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
    """Eigenstate n of the well [-1, 1] and its oscillator-basis truncation."""

    n: int
    n_fock: int = 256

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n_fock < 4 * self.n:
            raise ValueError("truncation must be at least 4n")


def _box_start_nodes(spec: BoxSpec) -> int:
    """First interval count m of the box projection's check rule, whose
    finer rule has 2m intervals: the next power of two at or above
    sqrt(2 n_fock + 1) + pi n / 2 + 24.  The first two terms bound the
    wavenumber of sin(pi n (x - 1) / 2) u_k(x) on [-1, 1]; the m- and
    2m-interval rules first agree within _BOX_NODE_AGREE 16 to 23 intervals
    above that bound (n 1-6, n_fock 128-6000), and 24 covers them all.  A
    start one doubling too high costs little, since a basis table's cost is
    mostly per row; one too low costs a second table."""
    # a truncation past the cell cap fails the cap at every node count; the
    # clamp only keeps the float formula finite for it
    n_fock = min(spec.n_fock, hermite.MAX_TABLE_CELLS)
    n = min(spec.n, n_fock)
    need = math.sqrt(2.0 * n_fock + 1.0) + 0.5 * math.pi * n + 24.0
    return 1 << math.ceil(math.log2(need))


def _clenshaw_curtis(m: int):
    """Nodes cos(pi j / m), j = 0..m, and weights of the m-interval
    Clenshaw-Curtis rule on [-1, 1], for even m >= 2.  The nodes are
    computed as sin(pi (m - 2j) / (2m)): odd-symmetric, and those of rule m
    are bit for bit the even-indexed nodes of rule 2m.  The weights come
    from one length-m FFT (Waldvogel, BIT 46, 2006)."""
    j = np.arange(m + 1)
    nodes = np.sin(np.pi * (m - 2 * j) / (2 * m))
    odd = np.arange(1.0, m, 2.0)
    half = m // 2
    v = np.zeros(m + 1)
    v[:half] = 2.0 / (odd * (odd - 2.0))
    v[half] = 1.0 / odd[-1]
    g = np.full(m, -1.0)
    g[half] += 2.0 * m
    g /= m * m - 1.0
    w = np.fft.ifft(g - v[:-1] - v[:0:-1]).real
    return nodes, np.append(w, w[0])


def box_state(spec: BoxSpec) -> FockState:
    """Project the well eigenstate onto the truncated oscillator basis.

    Coefficients come from Clenshaw-Curtis quadrature over [-1, 1].  The
    integrand sin(pi n (x - 1) / 2) u_k(x) is entire there, with wavenumber
    at most about sqrt(2 n_fock + 1) + pi n / 2, so a few dozen nodes
    resolve it.  Each step tabulates the basis once, on the 2m + 1 nodes of
    the 2m-interval rule; the m-interval rule's nodes are the even-indexed
    ones, so both projections are one product with that table.  m starts at
    the next power of two above the wavenumber bound plus 24 and doubles
    until the two projections agree within 1e-12 in every coefficient; the
    2m result is kept.  A step whose basis table of (n_fock + 2) * (2m + 1)
    cells would exceed hermite.MAX_TABLE_CELLS raises NumericsError before
    its nodes are computed, which also caps the doubling.  The
    opposite-parity half is exactly zero and is pinned so.  Raises when the
    captured norm falls short of 1 - BOX_NORM_TOL (the remedy is a larger
    truncation).  The kinked well edges make |c_k|^2 decay like k**-5/2, so
    the squared-norm deficit shrinks only like n_fock**-3/2: about 4e-5 for
    n = 1 and 1.2e-3 for n = 5 at the default truncation of 256.
    """
    m = _box_start_nodes(spec)
    while True:
        hermite.check_cells(spec.n_fock + 2, 2 * m + 1)
        nodes, fine_weights = _clenshaw_curtis(2 * m)
        f = box_wavefunction(spec.n, nodes)
        # column 0 integrates on every node, column 1 on the even ones
        weights = np.zeros((2 * m + 1, 2))
        weights[:, 0] = fine_weights * f
        weights[::2, 1] = _clenshaw_curtis(m)[1] * f[::2]
        proj = hermite.tabulate(nodes, spec.n_fock).values @ weights
        proj[spec.n % 2::2] = 0.0           # parity (-1)^(n+1) is exact
        coeffs, coarse = proj.T
        if np.max(np.abs(coeffs - coarse)) <= _BOX_NODE_AGREE:
            break
        m *= 2
    coeffs[np.abs(coeffs) < 1e-14] = 0.0
    captured = float(np.sum(coeffs * coeffs))
    deficit = 1.0 - captured
    if deficit > BOX_NORM_TOL:
        raise NumericsError(
            f"box projection captured only {captured:.9f} of the norm "
            f"(deficit {deficit:.3e} > {BOX_NORM_TOL:.1e}); increase n_fock")
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


def _rho_log_rho(t, n):
    """rho log rho, with 0 log 0 = 0, of the well's momentum density at
    p = t + pi n / 2: rho = (pi/2) n^2 sin^2(t) / (t^2 + pi n t)^2."""
    denom = t * t + (np.pi * n) * t
    s = np.sin(t)
    rho = (0.5 * np.pi * n * n) * (s * s) / (denom * denom)
    out = np.zeros_like(t)
    pos = rho > 0.0
    out[pos] = rho[pos] * np.log(rho[pos])
    return out


def _momentum_tail_bound(t0: float, n: int) -> float:
    # rho <= R = a / t^4 for t >= t0 > 0; once R(t0) <= 1/e, |rho log rho|
    # <= R log(1/R), integrated exactly and doubled for p < 0
    a = 0.5 * math.pi * n * n
    if t0 <= 0.0 or t0 ** 4 < math.e * a:
        return math.inf
    return 2.0 * a * ((4.0 * math.log(t0) - math.log(a)) / (3.0 * t0 ** 3)
                      + 4.0 / (9.0 * t0 ** 3))


def box_momentum_entropy(n: int) -> float:
    """Shannon entropy S_p = -2 int_{-pi n/2}^inf rho log rho dt of the
    well's momentum density, which is even in p = t + pi n / 2.  The integral
    is split between consecutive zeros of sin(t), so the oscillation never
    cancels across a panel; each panel gets Gauss-Legendre quadrature
    (interior nodes: the 0 log 0 endpoints and the removable point t = 0
    need no special case), and panels accumulate until the envelope bound on
    the remaining tail drops below ``_MOMENTUM_TAIL_TOL``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xg, wg = np.polynomial.legendre.leggauss(_MOMENTUM_NODES)
    z0 = -0.5 * math.pi * n
    m0 = -(n // 2)               # first zero of sin at or above z0 is m0 * pi
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
        f = _rho_log_rho(t, float(n))
        total += float(np.sum((f @ wg) * half))
        panels += uppers.shape[0]
        m += block
        bound = _momentum_tail_bound(float(uppers[-1]), n)
        if bound < _MOMENTUM_TAIL_TOL:
            break
        if panels > _MOMENTUM_MAX_PANELS:
            raise NumericsError(
                f"S_p({n}) tail bound {bound:.2e} still above "
                f"{_MOMENTUM_TAIL_TOL:.1e} after {panels} panels")
    return -2.0 * total


def box_cfs_momentum(n: int) -> float:
    """Momentum-space complexity of well eigenstate n, I_p exp(2 S_p) /
    (2 pi e), with the exact I_p = 4 Var(x) of a real wavefunction."""
    fisher = 4.0 / 3.0 - 8.0 / (math.pi * math.pi * n * n)
    return fisher * entropy_power(box_momentum_entropy(n))


# ---------------------------------------------------------------------------
# state literals (shared with the CLI)
# ---------------------------------------------------------------------------

def _parse_complex(token: str, k: int) -> complex:
    # coefficient k of a super: literal; a trailing i is the imaginary unit
    # (1+2i), the i of inf stays
    token = token.strip()
    if not token:
        raise ParseError(f"super: the coefficient of |{k}> is empty")
    try:
        value = complex(token[:-1] + "j" if token.endswith("i") else token)
    except ValueError:
        raise ParseError(f"bad complex literal {token!r}") from None
    if not cmath.isfinite(value):
        raise ParseError(f"coefficient {token!r} is not finite")
    return value


# the fields of a gauss: or box: literal: how each value is read and what
# it must be, or None for a bare flag
_FIELDS = {
    "gauss": {"sigma": (float, "a number"), "N": (int, "an integer"),
              "analytic": None},
    "box": {"n": (int, "an integer"), "N": (int, "an integer")},
}


def _read_fields(kind: str, body: str) -> dict:
    """The fields of a ``gauss:`` or ``box:`` body by name, each value read
    as its ``_FIELDS`` entry says, and True for a flag.  An empty, unknown,
    repeated or unreadable field is a parse error."""
    table = _FIELDS[kind]
    fields = {}
    for part in body.split(",") if body else ():
        name, sep, text = (s.strip() for s in part.partition("="))
        if not sep and table.get(name.lower(), False) is None:
            name = name.lower()         # a flag, read in any case as the kind
        if name in fields:
            raise ParseError(f"{kind}: {name} given twice")
        # a flag takes no value, any other field needs one
        if name not in table or (table[name] is None) == bool(sep):
            raise ParseError(f"{kind}: bad field {part.strip()!r}")
        spec = table[name]
        try:
            fields[name] = True if spec is None else spec[0](text)
        except ValueError:
            raise ParseError(f"{kind}: {name} must be {spec[1]}") from None
    return fields


def parse_state_literal(text: str,
                        grid_points: int = DEFAULT_NUMERICS.grid_points):
    """Parse ``fock:n``, ``super:c0,c1,...``, ``gauss:sigma=S[,N=..|,analytic]``
    or ``box:n=N[,N=..]`` into a state object.

    Superposition coefficients are renormalized, so shortened decimals like
    0.70710678 are accepted.  A bare ``gauss:`` literal takes the Fock route
    with an automatically chosen truncation; ``analytic`` selects the
    closed-form Gaussian family instead.  An empty coefficient or field and
    a field given twice are parse errors.  A ``fock:`` or ``gauss:``
    truncation N whose basis table of (N + 2) rows of ``grid_points`` would
    pass hermite.MAX_TABLE_CELLS raises NumericsError before any
    coefficient exists.
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
        hermite.check_cells(n + 2, grid_points)
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[n] = 1.0
        return make_state(coeffs)
    if kind == "super":
        if not body:
            raise ParseError("super: needs at least one coefficient")
        try:
            return make_state([_parse_complex(s, k) for k, s in
                               enumerate(body.split(","))], renormalize=True)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    if kind not in _FIELDS:
        raise ParseError(f"unknown state kind {kind!r}")
    fields = _read_fields(kind, body)
    need = "sigma" if kind == "gauss" else "n"
    if need not in fields:
        raise ParseError(f"{kind}: needs {need}=")
    try:
        if kind == "box":
            return box_state(BoxSpec(n=fields["n"],
                                     n_fock=fields.get("N", BoxSpec.n_fock)))
        sigma, trunc = fields["sigma"], fields.get("N")
        if not 0.0 < sigma < math.inf:
            raise ParseError("gauss: sigma must be finite and positive")
        if fields.get("analytic"):
            if trunc is not None:
                raise ParseError("gauss: takes either N= or analytic, not both")
            return AnalyticGaussian(sigma)
        if trunc is None:
            return squeezed_vacuum_fock(sigma, choose_squeezed_truncation(sigma))
        # the cap first: an oversized N is a numerics error, odd or not
        hermite.check_cells(trunc + 2, grid_points)
        if trunc < 2 or trunc % 2:
            raise ParseError("gauss: N must be even and >= 2")
        return squeezed_vacuum_fock(sigma, trunc)
    except ValueError as exc:
        raise ParseError(f"{kind}: {exc}") from None
