import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc.errors import NumericsError
from qsc.functionals import integrate
from qsc.hermite import ladder, tabulate
from qsc.state import (DensityProfile, Grid, _Workspace, canonical_theta,
                       default_grid, density_block, eval_density, make_state,
                       rotate)
from conftest import INV_SQRT2, fock


def test_grid_symmetry_is_exact():
    grid = Grid(extent=7.5, count=4096)
    assert np.array_equal(grid.points, -grid.points[::-1])
    assert grid.points[0] == -7.5 and grid.points[-1] == 7.5
    assert grid.dx == pytest.approx(15.0 / 4095)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(extent=0.0, count=16)
    with pytest.raises(ValueError):
        Grid(extent=1.0, count=1)


def test_canonical_theta():
    assert canonical_theta(0.0) == 0.0
    assert canonical_theta(math.pi) == 0.0
    # the range starts at +0.0: no negative zero from -0.0 or -pi
    for theta in (-0.0, -math.pi):
        assert math.copysign(1.0, canonical_theta(theta)) == 1.0
    assert canonical_theta(-0.1) == pytest.approx(math.pi - 0.1)
    assert canonical_theta(4.0) == pytest.approx(4.0 - math.pi)


def test_make_state_requires_unit_norm():
    with pytest.raises(ValueError, match="renormalize"):
        make_state([1.0, 1.0])
    st_ = make_state([1.0, 1.0], renormalize=True)
    np.testing.assert_allclose(st_.coeffs, [INV_SQRT2, INV_SQRT2])
    assert st_.norm == pytest.approx(1.0, abs=1e-15)


def test_make_state_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero"):
        make_state([0.0, 0.0], renormalize=True)


def test_make_state_scales_before_squaring():
    # |c|^2 overflows or underflows, the renormalized coefficients do not
    unit = make_state([1.0, 1.0j], renormalize=True).coeffs
    for scale in (1e300, 1e-170, 1e-310, 5e-324):
        coeffs = make_state([scale, scale * 1j], renormalize=True).coeffs
        np.testing.assert_array_equal(coeffs, unit)
    with pytest.raises(ValueError, match="finite"):
        make_state([math.inf, 1.0], renormalize=True)


def test_state_is_immutable():
    st_ = fock(2)
    with pytest.raises(ValueError):
        st_.coeffs[0] = 1.0


def test_trailing_weight():
    assert fock(3).trailing_weight == 1.0
    assert make_state([INV_SQRT2, 0, INV_SQRT2]).trailing_weight == pytest.approx(0.5)


def test_rotate_half_turn_conjugates_superposition():
    plus = make_state([INV_SQRT2, 0.0, INV_SQRT2])
    minus = rotate(plus, math.pi / 2)
    np.testing.assert_allclose(minus.coeffs, [INV_SQRT2, 0.0, -INV_SQRT2],
                               atol=1e-15)


def test_rotate_identity():
    st_ = make_state([0.6, 0.8j], renormalize=True)
    np.testing.assert_array_equal(rotate(st_, 0.0).coeffs, st_.coeffs)


def test_rotated_eigenstate_density_unchanged():
    # a basis state only acquires a global phase
    grid = default_grid(3, grid_points=512)
    table = tabulate(grid.half_points, 4)
    base = eval_density(fock(3), 0.0, grid, table)
    turned = eval_density(fock(3), 1.234, grid, table)
    np.testing.assert_allclose(turned.rho, base.rho, atol=1e-14)


@given(alpha=st.floats(-6.0, 6.0), beta=st.floats(-6.0, 6.0))
@settings(max_examples=50, deadline=None)
def test_rotation_composition(alpha, beta):
    st_ = make_state([0.5, 0.5, 0.5, 0.5])
    once = rotate(rotate(st_, alpha), beta)
    joint = rotate(st_, alpha + beta)
    np.testing.assert_allclose(once.coeffs, joint.coeffs, atol=1e-14)


def test_vacuum_density_is_gaussian():
    grid = default_grid(0)
    table = tabulate(grid.half_points, 1)
    prof = eval_density(fock(0), 0.0, grid, table)
    expected = np.exp(-grid.points ** 2) / math.sqrt(math.pi)
    np.testing.assert_allclose(prof.rho, expected, atol=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 2, 2.9])
def test_density_mass_is_one(theta):
    st_ = make_state([INV_SQRT2, 0.0, INV_SQRT2])
    grid = default_grid(2)
    table = tabulate(grid.half_points, 3)
    prof = eval_density(st_, theta, grid, table)
    assert integrate(prof.rho, prof.grid) == pytest.approx(1.0, abs=1e-8)


def test_excited_node_survives_rotation():
    # odd-count grid puts a point exactly at the origin
    grid = default_grid(1, grid_points=4097)
    table = tabulate(grid.half_points, 2)
    prof = eval_density(fock(1), math.pi / 3, grid, table)
    assert prof.rho[2048] == 0.0


def test_pi_shift_reflects_density():
    st_ = make_state(np.array([0.5, 0.5j, 0.5, -0.5]), renormalize=True)
    grid = default_grid(3, grid_points=1024)
    table = tabulate(grid.half_points, 4)
    a = eval_density(st_, 0.7, grid, table)
    b = eval_density(st_, 0.7 + math.pi, grid, table)
    np.testing.assert_allclose(b.rho, a.rho[::-1], atol=1e-12)


def test_norm_conservation_random_states():
    rng = np.random.default_rng(42)
    grid = default_grid(12)
    table = tabulate(grid.half_points, 13)
    thetas = np.linspace(0.0, math.pi, 10, endpoint=False)
    for _ in range(100):
        raw = rng.normal(size=13) + 1j * rng.normal(size=13)
        st_ = make_state(raw, renormalize=True)
        for theta in thetas:
            prof = eval_density(st_, theta, grid, table)
            assert integrate(prof.rho, grid) == pytest.approx(1.0, abs=1e-8)


def test_drho_matches_finite_differences():
    # rho' = 2 Re(conj(psi) psi') and j = Im(conj(psi) psi') from the p and q
    # rows against finite differences of rho and psi; fine spacing keeps the
    # O(h^2) difference error below the tolerance
    st_ = make_state([0.3, 0.5, 0.2, 0.7j, 0.1], renormalize=True)
    grid = Grid(extent=6.0, count=64001)
    table = tabulate(grid.half_points, 5)
    ws = _Workspace(1, grid.count)
    rho, current, _ = density_block(st_, [1.1], grid, table, ws)
    pr, pi, qr, qi = ws.pq[:4]
    drho = 2.0 * (pr * qr + pi * qi)
    fd = np.gradient(rho[0], grid.dx)
    np.testing.assert_allclose(drho[5:-5], fd[5:-5], atol=1e-6)
    fd_current = pr * np.gradient(pi, grid.dx) - pi * np.gradient(pr, grid.dx)
    np.testing.assert_allclose(current[0][5:-5], fd_current[5:-5], atol=1e-6)


def test_eval_density_dimension_checks():
    grid = default_grid(1)
    table = tabulate(grid.half_points, 2)
    with pytest.raises(NumericsError):
        eval_density(fock(3), 0.0, grid, table)
    other = default_grid(3, grid_points=512)
    with pytest.raises(NumericsError):
        eval_density(fock(1), 0.0, other, table)
    # psi' of a state up to n = 1 reaches row 2: a table up to 1 is refused
    short = tabulate(grid.half_points, 1)
    with pytest.raises(NumericsError, match="needs n <= 2"):
        eval_density(fock(1), 0.0, grid, short)
    with pytest.raises(NumericsError, match="needs n <= 2"):
        density_block(fock(1), [0.0, 1.0], grid, short,
                      _Workspace(2, grid.count))


def mp_psi(coeffs, theta, x):
    # psi(x) and psi'(x) of sum_n c_n e^{i n theta} u_n(x) from mpmath's
    # Hermite polynomials and H_n' = 2 n H_{n-1}, not from the ladder identity
    with mp.workdps(30):
        x = mp.mpf(x)
        gauss = mp.e ** (-x * x / 2) / mp.sqrt(mp.sqrt(mp.pi))
        psi = dpsi = mp.mpc(0)
        h_prev = mp.mpf(0)
        for n, c in enumerate(coeffs):
            h = mp.hermite(n, x)
            norm = 1 / mp.sqrt(mp.mpf(2) ** n * mp.factorial(n))
            weight = mp.mpc(c.real, c.imag) * mp.expj(n * mp.mpf(theta))
            psi += weight * norm * h * gauss
            dpsi += weight * norm * (2 * n * h_prev - x * h) * gauss
            h_prev = h
        return complex(psi), complex(dpsi)


@pytest.mark.parametrize("k", [1, 5, 64, 257])
def test_psi_prime_rows_match_mpmath(k):
    # the q rows of density_block, psi' from the ladder coefficients on the
    # folded table, at 20 grid points and two angles, within 1e-12 of
    # max|psi'|; the current j = Im(conj(psi) psi') within 1e-12 of
    # max|psi| max|psi'|
    rng = np.random.default_rng(k)
    st_ = make_state(rng.normal(size=k) + 1j * rng.normal(size=k),
                     renormalize=True)
    grid = default_grid(k - 1, grid_points=512)
    table = tabulate(grid.half_points, k)
    thetas = [0.3, 2.1]
    ws = _Workspace(2, grid.count)
    _, current, _ = density_block(st_, thetas, grid, table, ws)
    q = ws.pq[4:6] + 1j * ws.pq[6:8]
    idx = np.linspace(0, grid.count - 1, 20).round().astype(int)
    for row, theta in enumerate(thetas):
        psi, dpsi = np.array([mp_psi(st_.coeffs, theta, grid.points[j])
                              for j in idx]).T
        err = np.max(np.abs(q[row, idx] - dpsi))
        assert err <= 1e-12 * np.max(np.abs(dpsi))
        j_err = np.max(np.abs(current[row, idx] - (np.conj(psi) * dpsi).imag))
        assert j_err <= 1e-12 * np.max(np.abs(psi)) * np.max(np.abs(dpsi))


@pytest.mark.parametrize("points", [2, 3, 4096, 4097])
@pytest.mark.parametrize("k", [1, 2, 9, 64, 257])
def test_folded_rows_match_the_full_table(points, k):
    # psi and psi' rows from the half-line table and the parity combine,
    # against the same coefficients times a full-grid table, within 1e-13
    # of the largest reference value; rho and j follow from those rows
    rng = np.random.default_rng(100 * k + points)
    st_ = make_state(rng.normal(size=k) + 1j * rng.normal(size=k),
                     renormalize=True)
    grid = default_grid(k - 1, grid_points=points)
    thetas = [0.0, 0.45, 2.6]
    ws = _Workspace(len(thetas), grid.count)
    rho, current, _ = density_block(st_, thetas, grid,
                                    tabulate(grid.half_points, k), ws)
    phased = st_.coeffs * np.exp(1j * np.outer(thetas, np.arange(k)))
    c = np.zeros((2 * len(thetas), k + 1), complex)
    c[:len(thetas), :k] = phased
    ladder(phased, out=c[len(thetas):])
    ref = c @ tabulate(grid.points, k).values
    a = len(thetas)
    got = np.concatenate((ws.pq[:a] + 1j * ws.pq[a:2 * a],
                          ws.pq[2 * a:3 * a] + 1j * ws.pq[3 * a:4 * a]))
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    psi, dpsi = ref[:a], ref[a:]
    np.testing.assert_allclose(rho, np.abs(psi) ** 2, rtol=0,
                               atol=1e-13 * np.max(np.abs(psi)) ** 2)
    np.testing.assert_allclose(
        current, (np.conj(psi) * dpsi).imag, rtol=0,
        atol=1e-13 * np.max(np.abs(psi)) * np.max(np.abs(dpsi)))


def test_kinetic_closed_form_matches_the_grid_integral():
    # 4 <p_theta^2> from <n> and <a^2> against the grid integral of
    # 4 |psi'|^2 from the q rows, within 1e-12 relative
    rng = np.random.default_rng(2000)
    thetas = [0.0, 0.3, 1.2, 2.5]
    for _ in range(20):
        k = int(rng.integers(2, 65))
        st_ = make_state(rng.normal(size=k) + 1j * rng.normal(size=k),
                         renormalize=True)
        grid = default_grid(k - 1)
        ws = _Workspace(len(thetas), grid.count)
        _, _, kinetic = density_block(st_, thetas, grid,
                                      tabulate(grid.half_points, k), ws)
        a = len(thetas)
        dpsi_abs2 = ws.pq[2 * a:3 * a] ** 2 + ws.pq[3 * a:4 * a] ** 2
        np.testing.assert_allclose(kinetic, 4.0 * integrate(dpsi_abs2, grid),
                                   rtol=1e-12)


def test_profile_from_samples():
    grid = Grid(extent=2.0, count=801)
    rho = np.where(np.abs(grid.points) <= 1.0, 0.5, 0.0)
    prof = DensityProfile.from_samples(grid, rho)
    # the sampled jump overshoots the exact mass by about half a cell
    assert integrate(prof.rho, grid) == pytest.approx(1.0, abs=5e-3)
    # no current; the finite differences of the jump carry the kinetic term
    assert not prof.current.any()
    assert math.isfinite(prof.kinetic) and prof.kinetic > 0.0
    with pytest.raises(ValueError):
        DensityProfile.from_samples(grid, rho[:100])


def test_profile_from_samples_refuses_a_negative_sample():
    # a density is never negative; rho log(rho + tiny) would be NaN there
    grid = Grid(extent=2.0, count=801)
    rho = np.exp(-grid.points ** 2) / math.sqrt(math.pi)
    rho[400] = -1e-300
    with pytest.raises(ValueError, match="negative"):
        DensityProfile.from_samples(grid, rho)
