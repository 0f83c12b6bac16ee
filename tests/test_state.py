import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc.errors import NumericsError
from qsc.functionals import integrate
from qsc.hermite import tabulate
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
    table = tabulate(grid.points, 4)
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
    table = tabulate(grid.points, 1)
    prof = eval_density(fock(0), 0.0, grid, table)
    expected = np.exp(-grid.points ** 2) / math.sqrt(math.pi)
    np.testing.assert_allclose(prof.rho, expected, atol=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 2, 2.9])
def test_density_mass_is_one(theta):
    st_ = make_state([INV_SQRT2, 0.0, INV_SQRT2])
    grid = default_grid(2)
    table = tabulate(grid.points, 3)
    prof = eval_density(st_, theta, grid, table)
    assert integrate(prof.rho, prof.grid) == pytest.approx(1.0, abs=1e-8)


def test_excited_node_survives_rotation():
    # odd-count grid puts a point exactly at the origin
    grid = default_grid(1, grid_points=4097)
    table = tabulate(grid.points, 2)
    prof = eval_density(fock(1), math.pi / 3, grid, table)
    assert prof.rho[2048] == 0.0


def test_pi_shift_reflects_density():
    st_ = make_state(np.array([0.5, 0.5j, 0.5, -0.5]), renormalize=True)
    grid = default_grid(3, grid_points=1024)
    table = tabulate(grid.points, 4)
    a = eval_density(st_, 0.7, grid, table)
    b = eval_density(st_, 0.7 + math.pi, grid, table)
    np.testing.assert_allclose(b.rho, a.rho[::-1], atol=1e-12)


def test_norm_conservation_random_states():
    rng = np.random.default_rng(42)
    grid = default_grid(12)
    table = tabulate(grid.points, 13)
    thetas = np.linspace(0.0, math.pi, 10, endpoint=False)
    for _ in range(100):
        raw = rng.normal(size=13) + 1j * rng.normal(size=13)
        st_ = make_state(raw, renormalize=True)
        for theta in thetas:
            prof = eval_density(st_, theta, grid, table)
            assert integrate(prof.rho, grid) == pytest.approx(1.0, abs=1e-8)


def test_drho_matches_finite_differences():
    # fine spacing keeps the O(h^2) difference error below the tolerance
    st_ = make_state([0.3, 0.5, 0.2, 0.7, 0.1], renormalize=True)
    grid = Grid(extent=6.0, count=64001)
    table = tabulate(grid.points, 5)
    prof = eval_density(st_, 1.1, grid, table)
    fd = np.gradient(prof.rho, grid.dx)
    np.testing.assert_allclose(prof.drho[5:-5], fd[5:-5], atol=1e-6)


def test_eval_density_dimension_checks():
    grid = default_grid(1)
    table = tabulate(grid.points, 2)
    with pytest.raises(NumericsError):
        eval_density(fock(3), 0.0, grid, table)
    other = default_grid(3, grid_points=512)
    with pytest.raises(NumericsError):
        eval_density(fock(1), 0.0, other, table)
    # psi' of a state up to n = 1 reaches row 2: a table up to 1 is refused
    short = tabulate(grid.points, 1)
    with pytest.raises(NumericsError, match="needs n <= 2"):
        eval_density(fock(1), 0.0, grid, short)
    with pytest.raises(NumericsError, match="needs n <= 2"):
        density_block(fock(1), [0.0, 1.0], grid, short,
                      _Workspace(2, grid.count))


def mp_dpsi(coeffs, theta, x):
    # psi'(x) of sum_n c_n e^{i n theta} u_n(x) from mpmath's Hermite
    # polynomials and H_n' = 2 n H_{n-1}, not from the ladder identity
    with mp.workdps(30):
        x = mp.mpf(x)
        gauss = mp.e ** (-x * x / 2) / mp.sqrt(mp.sqrt(mp.pi))
        total = mp.mpc(0)
        h_prev = mp.mpf(0)
        for n, c in enumerate(coeffs):
            h = mp.hermite(n, x)
            norm = 1 / mp.sqrt(mp.mpf(2) ** n * mp.factorial(n))
            du = norm * (2 * n * h_prev - x * h) * gauss
            phase = mp.expj(n * mp.mpf(theta))
            total += mp.mpc(c.real, c.imag) * phase * du
            h_prev = h
        return complex(total)


@pytest.mark.parametrize("k", [1, 5, 64, 257])
def test_psi_prime_rows_match_mpmath(k):
    # the q rows of density_block, psi' from the ladder coefficients on one
    # table, at 20 grid points and two angles; within 1e-12 of max|psi'|
    rng = np.random.default_rng(k)
    st_ = make_state(rng.normal(size=k) + 1j * rng.normal(size=k),
                     renormalize=True)
    grid = default_grid(k - 1, grid_points=512)
    table = tabulate(grid.points, k)
    thetas = [0.3, 2.1]
    ws = _Workspace(2, grid.count)
    density_block(st_, thetas, grid, table, ws)
    q = ws.pq[4:6] + 1j * ws.pq[6:8]
    idx = np.linspace(0, grid.count - 1, 20).round().astype(int)
    for row, theta in enumerate(thetas):
        ref = np.array([mp_dpsi(st_.coeffs, theta, grid.points[j])
                        for j in idx])
        err = np.max(np.abs(q[row, idx] - ref))
        assert err <= 1e-12 * np.max(np.abs(ref))


def test_profile_from_samples():
    grid = Grid(extent=2.0, count=801)
    rho = np.where(np.abs(grid.points) <= 1.0, 0.5, 0.0)
    prof = DensityProfile.from_samples(grid, rho)
    # the sampled jump overshoots the exact mass by about half a cell
    assert integrate(prof.rho, grid) == pytest.approx(1.0, abs=5e-3)
    assert prof.dpsi_abs2 is None
    assert np.any(prof.drho != 0.0)
    with pytest.raises(ValueError):
        DensityProfile.from_samples(grid, rho[:100])
