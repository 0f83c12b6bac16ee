import math
import re
import warnings

import numpy as np
import pytest

from qsc.catalog import box_wavefunction, superposition_state
from qsc.errors import NumericsError
from qsc.frft import equivalence_failures, kernel, transform
from qsc.functionals import integrate
from qsc.hermite import tabulate
from qsc.state import Grid, default_grid, eval_density, make_state
from conftest import INV_SQRT2, fock


@pytest.fixture(scope="module")
def small_grid():
    return default_grid(12, grid_points=1024)


@pytest.fixture(scope="module")
def small_table(small_grid):
    return tabulate(small_grid.points, 12)


def l1_distance(a, b, grid):
    return integrate(np.abs(np.asarray(a) - np.asarray(b)), grid)


class TestKernel:
    @pytest.mark.parametrize("alpha", [0.2, 0.9, math.pi / 2, 2.7])
    def test_constant_modulus(self, alpha):
        u = np.linspace(-3, 3, 7)
        mags = np.abs(kernel(alpha, u[:, None], u[None, :]))
        np.testing.assert_allclose(
            mags, (2 * math.pi * abs(math.sin(alpha))) ** -0.5, rtol=1e-12)

    def test_symmetric_in_arguments(self):
        assert kernel(0.8, 1.3, -0.4) == pytest.approx(kernel(0.8, -0.4, 1.3))

    def test_quarter_turn_is_fourier_kernel(self):
        # ordinary Fourier kernel up to the phase convention: the sign of the
        # cross term is fixed by the oscillator eigenphase exp(+i n alpha)
        val = kernel(math.pi / 2, 1.1, 0.7)
        assert val == pytest.approx(
            math.sqrt(1 / (2 * math.pi)) * np.exp(1j * 1.1 * 0.7), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, math.pi, 2 * math.pi, 1e-9])
    def test_degenerate_angle_rejected(self, alpha):
        with pytest.raises(NumericsError):
            kernel(alpha, 0.0, 0.0)

    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_eigenphase_matches_fock_rule(self, n, small_grid, small_table):
        # the convention-pinning test: K u_n = exp(+i n alpha) u_n
        alpha = 0.7
        out = transform(small_table.values[n].astype(complex), alpha, small_grid)
        mid = slice(400, 624)
        expected = np.exp(1j * n * alpha) * small_table.values[n][mid]
        np.testing.assert_allclose(out[mid], expected, atol=1e-8)


class TestTransform:
    def test_vacuum_density_invariant(self, small_grid, small_table):
        psi = small_table.values[0].astype(complex)
        for alpha in (0.3, 1.1, 2.5):
            out = transform(psi, alpha, small_grid)
            assert l1_distance(np.abs(out) ** 2, np.abs(psi) ** 2,
                               small_grid) < 1e-6

    def test_norm_conserved(self, small_grid, small_table):
        state = make_state([0.5, 0.5j, 0.5, -0.5], renormalize=True)
        psi = state.coeffs @ small_table.values[:4].astype(complex)
        out = transform(psi, 0.9, small_grid)
        norm = integrate(np.abs(out) ** 2, small_grid)
        assert norm == pytest.approx(1.0, abs=1e-6)

    def test_matches_phase_pipeline(self, small_grid, small_table):
        state = superposition_state(2, INV_SQRT2)
        psi0 = state.coeffs @ small_table.values[:3].astype(complex)
        out = transform(psi0, 0.3, small_grid)
        fockside = eval_density(state, 0.3, small_grid, small_table)
        assert l1_distance(np.abs(out) ** 2, fockside.rho, small_grid) < 1e-5

    def test_box_momentum_density(self, small_grid):
        # quarter turn of the well ground state against the closed-form
        # momentum density (pi/2) cos^2(p) / (pi^2/4 - p^2)^2
        psi = box_wavefunction(1, small_grid.points).astype(complex)
        out = transform(psi, math.pi / 2, small_grid)
        p = small_grid.points
        with np.errstate(divide="ignore", invalid="ignore"):
            exact = (math.pi / 2) * np.cos(p) ** 2 / (math.pi ** 2 / 4 - p * p) ** 2
        exact[~np.isfinite(exact)] = 0.5 / math.pi  # removable singularity
        assert l1_distance(np.abs(out) ** 2, exact, small_grid) < 1e-3

    def test_composition_on_densities(self, small_grid, small_table):
        # compared at the density level: composing kernels leaves a global
        # phase that no density-level quantity can see
        psi = small_table.values[2].astype(complex) * 0.6 \
            + small_table.values[0].astype(complex) * 0.8
        two = transform(transform(psi, 0.4, small_grid), 0.9, small_grid)
        one = transform(psi, 1.3, small_grid)
        assert l1_distance(np.abs(two) ** 2, np.abs(one) ** 2, small_grid) < 1e-4

    def test_edge_mass_warning(self):
        grid = Grid(extent=2.0, count=256)
        psi = np.exp(-grid.points ** 2 / 32).astype(complex)
        with pytest.warns(RuntimeWarning, match="edge mass"):
            transform(psi, 0.7, grid)

    @pytest.mark.parametrize("column", [0, 1])
    def test_edge_mass_warning_from_one_column_of_a_block(self, column):
        grid = Grid(extent=2.0, count=256)
        narrow = np.exp(-8.0 * grid.points ** 2).astype(complex)
        block = np.stack((narrow, narrow), axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            transform(block, 0.7, grid)
        block[:, column] = np.exp(-grid.points ** 2 / 32)
        with pytest.warns(RuntimeWarning, match="edge mass"):
            transform(block, 0.7, grid)

    def test_degenerate_angle_rejected(self, small_grid):
        with pytest.raises(NumericsError):
            transform(np.ones(small_grid.count, complex), math.pi, small_grid)

    def test_sample_count_checked(self, small_grid):
        with pytest.raises(ValueError):
            transform(np.ones(7, complex), 0.5, small_grid)

    @pytest.mark.parametrize("shape", [(), (7, 2)])
    def test_block_sample_count_checked(self, small_grid, shape):
        with pytest.raises(ValueError):
            transform(np.ones(shape, complex), 0.5, small_grid)

    def test_block_matches_dense_kernel_and_single_columns(self):
        # the kernel matrix built point by point, applied to both columns
        grid = default_grid(4, grid_points=256)
        table = tabulate(grid.points, 4)
        psi = np.stack((table.values[1],
                        0.6 * table.values[0] + 0.8j * table.values[3]),
                       axis=1).astype(complex)
        out = transform(psi, 0.8, grid)
        u = grid.points
        dense = kernel(0.8, u[:, None], u[None, :]) @ psi * grid.dx
        np.testing.assert_allclose(out, dense, rtol=0, atol=1e-12)
        for j in range(2):
            alone = transform(psi[:, j], 0.8, grid)
            np.testing.assert_allclose(out[:, j], alone, rtol=0, atol=1e-13)

    def test_near_unitary_on_band_limited_input(self):
        grid = default_grid(6, grid_points=512)
        table = tabulate(grid.points, 6)
        psi = (table.values[3] * 0.6 + table.values[5] * 0.8).astype(complex)
        out = transform(psi, 1.1, grid)
        assert integrate(np.abs(out) ** 2, grid) == pytest.approx(
            integrate(np.abs(psi) ** 2, grid), abs=1e-6)


def test_equivalence_suite_is_clean():
    assert equivalence_failures() == []


def test_equivalence_suite_can_fail(monkeypatch):
    # a pipeline off by 0.05 rad must fail the L1 check for every state
    # at every angle, listed state by state
    def shifted(state, theta, grid, table):
        return eval_density(state, theta + 0.05, grid, table)

    monkeypatch.setattr("qsc.frft.eval_density", shifted)
    failures = equivalence_failures()
    pattern = re.compile(r"state (\d+) alpha ([\d.]+): oracle/pipeline L1 "
                         r"distance \d\.\d\de[+-]\d\d > 1e-05")
    found = [pattern.fullmatch(line) for line in failures]
    assert all(found), failures
    assert [(int(m[1]), float(m[2])) for m in found] == [
        (idx, alpha) for idx in range(20) for alpha in (0.2, 0.7, 1.1, 2.4)]
