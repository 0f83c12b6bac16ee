import math

import numpy as np
import pytest

from qsc.catalog import AnalyticGaussian, GaussianEvaluator
from qsc.errors import NumericsError
from qsc.functionals import (ComplexityReport, FockEvaluator, Numerics,
                             cr_complexity, disequilibrium, entropy_power,
                             fisher_information, fs_complexity, integrate,
                             is_edge_dominated, lmc_complexity,
                             report_from_profile, shannon_entropy, variance)
from qsc.state import DensityProfile, Grid, default_grid, make_state
from conftest import INV_SQRT2, fock

# frozen from 30-digit quadrature of the closed-form densities
S_FOCK1 = 1.3427277883861783
CFS_FOCK1 = 5.1517578142375232
CFS_PHI1_PLUS = 3.5726127575513167
CFS_PHI1_MINUS = 3.8624534498035632
CFS_PHI2_PLUS = 7.8354319875545696
CFS_PHI2_MINUS = 14.164241649550173

GAUSS = AnalyticGaussian(1.0).complexity_evaluator(Numerics())


def uniform_profile(half_width=1.0, count=2001):
    grid = Grid(extent=half_width, count=count)
    rho = np.full(count, 0.5 / half_width)
    # interior derivative of the flat density is identically zero
    return DensityProfile(grid=grid, theta=0.0, rho=rho,
                          drho=np.zeros(count))


def gaussian_profile(var, extent=40.0, count=8193):
    return GaussianEvaluator(math.sqrt(var),
                             Numerics(grid_points=count)).profile(0.0)


class TestIntegrate:
    def test_constant(self):
        grid = Grid(extent=1.0, count=501)
        assert integrate(np.full(501, 0.5), grid) == pytest.approx(1.0, abs=1e-14)

    def test_gaussian(self):
        grid = default_grid(0)
        vals = np.exp(-grid.points ** 2) / math.sqrt(math.pi)
        assert integrate(vals, grid) == pytest.approx(1.0, abs=1e-10)

    def test_odd_function(self):
        grid = Grid(extent=2.0, count=257)
        assert abs(integrate(grid.points, grid)) <= 1e-14

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            integrate(np.ones(3), Grid(extent=1.0, count=5))


class TestFisher:
    def test_unit_gaussian(self):
        assert fisher_information(gaussian_profile(1.0)) == pytest.approx(1.0, abs=1e-8)

    def test_vacuum(self):
        ev = FockEvaluator(fock(0))
        assert fisher_information(ev.profile(0.0)) == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_fock_rows(self, n):
        # node-heavy densities; the integrand limit at each node is exercised
        ev = FockEvaluator(fock(n))
        assert fisher_information(ev.profile(0.9)) == pytest.approx(
            4 * n + 2, rel=1e-6)

    def test_matches_momentum_operator_algebra(self):
        # independent oracle: for real coefficients I = 4<p^2> with the
        # tridiagonal oscillator representation of p^2
        rng = np.random.default_rng(5)
        c = rng.normal(size=9)
        c /= math.sqrt(np.sum(c * c))
        state = make_state(c.astype(complex))
        k = np.arange(9)
        expected = 4.0 * (np.sum(c * c * (k + 0.5))
                          - np.sum(c[:-2] * c[2:] * np.sqrt((k[:-2] + 1) * (k[:-2] + 2))))
        ev = FockEvaluator(state)
        assert fisher_information(ev.profile(0.0)) == pytest.approx(expected, rel=1e-7)

    def test_degenerate_profile(self):
        grid = Grid(extent=1.0, count=64)
        prof = DensityProfile(grid=grid, theta=0.0, rho=np.zeros(64),
                              drho=np.zeros(64))
        with pytest.raises(NumericsError):
            fisher_information(prof)


class TestEntropy:
    def test_uniform(self):
        assert shannon_entropy(uniform_profile()) == pytest.approx(math.log(2), abs=1e-12)

    def test_unit_gaussian(self):
        assert shannon_entropy(gaussian_profile(1.0)) == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e), abs=1e-8)

    def test_first_excited(self):
        ev = FockEvaluator(fock(1))
        s = shannon_entropy(ev.profile(0.0))
        assert s == pytest.approx(S_FOCK1, abs=1e-7)
        assert s == pytest.approx(1.34272, abs=1e-4)


class TestEntropyPower:
    def test_inverts_gaussian_entropy(self):
        assert entropy_power(0.5 * math.log(2 * math.pi * math.e)) == pytest.approx(1.0)
        assert entropy_power(0.5 * math.log(2 * math.pi * math.e * 4)) == pytest.approx(4.0)

    def test_pairs_with_fock1(self):
        assert 6.0 * entropy_power(S_FOCK1) == pytest.approx(5.15, abs=5e-3)

    def test_overflow_guard(self):
        with pytest.raises(NumericsError):
            entropy_power(351.0)


class TestComposite:
    def test_fock1(self):
        assert fs_complexity(fock(1), 0.0).cfs == pytest.approx(CFS_FOCK1, rel=1e-7)

    def test_superposition_values(self):
        plus = make_state([INV_SQRT2, 0, INV_SQRT2])
        minus = make_state([INV_SQRT2, 0, -INV_SQRT2])
        assert fs_complexity(plus, 0.0).cfs == pytest.approx(CFS_PHI1_PLUS, rel=1e-7)
        assert fs_complexity(minus, 0.0).cfs == pytest.approx(CFS_PHI1_MINUS, rel=1e-7)
        # the quarter turn maps one sign onto the other inside the pipeline
        assert fs_complexity(plus, math.pi / 2).cfs == pytest.approx(
            fs_complexity(minus, 0.0).cfs, rel=1e-9)

    def test_four_quantum_superpositions(self):
        plus = make_state([INV_SQRT2, 0, 0, 0, INV_SQRT2])
        minus = make_state([INV_SQRT2, 0, 0, 0, -INV_SQRT2])
        assert fs_complexity(plus, 0.0).cfs == pytest.approx(CFS_PHI2_PLUS, rel=1e-7)
        assert fs_complexity(minus, 0.0).cfs == pytest.approx(CFS_PHI2_MINUS, rel=1e-7)

    def test_report_product_is_exact(self):
        rep = fs_complexity(fock(2), 0.3)
        assert rep.cfs == rep.fisher * rep.entropy_power

    def test_extensions_populated_on_request(self):
        rep = fs_complexity(fock(1), 0.0)
        assert rep.lmc is None and rep.cr is None
        rep = fs_complexity(fock(1), 0.0, extensions=True)
        assert rep.lmc > 0 and rep.cr > 0


class TestExtensionMeasures:
    def test_disequilibrium_uniform(self):
        assert disequilibrium(uniform_profile()) == pytest.approx(0.5, abs=1e-12)

    def test_disequilibrium_gaussian(self):
        assert disequilibrium(gaussian_profile(1.0)) == pytest.approx(
            1.0 / (2 * math.sqrt(math.pi)), abs=1e-10)

    def test_disequilibrium_vacuum(self):
        ev = FockEvaluator(fock(0))
        assert disequilibrium(ev.profile(0.0)) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), abs=1e-8)

    def test_variance_vacuum(self):
        ev = FockEvaluator(fock(0))
        assert variance(ev.profile(0.0)) == pytest.approx(0.5, abs=1e-8)

    def test_variance_uniform(self):
        assert variance(uniform_profile()) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_variance_gaussian(self):
        assert variance(gaussian_profile(2.0)) == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("var", [0.25, 1.0, 4.0])
    def test_lmc_gaussian_constant(self, var):
        # D * exp(S) = (2 sigma sqrt(pi))^-1 * sigma sqrt(2 pi e) = sqrt(e/2)
        assert lmc_complexity(gaussian_profile(var)) == pytest.approx(
            math.sqrt(math.e / 2.0), abs=1e-6)

    @pytest.mark.parametrize("var", [0.25, 1.0, 4.0])
    def test_cr_gaussian_is_one(self, var):
        assert cr_complexity(gaussian_profile(var)) == pytest.approx(1.0, abs=1e-6)

    def test_cr_uniform_is_edge_dominated(self):
        # sampled discontinuous density: the grid-scale jump dominates the
        # Fisher integral and the value depends on resolution
        values = {}
        for count in (801, 1601):
            grid = Grid(extent=2.0, count=count)
            rho = np.where(np.abs(grid.points) <= 1.0, 0.5, 0.0)
            prof = DensityProfile.from_samples(grid, rho)
            assert is_edge_dominated(prof)
            assert report_from_profile(prof, extensions=True).edge_dominated
            values[count] = cr_complexity(prof)
            assert math.isfinite(values[count])
        assert values[801] != pytest.approx(values[1601], rel=1e-2)

    def test_smooth_profile_not_edge_dominated(self):
        assert not is_edge_dominated(gaussian_profile(1.0))


class TestInvariants:
    @pytest.mark.parametrize("theta", [0.0, 0.7, 2.2])
    def test_isoperimetric_bound(self, theta):
        for state in (fock(0), fock(3),
                      make_state([0.5, 0.5j, -0.5, 0.5], renormalize=True)):
            assert fs_complexity(state, theta).cfs >= 1.0 - 1e-6

    @pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_gaussian_baseline(self, sigma):
        ev = AnalyticGaussian(sigma).complexity_evaluator(Numerics())
        assert ev.cfs(0.0) == pytest.approx(1.0, abs=1e-6)

    def test_reflection_invariance(self):
        ev = FockEvaluator(make_state([0.3, 0.9, 0.2, 0.1, 0.2],
                                      renormalize=True))
        prof = ev.profile(0.55)
        mirrored = DensityProfile(grid=prof.grid, theta=prof.theta,
                                  rho=prof.rho[::-1].copy(),
                                  drho=-prof.drho[::-1].copy(),
                                  dpsi_abs2=prof.dpsi_abs2[::-1].copy())
        for fn in (fisher_information, shannon_entropy, disequilibrium, variance):
            assert fn(mirrored) == pytest.approx(fn(prof), abs=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
    def test_scaling_laws(self, lam):
        # s -> lam * s sends I -> I/lam^2, J -> lam^2 J, cfs unchanged
        ev = FockEvaluator(fock(1))
        prof = ev.profile(0.0)
        scaled = DensityProfile(
            grid=Grid(extent=lam * prof.grid.extent, count=prof.grid.count),
            theta=0.0, rho=prof.rho / lam, drho=prof.drho / lam ** 2,
            dpsi_abs2=prof.dpsi_abs2 / lam ** 3)
        base = report_from_profile(prof)
        rep = report_from_profile(scaled)
        assert rep.fisher == pytest.approx(base.fisher / lam ** 2, rel=1e-6)
        assert rep.entropy_power == pytest.approx(base.entropy_power * lam ** 2, rel=1e-6)
        assert rep.cfs == pytest.approx(base.cfs, rel=1e-6)

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_grid_doubling_stability(self, n):
        coarse = fs_complexity(fock(n), 0.0, Numerics(grid_points=4096)).cfs
        fine = fs_complexity(fock(n), 0.0, Numerics(grid_points=8192)).cfs
        assert fine == pytest.approx(coarse, rel=1e-6)
