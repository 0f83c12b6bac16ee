import math
import tracemalloc

import numpy as np
import pytest

from qsc import hermite
from qsc.errors import NumericsError
from qsc.functionals import (DEFAULT_NUMERICS, ComplexityReport,
                             FockEvaluator, Numerics, _variance,
                             entropy_power, evaluator_for, fs_complexity,
                             integrate, report_from_profile)
from qsc.state import (AnalyticGaussian, DensityProfile, Grid, _Workspace,
                       default_grid, gaussian_sigma_theta, make_state)
from conftest import INV_SQRT2, fock

# frozen from 30-digit quadrature of the closed-form densities
S_FOCK1 = 1.3427277883861783
CFS_FOCK1 = 5.1517578142375232
CFS_PHI1_PLUS = 3.5726127575513167
CFS_PHI1_MINUS = 3.8624534498035632
CFS_PHI2_PLUS = 7.8354319875545696
CFS_PHI2_MINUS = 14.164241649550173


def uniform_profile(half_width=1.0, count=2001):
    grid = Grid(extent=half_width, count=count)
    rho = np.full(count, 0.5 / half_width)
    # interior derivative of the flat density is identically zero: no
    # current and no kinetic term
    return DensityProfile(grid=grid, theta=0.0, rho=rho,
                          current=np.zeros(count), kinetic=0.0)


def measures(profile):
    """Every per-profile measure: I, S, J, C_FS, C_LMC and C_CR."""
    return report_from_profile(profile, extensions=True)


def diseq(profile):
    # D = C_LMC / exp(S)
    rep = measures(profile)
    return rep.lmc / math.exp(rep.entropy)


def variance(profile):
    # V = C_CR / I
    rep = measures(profile)
    return rep.cr / rep.fisher


def gaussian_profile(var, count=8193):
    return evaluator_for(AnalyticGaussian(math.sqrt(var)),
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
        assert measures(gaussian_profile(1.0)).fisher == pytest.approx(1.0, abs=1e-8)

    def test_vacuum(self):
        ev = FockEvaluator(fock(0))
        assert measures(ev.profile(0.0)).fisher == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("theta", [0.0, 0.7, 2.9])
    @pytest.mark.parametrize("n", range(7))
    def test_fock_rows_are_exact(self, n, theta):
        # j vanishes to rounding on a Fock row, so I = 4<p_theta^2> = 4n + 2
        assert fs_complexity(fock(n), theta).fisher == pytest.approx(
            4 * n + 2, rel=1e-13)

    @pytest.mark.parametrize("theta", [0.0, 0.4, 1.3])
    def test_gaussian_kinetic_term(self, theta):
        # psi = sqrt(rho): no current, and 4<p^2> = 1 / sigma_theta^2
        ev = evaluator_for(AnalyticGaussian(1.7))
        _, current, kinetic = ev.density_block(
            [theta, theta + 1.0], _Workspace(2, ev.grid.count))
        assert not current.any()
        np.testing.assert_array_equal(
            kinetic, [1.0 / gaussian_sigma_theta(1.7, t)
                      for t in (theta, theta + 1.0)])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_fock_rows(self, n):
        # node-heavy densities: every node is a zero of rho and of j
        ev = FockEvaluator(fock(n))
        assert measures(ev.profile(0.9)).fisher == pytest.approx(
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
        assert measures(ev.profile(0.0)).fisher == pytest.approx(expected, rel=1e-7)

    def test_degenerate_profile(self):
        grid = Grid(extent=1.0, count=64)
        prof = DensityProfile(grid=grid, theta=0.0, rho=np.zeros(64),
                              current=np.zeros(64), kinetic=0.0)
        with pytest.raises(NumericsError, match="degenerate profile"):
            report_from_profile(prof)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_is_refused(self, bad):
        # a NaN made cfs NaN, and an inf made it 0, below the bound 1
        grid = Grid(extent=5.0, count=257)
        rho = np.exp(-grid.points ** 2) / math.sqrt(math.pi)
        rho[100] = bad
        prof = DensityProfile.from_samples(grid, rho)
        with pytest.raises(NumericsError, match="degenerate profile"):
            report_from_profile(prof)


class TestEntropy:
    def test_uniform(self):
        assert measures(uniform_profile()).entropy == pytest.approx(math.log(2), abs=1e-12)

    def test_unit_gaussian(self):
        assert measures(gaussian_profile(1.0)).entropy == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e), abs=1e-8)

    def test_first_excited(self):
        ev = FockEvaluator(fock(1))
        s = measures(ev.profile(0.0)).entropy
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
        assert diseq(uniform_profile()) == pytest.approx(0.5, abs=1e-12)

    def test_disequilibrium_gaussian(self):
        assert diseq(gaussian_profile(1.0)) == pytest.approx(
            1.0 / (2 * math.sqrt(math.pi)), abs=1e-10)

    def test_disequilibrium_vacuum(self):
        ev = FockEvaluator(fock(0))
        assert diseq(ev.profile(0.0)) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), abs=1e-8)

    def test_variance_vacuum(self):
        ev = FockEvaluator(fock(0))
        assert variance(ev.profile(0.0)) == pytest.approx(0.5, abs=1e-8)

    def test_variance_uniform(self):
        # I = 0 for the flat density, so V cannot be read off C_CR = I V
        prof = uniform_profile()
        assert measures(prof).cr == 0.0
        assert _variance(prof.rho, prof.grid) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_variance_gaussian(self):
        assert variance(gaussian_profile(2.0)) == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("var", [0.25, 1.0, 4.0])
    def test_lmc_gaussian_constant(self, var):
        # D * exp(S) = (2 sigma sqrt(pi))^-1 * sigma sqrt(2 pi e) = sqrt(e/2)
        assert measures(gaussian_profile(var)).lmc == pytest.approx(
            math.sqrt(math.e / 2.0), abs=1e-6)

    @pytest.mark.parametrize("var", [0.25, 1.0, 4.0])
    def test_cr_gaussian_is_one(self, var):
        assert measures(gaussian_profile(var)).cr == pytest.approx(1.0, abs=1e-6)

    def test_cr_uniform_depends_on_resolution(self):
        # sampled discontinuous density: the grid-scale jump dominates the
        # Fisher integral and the value depends on resolution
        values = {}
        for count in (801, 1601):
            grid = Grid(extent=2.0, count=count)
            rho = np.where(np.abs(grid.points) <= 1.0, 0.5, 0.0)
            prof = DensityProfile.from_samples(grid, rho)
            values[count] = measures(prof).cr
            assert math.isfinite(values[count])
        assert values[801] != pytest.approx(values[1601], rel=1e-2)


class TestInvariants:
    @pytest.mark.parametrize("theta", [0.0, 0.7, 2.2])
    def test_isoperimetric_bound(self, theta):
        for state in (fock(0), fock(3),
                      make_state([0.5, 0.5j, -0.5, 0.5], renormalize=True)):
            assert fs_complexity(state, theta).cfs >= 1.0 - 1e-6

    @pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_gaussian_baseline(self, sigma):
        ev = evaluator_for(AnalyticGaussian(sigma))
        assert ev.cfs(0.0) == pytest.approx(1.0, abs=1e-6)

    def test_reflection_invariance(self):
        ev = FockEvaluator(make_state([0.3, 0.9, 0.2, 0.1, 0.2],
                                      renormalize=True))
        prof = ev.profile(0.55)
        mirrored = DensityProfile(grid=prof.grid, theta=prof.theta,
                                  rho=prof.rho[::-1].copy(),
                                  current=-prof.current[::-1].copy(),
                                  kinetic=prof.kinetic)
        base, flipped = measures(prof), measures(mirrored)
        for name in ("fisher", "entropy", "lmc", "cr"):
            assert getattr(flipped, name) == pytest.approx(
                getattr(base, name), abs=1e-12), name

    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
    def test_scaling_laws(self, lam):
        # s -> lam * s sends I -> I/lam^2, J -> lam^2 J, cfs unchanged; the
        # current and the kinetic term scale as 1/lam^2
        ev = FockEvaluator(fock(1))
        prof = ev.profile(0.0)
        scaled = DensityProfile(
            grid=Grid(extent=lam * prof.grid.extent, count=prof.grid.count),
            theta=0.0, rho=prof.rho / lam, current=prof.current / lam ** 2,
            kinetic=prof.kinetic / lam ** 2)
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


def test_grid_refusal_comes_before_the_basis_table():
    # row N of the basis table decides, before the evaluator exists
    with pytest.raises(NumericsError, match="cannot hold the state"):
        FockEvaluator(fock(60), Numerics(grid_points=64))


def test_evaluator_build_holds_one_basis_table():
    # psi' comes from the same table as psi: building an evaluator of 385
    # terms peaks near one (N + 2)-row table, not two (the table holds the
    # grid's nonnegative half, so it is below one full-width table)
    state = make_state(np.ones(385), renormalize=True)
    table_bytes = (state.n_max + 2) * DEFAULT_NUMERICS.grid_points * 8
    tracemalloc.start()
    try:
        evaluator_for(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * table_bytes


def test_one_evaluator_runs_the_hermite_recurrence_once(monkeypatch):
    # the grid check reads the table it builds; no second recurrence, on a
    # grid that holds the state or on one that is refused.  The table runs
    # to N + 1, the top row of psi'.  The evaluator reaches the table
    # through the module attribute, where the benchmark's tracer counts it.
    counts = []
    table = hermite.tabulate

    def counted(points, n_max):
        counts.append(n_max)
        return table(points, n_max)

    monkeypatch.setattr(hermite, "tabulate", counted)
    FockEvaluator(fock(60))
    with pytest.raises(NumericsError, match="cannot hold the state"):
        FockEvaluator(fock(60), Numerics(grid_points=64))
    assert counts == [61, 61]
