import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from qsc import catalog, hermite
from qsc.catalog import (BoxSpec, box_cfs_momentum, box_cfs_position,
                         box_momentum_entropy, box_state, box_wavefunction,
                         choose_squeezed_truncation, parse_state_literal,
                         squeezed_vacuum_fock, superposition_state)
from qsc.errors import NumericsError, ParseError
from qsc.functionals import (FockEvaluator, evaluator_for, fs_complexity,
                             integrate, report_from_profile)
from qsc.state import (AnalyticGaussian, DensityProfile, FockState, Grid,
                       gaussian_sigma_theta)
from conftest import INV_SQRT2, fock


@pytest.fixture(scope="module")
def legendre_rule():
    """Dense Gauss-Legendre rules, each eigensolve paid once per module."""
    rules = {}

    def rule(m):
        if m not in rules:
            rules[m] = np.polynomial.legendre.leggauss(m)
        return rules[m]
    return rule


def count_tables(monkeypatch):
    """Record the node count of every hermite.tabulate call from now on."""
    tables = []
    tabulate = hermite.tabulate

    def counting(points, n_max):
        tables.append(points.shape[0])
        return tabulate(points, n_max)
    monkeypatch.setattr(hermite, "tabulate", counting)
    return tables


@pytest.fixture(scope="module")
def box256():
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for n in range(1, 6):
            out[n] = box_state(BoxSpec(n=n, n_fock=256))
    return out


class TestSuperposition:
    def test_coefficients(self):
        state = superposition_state(2, INV_SQRT2)
        np.testing.assert_allclose(state.coeffs, [INV_SQRT2, 0, INV_SQRT2])
        state = superposition_state(4, -INV_SQRT2)
        np.testing.assert_allclose(state.coeffs,
                                   [-INV_SQRT2, 0, 0, 0, INV_SQRT2])

    def test_endpoint_collapses_to_ground_state(self):
        state = superposition_state(2, 1.0)
        np.testing.assert_array_equal(state.coeffs, [1.0 + 0.0j])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            superposition_state(2, 1.0001)
        with pytest.raises(ValueError):
            superposition_state(0, 0.5)


class TestGaussianFamily:
    def test_sigma_theta_propagation(self):
        assert gaussian_sigma_theta(1.0, 1.234) == pytest.approx(1.0)
        assert gaussian_sigma_theta(2.0, math.pi / 2) == pytest.approx(0.25)
        assert gaussian_sigma_theta(math.sqrt(2.0), 0.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            gaussian_sigma_theta(0.0, 0.1)

    def test_analytic_curve_is_flat(self):
        ev = evaluator_for(AnalyticGaussian(1.5))
        for theta in (0.0, 0.3, math.pi / 2, 2.8):
            assert ev.cfs(theta) == pytest.approx(1.0, abs=1e-5)

    def test_sigma_validation(self):
        # beyond about 1e77 (or below 1e-77) sigma^4 leaves the float range
        for sigma in (-1.0, 0.0, 1e150, 1e-150, math.nan):
            with pytest.raises(ValueError):
                AnalyticGaussian(sigma)
            with pytest.raises(ValueError):
                gaussian_sigma_theta(sigma, 0.1)


class TestSqueezedVacuum:
    def test_no_squeezing_gives_ground_state(self):
        state = squeezed_vacuum_fock(1.0 / math.sqrt(2.0), 8)
        assert state.coeffs[0] == 1.0
        np.testing.assert_array_equal(state.coeffs[1:], np.zeros(8))

    def test_position_density_matches_target(self):
        state = squeezed_vacuum_fock(1.0, 64)
        prof = FockEvaluator(state).profile(0.0)
        x = prof.grid.points
        target = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        np.testing.assert_allclose(prof.rho, target, atol=1e-9)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2])
    def test_complexity_is_one(self, theta):
        state = squeezed_vacuum_fock(1.0, 64)
        assert fs_complexity(state, theta).cfs == pytest.approx(1.0, abs=1e-5)

    def test_truncation_deficit_raises(self):
        with pytest.raises(NumericsError):
            squeezed_vacuum_fock(4.0, 8)

    def test_odd_truncation_rejected(self):
        with pytest.raises(ValueError):
            squeezed_vacuum_fock(1.0, 7)

    def test_auto_truncation(self):
        assert choose_squeezed_truncation(1.0 / math.sqrt(2.0)) == 2
        n = choose_squeezed_truncation(4.0)
        assert n % 2 == 0
        state = squeezed_vacuum_fock(4.0, n)
        assert isinstance(state, FockState)


class TestBoxState:
    def test_wavefunction_support_and_parity(self):
        x = np.linspace(-2.0, 2.0, 41)
        psi = box_wavefunction(1, x)
        assert np.all(psi[np.abs(x) > 1.0] == 0.0)
        inside = np.abs(x) <= 1.0
        np.testing.assert_allclose(psi[inside], -np.cos(math.pi * x[inside] / 2),
                                   atol=1e-14)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BoxSpec(n=0)
        with pytest.raises(ValueError):
            BoxSpec(n=5, n_fock=16)

    def test_parity_exact_zeros(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            state = box_state(BoxSpec(n=1, n_fock=128))
        assert np.all(state.coeffs[1::2] == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            state = box_state(BoxSpec(n=2, n_fock=128))
        assert np.all(state.coeffs[0::2] == 0.0)

    def test_captured_norm_within_tolerance(self, box256):
        # the k**-5/2 coefficient decay leaves ~4e-5 (n=1) to 1.2e-3 (n=5)
        # outside a 256-term truncation; the builder enforces its gate
        for n, state in box256.items():
            assert state.norm == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(NumericsError, match="increase n_fock"):
            box_state(BoxSpec(n=5, n_fock=24))

    def test_warns_on_heavy_trailing_weight(self):
        with pytest.warns(RuntimeWarning, match="trailing weight"):
            box_state(BoxSpec(n=1, n_fock=128))

    # n = 6 at 128 terms is left out: its captured norm is below the gate
    @pytest.mark.parametrize("n,n_fock", [
        (n, n_fock) for n in (1, 3, 6) for n_fock in (128, 256, 384, 1024)
        if (n, n_fock) != (6, 128)])
    def test_node_rule_matches_dense_quadrature(self, legendre_rule, n, n_fock):
        x, w = legendre_rule(4096 if n_fock == 1024 else 2048)
        ref = hermite.tabulate(x, n_fock).values @ (w * box_wavefunction(n, x))
        k = np.arange(n_fock + 1)
        ref[(k + n) % 2 == 0] = 0.0
        ref /= np.linalg.norm(ref)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            state = box_state(BoxSpec(n=n, n_fock=n_fock))
        np.testing.assert_allclose(state.coeffs, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 8, 64, 128])
    def test_clenshaw_curtis_rule(self, m):
        nodes, weights = catalog._clenshaw_curtis(m)
        assert np.all(weights > 0.0)
        assert weights.sum() == pytest.approx(2.0, abs=1e-14)
        for k in range(m + 1):
            moment = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(weights @ nodes ** k - moment) <= 1e-14, k
        # the check rule reads the even-indexed columns of the fine table
        fine_nodes = catalog._clenshaw_curtis(2 * m)[0]
        assert np.array_equal(nodes, fine_nodes[::2])

    def test_one_basis_table_and_no_eigensolve(self, monkeypatch):
        def refuse(deg):
            raise AssertionError("leggauss called")
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        tables = count_tables(monkeypatch)
        # one table each: at (1, 1024) the 64- and 128-interval rules
        # disagree, so the start is 128 intervals
        for n, n_fock, nodes in [(3, 256, 129), (1, 1024, 257)]:
            tables.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                box_state(BoxSpec(n=n, n_fock=n_fock))
            assert tables == [nodes], (n, n_fock)

    def test_node_doubling_escalates_to_the_cap(self, monkeypatch):
        spec = BoxSpec(n=3, n_fock=256)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            default = box_state(spec).coeffs
            monkeypatch.setattr(catalog, "_box_start_nodes", lambda spec: 8)
            escalated = box_state(spec).coeffs
            np.testing.assert_allclose(escalated, default, rtol=0.0, atol=1e-12)
            # the rules on 17 and 33 nodes do not agree with their halves,
            # so the interval count doubles twice, and the cap refuses 65
            monkeypatch.setattr(hermite, "MAX_TABLE_CELLS",
                                (spec.n_fock + 2) * 33)
            tables = count_tables(monkeypatch)
            with pytest.raises(NumericsError, match="over the cap"):
                box_state(spec)
            assert tables == [17, 33]

    def test_position_density_fidelity(self, box256):
        prof = FockEvaluator(box256[2]).profile(0.0)
        x = prof.grid.points
        exact = np.where(np.abs(x) <= 1.0, np.sin(math.pi * (x - 1.0)) ** 2, 0.0)
        l1 = integrate(np.abs(prof.rho - exact), prof.grid)
        assert l1 < 0.02

    def test_position_fisher_approaches_exact(self, box256):
        # truncation-limited: ~3% at 256 terms, tightening with n_fock
        for n in (1, 3):
            fisher = fs_complexity(box256[n], 0.0).fisher
            assert fisher == pytest.approx(math.pi ** 2 * n * n, rel=0.04)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            finer = box_state(BoxSpec(n=1, n_fock=512))
        err_256 = abs(fs_complexity(box256[1], 0.0).fisher - math.pi ** 2)
        err_512 = abs(fs_complexity(finer, 0.0).fisher - math.pi ** 2)
        assert err_512 < err_256

    def test_position_complexity_converges_to_closed_form(self, box256):
        # same truncation ceiling as the Fisher information
        for n in (1, 4):
            cfs = fs_complexity(box256[n], 0.0).cfs
            assert cfs == pytest.approx(box_cfs_position(n), rel=0.04)


class TestBoxClosedForms:
    def test_position_formula(self):
        base = 8.0 * math.pi / math.exp(3.0)
        assert box_cfs_position(1) == pytest.approx(1.2512855058, rel=1e-9)
        assert box_cfs_position(2) == pytest.approx(4 * base, rel=1e-12)
        assert box_cfs_position(5) == pytest.approx(25 * base, rel=1e-12)

    def test_momentum_entropy_matches_mpmath(self):
        # independent route: the density in p, rho = (k^2/pi)
        # (1 - (-1)^n cos 2p) / (p^2 - k^2)^2 with k = pi n / 2, integrated
        # by tanh-sinh over half periods up to 128 pi and beyond that by its
        # period average, <(1 - cos) log(1 - cos)> = 1 - log 2
        for n in (1, 4):
            k = mp.pi * n / 2
            a = k * k / mp.pi

            def rho_log_rho(p):
                rho = (a * (1 - (-1) ** n * mp.cos(2 * p))
                       / (p * p - k * k) ** 2)
                return rho * mp.log(rho) if rho > 0 else 0

            def period_average(p):
                w = a / (p * p - k * k) ** 2
                return w * (mp.log(w) + 1 - mp.log(2))

            cut = 128 * mp.pi
            head = mp.quad(rho_log_rho, mp.linspace(0, cut, 257))
            tail = mp.quad(period_average, [cut, mp.inf])
            reference = float(-2 * (head + tail))
            assert box_momentum_entropy(n) == pytest.approx(reference,
                                                            abs=2e-8)

    def test_momentum_entropy_stable_under_node_doubling(self, monkeypatch):
        a = box_momentum_entropy(2)
        monkeypatch.setattr(catalog, "_MOMENTUM_NODES", 128)
        assert abs(box_momentum_entropy(2) - a) < 1e-8

    def test_momentum_entropy_panel_cap(self, monkeypatch):
        monkeypatch.setattr(catalog, "_MOMENTUM_TAIL_TOL", 1e-9)
        monkeypatch.setattr(catalog, "_MOMENTUM_MAX_PANELS", 16)
        with pytest.raises(NumericsError):
            box_momentum_entropy(3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_momentum_formula_positive(self, n):
        # C_FS >= 1 for every density
        assert box_cfs_momentum(n) >= 1.0

    def test_momentum_pipeline_validated_by_direct_transform(self, box256):
        # independent route: Fourier-transform the exact well eigenstate on a
        # fine grid and push that density through the same functionals
        n = 1
        fine = Grid(extent=40.0, count=32769)
        inside = np.abs(fine.points) <= 1.0
        xs = fine.points[inside]
        psi = box_wavefunction(n, xs)
        target = Grid(extent=25.0, count=4097)
        ft = (np.exp(-1j * np.outer(target.points, xs)) @ psi) * fine.dx
        rho = np.abs(ft) ** 2 / (2.0 * math.pi)
        rho /= integrate(rho, target)
        oracle = report_from_profile(DensityProfile.from_samples(target, rho))
        pipeline = fs_complexity(box256[n], math.pi / 2)
        assert pipeline.cfs == pytest.approx(oracle.cfs, rel=5e-3)
        # momentum-side Fisher information has the closed form 4<x^2>
        fisher = pipeline.fisher
        exact = 4.0 / 3.0 * (1.0 - 6.0 / (math.pi ** 2 * n * n))
        assert fisher == pytest.approx(exact, rel=5e-3)


class TestStateLiterals:
    def test_fock(self):
        state = parse_state_literal("fock:3")
        np.testing.assert_array_equal(state.coeffs, fock(3).coeffs)

    def test_super_renormalizes(self):
        state = parse_state_literal("super:0.70710678,0,0.70710678")
        np.testing.assert_allclose(state.coeffs, [INV_SQRT2, 0, INV_SQRT2],
                                   atol=1e-8)

    def test_super_complex_entries(self):
        state = parse_state_literal("super:1,0,1i")
        np.testing.assert_allclose(state.coeffs, [INV_SQRT2, 0, 1j * INV_SQRT2])

    def test_gauss_routes(self):
        analytic = parse_state_literal("gauss:sigma=1.5,analytic")
        assert isinstance(analytic, AnalyticGaussian) and analytic.sigma == 1.5
        fockroute = parse_state_literal("gauss:sigma=1,N=64")
        assert isinstance(fockroute, FockState) and fockroute.n_max == 64
        auto = parse_state_literal("gauss:sigma=2")
        assert isinstance(auto, FockState)

    def test_box_literal(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            state = parse_state_literal("box:n=1,N=128")
        assert isinstance(state, FockState) and state.n_max == 128

    @pytest.mark.parametrize("bad", [
        "nope", "fock:x", "fock:-1", "super:", "super:0,zz",
        "gauss:sigma=0", "gauss:", "gauss:sigma=1,N=64,analytic",
        "gauss:sigma=1,bogus=2", "box:", "box:n=1,junk=3", "box:n=0",
        "box:n=1,analytic", "box:n=1,,N=300", "gauss:sigma=2,",
        "gauss:,sigma=2,analytic",
    ])
    def test_bad_literals(self, bad):
        with pytest.raises(ParseError):
            parse_state_literal(bad)
