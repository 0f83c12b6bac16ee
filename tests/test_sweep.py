import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsc
from qsc.catalog import AnalyticGaussian, superposition_state
from qsc.functionals import FockEvaluator, Numerics, block_rows, fs_complexity
from qsc.state import make_state, rotate
from qsc.sweep import SweepResult, analyze, global_fs, min_fs, sweep
from conftest import INV_SQRT2, fock

# pinned by the pointwise-validated complexity curve (30-digit quadrature
# confirms the curve samples; the minimum angle was independently checked)
MFS_PHI1 = 2.2468293142497098
MFS_PHI2 = 6.786766707293678
GFS_PHI1 = 2.9185981555289704
GFS_PHI2 = 8.795634594575365


@pytest.fixture(scope="module")
def phi1():
    return superposition_state(2, INV_SQRT2)


@pytest.fixture(scope="module")
def phi2():
    return superposition_state(4, INV_SQRT2)


def test_sweep_needs_four_samples():
    with pytest.raises(ValueError):
        sweep(fock(1), 3)


def test_sweep_lattice_layout(phi1):
    res = sweep(phi1, 8)
    assert res.resolution == 8
    assert res.gfs is None and res.mfs is None
    np.testing.assert_allclose(res.thetas, [k * math.pi / 8 for k in range(8)])
    assert all(r.theta == pytest.approx(t) for t, r in zip(res.thetas, res.reports))


def test_fock_curve_is_flat():
    res = sweep(fock(3), 16)
    values = np.array([r.cfs for r in res.reports])
    assert np.all(np.abs(values - 20.5) < 0.2)
    assert values.max() - values.min() <= 1e-6 * values.mean()


def test_sign_flip_shifts_curve_half_period(phi1):
    minus = superposition_state(2, -INV_SQRT2)
    a = sweep(phi1, 64)
    b = sweep(minus, 64)
    for k in range(64):
        assert b.reports[k].cfs == pytest.approx(
            a.reports[(k + 32) % 64].cfs, abs=1e-6)


def test_quarter_period_shift_for_fourth_level():
    plus = superposition_state(4, INV_SQRT2)
    minus = superposition_state(4, -INV_SQRT2)
    evp = FockEvaluator(plus)
    evm = FockEvaluator(minus)
    for k in range(32):
        t = k * math.pi / 32
        assert evm.cfs(t) == pytest.approx(evp.cfs(t + math.pi / 4), abs=1e-6)


def test_pi_periodicity_with_raw_phase(phi1):
    ev = FockEvaluator(phi1)
    assert ev.cfs(0.37 + math.pi) == pytest.approx(ev.cfs(0.37), abs=1e-10)


def test_global_measure_equals_single_angle_for_fock():
    value = global_fs(fock(2))
    single = fs_complexity(fock(2), 0.0).cfs
    assert value == pytest.approx(single, rel=1e-6)
    assert value == pytest.approx(11.7, rel=5e-3)


def test_global_measure_sign_independent(phi1, phi2):
    assert global_fs(phi1) == pytest.approx(
        global_fs(superposition_state(2, -INV_SQRT2)), rel=1e-10)
    assert global_fs(phi1) == pytest.approx(GFS_PHI1, rel=1e-5)
    assert global_fs(phi2) == pytest.approx(GFS_PHI2, rel=1e-5)


def test_minimum_measure_values(phi1, phi2):
    theta1, value1 = min_fs(phi1)
    assert value1 == pytest.approx(MFS_PHI1, rel=1e-6)
    assert 0.0 <= theta1 < math.pi
    theta2, value2 = min_fs(phi2)
    assert value2 == pytest.approx(MFS_PHI2, rel=1e-6)
    # sign flip leaves the minimum value unchanged
    assert min_fs(superposition_state(4, -INV_SQRT2))[1] == pytest.approx(
        value2, rel=1e-9)


def test_minimum_sits_at_curve_minimum(phi1):
    theta1, value1 = min_fs(phi1)
    ev = FockEvaluator(phi1)
    assert ev.cfs(theta1) == pytest.approx(value1, rel=1e-12)
    for probe in np.linspace(0, math.pi, 97, endpoint=False):
        assert value1 <= ev.cfs(float(probe)) + 1e-10


def test_gaussian_landscape_is_flat():
    state = AnalyticGaussian(2.0)
    theta_star, value = min_fs(state)
    assert value == pytest.approx(1.0, abs=1e-5)
    assert global_fs(state) == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("alpha", [0.9, 2.2])
def test_rotation_invariance(alpha):
    rng = np.random.default_rng(7)
    state = make_state(rng.normal(size=7) + 1j * rng.normal(size=7),
                       renormalize=True)
    base = analyze(state)
    moved = analyze(rotate(state, alpha))
    assert moved.gfs == pytest.approx(base.gfs, rel=2e-5)
    assert moved.mfs == pytest.approx(base.mfs, rel=2e-5)
    # the arg-min shifts by -alpha (mod pi, up to the curve's symmetry):
    # the rotated state's curve at the shifted angle is again the minimum
    ev = FockEvaluator(rotate(state, alpha))
    assert ev.cfs(base.mfs_theta - alpha) == pytest.approx(moved.mfs, rel=2e-5)


def test_analyze_bundle_invariants(phi1):
    res = analyze(phi1)
    assert isinstance(res, SweepResult)
    assert res.gfs >= 1.0 - 1e-6
    assert res.mfs >= 1.0 - 1e-6
    assert res.mfs <= res.gfs + 1e-12
    assert res.mfs <= min(r.cfs for r in res.reports) + 1e-12
    assert res.converged
    assert res.resolution == len(res.reports) == len(res.thetas)
    assert res.gfs == pytest.approx(np.mean([r.cfs for r in res.reports]), rel=1e-12)


def test_fock_rows_have_equal_global_minimum_single(phi1):
    single = fs_complexity(fock(3), 0.0).cfs
    assert global_fs(fock(3)) == pytest.approx(single, rel=1e-6)
    assert min_fs(fock(3))[1] == pytest.approx(single, rel=1e-6)


def test_gfs_respects_custom_tolerance(phi1):
    loose = Numerics(gfs_rel_tol=1e-3, gfs_start=8, gfs_max_resolution=64)
    value = global_fs(phi1, loose)
    assert value == pytest.approx(GFS_PHI1, rel=1e-3)


def _random_state(terms: int, seed: int):
    rng = np.random.default_rng(seed)
    return make_state(rng.normal(size=terms) + 1j * rng.normal(size=terms),
                      renormalize=True)


def _assert_reports_agree(block, single, names=("fisher", "entropy", "cfs")):
    assert block.theta == single.theta
    for name in names:
        assert getattr(block, name) == pytest.approx(
            getattr(single, name), rel=1e-13), name


def test_block_reports_match_single_angle_reports():
    # 257 terms, and a lattice that ends on a partial block
    state = _random_state(257, 17)
    rows = block_rows(Numerics().grid_points)
    n_theta = 2 * rows + 3
    assert n_theta % rows != 0
    res = sweep(state, n_theta)
    for theta, report in zip(res.thetas, res.reports):
        _assert_reports_agree(report, fs_complexity(state, float(theta)))


def test_block_extension_measures_match_measure():
    import warnings
    from qsc.catalog import BoxSpec, box_state
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        state = box_state(BoxSpec(n=2, n_fock=256))
    res = sweep(state, 12, extensions=True)
    for theta, report in zip(res.thetas, res.reports):
        single = fs_complexity(state, float(theta), extensions=True)
        _assert_reports_agree(report, single,
                              ("fisher", "entropy", "cfs", "lmc", "cr"))
        assert report.edge_dominated == single.edge_dominated


def test_sweep_csv_is_the_same_for_any_blas_thread_count():
    # BLAS does the sums over Fock terms; the CSV for identical flags must
    # stay byte-identical whatever thread count OpenBLAS picks
    rng = np.random.default_rng(5)
    literal = "super:" + ",".join(repr(float(x)) for x in rng.normal(size=257))
    src = str(Path(qsc.__file__).resolve().parents[1])

    def csv(**overrides):
        env = dict(os.environ, **overrides)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "qsc", "sweep", literal,
             "--theta-samples", "256"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    inherited = csv()
    assert inherited.count("\n") == 257
    assert csv(OPENBLAS_NUM_THREADS="1") == inherited
    assert csv(OPENBLAS_NUM_THREADS="2") == inherited


def test_box_curve_small_angle_structure():
    # the well state's sharp features live at small angles; past 0.2 the
    # curve flattens out
    import warnings
    from qsc.catalog import BoxSpec, box_state
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        state = box_state(BoxSpec(n=1, n_fock=256))
    res = sweep(state, 64)
    small = [r.cfs for t, r in zip(res.thetas, res.reports) if t < 0.2]
    rest = [r.cfs for t, r in zip(res.thetas, res.reports) if t >= 0.2]
    assert max(small) - min(small) > max(rest) - min(rest)
