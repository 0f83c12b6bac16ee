import json
import math
import os
import warnings
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsc
from qsc.catalog import parse_state_literal, superposition_state
from qsc.functionals import (FockEvaluator, ProfileEvaluator, block_rows,
                             evaluator_for, fs_complexity)
from qsc.state import (GRID_POINTS, AnalyticGaussian, _Workspace, make_state,
                       rotate)
from qsc.sweep import (MFS_SCAN, GlobalMeasure, _lattice_cfs, analyze, min_fs,
                       sweep)
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
    assert len(res.thetas) == 8
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
    value = analyze(fock(2)).gfs
    single = fs_complexity(fock(2), 0.0).cfs
    assert value == pytest.approx(single, rel=1e-6)
    assert value == pytest.approx(11.7, rel=5e-3)


def test_global_measure_sign_independent(phi1, phi2):
    assert analyze(phi1).gfs == pytest.approx(
        analyze(superposition_state(2, -INV_SQRT2)).gfs, rel=1e-10)
    assert analyze(phi1).gfs == pytest.approx(GFS_PHI1, rel=1e-5)
    assert analyze(phi2).gfs == pytest.approx(GFS_PHI2, rel=1e-5)


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
    assert analyze(state).gfs == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("alpha", [0.9, 2.2])
def test_rotation_invariance(alpha):
    rng = np.random.default_rng(7)
    state = make_state(rng.normal(size=7) + 1j * rng.normal(size=7),
                       renormalize=True)
    assert analyze(rotate(state, alpha)).gfs == pytest.approx(
        analyze(state).gfs, rel=2e-5)
    base_theta, base_mfs = min_fs(state)
    _, moved_mfs = min_fs(rotate(state, alpha))
    assert moved_mfs == pytest.approx(base_mfs, rel=2e-5)
    # the arg-min shifts by -alpha (mod pi, up to the curve's symmetry):
    # the rotated state's curve at the shifted angle is again the minimum
    ev = FockEvaluator(rotate(state, alpha))
    assert ev.cfs(base_theta - alpha) == pytest.approx(moved_mfs, rel=2e-5)


def test_analyze_bundle_invariants(phi1):
    res = analyze(phi1)
    assert isinstance(res, GlobalMeasure)
    assert res.gfs >= 1.0 - 1e-6
    _, mfs = min_fs(phi1)
    assert mfs >= 1.0 - 1e-6
    assert mfs <= res.gfs + 1e-12
    thetas, values = _lattice_cfs(evaluator_for(phi1), res.resolution)
    assert mfs <= min(values) + 1e-12
    assert res.converged
    assert res.resolution == len(values) == len(thetas)
    assert res.gfs == pytest.approx(np.mean(values), rel=1e-12)


def test_fock_rows_have_equal_global_minimum_single(phi1):
    single = fs_complexity(fock(3), 0.0).cfs
    assert analyze(fock(3)).gfs == pytest.approx(single, rel=1e-6)
    assert min_fs(fock(3))[1] == pytest.approx(single, rel=1e-6)


def test_golden_section_ends_below_float_spacing(monkeypatch):
    # a tolerance below the float spacing of the bracket must still end the
    # search, with the value of the default tolerance: the search of
    # min_fs(fock(1)), run again from its seeds at tol = 1e-300
    module = sys.modules["qsc.sweep"]
    brent, calls = module._brent_min, []

    def recorded(f, seeds, values, tol):
        calls.append((f, seeds, values))
        return brent(f, seeds, values, tol)

    monkeypatch.setattr(module, "_brent_min", recorded)
    default = min_fs(fock(1))[1]
    (f, seeds, values), = calls
    theta, value = brent(f, seeds, values, tol=1e-300)
    assert seeds[0] <= theta <= seeds[2]
    assert value == pytest.approx(default, rel=1e-12)


def _random_state(terms: int, seed: int):
    rng = np.random.default_rng(seed)
    return make_state(rng.normal(size=terms) + 1j * rng.normal(size=terms),
                      renormalize=True)


def _assert_reports_agree(block, single, names=("fisher", "entropy", "cfs")):
    assert block.theta == single.theta
    for name in names:
        assert getattr(block, name) == pytest.approx(
            getattr(single, name), rel=1e-13), name


def _box_n2():
    import warnings
    from qsc.catalog import BoxSpec, box_state
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return box_state(BoxSpec(n=2, n_fock=256))


@pytest.mark.parametrize("make", [lambda: _random_state(257, 17), _box_n2,
                                  lambda: AnalyticGaussian(2.0)],
                         ids=["super257", "box_n2", "analytic_gauss"])
def test_block_reports_match_single_angle_reports(make):
    # a lattice that ends on a partial block, for each state family
    state = make()
    rows = block_rows(GRID_POINTS)
    n_theta = 2 * rows + 3
    assert n_theta % rows != 0
    res = sweep(state, n_theta)
    for theta, report in zip(res.thetas, res.reports):
        _assert_reports_agree(report, fs_complexity(state, float(theta)))


@pytest.fixture
def workspaces(monkeypatch):
    """The (rows, points) of every workspace built while the test runs."""
    built = []
    init = _Workspace.__init__

    def counting_init(self, rows, points):
        built.append((rows, points))
        init(self, rows, points)
    monkeypatch.setattr(_Workspace, "__init__", counting_init)
    return built


@pytest.mark.parametrize("make", [lambda: _random_state(9, 4),
                                  lambda: AnalyticGaussian(2.0)],
                         ids=["super9", "analytic_gauss"])
def test_one_workspace_per_lattice_fill(make, workspaces):
    ev = evaluator_for(make())
    workspaces.clear()          # the Gaussian's own mass check
    points = ev.grid.count
    rows = block_rows(points)
    lattice = [k * math.pi / (2 * rows + 3) for k in range(2 * rows + 3)]
    ev.reports(lattice)
    assert workspaces == [(rows, points)]
    ev.reports(lattice)                     # every angle memoized
    ev.reports(lattice[:5])
    assert workspaces == [(rows, points)]
    ev.reports(lattice + [0.1, 0.2, 0.3])   # three missing angles
    assert workspaces == [(rows, points), (3, points)]


def test_profile_outlives_later_lattice_fills():
    ev = evaluator_for(_random_state(9, 4))
    prof = ev.profile(0.3)
    before = [prof.rho.copy(), prof.current.copy()]
    rows = block_rows(ev.grid.count)
    ev.reports([0.3] + [k * math.pi / (2 * rows + 3)
                        for k in range(2 * rows + 3)])
    for kept, now in zip(before, (prof.rho, prof.current)):
        np.testing.assert_array_equal(now, kept)


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


def _literal(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # box trailing weight
        return parse_state_literal(text)


def _real_state(terms: int, seed: int):
    rng = np.random.default_rng(seed)
    return make_state(rng.normal(size=terms), renormalize=True)


def _rotated_real_state(terms: int, seed: int):
    rng = np.random.default_rng(seed)
    state = make_state(rng.normal(size=terms), renormalize=True)
    return rotate(state, float(rng.uniform(0.0, math.pi)))


MIRRORED = {
    "super_101": lambda: _literal("super:1,0,1"),
    "super_1_2i_3": lambda: _literal("super:1,2i,3"),
    "box_n3": lambda: _literal("box:n=3"),
    "gauss_fock": lambda: _literal("gauss:sigma=3"),
    "gauss_analytic": lambda: _literal("gauss:sigma=3,analytic"),
    "real64": lambda: _real_state(64, 11),
    "real64_rotated": lambda: _rotated_real_state(64, 11),
}


@pytest.mark.parametrize("name", sorted(MIRRORED))
def test_mirror_axis_is_a_symmetry_of_the_curve(name):
    ev = evaluator_for(MIRRORED[name]())
    axis = ev.mirror_axis
    assert axis is not None and 0.0 <= axis < math.pi / 2
    for t in np.linspace(0.0, math.pi / 2, 9)[1:-1]:
        # both sides evaluated directly, not through the mirror
        assert ev.cfs(axis + t) == pytest.approx(ev.cfs(axis - t), rel=1e-10)


def test_real_states_keep_the_plain_lattice():
    assert evaluator_for(_real_state(64, 11)).mirror_axis == 0.0
    axis = evaluator_for(_rotated_real_state(64, 11)).mirror_axis
    assert axis > 0.0


def test_a_state_without_mirror_axis():
    assert evaluator_for(_literal("super:1,1+1i,1")).mirror_axis is None


def test_gfs_evaluates_half_the_lattice(monkeypatch):
    ev = evaluator_for(_rotated_real_state(6, 3))
    monkeypatch.setattr(sys.modules["qsc.sweep"], "evaluator_for",
                        lambda state, grid_points: ev)
    resolution = analyze(ev.state).resolution
    # the coarser lattices reuse the angles of the finest one
    assert len(ev._cache) == resolution // 2 + 1


def test_analyze_walks_each_gfs_lattice_once(monkeypatch):
    # each lattice of the refinement is walked once, the last one for the
    # global measure itself
    sizes = []
    walk = sys.modules["qsc.sweep"]._lattice_cfs

    def counting_walk(ev, n):
        sizes.append(n)
        return walk(ev, n)
    monkeypatch.setattr(sys.modules["qsc.sweep"], "_lattice_cfs",
                        counting_walk)
    assert analyze(_literal("super:1,0,1")).resolution == 1024
    assert sizes == [32, 64, 128, 256, 512, 1024]


def test_pre_rotation_leaves_gfs_and_mfs_unchanged_to_rounding():
    rng = np.random.default_rng(23)
    state = make_state(rng.normal(size=64), renormalize=True)
    moved = rotate(state, float(rng.uniform(0.0, math.pi)))
    base, turned = analyze(state), analyze(moved)
    assert turned.resolution == base.resolution
    assert turned.gfs == pytest.approx(base.gfs, rel=1e-12)
    assert min_fs(moved)[1] == pytest.approx(min_fs(state)[1], rel=1e-12)


def test_gfs_without_axis_is_the_full_lattice_mean():
    state = _literal("super:1,1+1i,1")
    res = analyze(state)
    n = res.resolution
    lattice = [(k * math.pi) / n for k in range(n)]
    ev = evaluator_for(state)
    assert res.gfs == pytest.approx(
        float(np.mean([r.cfs for r in ev.reports(lattice)])), rel=1e-13)


def test_analyze_reports_match_a_direct_full_lattice():
    # the mirrored values of the last gfs lattice against the cfs
    # evaluated on every angle of it
    state = _rotated_real_state(6, 3)
    ev = evaluator_for(state)
    assert ev.mirror_axis > 0.0
    res = analyze(state)
    thetas, mirrored = _lattice_cfs(ev, res.resolution)
    direct = [r.cfs for r in evaluator_for(state).reports(thetas)]
    assert len(direct) == len(mirrored) == res.resolution
    assert mirrored == pytest.approx(direct, rel=1e-12)


def test_analyze_builds_no_reports(monkeypatch):
    # analyze reads the mirrored half of its lattice as values: it builds
    # no report of its own
    def refused(**fields):
        raise AssertionError("analyze built a report")
    monkeypatch.setattr(sys.modules["qsc.sweep"], "ComplexityReport", refused)
    state = _rotated_real_state(6, 3)
    assert evaluator_for(state).mirror_axis > 0.0
    assert isinstance(analyze(state), GlobalMeasure)


# the one random state of 1500 whose curve is a comb of local minima on
# [0.12, 0.30] at the default grid (renormalized by the parser)
COMB = ("super:0.3883601725277836,-0.12022315007569699,0.5085745906024571,"
        "-1.9762924667807011,-0.5529532314538401,-0.24549903237905,"
        "-0.2191963564402742")


@pytest.mark.parametrize("make", [lambda: _literal(COMB),
                                  lambda: _random_state(32, 9),
                                  lambda: _random_state(48, 71),
                                  lambda: _real_state(64, 11)],
                         ids=["comb", "complex32", "complex48", "real64"])
def test_min_fs_is_never_above_its_scan_and_is_the_curve_at_its_angle(make):
    state = make()
    theta_star, mfs = min_fs(state)
    ev = evaluator_for(state)
    scan = _lattice_cfs(ev, MFS_SCAN)[1]
    assert mfs <= min(scan)
    assert ev.cfs(theta_star) == pytest.approx(mfs, rel=1e-12)


def test_refinement_makes_few_single_angle_evaluations(monkeypatch):
    # Brent's method from the fine lattice's best sample; measured at most
    # 5 on these states and 4 on super:1,0,1 (golden section made 25).
    # Curves within about 1e-9 of C_FS = 1 are flat to rounding near their
    # minimum, where the parabola has nothing to fit and golden steps take
    # over: up to 13 in 1000 real 2-8-term draws.
    calls = []
    cfs = ProfileEvaluator.cfs

    def counting_cfs(ev, theta):
        calls.append(theta)
        return cfs(ev, theta)
    monkeypatch.setattr(ProfileEvaluator, "cfs", counting_cfs)
    rng = np.random.default_rng(5)
    states = [make_state(rng.normal(size=int(rng.integers(2, 9))),
                         renormalize=True) for _ in range(20)]
    for state in [_literal("super:1,0,1")] + states:
        calls.clear()
        min_fs(state)
        assert 1 <= len(calls) <= 10


def _golden_reference(f, lo, hi, tol):
    """The lowest value golden section sees on [lo, hi], down to ``tol``."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    best = min(fc, fd)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = f(c)
            best = min(best, fc)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
            best = min(best, fd)
    return best


def _draws(count: int):
    """The first ``count`` states of the seed-12345 rule: K = 2..64 terms,
    real coefficients on odd draws and complex ones on even draws."""
    rng = np.random.default_rng(12345)
    for i in range(count):
        k = int(rng.integers(2, 65))
        c = (rng.normal(size=k) if i % 2
             else rng.normal(size=k) + 1j * rng.normal(size=k))
        yield make_state(c, renormalize=True)


def test_min_fs_against_an_in_bracket_reference():
    # The reference scans 513 angles over the two scan cells around the best
    # scan sample theta_k, on the same evaluator and grid, then searches
    # its best cell to 1e-10: it isolates the error of the search within
    # the bracket min_fs refines.  On these 40 draws min_fs sits more than
    # 1e-10 relative above it on 2 states, by at most 2.85e-5 (draw 31, in
    # the other of two basins 8.6e-3 apart); golden section in the two scan
    # cells missed 3, by up to 5.1e-5.  The bound keeps a 40 percent margin
    # on the measured worst gap.
    gaps = []
    for state in _draws(40):
        _, mfs = min_fs(state)
        ev = evaluator_for(state)
        thetas, values = _lattice_cfs(ev, MFS_SCAN)
        k = int(np.argmin(values))
        h = math.pi / (MFS_SCAN * 256)
        lattice = [thetas[k] + i * h for i in range(-256, 257)]
        samples = [r.cfs for r in ev.reports(lattice)]
        b = int(np.argmin(samples))
        reference = min(samples[b], _golden_reference(
            ev.cfs, lattice[b] - h, lattice[b] + h, 1e-10))
        gaps.append((mfs - reference) / reference)
    assert min(gaps) > -1e-13
    assert sum(gap > 1e-10 for gap in gaps) <= 2
    assert max(gaps) <= 4e-5


def test_invariants_script_runs_on_its_first_states(capsys, tmp_path):
    # tests/invariants.py is run by hand on all 300 states; its first three
    # keep it working without the gfs runs: every law holds, a line per
    # band of K and one of the paper's 14 states in the table of each
    # lattice mode, and the same tables as JSON (about 1.5 s)
    import invariants
    path = tmp_path / "invariants.json"
    assert invariants.main(["--states", "3", "--no-gfs",
                            "--json", str(path)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert all(title in lines for title in invariants.MODES.values())
    firsts = [line.split()[0] for line in lines if line.strip()]
    labels = [f"{lo}-{hi}" for lo, hi in invariants.BANDS] + ["paper"]
    assert all(firsts.count(label) == len(invariants.MODES)
               for label in labels)
    assert "Cramer-Rao" in out
    saved = json.loads(path.read_text())
    for mode in invariants.MODES:
        table = saved["tables"][mode]
        assert [row["K"] for row in table] == labels
        assert sum(row["states"] for row in table[:-1]) == 3
        assert table[-1]["states"] == len(invariants.PAPER) == 14
        assert list(saved["paper"][mode]) == invariants.PAPER
    # the plain mode leaves the package's evaluators as it found them
    assert invariants.SWEEP.evaluator_for is evaluator_for
