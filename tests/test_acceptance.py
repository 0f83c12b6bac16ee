"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest -s` to see the lines).

Criteria 2-4 check the superposition states (|0> +- |m>)/sqrt(2) for m = 2, 4
against ``two_term_cfs``, a small oracle in this file that shares no code
with the pipeline, and each published number against the state it belongs
to:

* criteria 2 and 3 (x and p endpoints): the stated states' endpoints match
  the oracle, and the published 2.32 / 2.95 and 6.79763 / 9.26409 are the
  endpoints of (|0> +- e^{i pi/3}|m>)/sqrt(2), held to their original
  tolerances.  Where that phase comes from is not settled by the material
  in this repository.  Criterion 2 also keeps its cross-swap, criterion 3
  the equal endpoints that a quarter turn gives for m = 4;
* criterion 4 (global measure): the swept angle average matches the
  defining integral (1/pi) int_0^pi C_FS d(theta), computed by the oracle.
  The published 2.53 / 7.63 belong to no state: the average does not
  depend on the relative phase, and no other averaging of the curve gives
  them.

Criterion 7 still fails.  It asks for 1 percent at truncation 256, where the
projection error of the kinked well eigenstate is about 3 percent; the error
falls like n_fock**-1/2, and not monotonically for every n.  No faithful
correction is settled, so it is kept exactly as stated; see README, "Known
discrepancies".
"""

import cmath
import math
import time
import warnings

import numpy as np
import pytest

from qsc.catalog import (BoxSpec, box_cfs_momentum, box_cfs_position,
                         box_state, choose_squeezed_truncation,
                         squeezed_vacuum_fock, superposition_state)
from qsc.frft import equivalence_failures
from qsc.functionals import FockEvaluator, fs_complexity
from qsc.state import AnalyticGaussian, make_state, rotate
from qsc.sweep import analyze, min_fs, sweep
from conftest import INV_SQRT2, fock

TABLE1 = (5.15, 11.7, 20.5, 31.3, 44.2, 59.0, 75.7, 94.3, 114.0, 137.0)
SIGMAS = (0.25, 0.5, 1.0, 2.0, 4.0)
THETAS = (0.0, math.pi / 8, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
SIGNS = (+1, -1)
ENDPOINTS = (0.0, math.pi / 2)
PUBLISHED_PHASE = math.pi / 3

# Independent oracle for the two-term states (|0> + e^{i alpha}|m>)/sqrt(2).
# Rotating the observable by theta multiplies c_m by e^{i m theta}, so at
# angle theta such a state has the position density of relative phase
# alpha + m theta,
#     rho = (psi_0^2 + psi_m^2 + 2 cos(alpha) psi_0 psi_m) / 2.
# psi_0 and psi_m come from numpy's Hermite polynomials and the integrals
# from a plain uniform grid: nothing here goes through qsc.hermite,
# qsc.state or qsc.functionals.  With rho' = 2 Re(psi* psi')
# the Fisher integrand is bounded by 4 |psi'|^2, its limit at a node.  Where
# the real wavefunction at alpha = 0 or pi has nodes, the density near that
# alpha dips almost to zero over a width that shrinks with sin(alpha);
# 16001 points on [-9, 9] resolve the dips at the 16 Gauss-Legendre phase
# nodes of the angle average (4001 points would not, and would be off by up
# to 2e-5).  The whole oracle runs in milliseconds.
#
# ORACLE_VALUES (C_FS at alpha = 0, pi, pi/3, 2 pi/3) and ORACLE_AVERAGES
# ((1/pi) int_0^pi C_FS d(alpha)) were cross-checked by 20-digit mpmath
# quadrature split at the dips (20 phase nodes for the averages), which
# agrees to 2e-10 relative; 32-256 phase nodes on grids of 4e5-1.6e6 points
# give the same averages to 3e-11.  alpha = 0 and pi are the stated states;
# pi/3 and 2 pi/3 are the x and p endpoints of (|0> +- e^{i pi/3}|m>)/sqrt(2),
# where the published values lie.  The sweep's averages are 2.918598 and
# 8.795635.
ORACLE_GRID = np.linspace(-9.0, 9.0, 16001)
ORACLE_PHASE_NODES = 16
ORACLE_VALUES = {
    2: (3.5726127576, 3.8624534774, 2.3239219662, 2.9538888539),
    4: (7.8354318914, 14.1642418709, 6.7976272573, 9.2640853371),
}
ORACLE_AVERAGES = {2: 2.9185929347, 4: 8.7955566748}


def hermite_function(n, x):
    """psi_n(x) and psi_n'(x) from the closed-form Hermite polynomial H_n."""
    coef = np.zeros(n + 1)
    coef[n] = 1.0
    scale = np.exp(-0.5 * x * x) / math.sqrt(
        2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
    h = np.polynomial.hermite.hermval(x, coef)
    dh = np.polynomial.hermite.hermval(x, np.polynomial.hermite.hermder(coef))
    return h * scale, (dh - x * h) * scale


def two_term_cfs(m, alpha):
    """Position-space C_FS of (|0> + e^{i alpha}|m>)/sqrt(2), one value per
    entry of ``alpha``.  The integrands vanish at the grid ends to below
    1e-27, so the trapezoid rule is the plain sum."""
    x = ORACLE_GRID
    dx = x[1] - x[0]
    psi0, dpsi0 = hermite_function(0, x)
    psim, dpsim = hermite_function(m, x)
    phase = np.exp(1j * np.atleast_1d(alpha))[:, None]
    psi = (psi0 + phase * psim) * INV_SQRT2
    dpsi = (dpsi0 + phase * dpsim) * INV_SQRT2
    rho = np.abs(psi) ** 2
    drho = 2.0 * np.real(np.conj(psi) * dpsi)
    inside = rho > 0.0
    safe = np.where(inside, rho, 1.0)
    fisher = dx * np.sum(np.where(inside, drho ** 2 / safe,
                                  4.0 * np.abs(dpsi) ** 2), axis=1)
    entropy = -dx * np.sum(rho * np.log(safe), axis=1)
    return fisher * np.exp(2.0 * entropy) / (2.0 * math.pi * math.e)


def two_term_gfs(m):
    """(1/pi) int_0^pi C_FS d(alpha), Gauss-Legendre in the phase.  For even
    m, theta in [0, pi) carries alpha + m theta over m/2 periods of a
    2 pi-periodic curve that is even in alpha, so this is the angle average
    of every (|0> + e^{i alpha}|m>)/sqrt(2), whatever alpha is."""
    u, w = np.polynomial.legendre.leggauss(ORACLE_PHASE_NODES)
    return float(w @ two_term_cfs(m, 0.5 * math.pi * (u + 1.0))) / 2.0


def two_term_state(m, sign, phase):
    """(|0> + sign e^{i phase}|m>)/sqrt(2)."""
    coeffs = np.zeros(m + 1, dtype=complex)
    coeffs[0] = INV_SQRT2
    coeffs[m] = sign * cmath.exp(1j * phase) * INV_SQRT2
    return make_state(coeffs)


def endpoint_values(states, m):
    return {(s, th): fs_complexity(states[(m, s)], th).cfs
            for s in SIGNS for th in ENDPOINTS}


def oracle_gap(stated, m):
    """Worst relative gap between the stated states' endpoints and the
    oracle; superposition_state(m, s/sqrt(2)) has relative phase 0 (s = +1)
    or pi (s = -1)."""
    return max(abs(v / float(two_term_cfs(m, (0.0 if s > 0 else math.pi)
                                          + m * th)[0]) - 1.0)
               for (s, th), v in stated.items())


def criterion(num, ok, detail):
    print(f"ACCEPTANCE criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def phi_states():
    return {(m, s): superposition_state(m, s * INV_SQRT2)
            for m in (2, 4) for s in (+1, -1)}


@pytest.fixture(scope="module")
def published_states():
    return {(m, s): two_term_state(m, s, PUBLISHED_PHASE)
            for m in (2, 4) for s in SIGNS}


@pytest.fixture(scope="module")
def box_states():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return {n: box_state(BoxSpec(n=n, n_fock=256)) for n in range(1, 6)}


@pytest.fixture(scope="module")
def box_analyses(box_states):
    return {n: analyze(state) for n, state in box_states.items()}


def test_c01_fock_row_reproduction():
    start = time.perf_counter()
    computed = [fs_complexity(fock(n), 0.0).cfs for n in range(1, 11)]
    elapsed = time.perf_counter() - start
    rel = [abs(c - ref) / ref for c, ref in zip(computed, TABLE1)]
    ok = max(rel) <= 0.01 and elapsed < 5.0
    criterion(1, ok, f"ten rows, max rel delta {max(rel):.2e}, {elapsed:.2f}s")


def test_two_term_oracle_matches_reference_quadrature():
    worst = 0.0
    for m in (2, 4):
        alphas = (0.0, math.pi, math.pi / 3, 2 * math.pi / 3)
        for got, ref in zip(two_term_cfs(m, alphas), ORACLE_VALUES[m]):
            worst = max(worst, abs(got / ref - 1.0))
        worst = max(worst, abs(two_term_gfs(m) / ORACLE_AVERAGES[m] - 1.0))
    assert worst <= 1e-7


def test_c02_phi1_endpoints(phi_states, published_states):
    stated = endpoint_values(phi_states, 2)
    published = endpoint_values(published_states, 2)
    refs = {(+1, 0.0): 2.32, (+1, math.pi / 2): 2.95,
            (-1, 0.0): 2.95, (-1, math.pi / 2): 2.32}
    gap = oracle_gap(stated, 2)
    worst = max(abs(published[k] - ref) for k, ref in refs.items())
    swap = max(max(abs(v[(+1, 0.0)] - v[(-1, math.pi / 2)]),
                   abs(v[(+1, math.pi / 2)] - v[(-1, 0.0)]))
               for v in (stated, published))
    ok = gap <= 1e-6 and worst <= 0.01 and swap <= 1e-6
    criterion(2, ok,
              f"stated {stated[(+1, 0.0)]:.5f}/{stated[(+1, math.pi / 2)]:.5f} "
              f"vs oracle to {gap:.1e}; e^(i pi/3) states "
              f"{published[(+1, 0.0)]:.5f}/{published[(+1, math.pi / 2)]:.5f} "
              f"vs 2.32/2.95 (cross-swap exact to {swap:.1e})")


def test_c03_phi2_endpoints(phi_states, published_states):
    stated = endpoint_values(phi_states, 4)
    published = endpoint_values(published_states, 4)
    refs = {+1: 6.79763, -1: 9.26409}
    gap = oracle_gap(stated, 4)
    worst = max(abs(v - refs[s]) for (s, _), v in published.items())
    # a quarter turn multiplies c_4 by e^{2 pi i}: the x and p values agree
    turn = max(abs(v[(s, 0.0)] - v[(s, math.pi / 2)])
               for v in (stated, published) for s in SIGNS)
    ok = gap <= 1e-6 and worst <= 1e-3 and turn <= 1e-6
    criterion(3, ok,
              f"stated {stated[(+1, 0.0)]:.5f}/{stated[(-1, 0.0)]:.5f} "
              f"vs oracle to {gap:.1e}; e^(i pi/3) states "
              f"{published[(+1, 0.0)]:.5f}/{published[(-1, 0.0)]:.5f} vs "
              f"6.79763/9.26409, worst delta {worst:.4f} (x = p to {turn:.1e})")


def test_c04_global_measures(phi_states):
    refs = {m: two_term_gfs(m) for m in (2, 4)}
    worst = 0.0
    sign_gap = 0.0
    values = {}
    for m in (2, 4):
        pair = [analyze(phi_states[(m, s)]).gfs for s in SIGNS]
        sign_gap = max(sign_gap, abs(pair[0] - pair[1]))
        values[m] = pair[0]
        worst = max(worst, abs(pair[0] - refs[m]), abs(pair[1] - refs[m]))
    ok = worst <= 0.01 and sign_gap <= 1e-6
    criterion(4, ok, f"computed {values[2]:.5f}/{values[4]:.5f} vs defining "
                     f"integral {refs[2]:.5f}/{refs[4]:.5f} "
                     f"(sign-independent to {sign_gap:.1e})")


def test_c05_minimum_measures(phi_states):
    refs = {2: 2.25, 4: 6.79}
    worst = 0.0
    sign_gap = 0.0
    values = {}
    for m in (2, 4):
        pair = [min_fs(phi_states[(m, s)])[1] for s in (+1, -1)]
        sign_gap = max(sign_gap, abs(pair[0] - pair[1]))
        values[m] = pair[0]
        worst = max(worst, abs(pair[0] - refs[m]), abs(pair[1] - refs[m]))
    ok = worst <= 0.01 and sign_gap <= 1e-6
    criterion(5, ok, f"computed {values[2]:.5f}/{values[4]:.5f} vs 2.25/6.79 "
                     f"(sign-independent to {sign_gap:.1e})")


def test_c06_gaussian_lemma():
    worst_point = 0.0
    worst_sweep = 0.0
    for sigma in SIGMAS:
        analytic = AnalyticGaussian(sigma)
        fockroute = squeezed_vacuum_fock(sigma, choose_squeezed_truncation(sigma))
        for source in (analytic, fockroute):
            for theta in THETAS:
                worst_point = max(worst_point,
                                  abs(fs_complexity(source, theta).cfs - 1.0))
            worst_sweep = max(worst_sweep, abs(analyze(source).gfs - 1.0),
                              abs(min_fs(source)[1] - 1.0))
    ok = worst_point <= 1e-5 and worst_sweep <= 1e-5
    criterion(6, ok, f"5 sigmas x 5 angles x 2 routes, worst |cfs-1| "
                     f"{worst_point:.1e}; worst |GFS/MFS - 1| {worst_sweep:.1e}")


def test_c07_box_position_closed_form(box_states):
    rel = {n: abs(fs_complexity(box_states[n], 0.0).cfs - box_cfs_position(n))
           / box_cfs_position(n) for n in range(1, 6)}
    ok = max(rel.values()) <= 0.01
    criterion(7, ok, "rel deltas at truncation 256: "
              + ", ".join(f"n={n}:{r:.3f}" for n, r in rel.items()))


def test_c08_box_momentum_side_by_side(box_states):
    rows = []
    sane = True
    all_within = True
    for n in range(1, 6):
        pipeline = fs_complexity(box_states[n], math.pi / 2).cfs
        formula = box_cfs_momentum(n)
        rel = abs(pipeline - formula) / formula
        sane = sane and pipeline >= 1.0 - 1e-6 and math.isfinite(formula)
        all_within = all_within and rel <= 0.02
        rows.append(f"n={n}: pipeline {pipeline:.5f} vs formula {formula:.5f}")
    reported = not all_within
    if reported:
        # the stated fallback: when the two routes disagree beyond tolerance
        # the discrepancy is reported side by side, pipeline as ground truth
        for row in rows:
            print("  momentum side-by-side:", row)
    criterion(8, sane and (all_within or reported),
              "within 2%" if all_within else
              f"formula diverges from pipeline; {len(rows)} rows reported side-by-side")


def test_c09_box_measures_monotone(box_states, box_analyses):
    gfs = [box_analyses[n].gfs for n in range(1, 6)]
    mfs = [min_fs(box_states[n])[1] for n in range(1, 6)]
    increasing = (all(b > a for a, b in zip(gfs, gfs[1:]))
                  and all(b > a for a, b in zip(mfs, mfs[1:])))
    dominated = all(m <= g + 1e-12 for m, g in zip(mfs, gfs))
    criterion(9, increasing and dominated,
              f"GFS {gfs[0]:.2f}..{gfs[-1]:.2f} and MFS {mfs[0]:.2f}..{mfs[-1]:.2f} "
              "both increasing, MFS <= GFS")


def test_c10_property_suite(phi_states, box_states, box_analyses):
    problems = []

    # rotation invariance of the basis-independent measures
    rng = np.random.default_rng(7)
    state = make_state(rng.normal(size=7) + 1j * rng.normal(size=7),
                       renormalize=True)
    base = analyze(state)
    moved = analyze(rotate(state, 0.9))
    if abs(moved.gfs - base.gfs) > 2e-5 * base.gfs:
        problems.append(f"GFS rotation drift {abs(moved.gfs - base.gfs):.2e}")
    base_mfs, moved_mfs = min_fs(state)[1], min_fs(rotate(state, 0.9))[1]
    if abs(moved_mfs - base_mfs) > 2e-5 * base_mfs:
        problems.append(f"MFS rotation drift {abs(moved_mfs - base_mfs):.2e}")

    # pi/m conjugation shift, pointwise
    for m in (2, 4):
        evp = FockEvaluator(phi_states[(m, +1)])
        evm = FockEvaluator(phi_states[(m, -1)])
        gap = max(abs(evm.cfs(k * math.pi / 32) - evp.cfs(k * math.pi / 32 + math.pi / m))
                  for k in range(32))
        if gap > 1e-6:
            problems.append(f"pi/{m} shift gap {gap:.2e}")

    # kernel oracle vs phase pipeline, 20 seeded states
    failures = equivalence_failures()
    if failures:
        problems.append(f"{len(failures)} oracle mismatches")

    # isoperimetric bound over everything computed here
    # the box curves on the last lattice of each global measure
    reports = [r for n, state in box_states.items()
               for r in sweep(state, box_analyses[n].resolution).reports]
    reports += [fs_complexity(phi_states[(m, s)], th)
                for m in (2, 4) for s in (+1, -1) for th in THETAS]
    low = min(r.cfs for r in reports)
    if low < 1.0 - 1e-6:
        problems.append(f"isoperimetric breach: min cfs {low:.8f}")

    # grid-doubling stability of the criterion-1 values
    for n in range(1, 11):
        coarse = fs_complexity(fock(n), 0.0, grid_points=4096).cfs
        fine = fs_complexity(fock(n), 0.0, grid_points=8192).cfs
        if abs(fine - coarse) > 1e-6 * coarse:
            problems.append(f"grid-doubling drift at n={n}")

    criterion(10, not problems,
              "rotation invariance, conjugation shift, kernel oracle, "
              "isoperimetric bound, grid doubling"
              + ("" if not problems else f" -- {problems}"))
