"""Reference-free invariants of the two measures, over the 300 states.

    PYTHONPATH=src python tests/invariants.py [--states N] [--no-gfs]
                                              [--json PATH]

The global and the minimum measure are defined independently of the basis,
so a state and its pre-rotations by every phi of PHIS must give the same
gfs and the same mfs.  ``rotate`` is exact in the phases, so a spread
(max - min) / min of the four results is the angle lattice or the search,
never the grid.

The four runs go through two lattice modes, and the script prints a table
for each:

- axis: ``analyze`` and ``min_fs`` as they run, on the lattice about the
  state's mirror axis.  The axis of a real state rotates with it, and so
  does that lattice: every state with an axis, the paper's families
  among them, spreads by rounding alone, whatever the lattice misses;
- plain: every evaluator of the four runs reports no mirror axis, so
  every run takes the plain lattice k pi / n, which the rotated copies
  meet at other points of their curve.  Only this script does so: it
  swaps ``qsc.sweep.evaluator_for`` for the length of the mode.

For every band of term counts K a table gives how many states the band
holds and, of them,

- mfs: how many spread by more than 1e-6 and by more than 1e-10, and the
  worst spread;
- gfs: how many spread by more than ``qsc.sweep.GFS_REL_TOL`` while all
  four runs report ``converged``, and the worst such spread; and how many
  states had a run that did not converge.

A last row, ``paper``, gives the same for the paper's families (PAPER):
the wells ``box:n=1..5``, the squeezed vacua ``gauss:sigma=...`` on the
Fock route, and the superpositions of two and three terms.  With
``--json PATH`` the script also writes both tables, and the spreads of
each paper state, to PATH.

The spreads are a record, not a gate: they name the defects that the
search and convergence fixes must remove, and those fixes quote them
before and after.

It also checks three laws on the 32-angle lattice k pi / 32 of every
state, within LAW_SLACK: Stam's C_FS = I J >= 1, the
Bialynicki-Birula-Mycielski bound S_theta + S_{theta + pi/2} >= 1 + ln pi,
and Cramer-Rao's V I >= 1.  It prints the smallest slack of each and exits
with 1 when a law fails.

The states are the first ``--states`` (default 300) draws of
``np.random.default_rng(12345)``: draw i takes K = rng.integers(2, 65)
terms, real normal coefficients on odd draws and complex ones on even
draws, and is renormalized.  All 300, both modes, take about two minutes,
most of it the gfs runs; ``--no-gfs`` leaves those out.  The paper row
takes about 5 s of that with the gfs runs, and about 1.5 s without, both
modes on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import sys
import warnings

import numpy as np

from qsc.catalog import parse_state_literal
from qsc.functionals import FockEvaluator, report_from_profile
from qsc.state import GRID_POINTS, make_state, rotate
from qsc.sweep import GFS_REL_TOL, analyze, min_fs

MODES = {"axis": "axis lattice: about each state's mirror axis",
         "plain": "plain lattice: k pi / n for every run"}
# the module, which the package's ``sweep`` function hides
SWEEP = importlib.import_module("qsc.sweep")
PHIS = (0.0, 0.37, 1.1, 2.0)
BANDS = ((2, 8), (9, 16), (17, 32), (33, 64))
PAPER = ([f"box:n={n}" for n in range(1, 6)]
         + [f"gauss:sigma={s}" for s in ("0.5", "1", "2", "3", "4")]
         + [f"super:{c}" for c in ("1,1", "1,0,1", "1,0,-1", "1,0,0,0,1")])
MFS_LIMITS = (1e-6, 1e-10)
# the columns of a table: name, width and format of each
COLUMNS = (("K", 7, ""), ("states", 8, ""), ("mfs>1e-6", 10, ""),
           ("mfs>1e-10", 11, ""), ("mfs worst", 11, ".2e"))
GFS_COLUMNS = (("gfs>tol conv", 14, ""), ("gfs worst", 11, ".2e"),
               ("unconv", 8, ""))
LAW_ANGLES = 32
# the rounding slack of tests/test_functionals.py's law checks
LAW_SLACK = 1e-12


def draws(count: int):
    """The first ``count`` states of the seed-12345 rule."""
    rng = np.random.default_rng(12345)
    for i in range(count):
        k = int(rng.integers(2, 65))
        c = (rng.normal(size=k) if i % 2
             else rng.normal(size=k) + 1j * rng.normal(size=k))
        yield make_state(c, renormalize=True)


def spread(values) -> float:
    return (max(values) - min(values)) / min(values)


@contextlib.contextmanager
def lattice(mode: str):
    """Within the block, ``analyze`` and ``min_fs`` run on the lattice of
    ``mode`` (see ``MODES``): as they are for ``axis``; for ``plain`` on
    evaluators whose mirror axis is None."""
    build = SWEEP.evaluator_for

    def plain(state, grid_points=GRID_POINTS):
        ev = build(state, grid_points)
        ev.mirror_axis = None
        return ev

    if mode == "plain":
        SWEEP.evaluator_for = plain
    try:
        yield
    finally:
        SWEEP.evaluator_for = build


def spreads(rotated, gfs: bool) -> dict:
    """The row of one state's pre-rotations ``rotated``: its term count,
    the mfs spread, and with ``gfs`` the gfs spread and whether every run
    converged."""
    row = {"terms": rotated[0].coeffs.shape[0],
           "mfs": spread([min_fs(s)[1] for s in rotated])}
    if gfs:
        runs = [analyze(s) for s in rotated]
        row["gfs"] = spread([r.gfs for r in runs])
        row["converged"] = all(r.converged for r in runs)
    return row


def summary(label: str, band, gfs: bool) -> dict:
    """The table row of the spreads ``band``: its counts and worst
    spreads, keyed by column name."""
    mfs = [r["mfs"] for r in band]
    row = {"K": label, "states": len(band),
           **{name: sum(s > limit for s in mfs)
              for (name, _, _), limit in zip(COLUMNS[2:], MFS_LIMITS)},
           "mfs worst": max(mfs, default=0.0)}
    if gfs:
        conv = [r["gfs"] for r in band if r["converged"]]
        row.update({"gfs>tol conv": sum(s > GFS_REL_TOL for s in conv),
                    "gfs worst": max(conv, default=0.0),
                    "unconv": sum(not r["converged"] for r in band)})
    return row


def table(rows, paper, gfs: bool) -> list[dict]:
    """One row per band of K of the random states' ``rows``, and one of
    the ``paper`` states."""
    return ([summary(f"{lo}-{hi}",
                     [r for r in rows if lo <= r["terms"] <= hi], gfs)
             for lo, hi in BANDS]
            + [summary("paper", paper, gfs)])


def print_table(lines, gfs: bool) -> None:
    columns = COLUMNS + (GFS_COLUMNS if gfs else ())
    print("".join(f"{name:>{w}}" for name, w, _ in columns))
    for line in lines:
        print("".join(f"{line[name]:>{w}{f}}" for name, w, f in columns))


def law_slacks(state) -> tuple[float, float, float]:
    """The smallest slack of Stam, Bialynicki-Birula-Mycielski and
    Cramer-Rao over the angle lattice of ``state``."""
    ev = FockEvaluator(state)
    thetas = [k * math.pi / LAW_ANGLES for k in range(LAW_ANGLES)]
    reports = ev.reports(thetas)
    quarter = LAW_ANGLES // 2
    stam = min(r.cfs - 1.0 for r in reports)
    bbm = min(r.entropy + reports[(k + quarter) % LAW_ANGLES].entropy
              - 1.0 - math.log(math.pi) for k, r in enumerate(reports))
    cr = min(report_from_profile(ev.profile(t), True).cr - 1.0
             for t in thetas)
    return stam, bbm, cr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--states", type=int, default=300)
    parser.add_argument("--no-gfs", action="store_true",
                        help="leave out the gfs runs")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the tables to PATH")
    args = parser.parse_args(argv)
    gfs = not args.no_gfs
    rows = {mode: [] for mode in MODES}
    slacks = []
    for state in draws(args.states):
        rotated = [rotate(state, phi) for phi in PHIS]
        for mode in MODES:
            with lattice(mode):
                rows[mode].append(spreads(rotated, gfs))
        slacks.append(law_slacks(state))
    with warnings.catch_warnings():
        # the wells' projections warn of their trailing weight (README)
        warnings.simplefilter("ignore", RuntimeWarning)
        paper = {text: parse_state_literal(text) for text in PAPER}
    paper_rows = {mode: {} for mode in MODES}
    for text, state in paper.items():
        rotated = [rotate(state, phi) for phi in PHIS]
        for mode in MODES:
            with lattice(mode):
                paper_rows[mode][text] = spreads(rotated, gfs)
    tables = {mode: table(rows[mode], list(paper_rows[mode].values()), gfs)
              for mode in MODES}

    print(f"{args.states} states, pre-rotations by {PHIS}")
    for mode, title in MODES.items():
        print(f"\n{title}")
        print_table(tables[mode], gfs)
    print()
    if args.json:
        with open(args.json, "w") as out:
            json.dump({"states": args.states, "phis": PHIS,
                       "tables": tables, "paper": paper_rows}, out, indent=1)

    failed = False
    for name, values in zip(("Stam C_FS >= 1", "BBM S + S' >= 1 + ln pi",
                             "Cramer-Rao V I >= 1"), zip(*slacks)):
        worst = min(values)
        ok = worst >= -LAW_SLACK
        failed |= not ok
        print(f"{name:<26} smallest slack {worst:.3e}  "
              f"{'ok' if ok else 'FAIL'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
