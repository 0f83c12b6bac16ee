"""Command-line surface.

Exit codes partition the failure modes for scripting: 2 for parse errors
(bad literals, unknown flags), 3 for numerics errors, 4 for unwritable
output paths, 1 for a failed reproduction/selftest run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import re
import sys

from .catalog import (BoxSpec, box_cfs_momentum, box_cfs_position, box_state,
                      parse_state_literal, superposition_state)
from .errors import NumericsError, ParseError
from .frft import equivalence_failures
from .functionals import (DEFAULT_NUMERICS, Numerics, evaluator_for,
                          fs_complexity)
from .sweep import analyze, min_fs, sweep

INV_SQRT2 = 1.0 / math.sqrt(2.0)
# A negative number as argparse should read it, a flag's value and not a
# flag: its own pattern misses the exponent form, as in --theta -1e-3
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _print_json(payload) -> None:
    """Print strict JSON: a NaN or infinity is a numerics error, never output."""
    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError:
        raise NumericsError("result is not finite") from None
    print(text)


def _numerics(args) -> Numerics:
    """Numerics of the flags the command takes, defaults for the rest."""
    given = {f.name: getattr(args, f.name)
             for f in dataclasses.fields(Numerics) if hasattr(args, f.name)}
    try:
        return Numerics(**given)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _add_numerics(p: argparse.ArgumentParser, gfs: bool = False,
                  mfs: bool = False) -> None:
    """The grid resolution, and the tolerance of the global measure's
    refinement or of the minimum search for a command that runs it."""
    d = DEFAULT_NUMERICS
    p.add_argument("--grid-points", type=int, default=d.grid_points,
                   help="grid resolution M (default %(default)s)")
    if gfs:
        p.add_argument("--gfs-rel-tol", type=float, default=d.gfs_rel_tol,
                       help="relative tolerance of the global-measure "
                            "refinement")
    if mfs:
        p.add_argument("--mfs-theta-tol", type=float,
                       default=d.mfs_theta_tol,
                       help="angle tolerance of the minimum search")


def cmd_measure(args) -> int:
    if not math.isfinite(args.theta):
        raise ParseError(f"--theta must be finite, got {args.theta!r}")
    numerics = _numerics(args)
    state = parse_state_literal(args.state, numerics.grid_points)
    report = fs_complexity(state, args.theta, numerics, extensions=True)
    _print_json({**dataclasses.asdict(report),
                 "extension_measures_flag": "lmc,cr"})
    return 0


def _sweep_csv(result) -> str:
    """The sweep as CSV; as in ``_print_json``, NaN or inf is an error."""
    lines = ["theta,fisher,entropy,entropy_power,cfs"]
    for theta, rep in zip(result.thetas, result.reports):
        row = (theta, rep.fisher, rep.entropy, rep.entropy_power, rep.cfs)
        if not all(map(math.isfinite, row)):
            raise NumericsError("result is not finite")
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _sweep_svg(thetas, values) -> str:
    width, height, pad = 640, 400, 60
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    lo -= 0.05 * span
    hi += 0.05 * span
    span = hi - lo

    def sx(t):
        return pad + (width - 2 * pad) * t / math.pi

    def sy(v):
        return height - pad - (height - 2 * pad) * (v - lo) / span

    pts = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(thetas, values))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>\n'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>\n'
        f'<text x="{width // 2}" y="{height - pad // 4}" '
        f'text-anchor="middle">theta</text>\n'
        f'<text x="{pad // 3}" y="{height // 2}" text-anchor="middle" '
        f'transform="rotate(-90 {pad // 3} {height // 2})">cfs</text>\n'
        f'<text x="{pad}" y="{height - pad + 20}" text-anchor="middle">0</text>\n'
        f'<text x="{width - pad}" y="{height - pad + 20}" '
        f'text-anchor="middle">pi</text>\n'
        f'<text x="{pad - 8}" y="{sy(max(values)):.0f}" '
        f'text-anchor="end">{_fmt(max(values))}</text>\n'
        f'<text x="{pad - 8}" y="{sy(min(values)):.0f}" '
        f'text-anchor="end">{_fmt(min(values))}</text>\n'
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" '
        f'points="{pts}"/>\n'
        f'</svg>\n')


def cmd_sweep(args) -> int:
    numerics = _numerics(args)
    state = parse_state_literal(args.state, numerics.grid_points)
    try:
        result = sweep(state, args.theta_samples, numerics)
    except ValueError as exc:       # too few or too many samples
        raise ParseError(str(exc)) from None
    csv = _sweep_csv(result)
    # every output path is opened before any output is written
    with contextlib.ExitStack() as stack:
        out = (stack.enter_context(open(args.out, "w", newline=""))
               if args.out else sys.stdout)
        svg = stack.enter_context(open(args.svg, "w")) if args.svg else None
        out.write(csv)
        if svg is not None:
            values = [r.cfs for r in result.reports]
            svg.write(_sweep_svg(list(result.thetas), values))
    return 0


def cmd_gfs(args) -> int:
    numerics = _numerics(args)
    state = parse_state_literal(args.state, numerics.grid_points)
    _print_json(dataclasses.asdict(analyze(state, numerics)))
    return 0


def cmd_mfs(args) -> int:
    numerics = _numerics(args)
    state = parse_state_literal(args.state, numerics.grid_points)
    theta_star, value = min_fs(state, numerics)
    _print_json({"mfs": value, "theta_star": theta_star})
    return 0


# reference values: Fock-row complexities, superposition endpoints, global
# and minimum measures, and the closed-form box law
TABLE1 = (5.15, 11.7, 20.5, 31.3, 44.2, 59.0, 75.7, 94.3, 114.0, 137.0)
SECTIONS = ("table1", "phi", "global", "minimum", "box")


def _reference_rows(numerics: Numerics, sections):
    rows = []

    def add(row_id, reference, computed, tol, kind):
        delta = abs(computed - reference)
        limit = tol * abs(reference) if kind == "rel" else tol
        rows.append({"id": row_id, "reference": reference, "computed": computed,
                     "rel_delta": delta / abs(reference),
                     "ok": bool(delta <= limit),
                     "tolerance": tol, "kind": kind})

    if "table1" in sections:
        for n, ref in enumerate(TABLE1, start=1):
            add(f"table1:fock_{n}", ref,
                fs_complexity(parse_state_literal(f"fock:{n}"), 0.0,
                              numerics).cfs, 0.01, "rel")
    if "phi" in sections:
        phi1 = {s: superposition_state(2, s * INV_SQRT2) for s in (+1, -1)}
        phi2 = {s: superposition_state(4, s * INV_SQRT2) for s in (+1, -1)}
        for sign, tag in ((+1, "plus"), (-1, "minus")):
            ev = evaluator_for(phi1[sign], numerics)
            ref0, ref90 = (2.32, 2.95) if sign > 0 else (2.95, 2.32)
            add(f"phi1_{tag}:theta=0", ref0, ev.cfs(0.0), 0.01, "abs")
            add(f"phi1_{tag}:theta=pi/2", ref90, ev.cfs(math.pi / 2.0),
                0.01, "abs")
            ev = evaluator_for(phi2[sign], numerics)
            ref2 = 6.79763 if sign > 0 else 9.26409
            add(f"phi2_{tag}:theta=0", ref2, ev.cfs(0.0), 1e-3, "abs")
            add(f"phi2_{tag}:theta=pi/2", ref2, ev.cfs(math.pi / 2.0),
                1e-3, "abs")
        if "global" in sections:
            for sign, tag in ((+1, "plus"), (-1, "minus")):
                add(f"gfs:phi1_{tag}", 2.53, analyze(phi1[sign], numerics).gfs,
                    0.01, "abs")
                add(f"gfs:phi2_{tag}", 7.63, analyze(phi2[sign], numerics).gfs,
                    0.01, "abs")
        if "minimum" in sections:
            for sign, tag in ((+1, "plus"), (-1, "minus")):
                add(f"mfs:phi1_{tag}", 2.25, min_fs(phi1[sign], numerics)[1],
                    0.01, "abs")
                add(f"mfs:phi2_{tag}", 6.79, min_fs(phi2[sign], numerics)[1],
                    0.01, "abs")
    if "box" in sections:
        # the evaluator's stored table, as ``qsc box`` evaluates the wells
        for n in range(1, 6):
            ev = evaluator_for(box_state(BoxSpec(n=n)), numerics)
            add(f"box:position_n={n}", box_cfs_position(n), ev.cfs(0.0),
                0.01, "rel")
    return rows


def _print_rows(rows) -> None:
    print(f"{'row':<24}{'reference':>14}{'computed':>16}{'rel delta':>12}  status")
    for row in rows:
        print(f"{row['id']:<24}{row['reference']:>14.6g}"
              f"{row['computed']:>16.8g}{row['rel_delta']:>12.2e}"
              f"  {'ok' if row['ok'] else 'FAIL'}")


def cmd_box(args) -> int:
    numerics = _numerics(args)
    if args.n_max < 1:
        raise ParseError(f"--n-max must be >= 1, got {args.n_max}")
    try:
        specs = [BoxSpec(n=n, n_fock=args.n_fock)
                 for n in range(1, args.n_max + 1)]
    except ValueError as exc:
        raise ParseError(f"--n-fock {args.n_fock}: {exc}") from None
    rows = []
    for n, spec in enumerate(specs, start=1):
        ev = evaluator_for(box_state(spec), numerics)
        pos, mom = ev.cfs(0.0), ev.cfs(math.pi / 2.0)
        pos_ref = box_cfs_position(n)
        mom_ref = box_cfs_momentum(n)
        rows.append({"n": n,
                     "position_pipeline": pos, "position_formula": pos_ref,
                     "position_rel_delta": abs(pos - pos_ref) / pos_ref,
                     "momentum_pipeline": mom, "momentum_formula": mom_ref,
                     "momentum_rel_delta": abs(mom - mom_ref) / mom_ref})
    if args.json:
        _print_json(rows)
        return 0
    print(f"{'n':>3}{'pos pipeline':>16}{'pos formula':>16}{'delta':>10}"
          f"{'mom pipeline':>16}{'mom formula':>16}{'delta':>10}")
    for r in rows:
        print(f"{r['n']:>3}{r['position_pipeline']:>16.8g}"
              f"{r['position_formula']:>16.8g}{r['position_rel_delta']:>10.2e}"
              f"{r['momentum_pipeline']:>16.8g}{r['momentum_formula']:>16.8g}"
              f"{r['momentum_rel_delta']:>10.2e}")
    return 0


def cmd_reproduce(args) -> int:
    rows = _reference_rows(_numerics(args), args.sections)
    if args.json:
        _print_json(rows)
    else:
        _print_rows(rows)
    failures = [r for r in rows if not r["ok"]]
    if failures:
        if not args.json:
            print(f"\n{len(failures)} row(s) outside tolerance:")
            for row in failures:
                print(f"  {row['id']}: reference {row['reference']:.6g}, "
                      f"computed {row['computed']:.8g}")
        return 1
    if not args.json:
        print(f"\nall {len(rows)} rows within tolerance")
    return 0


def cmd_selftest(args) -> int:
    failures = equivalence_failures()
    for line in failures:
        print(f"FAIL {line}")
    if failures:
        return 1
    print("selftest ok: kernel oracle and phase pipeline agree")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser, for the command and its subcommands, reading
    every ``_NEGATIVE_NUMBER`` as a value; ``-inf`` still reads as a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: ``main`` reuses
    it, since parsing leaves a parser as it found it."""
    parser = _Parser(
        prog="qsc",
        description="Fisher-Shannon complexity of 1D quantum states over "
                    "the rotated-quadrature manifold")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="one state, one angle")
    p.add_argument("state", help="state literal, e.g. fock:2 or super:1,0,1i")
    p.add_argument("--theta", type=float, default=0.0)
    _add_numerics(p)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("sweep", help="complexity curve over [0, pi)")
    p.add_argument("state")
    p.add_argument("--theta-samples", type=int, default=64)
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.add_argument("--svg", help="also plot the curve to this SVG path")
    _add_numerics(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("gfs", help="global (angle-averaged) measure")
    p.add_argument("state")
    _add_numerics(p, gfs=True)
    p.set_defaults(fn=cmd_gfs)

    p = sub.add_parser("mfs", help="minimum measure and its angle")
    p.add_argument("state")
    _add_numerics(p, mfs=True)
    p.set_defaults(fn=cmd_mfs)

    p = sub.add_parser("table1", help="Fock-row reference comparison "
                       "(the table1 section of reproduce)")
    p.add_argument("--json", action="store_true")
    _add_numerics(p)
    p.set_defaults(fn=cmd_reproduce, sections=("table1",))

    p = sub.add_parser("box", help="well eigenstates: pipeline vs formulas")
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--n-fock", type=int, default=BoxSpec.n_fock)
    p.add_argument("--json", action="store_true")
    _add_numerics(p)
    p.set_defaults(fn=cmd_box)

    p = sub.add_parser("reproduce",
                       help="compare every built-in reference value")
    p.add_argument("--json", action="store_true")
    _add_numerics(p, gfs=True, mfs=True)
    p.set_defaults(fn=cmd_reproduce, sections=SECTIONS)

    p = sub.add_parser("selftest", help="kernel-oracle equivalence suite")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerics error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
