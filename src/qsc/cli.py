"""Command-line surface.

Exit codes partition the failure modes for scripting: 2 for parse errors
(bad literals, unknown flags), 3 for numerics errors, 4 for unwritable
output paths, 1 for a failed reproduction/selftest run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .catalog import (BoxSpec, box_cfs_momentum, box_cfs_position, box_state,
                      parse_state_literal, superposition_state)
from .errors import NumericsError, ParseError
from .frft import equivalence_failures
from .functionals import Numerics, fs_complexity
from .sweep import analyze, global_fs, min_fs, sweep
from .state import make_state

INV_SQRT2 = 1.0 / math.sqrt(2.0)


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
    return Numerics(grid_points=args.grid_points, grid_margin=args.grid_margin,
                    node_eps=args.node_eps, gfs_rel_tol=args.gfs_rel_tol,
                    mfs_theta_tol=args.mfs_theta_tol)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-points", type=int, default=4096,
                   help="grid resolution M (default 4096)")
    p.add_argument("--grid-margin", type=float, default=6.0,
                   help="grid extent beyond the classical turning point")
    p.add_argument("--node-eps", type=float, default=1e-13,
                   help="node threshold relative to max(rho)")
    p.add_argument("--gfs-rel-tol", type=float, default=1e-5,
                   help="relative tolerance of the global-measure refinement")
    p.add_argument("--mfs-theta-tol", type=float, default=1e-6,
                   help="angle tolerance of the minimum search")


def cmd_measure(args) -> int:
    if not math.isfinite(args.theta):
        raise ParseError(f"--theta must be finite, got {args.theta!r}")
    state = parse_state_literal(args.state)
    report = fs_complexity(state, args.theta, _numerics(args), extensions=True)
    payload = {
        "theta": report.theta,
        "fisher": report.fisher,
        "entropy": report.entropy,
        "entropy_power": report.entropy_power,
        "cfs": report.cfs,
        "lmc": report.lmc,
        "cr": report.cr,
        "extension_measures_flag": "lmc,cr",
    }
    if report.edge_dominated:
        payload["edge_dominated"] = True
    _print_json(payload)
    return 0


def _sweep_csv(result) -> str:
    lines = ["theta,fisher,entropy,entropy_power,cfs"]
    for theta, rep in zip(result.thetas, result.reports):
        lines.append(",".join(_fmt(v) for v in
                              (theta, rep.fisher, rep.entropy,
                               rep.entropy_power, rep.cfs)))
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
    state = parse_state_literal(args.state)
    result = sweep(state, args.theta_samples, _numerics(args))
    csv = _sweep_csv(result)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    if args.svg:
        values = [r.cfs for r in result.reports]
        with open(args.svg, "w") as fh:
            fh.write(_sweep_svg(list(result.thetas), values))
    return 0


def cmd_gfs(args) -> int:
    state = parse_state_literal(args.state)
    result = analyze(state, _numerics(args))
    _print_json({"gfs": result.gfs, "converged": result.converged,
                 "resolution": result.resolution})
    return 0


def cmd_mfs(args) -> int:
    state = parse_state_literal(args.state)
    theta_star, value = min_fs(state, _numerics(args))
    _print_json({"mfs": value, "theta_star": theta_star})
    return 0


# reference values: Fock-row complexities, superposition endpoints, global
# and minimum measures, and the closed-form box law
TABLE1 = (5.15, 11.7, 20.5, 31.3, 44.2, 59.0, 75.7, 94.3, 114.0, 137.0)


def _fock(n: int):
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    return make_state(coeffs)


def _reference_rows(numerics: Numerics, sections=("table1", "phi", "global",
                                                  "minimum", "box")):
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
                fs_complexity(_fock(n), 0.0, numerics).cfs, 0.01, "rel")
    if "phi" in sections:
        phi1 = {s: superposition_state(2, s * INV_SQRT2) for s in (+1, -1)}
        phi2 = {s: superposition_state(4, s * INV_SQRT2) for s in (+1, -1)}
        for sign, tag in ((+1, "plus"), (-1, "minus")):
            at0 = fs_complexity(phi1[sign], 0.0, numerics).cfs
            at90 = fs_complexity(phi1[sign], math.pi / 2.0, numerics).cfs
            ref0, ref90 = (2.32, 2.95) if sign > 0 else (2.95, 2.32)
            add(f"phi1_{tag}:theta=0", ref0, at0, 0.01, "abs")
            add(f"phi1_{tag}:theta=pi/2", ref90, at90, 0.01, "abs")
            ref2 = 6.79763 if sign > 0 else 9.26409
            add(f"phi2_{tag}:theta=0", ref2,
                fs_complexity(phi2[sign], 0.0, numerics).cfs, 1e-3, "abs")
            add(f"phi2_{tag}:theta=pi/2", ref2,
                fs_complexity(phi2[sign], math.pi / 2.0, numerics).cfs,
                1e-3, "abs")
        if "global" in sections:
            for sign, tag in ((+1, "plus"), (-1, "minus")):
                add(f"gfs:phi1_{tag}", 2.53, global_fs(phi1[sign], numerics),
                    0.01, "abs")
                add(f"gfs:phi2_{tag}", 7.63, global_fs(phi2[sign], numerics),
                    0.01, "abs")
        if "minimum" in sections:
            for sign, tag in ((+1, "plus"), (-1, "minus")):
                add(f"mfs:phi1_{tag}", 2.25, min_fs(phi1[sign], numerics)[1],
                    0.01, "abs")
                add(f"mfs:phi2_{tag}", 6.79, min_fs(phi2[sign], numerics)[1],
                    0.01, "abs")
    if "box" in sections:
        for n in range(1, 6):
            state = box_state(BoxSpec(n=n, n_fock=256))
            add(f"box:position_n={n}", box_cfs_position(n),
                fs_complexity(state, 0.0, numerics).cfs, 0.01, "rel")
    return rows


def _print_rows(rows) -> None:
    print(f"{'row':<24}{'reference':>14}{'computed':>16}{'rel delta':>12}  status")
    for row in rows:
        print(f"{row['id']:<24}{row['reference']:>14.6g}"
              f"{row['computed']:>16.8g}{row['rel_delta']:>12.2e}"
              f"  {'ok' if row['ok'] else 'FAIL'}")


def cmd_table1(args) -> int:
    rows = _reference_rows(_numerics(args), sections=("table1",))
    if args.json:
        _print_json(rows)
    else:
        _print_rows(rows)
    return 0 if all(r["ok"] for r in rows) else 1


def cmd_box(args) -> int:
    numerics = _numerics(args)
    rows = []
    for n in range(1, args.n_max + 1):
        state = box_state(BoxSpec(n=n, n_fock=args.n_fock))
        pos = fs_complexity(state, 0.0, numerics).cfs
        mom = fs_complexity(state, math.pi / 2.0, numerics).cfs
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
    rows = _reference_rows(_numerics(args))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsc",
        description="Fisher-Shannon complexity of 1D quantum states over "
                    "the rotated-quadrature manifold")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="one state, one angle")
    p.add_argument("state", help="state literal, e.g. fock:2 or super:1,0,1i")
    p.add_argument("--theta", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("sweep", help="complexity curve over [0, pi)")
    p.add_argument("state")
    p.add_argument("--theta-samples", type=int, default=64)
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.add_argument("--svg", help="also plot the curve to this SVG path")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("gfs", help="global (angle-averaged) measure")
    p.add_argument("state")
    _add_common(p)
    p.set_defaults(fn=cmd_gfs)

    p = sub.add_parser("mfs", help="minimum measure and its angle")
    p.add_argument("state")
    _add_common(p)
    p.set_defaults(fn=cmd_mfs)

    p = sub.add_parser("table1", help="Fock-row reference comparison")
    p.add_argument("--json", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("box", help="well eigenstates: pipeline vs formulas")
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--n-fock", type=int, default=256)
    p.add_argument("--json", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_box)

    p = sub.add_parser("reproduce",
                       help="compare every built-in reference value")
    p.add_argument("--json", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("selftest", help="kernel-oracle equivalence suite")
    _add_common(p)
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
