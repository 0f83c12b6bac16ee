"""Correctness checks for every op the benchmark runs.

An op fails when ``qsc.cli.main`` raises, returns non-zero, prints anything
a strict JSON parse rejects, or misses its reference.  References come from
closed forms and invariants, never from the estimator under test:

* C_FS >= 1 at every angle (the Stam bound, met with equality only by
  Gaussians), hence also gfs >= 1 and mfs >= 1;
* the Gaussian family has C_FS = 1 at every angle;
* the well eigenstate n has C_FS = 8 pi n^2 / e^3 at theta = 0;
* pre-rotating a state (c_n -> c_n e^{i n alpha}) leaves gfs and mfs
  unchanged, because both depend on the whole angle manifold only.
"""

from __future__ import annotations

import json
import math

# Slack below the bound 1 and around the Gaussian value 1: the tolerance of
# the repository's own Gaussian-lemma criterion (c06) for grid and
# truncation error.  Fock-route Gaussians measured within 2e-9 of 1.
UNIT_TOL = 1e-5
# Pre-rotation pairs.  C10_TOL is the drift the repository's property
# criterion (c10) allows; pairs beyond it are counted in the output.  An op
# fails only beyond ROTATION_TOL, because both estimators depend on where
# their angle lattice falls:
# * gfs: the curve cfs(theta) has kinks, so the periodic trapezoid rule
#   converges only as O(h^2), and shifting the lattice against the kinks
#   moves the estimate.  ``converged`` only says that two successive
#   doublings agreed, which kinked curves can do by chance, so it cannot
#   tighten this: pairs that both reported converged drifted up to 2e-4.
#   Over 260 pairs of 64-257 terms the drift reached 1.5e-3.
# * mfs: golden section refines only the best of 128 scan samples, so when
#   two local minima lie within the scan's resolution a shifted scan can
#   settle in the other one.  Over 3000 pairs of 2-8 terms 3 drifted beyond
#   2e-5, the largest by 4.2e-4, and all but 5 stayed within 1e-12.
# 1e-2 leaves a margin of six over the largest drift.  gfs of random states of one size differed by
# 2 to 24 percent, so a pre-rotation read as another state still fails.
C10_TOL = 2e-5
ROTATION_TOL = 1e-2
# box at theta = 0 against 8 pi n^2 / e^3.  The README documents a
# truncation error of about 3 percent at 256 terms; over n = 1..6 and
# N = 256..384 the pipeline measured 0.5 to 4.5 percent below the closed
# form (n = 5 and 6 do not tighten monotonically with N).
BOX_REL_TOL = 0.05
# cfs is defined as fisher * entropy_power and entropy_power as
# exp(2 S) / (2 pi e): both hold to rounding.
IDENTITY_TOL = 1e-12


class CheckError(ValueError):
    """An op output that misses its reference."""


def _reject_constant(name):
    raise CheckError(f"non-finite JSON constant {name}")


def strict_json(text: str) -> dict:
    """Parse one JSON object, rejecting NaN and Infinity."""
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CheckError("output is not a JSON object")
    return payload


def _number(payload: dict, key: str) -> float:
    value = payload.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CheckError(f"{key} is missing or not a number: {value!r}")
    if not math.isfinite(value):
        raise CheckError(f"{key} is not finite: {value!r}")
    return float(value)


def _at_least_one(name: str, value: float) -> None:
    if value < 1.0 - UNIT_TOL:
        raise CheckError(f"{name} = {value!r} is below the bound 1")


def _close(name: str, a: float, b: float, rel: float) -> None:
    if abs(a - b) > rel * max(abs(a), abs(b)):
        raise CheckError(f"{name}: {a!r} vs {b!r} differ by more than "
                         f"{rel:g} relative")


def check_gfs(payload: dict, ref: dict) -> None:
    _at_least_one("gfs", _number(payload, "gfs"))
    if not isinstance(payload.get("converged"), bool):
        raise CheckError("converged is not a boolean")
    resolution = payload.get("resolution")
    if isinstance(resolution, bool) or not isinstance(resolution, int) \
            or resolution < 1:
        raise CheckError(f"resolution {resolution!r} is not a lattice size")


def check_mfs(payload: dict, ref: dict) -> None:
    _at_least_one("mfs", _number(payload, "mfs"))
    theta = _number(payload, "theta_star")
    if not 0.0 <= theta < math.pi:
        raise CheckError(f"theta_star {theta!r} is outside [0, pi)")


def check_measure(payload: dict, ref: dict) -> None:
    fisher = _number(payload, "fisher")
    entropy = _number(payload, "entropy")
    power = _number(payload, "entropy_power")
    cfs = _number(payload, "cfs")
    if _number(payload, "theta") != ref["theta"]:
        raise CheckError(f"theta {payload['theta']!r} is not the requested "
                         f"{ref['theta']!r}")
    if payload.get("extension_measures_flag") != "lmc,cr":
        raise CheckError("extension measures are not flagged")
    _close("cfs vs fisher * entropy_power", cfs, fisher * power, IDENTITY_TOL)
    _close("entropy_power vs exp(2S)/(2 pi e)", power,
           math.exp(2.0 * entropy) / (2.0 * math.pi * math.e), IDENTITY_TOL)
    _at_least_one("cfs", cfs)
    if ref["kind"] == "gauss":
        _close("Gaussian cfs vs 1", cfs, 1.0, UNIT_TOL)
    else:
        n = ref["n"]
        _close(f"box n={n} cfs vs 8 pi n^2 / e^3", cfs,
               8.0 * math.pi * n * n / math.exp(3.0), BOX_REL_TOL)


CHECKS = {"gfs": check_gfs, "mfs": check_mfs, "measure": check_measure}


def check_op(op: dict, returncode, stdout: str) -> dict:
    """Validate one op's exit code and output; returns the parsed payload."""
    if returncode != 0:
        raise CheckError(f"exit code {returncode!r}")
    payload = strict_json(stdout)
    CHECKS[op["argv"][0]](payload, op["ref"])
    return payload


def check_group(group, payloads):
    """Cross-op invariant: a state and its pre-rotation agree on gfs or mfs.

    Returns the relative drift of a rotation pair, None for other groups.
    """
    if len(group) != 2:
        return None
    key = group[0]["argv"][0]
    a, b = payloads[0][key], payloads[1][key]
    _close(f"{key} under pre-rotation", a, b, ROTATION_TOL)
    return abs(a - b) / max(abs(a), abs(b))
