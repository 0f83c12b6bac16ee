"""Seeded workload generators: CLI argument lists for ``qsc.cli.main``.

A workload is an endless stream of cycles; a cycle is a list of op groups
holding each rung of the workload's size ladder once, in a seeded order.  A
run ends only at a cycle boundary, so every run mixes the same input sizes in
the same proportions whatever the seed and however many cycles fit; only the
coefficients, angles and order change.  Each ladder has an odd number of
rungs, which keeps the median op latency inside one rung instead of on the
boundary between two.

A group is the unit the correctness check needs whole: for ``gfs_dense`` and
``mfs_sparse`` a real superposition and the same state pre-rotated by a
seeded angle (a complex superposition; the measures of the two must agree),
for ``build_measure`` a single op.  Every op is a dict with the CLI ``argv``
and the ``ref`` facts its check needs.  Only ``random.Random`` is used, so
the inputs do not depend on the numpy version.
"""

from __future__ import annotations

import cmath
import math
import random

# Fock-term counts K of gfs_dense (basis n = 0..K-1): the lattice path at
# its heaviest, about 1070 angles per op with density work growing with K.
# Three rungs keep a cycle short, so runs end close to --seconds.
GFS_TERMS = (64, 160, 257)
# term counts of mfs_sparse: small K, so density and functionals share the
# per-angle cost and the sequential golden-section steps weigh in.
MFS_TERMS = (2, 3, 4, 5, 6, 7, 8)
# build_measure cycle: two box projections per squeezed Gaussian, so the
# median op is a box build, the state-build cost the workload is about.
BUILD_KINDS = ("box", "box", "gauss")
BOX_N = (1, 6)
BOX_FOCK = (256, 384)
GAUSS_SIGMA = (0.2, 4.0)


def _shuffled(rng: random.Random, ladder):
    rungs = list(ladder)
    rng.shuffle(rungs)
    return rungs


def super_literal(coeffs) -> str:
    """``super:`` literal with every coefficient at full float precision."""
    parts = []
    for c in coeffs:
        if c.imag == 0.0:
            parts.append(repr(c.real))
        else:
            parts.append(f"{c.real!r}{'+' if c.imag >= 0 else '-'}"
                         f"{abs(c.imag)!r}i")
    return "super:" + ",".join(parts)


def _rotation_pair(rng: random.Random, command: str, k: int):
    coeffs = [complex(rng.gauss(0.0, 1.0), 0.0) for _ in range(k)]
    alpha = rng.uniform(0.0, math.pi)
    rotated = [c * cmath.exp(1j * n * alpha) for n, c in enumerate(coeffs)]
    ref = {"terms": k, "alpha": alpha}
    return [{"argv": [command, super_literal(coeffs)], "ref": ref},
            {"argv": [command, super_literal(rotated)], "ref": ref}]


def gfs_dense(seed: int):
    rng = random.Random(seed)
    while True:
        yield [_rotation_pair(rng, "gfs", k) for k in _shuffled(rng, GFS_TERMS)]


def mfs_sparse(seed: int):
    rng = random.Random(seed)
    while True:
        yield [_rotation_pair(rng, "mfs", k) for k in _shuffled(rng, MFS_TERMS)]


def _build_op(rng: random.Random, kind: str):
    if kind == "box":
        n = rng.randint(*BOX_N)
        n_fock = rng.randint(*BOX_FOCK)
        # the closed form exists at theta = 0 only, so boxes are measured
        # there; the build cost does not depend on the angle
        return [{"argv": ["measure", f"box:n={n},N={n_fock}", "--theta", "0"],
                 "ref": {"kind": "box", "n": n, "theta": 0.0}}]
    sigma = rng.uniform(*GAUSS_SIGMA)
    theta = rng.uniform(0.0, math.pi)
    return [{"argv": ["measure", f"gauss:sigma={sigma!r}", "--theta", repr(theta)],
             "ref": {"kind": "gauss", "theta": theta}}]


def build_measure(seed: int):
    rng = random.Random(seed)
    while True:
        yield [_build_op(rng, kind) for kind in _shuffled(rng, BUILD_KINDS)]


WORKLOADS = {
    "gfs_dense": gfs_dense,
    "mfs_sparse": mfs_sparse,
    "build_measure": build_measure,
}


def cycles(name: str, seed: int):
    """The endless cycle stream of workload ``name`` for ``seed``."""
    return WORKLOADS[name](seed)
