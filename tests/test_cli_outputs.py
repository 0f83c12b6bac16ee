"""Every command of the committed output corpus prints what the corpus holds.

tests/data/cli_outputs.json holds, for each command line, the exit code
and the parsed stdout (tests/make_cli_outputs.py writes it and reports how
far each field moved).  Exit codes, keys, text and booleans must match
exactly, and every number within a bound on its move, |a - b| over
max(|a|, |b|, 1) (``relative_move``).

The bounds come from the spread of the whole corpus across BLAS kernels:
OPENBLAS_CORETYPE = SkylakeX, Haswell, Sandybridge and Prescott, each with
OPENBLAS_NUM_THREADS = 1 and 2, against the default (SkylakeX kernels, 2
threads) on a 2-vCPU x86-64 host with numpy 2.4 and scipy-openblas 0.3.31.
The largest move was 2.3e-14 (a well's momentum-side pipeline value) and
4.6e-6 for ``theta_star``: the arg-min of a Fock-route Gaussian's curve,
flat to rounding within 5e-11 of C_FS = 1, is set by rounding, while that
of every other state moved by at most 1.4e-10.  Each bound keeps a margin
of about 4 over its spread.

``mfs fock:5``'s ``theta_star`` is set by rounding too: a Fock row's
curve is flat, so any change in the order of a sum moves its arg-min.
The BLAS kernels above left it in place, but summing each folded half row
of the density block forward, instead of in the grid's natural order,
moved it by 0.123.  The bound is not widened for such a move; the sums
keep their order.
"""

import json

import pytest

from make_cli_outputs import CORPUS, compare, outputs

NUMBER_BOUND = 1e-13
THETA_STAR_BOUND = 2e-5

ENTRIES = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("entry", ENTRIES,
                         ids=[" ".join(e["argv"])[:48] for e in ENTRIES])
def test_command_prints_the_corpus_output(entry):
    moves, problems = compare([entry], outputs([entry["argv"]]))
    assert problems == []
    for field, move in moves.items():
        bound = (THETA_STAR_BOUND if field.endswith(".theta_star")
                 else NUMBER_BOUND)
        assert move <= bound, (field, move)
