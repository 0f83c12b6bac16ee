"""Rewrite tests/data/cli_outputs.json, the committed output corpus.

For every command line of ARGVS the file holds the exit code of
``qsc.cli.main`` and its stdout, parsed (``parse``): JSON as JSON, the
sweep CSV as one object per row, and any other text as rows of tokens, the
numeric ones as floats.  ``test_cli_outputs.py`` reruns each command in
process and compares.

    PYTHONPATH=src python tests/make_cli_outputs.py [PATH]

runs the commands, prints the largest relative move of each field against
the file at PATH (default tests/data/cli_outputs.json) and every entry whose
exit code, keys or text changed, then writes the new corpus to PATH.  A
change that moves numbers regenerates the file and quotes that report.

The committed corpus reproduces byte for byte only on the host that wrote
it: another BLAS kernel moves the last bits of some values, within the
bounds of ``test_cli_outputs.py``.  To show that a change leaves the
outputs as they were, run the script to a scratch PATH on the parent
commit and on the change, on the same host, and compare those two files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import warnings
from pathlib import Path

from qsc.cli import main

CORPUS = Path(__file__).parent / "data" / "cli_outputs.json"

# the 64-term complex state of CI's byte-promise check
S64 = "super:" + ",".join(f"{1 + n % 7}-{n % 5}i" for n in range(64))
# a curve with a comb of local minima on [0.12, 0.30] (tests/test_sweep.py)
COMB = ("super:0.3883601725277836,-0.12022315007569699,0.5085745906024571,"
        "-1.9762924667807011,-0.5529532314538401,-0.24549903237905,"
        "-0.2191963564402742")

ARGVS = [
    # the console-script commands of CI
    ["selftest"],
    ["measure", "fock:1"],
    ["gfs", "gauss:sigma=2,analytic"],
    ["gfs", "super:1,1+1i,1"],
    ["mfs", "super:1,2i,3"],
    ["measure", "box:n=3", "--theta", "0"],
    ["measure", "box:n=6,N=384", "--theta", "0"],
    ["measure", "fock:1200", "--theta", "0.4"],
    ["measure", "fock:2000", "--theta", "0.4"],
    ["measure", "box:n=1,N=1024", "--theta", "0"],
    ["gfs", "super:1,0,1", "--grid-points", "4097"],
    ["measure", "fock:3", "--theta", "0.7"],
    ["gfs", S64],
    ["box", "--json"],
    ["box", "--n-max", "5", "--json"],
    ["sweep", "super:1,0,1", "--theta-samples", "16"],
    ["sweep", "super:1e-310,0,1e-310", "--theta-samples", "8"],
    ["sweep", "super:1,0,1", "--theta-samples", "8"],
    ["table1"],
    ["table1", "--json"],
    ["reproduce", "--json"],
    ["measure", "super:1,,2"],
    ["measure", "fock:999999999999999999999999999999"],
    ["measure", "gauss:sigma=1,N=2"],
    # the README's literals and examples
    ["measure", "fock:3"],
    ["measure", "super:0.70710678,0,0.70710678"],
    ["measure", "super:1,0,1i"],
    ["measure", "gauss:sigma=1.5"],
    ["measure", "gauss:sigma=1.5,N=64"],
    ["measure", "gauss:sigma=1.5,analytic"],
    ["measure", "box:n=2"],
    ["measure", "super:1,0,1", "--theta", "1e17"],
    ["measure", "super:1,0,1", "--theta", "1.2396830954246951"],
    ["measure", "super:1e308,0,1e308"],
    ["measure", "box:n=1,n=3"],
    ["measure", "gauss:sigma=2,analytic,analytic"],
    # one state per family, both Gaussian routes, the 64-term and comb states
    ["gfs", "fock:5"],
    ["mfs", "fock:5"],
    ["gfs", "super:1,0,1"],
    ["mfs", "super:1,0,1"],
    ["measure", "super:1,0,1", "--theta", "0.7"],
    ["gfs", "gauss:sigma=3"],
    ["mfs", "gauss:sigma=3"],
    ["gfs", "gauss:sigma=1.5"],
    ["mfs", "gauss:sigma=1.5"],
    ["gfs", "gauss:sigma=1.5,analytic"],
    ["mfs", "gauss:sigma=1.5,analytic"],
    ["measure", "gauss:sigma=1.5,analytic", "--theta", "0.7"],
    ["gfs", "box:n=3"],
    ["mfs", "box:n=3"],
    ["measure", "box:n=3", "--theta", "0.7"],
    ["mfs", S64],
    ["measure", S64, "--theta", "0.7"],
    ["gfs", COMB],
    ["mfs", COMB],
    ["sweep", COMB, "--theta-samples", "16"],
    # empty gauss:/box: fields
    ["measure", "box:n=1,,N=300"],
    ["measure", "gauss:sigma=2,"],
    ["measure", "gauss:,sigma=2,analytic"],
    # the exit-2 and exit-3 cases of tests/test_cli.py
    ["measure", "bogus:1"],
    ["measure", "box:n=5,N=24"],
    ["measure", "gauss:sigma=13"],
    ["measure", "gauss:sigma=1,N=3"],
    ["measure", "box:n=1,N=100000000", "--theta", "0"],
    ["measure", "box:n=1,N=3000", "--theta", "0"],
    ["measure", "box:n=1,N=" + "9" * 400, "--theta", "0"],
    ["measure", "fock:1000000000"],
    ["measure", "gauss:sigma=1,N=1000000000"],
    ["measure", "gauss:sigma=1,N=" + "9" * 400],
    ["measure", "fock:1", "--theta", "nan"],
    ["measure", "fock:1", "--theta", "inf"],
    ["gfs", "super:nan,1"],
    ["mfs", "gauss:sigma=inf"],
    ["measure", "gauss:sigma=nan,analytic"],
    ["gfs", "fock:1", "--gfs-rel-tol", "nan"],
    ["gfs", "fock:1", "--gfs-rel-tol", "-1"],
    ["mfs", "fock:1", "--mfs-theta-tol", "nan"],
    ["mfs", "fock:1", "--mfs-theta-tol", "0"],
    ["measure", "fock:1", "--grid-points", "1"],
    ["sweep", "fock:1", "--theta-samples", "2"],
    ["measure", "fock:1", "--grid-points", "2"],
    ["mfs", "gauss:sigma=100,analytic"],
    ["gfs", "gauss:sigma=30,analytic"],
    ["measure", "fock:1", "--grid-points", "100000000"],
    ["measure", "gauss:sigma=2,analytic", "--grid-points", "100000000"],
    ["measure", "gauss:sigma=1e200,analytic"],
    ["measure", "gauss:sigma=1e-150,analytic"],
    ["measure", "super:inf,1"],
    ["measure", "fock:1", "--frobnicate"],
    ["measure", "super:,1"],
    ["measure", "super:1,0,"],
    ["measure", "gauss:sigma=1,sigma=2"],
    ["sweep", "fock:1", "--theta-samples", "32769"],
    ["sweep", "fock:1", "--theta-samples", "16385", "--grid-points", "8192"],
    ["box", "--n-fock", "3"],
    ["box", "--n-max", "0"],
    ["selftest", "--grid-points", "1"],
]


def run(argv):
    """Exit code and stdout of ``main(argv)`` in this process; an argparse
    refusal (SystemExit) counts as its exit code."""
    out = io.StringIO()
    with (contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(io.StringIO()),
          warnings.catch_warnings()):
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _token(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse(text: str):
    """stdout as data: None when empty, JSON as is, a CSV with a header
    line as one object per row, other text as rows of tokens."""
    if not text:
        return None
    try:
        return json.loads(text)
    except ValueError:
        pass
    lines = text.splitlines()
    if "," in lines[0] and " " not in lines[0]:
        header = lines[0].split(",")
        return [dict(zip(header, map(float, line.split(","))))
                for line in lines[1:]]
    return [[_token(t) for t in line.split()] for line in lines]


def outputs(argvs=ARGVS):
    """The corpus entries of ``argvs``: argv, exit code and parsed stdout."""
    entries = []
    for argv in argvs:
        code, text = run(argv)
        entries.append({"argv": argv, "exit": code, "stdout": parse(text)})
    return entries


def relative_move(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude, or to 1 when both are
    smaller: a ratio such as ``rel_delta`` or an angle near 0 moves in
    absolute terms."""
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def walk(old, new, path, moves, problems):
    """Record in ``moves`` the largest relative move of each numeric field
    (keyed by ``path`` with list indices dropped) and in ``problems`` every
    difference in structure, keys, type or text."""
    if _is_number(old) and _is_number(new):
        move = relative_move(float(old), float(new))
        if not math.isfinite(move):
            problems.append(f"{path}: {old!r} became {new!r}")
        moves[path] = max(moves.get(path, 0.0), move)
    elif type(old) is not type(new):
        problems.append(f"{path}: {old!r} became {new!r}")
    elif isinstance(old, dict):
        if list(old) != list(new):
            problems.append(f"{path}: keys {list(old)} became {list(new)}")
        else:
            for key in old:
                walk(old[key], new[key], f"{path}.{key}", moves, problems)
    elif isinstance(old, list):
        if len(old) != len(new):
            problems.append(f"{path}: {len(old)} items became {len(new)}")
        else:
            for a, b in zip(old, new):
                walk(a, b, f"{path}[]", moves, problems)
    elif old != new:
        problems.append(f"{path}: {old!r} became {new!r}")


def compare(old_entries, new_entries):
    """(moves, problems) of ``new_entries`` against ``old_entries``: the
    largest relative move per field, and one line per changed command."""
    moves, problems = {}, []
    old_by_argv = {tuple(e["argv"]): e for e in old_entries}
    for entry in new_entries:
        name = " ".join(entry["argv"])[:60]
        old = old_by_argv.get(tuple(entry["argv"]))
        if old is None:
            problems.append(f"{name}: new command")
            continue
        found = []
        if old["exit"] != entry["exit"]:
            found.append(f"exit {old['exit']} became {entry['exit']}")
        walk(old["stdout"], entry["stdout"], entry["argv"][0], moves, found)
        problems += [f"{name}: {line}" for line in found]
    return moves, problems


def _main(path: Path) -> None:
    new = outputs()
    if path.exists():
        moves, problems = compare(json.loads(path.read_text()), new)
        for field in sorted(moves):
            print(f"{field:<40} {moves[field]:.3g}")
        for line in problems:
            print("CHANGED", line)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(new, indent=1, allow_nan=False) + "\n")


if __name__ == "__main__":
    _main(Path(sys.argv[1]) if len(sys.argv) > 1 else CORPUS)
