"""One workload process: import qsc from the checkout, run ops in a closed loop.

Run by ``run.py`` as ``python3 perfbench/worker.py ROOT --workload W --seed S
--seconds T --trace 0|1 [--setup-only]``.  The worker prints ``READY`` once
set-up is done (interpreter start, ``import qsc``, the first cycle of inputs
generated), right before the first timed op, and after the run one JSON line
with the raw measurements.  With ``--setup-only`` it exits after ``READY``.

One client drives ``qsc.cli.main(argv)`` in process, sending the next op
only when the previous one has returned.  The loop ends at the first cycle
boundary after ``--seconds`` (see ``workloads``), so every run holds whole
cycles and whole check groups.  With ``--trace 1`` every group runs twice,
untraced and traced in alternating order, so the tracing overhead is
measured on the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads
from tracer import Tracer


def load_qsc(root: Path):
    """Import qsc from ``root/src``, refusing any other installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import qsc
    import qsc.cli
    import qsc.functionals
    import qsc.hermite
    if not Path(qsc.__file__).resolve().is_relative_to(src):
        raise ImportError(f"qsc imported from {qsc.__file__}, not from {src}")
    return {"qsc.cli": qsc.cli, "qsc.functionals": qsc.functionals,
            "qsc.hermite": qsc.hermite}


def environment() -> dict:
    """What the ops ran on.  QSC_THREADS and OPENBLAS_NUM_THREADS are
    recorded as found and never set, so runs measure the users' default."""
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "QSC_THREADS": os.environ.get("QSC_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_op(main, argv):
    """One CLI call with stdout and stderr captured: (returncode, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            returncode = main(argv)
        except SystemExit as exc:        # argparse rejected the arguments
            returncode = exc.code
    return returncode, out.getvalue()


def _label(op) -> str:
    text = " ".join(op["argv"])
    return text if len(text) <= 80 else text[:77] + "..."


class Loop:
    """The closed-loop client; records latencies and checks every output."""

    def __init__(self, modules, tracer=None):
        self.main = modules["qsc.cli"].main
        self.tracer = tracer
        self.op_id = 0
        self.latencies = []              # seconds per op that passed
        self.attempted = 0
        self.failures = []               # one message per failed op
        self.drifts = []                 # relative drift per rotation pair
        self.walls = {False: 0.0, True: 0.0}   # summed op wall by traced
        self.traced_walls = {}           # op id -> (start, end)

    def _op(self, op, traced):
        self.op_id += 1
        self.attempted += 1
        tracing = (self.tracer.active(self.op_id) if traced
                   else contextlib.nullcontext())
        start = time.perf_counter()
        try:
            with tracing:
                returncode, stdout = run_op(self.main, op["argv"])
        except Exception:  # the op's failure is counted, the loop goes on
            return None, "raised: " + traceback.format_exc(limit=3)
        end = time.perf_counter()
        self.walls[traced] += end - start
        if traced:
            self.traced_walls[self.op_id] = (start, end)
        try:
            return checks.check_op(op, returncode, stdout), end - start
        except checks.CheckError as exc:
            return None, str(exc)

    def group(self, group, traced=False):
        results = [self._op(op, traced) for op in group]
        errors = [f"{_label(op)}: {detail}"
                  for op, (payload, detail) in zip(group, results)
                  if payload is None]
        if not errors:
            try:
                drift = checks.check_group(group, [p for p, _ in results])
            except checks.CheckError as exc:
                errors = [f"{_label(op)}: {exc}" for op in group]
            else:
                if drift is not None:
                    self.drifts.append(drift)
        if errors:
            self.failures.extend(errors)
        else:
            self.latencies.extend(latency for _, latency in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, help="checkout holding src/qsc")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    modules = load_qsc(args.root)
    stream = workloads.cycles(args.workload, args.seed)
    cycle = next(stream)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer(modules) if args.trace else None
    loop = Loop(modules, tracer)
    start = time.perf_counter()
    while True:
        for index, group in enumerate(cycle):
            if tracer is None:
                loop.group(group)
            else:
                # alternate which pass goes first, so neither always runs warm
                for traced in ((False, True) if index % 2 else (True, False)):
                    loop.group(group, traced)
        if time.perf_counter() - start >= args.seconds:
            break
        cycle = next(stream)
    loop_s = time.perf_counter() - start

    result = {
        "attempted": loop.attempted,
        "failures": loop.failures,
        "latencies": loop.latencies,
        "drifts": loop.drifts,
        "loop_s": loop_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(),
    }
    if tracer is not None:
        n_traced = len(loop.traced_walls)
        result["layers"] = tracer.summary(loop.traced_walls)
        result["traced_op_s"] = loop.walls[True] / n_traced
        result["overhead_s"] = (loop.walls[True] - loop.walls[False]) / n_traced
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
