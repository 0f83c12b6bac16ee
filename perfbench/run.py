"""qsc benchmark: one workload per invocation, closed loop with one client.

    python3 perfbench/run.py --workload gfs_dense --seed 1 --seconds 30 --trace 0

Run from anywhere; qsc is imported from the ``src`` directory next to
``perfbench``.  With ``--trace 0`` the end-to-end metrics are printed, with
``--trace 1`` the per-layer metrics of a separate traced run and the tracing
overhead.  Every metric is printed on its own line with its unit, then the
environment, then one JSON object as the last line:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every op passed its check, 1 when an op failed (the result is still
printed), and 1 without a result when the workload process could not run.

Set-up time is measured from launching a worker process to the moment it is
ready for its first timed op; it is the median over ``SETUP_PROBES``
set-up-only launches plus the measured run's own launch.  The workloads and
the correctness checks are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
# a run may overshoot --seconds by one cycle of ops; everything beyond
# this margin is a hang
TIMEOUT_MARGIN_S = 120.0
# a workload run needs this many ops before its 90th percentile has ten
# samples beyond it
P90_MIN_OPS = 100
# the workloads and the metrics, with their units and order, come from the
# benchmark spec
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class WorkerError(RuntimeError):
    """The workload process failed to start or to finish."""


def _launch(workload, seed, seconds, trace, setup_only):
    argv = [sys.executable, str(HERE / "worker.py"), str(ROOT),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    return subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)


def _await_ready(proc, timeout) -> None:
    readable, _, _ = select.select([proc.stdout], [], [], timeout)
    if not readable or proc.stdout.readline().strip() != "READY":
        raise WorkerError(f"worker not ready (exit code {proc.poll()})")


def _finish(proc, timeout) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker still running after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def _timed(workload, seed, seconds, trace, setup_only):
    """Launch a worker; return (set-up seconds, its stdout after READY)."""
    start = time.perf_counter()
    proc = _launch(workload, seed, seconds, trace, setup_only)
    try:
        _await_ready(proc, TIMEOUT_MARGIN_S)
        setup_s = time.perf_counter() - start
        return setup_s, _finish(proc, seconds + TIMEOUT_MARGIN_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def git_commit(root: Path):
    """HEAD commit read from ``.git`` files, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(result, setup_samples) -> tuple[dict, list[str]]:
    latencies = result["latencies"]
    metrics = {
        "ops_per_s": len(latencies) / result["loop_s"],
        # no op passed: the run is reported incorrect, and 0 keeps the
        # last line strict JSON
        "op_p50_s": statistics.median(latencies) if latencies else 0.0,
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }
    notes = [f"failed_ops = {len(result['failures']) / result['attempted']!r} "
             f"share ({len(result['failures'])} of {result['attempted']} ops)",
             f"ops = {len(latencies)} passed in {result['loop_s']!r} s"]
    if len(latencies) >= P90_MIN_OPS:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        notes.append(f"op_p90_s = {p90!r} s")
    else:
        notes.append(f"op_p90_s omitted: {len(latencies)} ops passed, fewer "
                     f"than the {P90_MIN_OPS} that put ten samples beyond it")
    notes.append("setup_s samples = " + json.dumps(setup_samples))
    drifts = result["drifts"]
    if drifts:
        beyond = sum(d > checks.C10_TOL for d in drifts)
        notes.append(f"pre-rotation drift: max {max(drifts)!r}; {beyond} of "
                     f"{len(drifts)} pairs beyond {checks.C10_TOL:g}")
    return metrics, notes


def per_layer(result) -> tuple[dict, list[str]]:
    metrics = dict(result["layers"])
    metrics["trace.op_s"] = result["traced_op_s"]
    metrics["trace.overhead_s"] = result["overhead_s"]
    share = result["overhead_s"] / (result["traced_op_s"] - result["overhead_s"])
    return metrics, [f"tracing overhead = {share!r} of untraced op wall"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup_samples.append(_timed(args.workload, args.seed,
                                            args.seconds, 0, True)[0])
        setup_s, out = _timed(args.workload, args.seed, args.seconds,
                              args.trace, False)
        setup_samples.append(setup_s)
        result = json.loads(out.splitlines()[-1])
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, notes = per_layer(result)
        declared = SPEC["per_layer"]
    else:
        metrics, notes = end_to_end(result, setup_samples)
        declared = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
               for m in declared}
    failed = len(result["failures"])
    print(f"workload = {args.workload}, seed = {args.seed}, "
          f"seconds = {args.seconds:g}, trace = {args.trace}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    for note in notes:
        print(note)
    for failure in result["failures"][:10]:
        print(f"FAILED {failure}")
    print("env = " + json.dumps({**result["env"], "seed": args.seed,
                                 "git_commit": git_commit(ROOT)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
