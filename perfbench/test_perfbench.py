"""Tests of the benchmark itself: inputs, output checks, smoke runs."""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads
from tracer import Tracer
from worker import Loop, load_qsc

HERE = Path(__file__).resolve().parent


def _take(name, seed, n=3):
    return list(itertools.islice(workloads.cycles(name, seed), n))


def test_spec_names_the_generated_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    assert _take(name, 11) == _take(name, 11)
    assert _take(name, 11) != _take(name, 12)


@pytest.mark.parametrize("name, ladder", [
    ("gfs_dense", workloads.GFS_TERMS), ("mfs_sparse", workloads.MFS_TERMS)])
def test_every_cycle_holds_the_whole_ladder(name, ladder):
    for cycle in _take(name, 4):
        assert sorted(g[0]["ref"]["terms"] for g in cycle) == sorted(ladder)


def test_pre_rotated_literal_round_trips():
    group = _take("mfs_sparse", 3, 1)[0][0]
    plain, rotated = (op["argv"][1] for op in group)
    alpha = group[0]["ref"]["alpha"]
    parse = lambda lit: [complex(t.replace("i", "j"))
                         for t in lit.split(":")[1].split(",")]
    for n, (a, b) in enumerate(zip(parse(plain), parse(rotated))):
        assert b == pytest.approx(a * complex(math.cos(n * alpha),
                                              math.sin(n * alpha)), abs=1e-15)


def _measure_payload(theta, cfs_scale=1.0):
    entropy = 1.3
    power = math.exp(2.0 * entropy) / (2.0 * math.pi * math.e)
    fisher = cfs_scale / power
    return {"theta": theta, "fisher": fisher, "entropy": entropy,
            "entropy_power": power, "cfs": fisher * power, "lmc": 0.5,
            "cr": 0.5, "extension_measures_flag": "lmc,cr"}


GAUSS_OP = {"argv": ["measure", "gauss:sigma=2.0", "--theta", "0.5"],
            "ref": {"kind": "gauss", "theta": 0.5}}
BOX_OP = {"argv": ["measure", "box:n=2,N=300", "--theta", "0"],
          "ref": {"kind": "box", "n": 2, "theta": 0.0}}
BOX_CFS = 8.0 * math.pi * 4 / math.exp(3.0)


def test_check_accepts_reference_values():
    checks.check_op(GAUSS_OP, 0, json.dumps(_measure_payload(0.5)))
    checks.check_op(BOX_OP, 0, json.dumps(_measure_payload(0.0, 0.97 * BOX_CFS)))


@pytest.mark.parametrize("op, payload", [
    (GAUSS_OP, _measure_payload(0.5, 1.01)),            # Gaussian cfs != 1
    (GAUSS_OP, _measure_payload(0.4)),                  # wrong angle
    (BOX_OP, _measure_payload(0.0, 0.9 * BOX_CFS)),     # box off its law
    (GAUSS_OP, {**_measure_payload(0.5), "cfs": 1.5}),  # cfs != I * J
])
def test_check_flags_doctored_value(op, payload):
    with pytest.raises(checks.CheckError):
        checks.check_op(op, 0, json.dumps(payload))


@pytest.mark.parametrize("text", [
    '{"gfs": NaN, "converged": false, "resolution": 1024}',
    '{"gfs": Infinity, "converged": false, "resolution": 1024}',
    '{"gfs": 3.0, "converged": false, "resolution": 1024',
    '[3.0]',
])
def test_check_flags_non_strict_json(text):
    op = {"argv": ["gfs", "super:1,1"], "ref": {}}
    with pytest.raises(checks.CheckError):
        checks.check_op(op, 0, text)


def test_check_flags_exit_code_and_bounds():
    op = {"argv": ["mfs", "super:1,1"], "ref": {}}
    good = json.dumps({"mfs": 2.0, "theta_star": 0.1})
    checks.check_op(op, 0, good)
    with pytest.raises(checks.CheckError):
        checks.check_op(op, 3, good)
    with pytest.raises(checks.CheckError):
        checks.check_op(op, 0, json.dumps({"mfs": 0.9, "theta_star": 0.1}))
    with pytest.raises(checks.CheckError):
        checks.check_op({"argv": ["gfs", "x"], "ref": {}}, 0, json.dumps(
            {"gfs": 2.0, "converged": False, "resolution": 0}))


def test_check_flags_rotation_drift():
    group = _take("gfs_dense", 1, 1)[0][0]
    base = {"gfs": 100.0, "converged": False, "resolution": 1024}
    assert checks.check_group(group, [base, {**base, "gfs": 100.2}]) \
        == pytest.approx(0.2 / 100.2)
    with pytest.raises(checks.CheckError):
        checks.check_group(group, [base, {**base, "gfs": 102.0}])
    group = _take("mfs_sparse", 1, 1)[0][0]
    base = {"mfs": 2.0, "theta_star": 0.5}
    checks.check_group(group, [base, {**base, "mfs": 2.001}])
    with pytest.raises(checks.CheckError):
        checks.check_group(group, [base, {**base, "mfs": 2.1}])


@pytest.fixture(scope="module")
def modules():
    return load_qsc(HERE.parent)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_of_each_workload(name, modules):
    loop = Loop(modules)
    loop.group(next(workloads.cycles(name, 5))[0])
    assert loop.failures == []
    assert loop.attempted == len(loop.latencies) >= 1


def test_traced_run_reports_every_layer(modules):
    original = modules["qsc.cli"].parse_state_literal
    tracer = Tracer(modules)
    loop = Loop(modules, tracer)
    loop.group(next(workloads.cycles("mfs_sparse", 5))[0], traced=True)
    assert loop.failures == []
    assert modules["qsc.cli"].parse_state_literal is original
    layers = tracer.summary(loop.traced_walls)
    for name in ("catalog.build_calls", "state.density_calls",
                 "functionals.reports", "sweep.angles_per_op",
                 "sweep.golden_evals_per_op"):
        assert layers[name] > 0, name
    assert 0.0 < layers["sweep.cache_hit_ratio"] < 1.0
    assert set(run.per_layer({"layers": layers, "traced_op_s": 1.0,
                              "overhead_s": 0.1})[0]) \
        == {m["name"] for m in run.SPEC["per_layer"]}
    # every span hangs off a traced op
    assert {span[0] for span in tracer.spans} <= set(loop.traced_walls)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mfs_sparse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
