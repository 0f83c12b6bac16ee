import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsc
from qsc.catalog import parse_state_literal
from qsc.cli import _numerics, build_parser, main
from qsc.errors import NumericsError
from qsc.functionals import Numerics, chunk_rows
from qsc.hermite import MAX_TABLE_CELLS, row_chunks, tabulate
from qsc.state import Grid, eval_density, make_state
from qsc.sweep import sweep

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def allocations_capped():
    """numpy's array constructors raise AssertionError, inside the block,
    for an array of more than MAX_TABLE_CELLS elements."""
    def capped(allocate):
        def checked(shape, *args, **kwargs):
            dims = shape if isinstance(shape, (tuple, list)) else (shape,)
            if math.prod(int(d) for d in dims) > MAX_TABLE_CELLS:
                raise AssertionError(f"np.{allocate.__name__}({shape!r}) "
                                     "past the cell cap")
            return allocate(shape, *args, **kwargs)
        return checked

    with pytest.MonkeyPatch.context() as patch:
        for name in ("empty", "zeros", "ones", "full"):
            patch.setattr(np, name, capped(getattr(np, name)))
        yield


class TestMeasure:
    def test_json_keys_and_value(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "fock:1", "--theta", "0")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["theta", "fisher", "entropy", "entropy_power",
                                 "cfs", "lmc", "cr", "extension_measures_flag"]
        assert payload["cfs"] == pytest.approx(5.1517578, rel=1e-6)
        assert payload["extension_measures_flag"] == "lmc,cr"

    def test_gaussian_is_unit_complexity(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "gauss:sigma=1", "--theta", "0.5")
        assert code == 0
        assert json.loads(out)["cfs"] == pytest.approx(1.0, abs=1e-5)

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "measure", "bogus:1")
        assert code == 2
        assert "error" in err

    def test_numerics_error_exit_code(self, capsys):
        # a well eigenstate whose truncation cannot capture the norm
        code, _, err = run_cli(capsys, "measure", "box:n=5,N=24")
        assert code == 3
        assert "numerics" in err

    @pytest.mark.parametrize("literal", [
        "gauss:sigma=1,N=2",       # the truncation leaves a norm deficit
        "gauss:sigma=13",          # no adequate truncation below the cap
    ], ids=["norm_deficit", "no_truncation"])
    def test_gauss_truncation_failure_is_a_numerics_error(self, capsys,
                                                          literal):
        code, out, err = run_cli(capsys, "measure", literal)
        assert code == 3
        assert out == ""
        assert "numerics" in err

    def test_gauss_odd_truncation_is_a_parse_error(self, capsys):
        code, out, err = run_cli(capsys, "measure", "gauss:sigma=1,N=3")
        assert code == 2
        assert out == ""
        assert "even" in err
        assert "gauss: N must be even" in err

    @pytest.mark.parametrize("literal", [
        "box:n=1,N=100000000",     # its first node count is over the cell cap
        "box:n=1,N=3000",          # projects quickly; the grid cannot hold it
        "box:n=1,N=" + "9" * 400,  # beyond float range
    ], ids=["N=1e8", "N=3000", "N=400_digits"])
    def test_box_truncation_past_the_caps_is_refused(self, capsys, literal):
        code, out, err = run_cli(capsys, "measure", literal, "--theta", "0")
        assert code == 3
        assert out == ""
        assert "numerics" in err

    @pytest.mark.parametrize("literal", [
        "fock:999999999999999999999999999999",
        "fock:1000000000",
        "gauss:sigma=1,N=1000000000",
        "gauss:sigma=1,N=" + "9" * 400,
    ], ids=["fock:30_digits", "fock:1e9", "gauss:N=1e9", "gauss:N=400_digits"])
    def test_truncation_past_the_cell_cap_is_refused_before_it_exists(
            self, capsys, literal):
        # the basis table of N + 2 rows is checked before any coefficient
        with allocations_capped():
            code, out, err = run_cli(capsys, "measure", literal)
        assert code == 3
        assert out == ""
        assert "exceed the cap" in err

    @pytest.mark.parametrize("argv", [
        ("measure", "fock:1", "--theta", "nan"),
        ("measure", "fock:1", "--theta", "inf"),
        ("gfs", "super:nan,1"),
        ("mfs", "gauss:sigma=inf"),
        ("measure", "gauss:sigma=nan,analytic"),
    ])
    def test_non_finite_input_is_a_parse_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_non_finite_result_is_a_numerics_error(self, capsys, monkeypatch):
        monkeypatch.setattr("qsc.cli.min_fs", lambda state, numerics: (0.1, math.nan))
        code, out, err = run_cli(capsys, "mfs", "fock:1")
        assert code == 3
        assert out == ""
        assert "not finite" in err

    @pytest.mark.parametrize("argv", [
        ("gfs", "fock:1", "--gfs-rel-tol", "nan"),
        ("gfs", "fock:1", "--gfs-rel-tol", "-1"),
        ("mfs", "fock:1", "--mfs-theta-tol", "nan"),
        ("mfs", "fock:1", "--mfs-theta-tol", "0"),
        ("measure", "fock:1", "--grid-points", "1"),
        ("sweep", "fock:1", "--theta-samples", "2"),
        ("gfs", "fock:1", "--gfs-rel-tol", "-1e-3"),
        ("mfs", "fock:1", "--mfs-theta-tol", "inf"),
    ])
    def test_bad_numerics_flag_is_a_parse_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ("measure", "fock:1", "--grid-points", "2"),
        ("mfs", "gauss:sigma=100,analytic"),
        ("gfs", "gauss:sigma=30,analytic"),
        ("measure", "gauss:sigma=2,analytic", "--grid-points", "8"),
    ])
    def test_grid_that_cannot_hold_the_state_is_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "cannot hold the state" in err

    @pytest.mark.parametrize("extent, message", [
        ("1e305", "overflows its points"),
        ("1e300", "cannot hold the state"),
        ("1e200", "cannot hold the state")])
    def test_grid_whose_points_overflow_is_refused_without_a_warning(
            self, extent, message):
        # no command builds such a grid, but the library's Grid and basis
        # rows take any extent.  extent x (count - 1) passes the largest
        # float from about 4.4e304 at 4096 points; below that the rows
        # past |x| = 2**20 are 0.0, whole or streamed, and hold no mass
        state = make_state([1.0] * 10, renormalize=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if message == "overflows its points":
                with pytest.raises(NumericsError, match=message):
                    Grid(extent=float(extent), count=4096)
                return
            grid = Grid(extent=float(extent), count=4096)
            for table in (tabulate(grid.half_points, 10),
                          row_chunks(grid.half_points, 10, 3)):
                with pytest.raises(NumericsError, match=message):
                    eval_density(state, 0.3, grid, table)

    @pytest.mark.parametrize("literal, points", [
        ("fock:1", "100000000"),
        ("gauss:sigma=2,analytic", "100000000"),
        # past the cap only in the padded workspace: 12 half rows of one
        # angle for fock:0, 24 of the two-angle build for the Gaussian
        ("fock:0", "33554432"),
        ("gauss:sigma=2,analytic", "11184810")],
        ids=["fock:1", "gauss:sigma=2,analytic", "fock:0_workspace",
             "gauss_build_workspace"])
    def test_grid_past_the_cell_cap_is_refused_before_it_exists(
            self, capsys, monkeypatch, literal, points):
        # the largest array is checked before the grid or any table is built
        def unreachable(*args, **kwargs):
            raise AssertionError("grid built past the cap")
        module = importlib.import_module("qsc.functionals")
        monkeypatch.setattr(module, "Grid", unreachable)
        monkeypatch.setattr(module, "default_grid", unreachable)
        code, out, err = run_cli(capsys, "measure", literal,
                                 "--grid-points", points)
        assert code == 3
        assert out == ""
        assert "exceed the cap" in err
        # in the user's terms: the grid points asked for
        assert f" {points} " in err

    @pytest.mark.parametrize("argv, message", [
        (("gauss:sigma=2,N=800", "--grid-points", "1024"),
         "cannot hold the state"),
        (("super:" + ",".join(["1"] * 70), "--grid-points", "2097152"),
         "exceed the cap"),
    ], ids=["coarse", "cap"])
    def test_streamed_measure_refuses_what_the_evaluator_refuses(
            self, capsys, monkeypatch, argv, message):
        # each state has more basis rows than one streamed chunk holds; the
        # grid is refused on row N, which comes in a later chunk than the
        # first products, with no floating-point warning on the way, and
        # the cap before the grid exists
        state = parse_state_literal(argv[0])
        assert state.n_max + 2 > chunk_rows(int(argv[2])
                                            if argv[1] == "--grid-points"
                                            else 4096)
        if message == "exceed the cap":
            def unreachable(*args, **kwargs):
                raise AssertionError("grid built past the cap")
            monkeypatch.setattr(importlib.import_module("qsc.functionals"),
                                "default_grid", unreachable)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "measure", *argv)
        assert code == 3
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("sigma", ["1e200", "1e150", "1e-150"])
    def test_analytic_width_beyond_float_range_is_refused(self, capsys, sigma):
        code, out, err = run_cli(capsys, "measure", f"gauss:sigma={sigma},analytic")
        assert code == 2
        assert out == ""
        assert "sigma must lie in" in err

    @pytest.mark.parametrize("literal", ["super:1e300,1e300",
                                         "super:1e-170,1e-170"])
    def test_coefficient_scale_does_not_matter(self, capsys, literal):
        # |c|^2 overflows or underflows; the renormalized state is (|0>+|1>)/sqrt(2)
        code, out, _ = run_cli(capsys, "measure", literal, "--theta", "0.3")
        assert code == 0
        _, expected, _ = run_cli(capsys, "measure", "super:1,1", "--theta", "0.3")
        assert out == expected

    @pytest.mark.parametrize("literal", ["super:1e-310,0,1e-310",
                                         "super:5e-324,0,5e-324"])
    @pytest.mark.parametrize("argv", [("sweep", "--theta-samples", "8"),
                                      ("measure", "--theta", "0.3")])
    def test_subnormal_coefficients_are_renormalized(self, capsys, literal,
                                                     argv):
        # a complex quotient by a subnormal once turned every value into NaN
        command, *flags = argv
        code, out, _ = run_cli(capsys, command, literal, *flags)
        assert code == 0
        _, expected, _ = run_cli(capsys, command, "super:1,0,1", *flags)
        assert out == expected

    def test_non_finite_coefficient_is_named(self, capsys):
        code, out, err = run_cli(capsys, "measure", "super:inf,1")
        assert code == 2
        assert out == ""
        assert "'inf'" in err

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["measure", "fock:1", "--frobnicate"])
        assert exc.value.code == 2

    def test_node_threshold_is_not_a_flag(self, capsys):
        # the Fisher integrand has no node threshold to set: I = kinetic -
        # 4 int j^2 / rho needs none
        with pytest.raises(SystemExit) as exc:
            main(["measure", "fock:1", "--node-eps", "nan"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flags", [
        ("--theta", "-1e-3"), ("--theta", "-2.5E+1"), ("--theta", "-.5e0")])
    def test_negative_angle_in_exponent_form_is_a_value(self, capsys, flags):
        # argparse takes only -1 and -0.5 as numbers, and took -1e-3 for a
        # flag: the value is the one the = form gives
        flag, value = flags
        code, out, _ = run_cli(capsys, "measure", "fock:1", flag, value)
        assert code == 0
        assert run_cli(capsys, "measure", "fock:1",
                       f"{flag}={value}")[:2] == (0, out)

    def test_negative_infinite_angle_is_still_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["measure", "fock:1", "--theta", "-inf"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("theta", ["1e17", "1e6", "-0.3",
                                       repr(1.5 * math.pi)])
    def test_measure_evaluates_the_angle_it_reports(self, capsys, theta):
        # the phases are applied at the canonical angle, not the raw one,
        # whose phases lose every digit to rounding at 1e17
        code, out, _ = run_cli(capsys, "measure", "super:1,0,1", "--theta", theta)
        assert code == 0
        printed = repr(json.loads(out)["theta"])
        assert 0.0 <= float(printed) < math.pi
        _, expected, _ = run_cli(capsys, "measure", "super:1,0,1",
                                 "--theta", printed)
        assert out == expected

    @pytest.mark.parametrize("literal,k", [("super:,1", 0), ("super:1,,2", 1),
                                           ("super:1,0,", 2)])
    def test_empty_coefficient_is_named(self, capsys, literal, k):
        # an empty field never shifts the later coefficients
        code, out, err = run_cli(capsys, "measure", literal)
        assert code == 2
        assert out == ""
        assert f"the coefficient of |{k}> is empty" in err

    @pytest.mark.parametrize("literal", ["box:n=1,n=3", "gauss:sigma=1,sigma=2",
                                         "gauss:sigma=2,analytic,analytic"])
    def test_repeated_field_is_a_parse_error(self, capsys, literal):
        code, out, err = run_cli(capsys, "measure", literal)
        assert code == 2
        assert out == ""
        assert "given twice" in err


class TestSweep:
    def test_csv_format(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "sweep", "fock:2", "--theta-samples", "8",
                             "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        lines = text.split("\n")
        assert lines[0] == "theta,fisher,entropy,entropy_power,cfs"
        assert lines[-1] == ""          # single trailing newline, no padding
        rows = lines[1:-1]
        assert len(rows) == 8
        values = [float(r.split(",")[4]) for r in rows]
        spread = max(values) - min(values)
        assert spread <= 1e-6 * values[0]

    def test_csv_stdout_and_determinism(self, capsys):
        code, first, _ = run_cli(capsys, "sweep", "super:1,0,1",
                                 "--theta-samples", "16")
        assert code == 0
        code, second, _ = run_cli(capsys, "sweep", "super:1,0,1",
                                  "--theta-samples", "16")
        assert first == second

    def test_csv_significant_digits(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "fock:1", "--theta-samples", "4")
        row = out.split("\n")[2]          # a nonzero-theta row
        theta_txt = row.split(",")[0]
        assert theta_txt == format(math.pi / 4, ".12g")

    @pytest.mark.parametrize("argv", [
        ("--theta-samples", "100000000"),
        ("--theta-samples", "32769"),
        ("--theta-samples", "16385", "--grid-points", "8192"),
    ], ids=["1e8", "cap+1", "cap+1_at_8192_points"])
    def test_lattice_past_the_cap_is_refused_at_once(self, capsys,
                                                     monkeypatch, argv):
        # the cap is checked before the lattice or the evaluator is built
        def unreachable(*args, **kwargs):
            raise AssertionError("built past the cap")
        module = importlib.import_module("qsc.sweep")
        monkeypatch.setattr(module, "_lattice", unreachable)
        monkeypatch.setattr(module, "evaluator_for", unreachable)
        code, out, err = run_cli(capsys, "sweep", "fock:1", *argv)
        assert code == 2
        assert out == ""
        assert "exceed the cap" in err

    def test_svg_emission(self, capsys, tmp_path):
        svg_path = tmp_path / "curve.svg"
        code, _, _ = run_cli(capsys, "sweep", "super:1,0,1",
                             "--theta-samples", "16",
                             "--out", str(tmp_path / "c.csv"),
                             "--svg", str(svg_path))
        assert code == 0
        body = svg_path.read_text()
        assert "<polyline" in body and "theta" in body and "cfs" in body

    def test_unwritable_path_exit_code(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        code, _, err = run_cli(capsys, "sweep", "fock:1", "--out", str(target))
        assert code == 4
        assert "io error" in err

    def test_non_finite_value_is_a_numerics_error(self, capsys, monkeypatch,
                                                  tmp_path):
        result = sweep(parse_state_literal("fock:1"), 4)
        bad = (replace(result.reports[0], cfs=math.nan),) + result.reports[1:]
        monkeypatch.setattr("qsc.cli.sweep", lambda state, n, numerics:
                            replace(result, reports=bad))
        target = tmp_path / "curve.csv"
        code, out, err = run_cli(capsys, "sweep", "fock:1", "--theta-samples",
                                 "4", "--out", str(target))
        assert code == 3
        assert out == ""
        assert "not finite" in err
        assert not target.exists()

    def test_unwritable_svg_path_writes_no_csv(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "curve.svg"
        code, out, err = run_cli(capsys, "sweep", "fock:1", "--theta-samples",
                                 "4", "--svg", str(target))
        assert code == 4
        assert out == ""
        assert "io error" in err


class TestMeasures:
    def test_gfs_output(self, capsys):
        code, out, _ = run_cli(capsys, "gfs", "super:1,0,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["gfs"] == pytest.approx(2.91860, abs=1e-3)
        assert payload["converged"] is True

    def test_gfs_runs_no_golden_section_search(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("gfs ran the minimum search")
        monkeypatch.setattr(importlib.import_module("qsc.sweep"),
                            "_brent_min", unreachable)
        code, out, _ = run_cli(capsys, "gfs", "super:1,0,1")
        assert code == 0
        assert json.loads(out) == {
            "gfs": pytest.approx(2.91859815552898, rel=1e-12),
            "converged": True, "resolution": 1024}

    def test_mfs_output(self, capsys):
        code, out, _ = run_cli(capsys, "mfs", "super:1,0,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["mfs"] == pytest.approx(2.24683, abs=1e-4)
        assert 0.0 <= payload["theta_star"] < math.pi


class TestReferenceCommands:
    def test_table1_passes(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 10
        assert all(r["ok"] for r in rows)

    def test_table1_is_the_table1_section_of_reproduce(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--json")
        assert code == 0
        full_code, full, _ = run_cli(capsys, "reproduce", "--json")
        assert full_code == 1
        assert json.loads(out) == [r for r in json.loads(full)
                                   if r["id"].startswith("table1:")]
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        assert out.endswith("\nall 10 rows within tolerance\n")

    def test_box_command(self, capsys):
        code, out, _ = run_cli(capsys, "box", "--n-max", "2", "--json")
        assert code == 0
        rows = json.loads(out)
        assert [r["n"] for r in rows] == [1, 2]
        for row in rows:
            assert row["position_pipeline"] > 1.0
            assert row["momentum_pipeline"] > 1.0
            assert math.isfinite(row["momentum_formula"])

    @pytest.mark.parametrize("flags", [("--n-fock", "3"), ("--n-max", "0"),
                                       ("--n-max", "-1")])
    def test_box_bad_flag_is_a_parse_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "box", *flags)
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_reproduce_reports_known_discrepancies(self, capsys):
        # the built-in reference table contains values that are inconsistent
        # with the defining integrals (see README); those rows, and only
        # those, fail at default numerics
        code, out, _ = run_cli(capsys, "reproduce", "--json")
        assert code == 1
        rows = json.loads(out)
        failed = {r["id"] for r in rows if not r["ok"]}
        passed = {r["id"] for r in rows if r["ok"]}
        assert {f"table1:fock_{n}" for n in range(1, 11)} <= passed
        assert {"mfs:phi1_plus", "mfs:phi1_minus",
                "mfs:phi2_plus", "mfs:phi2_minus"} <= passed
        expected_failures = (
            {f"phi1_{t}:theta={a}" for t in ("plus", "minus")
             for a in ("0", "pi/2")}
            | {f"phi2_{t}:theta={a}" for t in ("plus", "minus")
               for a in ("0", "pi/2")}
            | {f"gfs:phi{m}_{t}" for m in (1, 2) for t in ("plus", "minus")}
            | {f"box:position_n={n}" for n in range(1, 6)})
        assert failed == expected_failures

    def test_reproduce_lists_failures_in_text_mode(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce")
        assert code == 1
        assert "row(s) outside tolerance" in out
        assert "gfs:phi1_plus" in out


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "selftest ok" in out


@pytest.mark.parametrize("flag", [("--grid-points", "1"),
                                  ("--gfs-rel-tol", "nan")])
def test_selftest_takes_no_numerics_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", *flag])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ("measure", "fock:1"), ("sweep", "fock:1"), ("gfs", "fock:1"),
    ("mfs", "fock:1"), ("table1",), ("box",), ("reproduce",)])
def test_grid_margin_is_not_a_flag(capsys, argv):
    # the grid's margin is a constant of the discretization
    # (qsc.state.GRID_MARGIN), not a parameter of the measures
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--grid-margin", "6"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ("measure", "fock:1", "--gfs-rel-tol", "1e-3"),
    ("measure", "fock:1", "--mfs-theta-tol", "1e-3"),
    ("sweep", "fock:1", "--gfs-rel-tol", "1e-3"),
    ("sweep", "fock:1", "--mfs-theta-tol", "1e-3"),
    ("gfs", "fock:1", "--mfs-theta-tol", "1e-3"),
    ("mfs", "fock:1", "--gfs-rel-tol", "1e-3"),
    ("table1", "--gfs-rel-tol", "1e-3"),
    ("table1", "--mfs-theta-tol", "1e-3"),
    ("box", "--gfs-rel-tol", "1e-3"),
    ("box", "--mfs-theta-tol", "1e-3"),
])
def test_a_command_refuses_the_tolerances_it_does_not_read(capsys, argv):
    # a flag that changes nothing is refused, not silently ignored
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_main_is_reentrant_on_the_one_parser(capsys):
    # main parses every call with the parser of the process: no command's
    # flags or defaults leak into the next one, nor does a refused one
    assert build_parser() is build_parser()
    for argv, count in ((("box", "--n-max", "2", "--json"), 2),
                        (("box", "--json"), 5)):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(json.loads(out)) == count
    table1 = [f"table1:fock_{n}" for n in range(1, 11)]
    code, out, _ = run_cli(capsys, "table1", "--json")
    assert code == 0
    assert [r["id"] for r in json.loads(out)] == table1
    code, out, _ = run_cli(capsys, "reproduce", "--json")
    assert code == 1
    ids = [r["id"] for r in json.loads(out)]
    assert len(ids) == 31 and ids[:10] == table1
    assert ids[-1] == "box:position_n=5"
    first = run_cli(capsys, "measure", "fock:1")
    assert first[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, "measure", "fock:" + "9" * 30)[0] == 3
    assert run_cli(capsys, "measure", "fock:1") == first


def test_flag_defaults_are_the_numerics_defaults():
    assert _numerics(build_parser().parse_args(["gfs", "fock:1"])) == Numerics()


@pytest.mark.parametrize("argv", [
    # psi and psi' of a 64-term block: two half-width products
    ("gfs", "super:" + ",".join(f"{1 + n % 7}-{n % 5}i" for n in range(64))),
    # a 3-term state's full-width product, on the lattice and on Brent's
    # one-row blocks
    ("mfs", "super:1,2i,3"),
    # theta_star is set by rounding here (tests/test_cli_outputs.py)
    ("mfs", "fock:5"),
    # one angle of a 3-term state: both sides from one product
    ("measure", "super:1,2i,3", "--theta", "0.3"),
    # an odd grid, whose x = 0 sits on one folded half only
    ("sweep", "super:1,0,1", "--theta-samples", "16",
     "--grid-points", "4097"),
    ("box", "--json"),
    # one streamed angle of 386 basis rows, the benchmark's heaviest
    # build_measure op
    ("measure", "box:n=6,N=384", "--theta", "0"),
    # a grid past |x| = 37.14, where each chunk of rows hands a binary
    # exponent per column on to the next
    ("measure", "fock:1200", "--theta", "0.4"),
    # a lattice of 257-term blocks
    ("sweep", "super:" + ",".join(
        repr(float(x)) for x in np.random.default_rng(5).normal(size=257)),
     "--theta-samples", "256"),
], ids=["gfs64", "mfs3", "mfs_fock5", "measure3", "sweep4097", "box",
        "measure_box384", "measure_fock1200", "sweep257"])
def test_promised_outputs_are_the_same_for_any_blas_thread_count(argv):
    # BLAS does the sums over Fock terms; the outputs the README promises
    # byte-identical are, on one BLAS thread and on OpenBLAS's default
    src = str(Path(qsc.__file__).resolve().parents[1])

    def stdout(threads):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "qsc", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert stdout("1") == stdout(None)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qsc", "measure", "fock:0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cfs"] == pytest.approx(1.0, abs=1e-6)


# Fuzzed command lines.  Each field is either plausible or wild: random
# text, empty, non-finite or huge.  A truncation (Fock index, N=) is either
# at most 64 or so large that its basis table passes the cell cap on any
# grid of 2 points or more, and the grid has at most 1024 points, so no
# large table or grid is built; allocations_capped fails a run that tries.
# A sweep samples 4 to 16 angles and must print finite values only.
_WILD = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", "x", "nan", "-inf", "1e400", "1e-400", "9" * 40]))
_WILD_TRUNCATION = st.one_of(
    st.integers(-3, 64).map(str),
    st.integers(MAX_TABLE_CELLS // 2 - 1, 10 ** 40).map(str),
    st.sampled_from(["", "x", "1.5", "nan", "inf", "1e400", "9" * 400]))


def _field(low, high, wild=_WILD):
    plausible = (st.integers(low, high) if isinstance(low, int)
                 else st.floats(low, high))
    return st.one_of(plausible.map(str), wild)


def _truncation(low, high):
    return _field(low, high, _WILD_TRUNCATION)


# extra fields: empty, unknown, repeated or malformed
_EXTRA = st.lists(st.sampled_from(
    ["", " ", "analytic", "sigma=1", "n=1", "N=8", "x=1", "junk"]), max_size=2)
# coefficients at the ends of the float range: subnormal, largest finite
_EXTREME = ["1e-310", "5e-324", "1e308", "-1e-320i"]
_COEFFICIENT = st.one_of(
    _field(-2.0, 2.0),
    st.sampled_from(["1+1i", "2i", "-1-0.5i", "i", "1e300i", "nani",
                     *_EXTREME]))


@st.composite
def _gauss_literal(draw):
    route = draw(st.sampled_from(["auto", "N", "analytic"]))
    if route == "auto":
        # the automatic truncation stays at or below 64 here
        parts = [f"sigma={draw(st.floats(0.35, 1.5))}"]
    elif route == "N":
        parts = [f"sigma={draw(_field(0.6, 1.2))}",
                 f"N={draw(_truncation(2, 64))}"]
    else:
        parts = [f"sigma={draw(_field(0.1, 10.0))}", "analytic"]
    parts += draw(_EXTRA)
    return "gauss:" + ",".join(draw(st.permutations(parts)))


@st.composite
def _box_literal(draw):
    # N= is always given: the default truncation is 256
    parts = [f"n={draw(_truncation(1, 4))}", f"N={draw(_truncation(16, 64))}"]
    parts += draw(_EXTRA)
    return "box:" + ",".join(draw(st.permutations(parts)))


_LITERAL = st.one_of(
    _truncation(0, 64).map("fock:{}".format),
    st.lists(_COEFFICIENT, max_size=8).map(lambda c: "super:" + ",".join(c)),
    # only extreme or zero coefficients, whose squares all under- or overflow
    st.lists(st.sampled_from(["0", *_EXTREME]), min_size=1, max_size=4).map(
        lambda c: "super:" + ",".join(c)),
    _gauss_literal(), _box_literal(),
    st.text(max_size=6).filter(lambda t: ":" not in t))


@st.composite
def _command_line(draw):
    command = draw(st.sampled_from(["measure", "gfs", "mfs", "sweep"]))
    argv = [command, draw(_LITERAL)]
    if command == "sweep":
        argv.append(f"--theta-samples={draw(st.integers(4, 16))}")
    flags = {"--grid-points": _field(
                 64, 1024, st.one_of(st.integers(-2, 63).map(str),
                                     st.sampled_from(["", "x", "1e3"])))}
    if command == "gfs":
        flags["--gfs-rel-tol"] = _field(1e-8, 1e-1)
    elif command == "mfs":
        flags["--mfs-theta-tol"] = _field(1e-9, 1e-2)
    elif command == "measure":
        flags["--theta"] = _field(-10.0, 10.0)
    for flag, values in flags.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(max_examples=200, deadline=None)
@given(_command_line())
@example(["sweep", "super:1e-310,0,5e-324", "--theta-samples=4"])
def test_fuzzed_command_lines_exit_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          allocations_capped()):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse refusing a flag value
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0 and argv[0] == "sweep":
        header, *rows = out.getvalue().splitlines()
        assert header == "theta,fisher,entropy,entropy_power,cfs"
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row.split(",")), argv
    elif code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == "", argv
