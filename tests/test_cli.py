import json
import math
import subprocess
import sys
import warnings

import pytest

from qsc.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["measure", "fock:1", "--frobnicate"])
        assert exc.value.code == 2


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


class TestMeasures:
    def test_gfs_output(self, capsys):
        code, out, _ = run_cli(capsys, "gfs", "super:1,0,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["gfs"] == pytest.approx(2.91860, abs=1e-3)
        assert payload["converged"] is True

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

    def test_box_command(self, capsys):
        code, out, _ = run_cli(capsys, "box", "--n-max", "2", "--json")
        assert code == 0
        rows = json.loads(out)
        assert [r["n"] for r in rows] == [1, 2]
        for row in rows:
            assert row["position_pipeline"] > 1.0
            assert row["momentum_pipeline"] > 1.0
            assert math.isfinite(row["momentum_formula"])

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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qsc", "measure", "fock:0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cfs"] == pytest.approx(1.0, abs=1e-6)
