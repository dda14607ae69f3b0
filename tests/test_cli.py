"""End-to-end checks of the command-line surface via main(argv)."""

from __future__ import annotations

import json
import math

import pytest

from coxlab.cli import main


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv("COXLAB_CONFIG", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# verify-tensor
# ---------------------------------------------------------------------------

def test_verify_tensor_random_suite(capsys):
    code, out, _ = run(capsys, "verify-tensor", "--trials", "100", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["schemaVersion"] == 1
    assert doc["pass"] is True
    assert doc["maxResidual"] <= 1e-10
    assert set(doc["checks"]) == {
        "minimalPolynomial", "inverseProduct", "newtonCayley", "deSitter",
    }


def test_verify_tensor_zero_field_is_exact(capsys):
    code, out, _ = run(
        capsys, "verify-tensor", "--trials", "1", "--b", "0", "--nu", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert all(c["maxResidual"] == 0 for c in doc["checks"].values())


def test_verify_tensor_unattainable_tolerance(capsys):
    code, out, err = run(capsys, "verify-tensor", "--trials", "5", "--tol", "1e-30")
    assert code == 2
    doc = json.loads(out)
    assert doc["pass"] is False and doc["failing"]
    assert "minimalPolynomial" in err or "inverseProduct" in err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_flat_ladder(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--geometry", "flat", "--b", "1", "--n-max", "2"
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "m", "k", "Lambda", "epsilon", "valid", "branch", "reason"]
    assert [r[4] for r in rows] == ["2", "6", "10"]


def test_spectrum_lobachevsky_count(capsys):
    code, out, _ = run(capsys, "spectrum", "--geometry", "lobachevsky", "--b", "5")
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 5
    assert all(r[5] == "true" for r in rows)
    code, out, _ = run(
        capsys, "spectrum", "--geometry", "lobachevsky", "--b", "5",
        "--n-max", "6", "--include-invalid",
    )
    _, rows = csv_rows(out)
    assert len(rows) == 7
    bad = [r for r in rows if r[5] == "false"]
    assert len(bad) == 2 and all(r[7] for r in bad)


def test_spectrum_invalid_eta_exits_1(capsys):
    code, _, err = run(capsys, "spectrum", "--geometry", "flat", "--eta", "1.5")
    assert code == 1
    assert "InvalidEta" in err


def test_spectrum_sorted_by_n_then_m(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--geometry", "spherical", "--b", "1",
        "--n-max", "1", "--m-range=-1:1",
    )
    assert code == 0
    _, rows = csv_rows(out)
    keys = [(int(r[0]), int(r[1])) for r in rows]
    assert keys == sorted(keys)
    assert keys[0][0] == 0 and keys[-1][0] == 1


def test_spectrum_json_schema(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--geometry", "spherical", "--b", "1",
        "--n-max", "0", "--m-range", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schemaVersion"] == 1
    row = doc["rows"][0]
    assert row["branch"] == "m>0" and row["epsilon"] is None
    assert row["Lambda"] == pytest.approx(2 * 1 * 1.5 + 1.5**2 - 0.25)


# ---------------------------------------------------------------------------
# zprofile
# ---------------------------------------------------------------------------

def test_zprofile_single_extremum_row(capsys):
    code, out, _ = run(
        capsys, "zprofile", "--geometry", "lobachevsky", "--b", "1",
        "--gamma", "0.1", "--lambda-sep", "2",
        "--z-min=-3", "--z-max", "3", "--samples", "601",
    )
    assert code == 0
    footer = [ln for ln in out.splitlines() if ln.startswith("# extremum")]
    assert len(footer) == 1
    assert footer[0].split(",")[1] == "0"


def test_zprofile_pole_crossing_exits_1(capsys):
    code, _, err = run(
        capsys, "zprofile", "--geometry", "spherical", "--b", "1",
        "--gamma", "0.25", "--lambda-sep", "2",
        "--z-min=-1.5", "--z-max", "1.5",
    )
    assert code == 1
    assert "pole" in err


def test_zprofile_gamma_zero_matches_sech_squared(capsys):
    code, out, _ = run(
        capsys, "zprofile", "--geometry", "lobachevsky", "--b", "1",
        "--gamma", "0", "--lambda-sep", "3", "--samples", "41",
    )
    assert code == 0
    _, rows = csv_rows(out)
    for row in rows:
        z, U = float(row[0]), float(row[1])
        assert U == pytest.approx(3.0 / math.cosh(z) ** 2, rel=1e-12)


def test_zprofile_spherical_endpoint_value(capsys):
    edge = math.pi / 2 - 1e-3
    code, out, _ = run(
        capsys, "zprofile", "--geometry", "spherical", "--b", "1",
        "--gamma", "1.25", "--lambda-sep", "2",
        f"--z-min=-{edge}", "--z-max", str(edge), "--samples", "5",
    )
    assert code == 0
    _, rows = csv_rows(out)
    for row in (rows[0], rows[-1]):
        assert abs(float(row[1]) - (-0.8)) < 0.01 * 0.8


def test_zprofile_requires_symmetric_grid(capsys):
    code, _, err = run(
        capsys, "zprofile", "--geometry", "lobachevsky", "--b", "1",
        "--lambda-sep", "2", "--z-min=-1", "--z-max", "2",
    )
    assert code == 1
    assert "symmetric" in err


# ---------------------------------------------------------------------------
# radial-eigen
# ---------------------------------------------------------------------------

def test_radial_eigen_flat_ladder(capsys):
    code, out, _ = run(
        capsys, "radial-eigen", "--geometry", "flat", "--b", "1", "--m", "0",
        "--n-max", "2", "--grid-points", "3000", "--r-max", "8.5",
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["index", "eigenvalue", "error_estimate"]
    got = [float(r[1]) for r in rows]
    assert got == pytest.approx([2.0, 6.0, 10.0], abs=1e-6)


def test_radial_eigen_coarse_grid_exits_2(capsys):
    code, _, err = run(
        capsys, "radial-eigen", "--geometry", "flat", "--b", "1",
        "--n-max", "2", "--grid-points", "32", "--r-max", "8.5",
    )
    assert code == 2
    assert "GridTooCoarse" in err


def test_radial_eigen_missing_cutoff_exits_1(capsys):
    code, _, err = run(
        capsys, "radial-eigen", "--geometry", "flat", "--b", "1", "--n-max", "0"
    )
    assert code == 1


# ---------------------------------------------------------------------------
# airy and axial-integrate
# ---------------------------------------------------------------------------

def test_airy_footer_constants(capsys):
    code, out, _ = run(
        capsys, "airy", "--nu", "2", "--w-prime", "1.5", "--samples", "9"
    )
    assert code == 0
    lines = out.splitlines()
    turn = [ln for ln in lines if ln.startswith("# turning_point")][0]
    assert float(turn.split(",")[1]) == -0.75
    wro = [ln for ln in lines if ln.startswith("# wronskian")][0]
    exact = -((2.0 / 3.0) ** (2.0 / 3.0)) * 3.0 * math.sqrt(3.0) / (2.0 * math.pi)
    assert float(wro.split(",")[1]) == pytest.approx(exact, rel=1e-12)


def test_airy_requires_positive_nu(capsys):
    code, _, err = run(capsys, "airy", "--nu", "0")
    assert code == 1
    assert "ParameterError" in err


def test_axial_integrate_runs_and_reports_residual(capsys):
    code, out, _ = run(
        capsys, "axial-integrate", "--geometry", "lobachevsky", "--b", "1",
        "--gamma", "0.2", "--lambda-sep", "2", "--epsilon", "1",
        "--steps", "400", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["residualEstimate"] < 1e-6
    assert len(doc["rows"]) == 401


def test_axial_integrate_step_failure_exits_2(capsys):
    code, _, err = run(
        capsys, "axial-integrate", "--geometry", "flat", "--field", "electric",
        "--nu", "50", "--steps", "5",
    )
    assert code == 2
    assert "StepFailure" in err


def test_axial_integrate_flat_magnetic_exits_1(capsys):
    code, _, err = run(
        capsys, "axial-integrate", "--geometry", "flat", "--b", "1"
    )
    assert code == 1


@pytest.mark.parametrize(
    "flags",
    [("--ic-value", "nan"), ("--z-min=-1", "--z-max", "inf")],
)
def test_axial_integrate_non_finite_input_exits_1(capsys, flags):
    code, out, err = run(
        capsys, "axial-integrate", "--geometry", "lobachevsky", "--b", "1",
        "--gamma", "0.2", "--lambda-sep", "1", *flags,
    )
    assert code == 1
    assert out == ""
    assert "ParameterError" in err


def test_axial_integrate_outside_domain_exits_1(capsys):
    code, out, err = run(
        capsys, "axial-integrate", "--geometry", "spherical", "--b", "1",
        "--gamma", "0.2", "--lambda-sep", "1", "--z-min=-2", "--z-max", "2",
    )
    assert code == 1
    assert out == ""
    assert "DomainError" in err


# ---------------------------------------------------------------------------
# config file, precedence, determinism
# ---------------------------------------------------------------------------

def test_config_file_supplies_defaults(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\ngeometry=lobachevsky\nb=5\nn-max=4\n")
    monkeypatch.setenv("COXLAB_CONFIG", str(cfg))
    code, out, _ = run(capsys, "spectrum")
    assert code == 0
    _, rows = csv_rows(out)
    assert [float(r[3]) for r in rows] == [5.0, 13.0, 19.0, 23.0, 25.0]


def test_flags_override_config_file(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("geometry=lobachevsky\nb=5\n")
    monkeypatch.setenv("COXLAB_CONFIG", str(cfg))
    code, out, _ = run(capsys, "spectrum", "--b", "1", "--n-max", "0")
    assert code == 0
    _, rows = csv_rows(out)
    assert float(rows[0][3]) == 1.0  # Lambda for b=1, not b=5


def test_unknown_config_key_rejected(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("geometry=flat\nbogus=3\n")
    monkeypatch.setenv("COXLAB_CONFIG", str(cfg))
    code, _, err = run(capsys, "spectrum")
    assert code == 1
    assert "ConfigError" in err and "bogus" in err


def test_bad_config_value_rejected(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("b=not-a-number\n")
    monkeypatch.setenv("COXLAB_CONFIG", str(cfg))
    code, _, err = run(capsys, "spectrum")
    assert code == 1
    assert "ConfigError" in err


def test_missing_config_file_rejected(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COXLAB_CONFIG", str(tmp_path / "absent.cfg"))
    code, _, err = run(capsys, "spectrum")
    assert code == 1
    assert "missing" in err


def test_output_files_are_byte_identical(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = main([
            "verify-tensor", "--trials", "20", "--seed", "3",
            "--format", "json", "--out", str(path),
        ])
        assert code == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    csvs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in csvs:
        code = main([
            "zprofile", "--geometry", "lobachevsky", "--b", "1",
            "--gamma", "0.1", "--lambda-sep", "2", "--samples", "101",
            "--out", str(path),
        ])
        assert code == 0
    capsys.readouterr()
    assert csvs[0].read_bytes() == csvs[1].read_bytes()


def test_usage_errors_exit_1(capsys):
    assert main(["spectrum", "--geometry", "marshmallow"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_seventeen_digit_round_trip(capsys):
    code, out, _ = run(
        capsys, "zprofile", "--geometry", "lobachevsky", "--b", "1",
        "--gamma", "0.3", "--lambda-sep", "2", "--samples", "7",
    )
    assert code == 0
    _, rows = csv_rows(out)
    from coxlab.axial import effective_potential
    from coxlab.backgrounds import BackgroundSpec
    spec = BackgroundSpec(geometry="lobachevsky", b=1.0, gamma=0.3)
    for row in rows:
        z = float(row[0])
        assert float(row[1]) == effective_potential(spec, 2.0, z)
