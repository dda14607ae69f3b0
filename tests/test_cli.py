"""End-to-end checks of the command-line surface via main(argv)."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import coxlab
from coxlab import cli
from coxlab.axial import airy_pair
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


def _verify_tensor_per_trial(argv):
    """(exit code, stdout, stderr) of verify-tensor computed one trial at a
    time with 4x4 library calls: the per-trial reference of the byte guard."""
    from coxlab.errors import CoxlabInputError, CoxlabNumericalError
    from coxlab.tensor_algebra import (
        FLAT_METRIC, DiagonalMetric, FieldConfig3, MixedTensor, ParticleConstants,
        build_mixed_field_tensor, dual_tensor, field_invariants, general_lambda_inverse,
        lambda_inverse, minimal_poly_residuals, newton_char_coeffs)

    cfg = cli._resolve(cli._build_parser().parse_args(argv))
    tolerance = 1e-10 if cfg.tol is None else cfg.tol
    rng = np.random.default_rng(cfg.seed)
    res_minpoly = res_inverse = res_cayley = res_desitter = 0.0
    eye = np.eye(4)
    try:
        for _ in range(cfg.trials):
            if cfg.fixed_field:
                fields = FieldConfig3((0.0, 0.0, cfg.nu), (0.0, 0.0, cfg.b))
                metric, consts = FLAT_METRIC, ParticleConstants(1.0, 0.5)
            else:
                metric = DiagonalMetric(rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0),
                                        -rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0))
                fields = FieldConfig3(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
                consts = ParticleConstants(rng.uniform(0.8, 1.6), rng.uniform(-0.5, 0.5))
            F = build_mixed_field_tensor(fields, metric)
            Fd = dual_tensor(fields, metric)
            inv = field_invariants(fields, metric)
            res_minpoly = max(res_minpoly, *minimal_poly_residuals(F, Fd, inv))
            Lam = MixedTensor(consts.mu * eye + consts.lam * F.entries)
            closed, _ = lambda_inverse(consts, F, Fd, inv)
            general, _ = general_lambda_inverse(consts, F)
            res_inverse = max(res_inverse,
                              float(np.max(np.abs(Lam.entries @ closed.entries - eye))),
                              float(np.max(np.abs(Lam.entries @ general.entries - eye))))
            res_cayley = max(res_cayley, newton_char_coeffs(F).cayley_residual,
                             newton_char_coeffs(Lam).cayley_residual)
    except (CoxlabInputError, CoxlabNumericalError) as exc:
        code = 1 if isinstance(exc, CoxlabInputError) else 2
        return code, "", f"error: {type(exc).__name__}: {exc}\n"
    for R in (0.5, 1.0, 2.0):
        G = MixedTensor((R / 4.0) * eye)
        ch = newton_char_coeffs(G)
        exact = (R, -3.0 * R**2 / 8.0, R**3 / 16.0, -(R**4) / 256.0)
        for got, want in zip((ch.p1, ch.p2, ch.p3, ch.p4), exact):
            res_desitter = max(res_desitter, abs(got - want) / abs(want))
        nil = np.linalg.matrix_power(G.entries - (R / 4.0) * eye, 4)
        res_desitter = max(res_desitter, float(np.max(np.abs(nil))))
    checks = {"minimalPolynomial": res_minpoly, "inverseProduct": res_inverse,
              "newtonCayley": res_cayley, "deSitter": res_desitter}
    failing = sorted(name for name, value in checks.items() if value > tolerance)
    report = {
        "trials": cfg.trials, "seed": cfg.seed, "tolerance": tolerance,
        "fixedField": cfg.fixed_field,
        "checks": {name: {"maxResidual": value} for name, value in checks.items()},
        "maxResidual": max(checks.values()), "pass": not failing, "failing": failing,
    }
    err = "error: verification failed: " + ", ".join(failing) + "\n" if failing else ""
    return 2 if failing else 0, cli._json_doc(report, cfg.command), err


def _verify_tensor_configs():
    rng = np.random.default_rng(20261018)
    configs = []
    for i in range(64):
        argv = ["verify-tensor", "--trials", str(1 + i % 40), "--seed", str(rng.integers(10**6))]
        kind = i % 8
        if kind in (1, 2):  # fixed fields
            argv += ["--b", repr(rng.uniform(-3, 3)), "--nu", repr(rng.uniform(-3, 3))]
        elif kind == 3:  # fixed and singular (nu = 2) or overflowing (b = 1e200)
            argv += ["--nu", "2"] if i % 16 == 3 else ["--b", "1e200"]
        elif kind in (4, 5):  # tolerances on both sides of the residuals
            argv += ["--tol", repr(float(10 ** rng.uniform(-17, -12)))]
        configs.append(argv)
    configs.append(["verify-tensor", "--trials", str(2 * cli._CHUNK + 37), "--seed", "4"])
    return configs


@pytest.mark.parametrize("argv", _verify_tensor_configs(), ids=lambda argv: " ".join(argv[2:]))
def test_verify_tensor_bytes_equal_per_trial_loop(capsys, argv):
    assert run(capsys, *argv) == _verify_tensor_per_trial(argv)


def test_verify_tensor_one_inverse_call_per_chunk(capsys, monkeypatch):
    calls = []
    for name in ("lambda_inverse", "general_lambda_inverse"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, _fn=fn, _name=name: (
            calls.append(_name), _fn(*args))[1])
    code, out, _ = run(capsys, "verify-tensor", "--trials", str(2 * cli._CHUNK + 1))
    assert code == 0 and json.loads(out)["pass"]
    assert sorted(calls) == ["general_lambda_inverse"] * 3 + ["lambda_inverse"] * 3


def test_verify_tensor_memory_flat_in_trials(capsys):
    import tracemalloc

    def peak(trials):
        tracemalloc.start()
        try:
            assert main(["verify-tensor", "--trials", str(trials)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    peak(1)  # parser and imports
    assert peak(3 * cli._CHUNK) < 1.5 * peak(cli._CHUNK)


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


@pytest.mark.parametrize("b, gamma, lam, root", [
    ("10", "0.9", "1e-200", 1.8e201),  # Lambda^2 underflows to 0
    ("1e300", "0.1", "2", 1e299),  # b^2 overflows
])
def test_zprofile_answers_where_only_b_squared_overflows(capsys, b, gamma, lam, root):
    """Both were refused as overflowing; their equilibria ch^2 z = root are finite."""
    code, out, err = run(
        capsys, "zprofile", "--geometry", "lobachevsky", "--b", b, "--gamma", gamma,
        "--lambda-sep", lam, "--samples", "5",
    )
    assert (code, err) == (0, "")
    z_star = math.acosh(math.sqrt(root))
    extrema = [ln for ln in out.splitlines() if ln.startswith("# extremum")]
    assert [float(ln.split(",")[1]) for ln in extrema] == pytest.approx(
        [-z_star, 0.0, z_star], rel=1e-14)
    _, rows = csv_rows(out)
    assert all(math.isfinite(float(c)) for row in rows for c in row)


# zprofile on both curved sections with off-axis equilibria (the sphere's lie
# beyond its poles at cos^2 z = 0.3, outside the tabulated range); pinned at the
# output of the per-geometry formulas in tests/_axial_reference.py
_ZPROFILE_GOLDEN = [
    (['zprofile', '--geometry', 'lobachevsky', '--b', '2', '--gamma', '0.3', '--lambda-sep',
      '1', '--samples', '9'],
     'z,U,Fz\n'
     '-3,0.0098077198721840935,-0.019402548739215725\n'
     '-2.25,0.042338598128504906,-0.080627075882204149\n'
     '-1.5,0.16158860453312768,-0.2586742034951181\n'
     '-0.75,0.39571262427925108,-0.25569462384373048\n'
     '0,0.43956043956043955,-0\n'
     '0.75,0.39571262427925108,0.25569462384373048\n'
     '1.5,0.16158860453312768,0.2586742034951181\n'
     '2.25,0.042338598128504906,0.080627075882204149\n'
     '3,0.0098077198721840935,0.019402548739215725\n'
     '# extremum,-0.33930614129335884,maximum\n'
     '# extremum,0,minimum\n'
     '# extremum,0.33930614129335884,maximum\n'),
    (['zprofile', '--geometry', 'lobachevsky', '--b', '2', '--gamma', '0.3', '--lambda-sep',
      '1', '--samples', '9', '--format', 'json'],
     """{
  "Lambda": 1,
  "b": 2,
  "command": "zprofile",
  "extrema": [
    {
      "kind": "maximum",
      "z": -0.33930614129335884
    },
    {
      "kind": "minimum",
      "z": 0
    },
    {
      "kind": "maximum",
      "z": 0.33930614129335884
    }
  ],
  "gamma": 0.29999999999999999,
  "geometry": "lobachevsky",
  "rows": [
    {
      "Fz": -0.019402548739215725,
      "U": 0.0098077198721840935,
      "z": -3
    },
    {
      "Fz": -0.080627075882204149,
      "U": 0.042338598128504906,
      "z": -2.25
    },
    {
      "Fz": -0.2586742034951181,
      "U": 0.16158860453312768,
      "z": -1.5
    },
    {
      "Fz": -0.25569462384373048,
      "U": 0.39571262427925108,
      "z": -0.75
    },
    {
      "Fz": -0,
      "U": 0.43956043956043955,
      "z": 0
    },
    {
      "Fz": 0.25569462384373048,
      "U": 0.39571262427925108,
      "z": 0.75
    },
    {
      "Fz": 0.2586742034951181,
      "U": 0.16158860453312768,
      "z": 1.5
    },
    {
      "Fz": 0.080627075882204149,
      "U": 0.042338598128504906,
      "z": 2.25
    },
    {
      "Fz": 0.019402548739215725,
      "U": 0.0098077198721840935,
      "z": 3
    }
  ],
  "schemaVersion": 1
}
"""),
    (['zprofile', '--geometry', 'spherical', '--b=-2', '--gamma', '0.3', '--lambda-sep', '1',
      '--z-min=-0.9', '--z-max', '0.9', '--samples', '7'],
     'z,U,Fz\n'
     '-0.90000000000000002,-3.6017891689430188,-62.129020854778041\n'
     '-0.60000000000000009,0.2170531154117851,-1.7551423020327583\n'
     '-0.30000000000000004,0.4208392700726063,-0.17618576713518361\n'
     '-1.1102230246251565e-16,0.43956043956043955,-2.9495117186032401e-17\n'
     '0.29999999999999993,0.42083927007260635,0.17618576713518311\n'
     '0.59999999999999998,0.21705311541178535,1.7551423020327566\n'
     '0.90000000000000002,-3.6017891689430188,62.129020854778041\n'
     '# extremum,-1.2833314332186683,minimum\n'
     '# extremum,0,maximum\n'
     '# extremum,1.2833314332186683,minimum\n'),
    (['zprofile', '--geometry', 'spherical', '--b=-2', '--gamma', '0.3', '--lambda-sep', '1',
      '--z-min=-0.9', '--z-max', '0.9', '--samples', '7', '--format', 'json'],
     """{
  "Lambda": 1,
  "b": -2,
  "command": "zprofile",
  "extrema": [
    {
      "kind": "minimum",
      "z": -1.2833314332186683
    },
    {
      "kind": "maximum",
      "z": 0
    },
    {
      "kind": "minimum",
      "z": 1.2833314332186683
    }
  ],
  "gamma": 0.29999999999999999,
  "geometry": "spherical",
  "rows": [
    {
      "Fz": -62.129020854778041,
      "U": -3.6017891689430188,
      "z": -0.90000000000000002
    },
    {
      "Fz": -1.7551423020327583,
      "U": 0.2170531154117851,
      "z": -0.60000000000000009
    },
    {
      "Fz": -0.17618576713518361,
      "U": 0.4208392700726063,
      "z": -0.30000000000000004
    },
    {
      "Fz": -2.9495117186032401e-17,
      "U": 0.43956043956043955,
      "z": -1.1102230246251565e-16
    },
    {
      "Fz": 0.17618576713518311,
      "U": 0.42083927007260635,
      "z": 0.29999999999999993
    },
    {
      "Fz": 1.7551423020327566,
      "U": 0.21705311541178535,
      "z": 0.59999999999999998
    },
    {
      "Fz": 62.129020854778041,
      "U": -3.6017891689430188,
      "z": 0.90000000000000002
    }
  ],
  "schemaVersion": 1
}
"""),
]


@pytest.mark.parametrize("argv, expected", _ZPROFILE_GOLDEN)
def test_zprofile_bytes_golden(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected


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


def _airy_per_sample(nu, w_prime, z_min, z_max, samples, fmt):
    """The airy command as one scalar z1/z2 call per sample, written out
    with plain string formatting rather than the cli's writers."""
    f = "%.17g".__mod__
    pair = airy_pair(w_prime, nu)
    rows = []
    for z in np.linspace(z_min, z_max, samples):
        x = float(pair.x_of_z(z))
        rows.append((f(z), f(x), pair.z1(x), pair.z2(x)))
    w = pair.wronskian
    if fmt == "csv":
        lines = ["z,x,Z1_re,Z1_im,Z2_re,Z2_im"]
        lines += [f"{z},{x},{f(a.real)},{f(a.imag)},{f(b.real)},{f(b.imag)}"
                  for z, x, a, b in rows]
        lines += [f"# turning_point,{f(pair.turning_point)}",
                  f"# wronskian,{f(w.real)},{f(w.imag)}"]
        return "\n".join(lines) + "\n"

    def cplx(c, pad):
        return f'{{\n{pad}  "im": {f(c.imag)},\n{pad}  "re": {f(c.real)}\n{pad}}}'

    six = " " * 6
    row_texts = [
        f'    {{\n{six}"Z1": {cplx(a, six)},\n{six}"Z2": {cplx(b, six)},\n'
        f'{six}"x": {x},\n{six}"z": {z}\n    }}'
        for z, x, a, b in rows
    ]
    return (
        '{\n  "command": "airy",\n'
        f'  "nu": {f(nu)},\n'
        '  "rows": [\n' + ",\n".join(row_texts) + "\n  ],\n"
        '  "schemaVersion": 1,\n'
        f'  "turningPoint": {f(pair.turning_point)},\n'
        f'  "wPrime": {f(w_prime)},\n'
        f'  "wronskian": {cplx(w, "  ")}\n'
        "}\n"
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "nu, w_prime, z_min, z_max, samples",
    [
        (2.0, 1.5, -2.75, 1.25, 9),      # a node on the turning point (x = -0.0)
        (1.0, 0.0, -3.0, 3.0, 13),       # symmetric about x = 0
        (1.0, 0.0, -4.0, 8.0, 13),       # x down to -8: x^3/9 < -30, fixed-point re-run
        (0.7, -1.3, 0.4, 2.9, 1),        # one sample
        (2.6, 0.35, -1.7, 4.1, 41),
    ],
)
def test_airy_bytes_equal_per_sample_evaluation(capsys, fmt, nu, w_prime, z_min, z_max, samples):
    code, out, _ = run(
        capsys, "airy", "--nu", repr(nu), "--w-prime", repr(w_prime),
        f"--z-min={z_min!r}", f"--z-max={z_max!r}", "--samples", str(samples),
        "--format", fmt,
    )
    assert code == 0
    assert out == _airy_per_sample(nu, w_prime, z_min, z_max, samples, fmt)


# airy stdout recorded before the series loop stopped converting its
# parameters on every term: later work on the series engine must leave
# these bytes as they are
_AIRY_GOLDEN = [
    # a node on the turning point (x = -0)
    (['airy', '--nu', '2', '--w-prime', '1.5', '--z-min=-2.75', '--z-max=1.25',
      '--samples', '5'],
     'z,x,Z1_re,Z1_im,Z2_re,Z2_im\n'
     '-2.75,2.5198420997897464,4.3540222431346045,2.5137959141313813,4.3885494801508633,-2.5337302237170927\n'
     '-1.75,1.2599210498948732,0.86946515563007432,0.50198594165402322,1.0927870456772679,-0.63092089498870629\n'
     '-0.75,-0,-0,0,0.80578183347450383,-0.46521835846461485\n'
     '0.25,-1.2599210498948732,-0.62250147637786535,-0.35940139495769996,0.55460422075410709,-0.32020089614608627\n'
     '1.25,-2.5198420997897464,-0.13762355552189776,-0.079456996827401052,-0.42300051290432966,0.24421945999266439\n'
     '# turning_point,-0.75\n'
     '# wronskian,-0.63111403892052187,-5.5511151231257827e-17\n'),
    (['airy', '--nu', '2', '--w-prime', '1.5', '--z-min=-2.75', '--z-max=1.25',
      '--samples', '3', '--format', 'json'],
     """{
  "command": "airy",
  "nu": 2,
  "rows": [
    {
      "Z1": {
        "im": 2.5137959141313813,
        "re": 4.3540222431346045
      },
      "Z2": {
        "im": -2.5337302237170927,
        "re": 4.3885494801508633
      },
      "x": 2.5198420997897464,
      "z": -2.75
    },
    {
      "Z1": {
        "im": 0,
        "re": -0
      },
      "Z2": {
        "im": -0.46521835846461485,
        "re": 0.80578183347450383
      },
      "x": -0,
      "z": -0.75
    },
    {
      "Z1": {
        "im": -0.079456996827401052,
        "re": -0.13762355552189776
      },
      "Z2": {
        "im": 0.24421945999266439,
        "re": -0.42300051290432966
      },
      "x": -2.5198420997897464,
      "z": 1.25
    }
  ],
  "schemaVersion": 1,
  "turningPoint": -0.75,
  "wPrime": 1.5,
  "wronskian": {
    "im": -5.5511151231257827e-17,
    "re": -0.63111403892052187
  }
}
"""),
    # x = -8: x^3/9 < -30 takes the fixed-point re-run
    (['airy', '--nu', '1', '--w-prime', '0', '--z-min=-4', '--z-max=8',
      '--samples', '4'],
     'z,x,Z1_re,Z1_im,Z2_re,Z2_im\n'
     '-4,4,54.934292857563214,31.716328769055856,54.93645255411765,-31.717575670442919\n'
     '0,-0,-0,0,0.80578183347450383,-0.46521835846461485\n'
     '4,-4,0.33672476480880087,0.19440813360517456,0.177248099937038,-0.10233423821199854\n'
     '8,-8,-0.15722073693026128,-0.090771434788877683,-0.27684162785555783,0.15983458836530048\n'
     '# turning_point,-0\n'
     '# wronskian,-0.63111403892052187,-5.5511151231257827e-17\n'),
    # both samples on the fixed-point re-run
    (['airy', '--nu', '1', '--w-prime', '0', '--z-min=7', '--z-max=8',
      '--samples', '2', '--format', 'json'],
     """{
  "command": "airy",
  "nu": 1,
  "rows": [
    {
      "Z1": {
        "im": -0.0096163021141326167,
        "re": -0.0166559238426097
      },
      "Z2": {
        "im": -0.23185990443606277,
        "re": 0.40159313472132535
      },
      "x": -7,
      "z": 7
    },
    {
      "Z1": {
        "im": -0.090771434788877683,
        "re": -0.15722073693026128
      },
      "Z2": {
        "im": 0.15983458836530048,
        "re": -0.27684162785555783
      },
      "x": -8,
      "z": 8
    }
  ],
  "schemaVersion": 1,
  "turningPoint": -0,
  "wPrime": 0,
  "wronskian": {
    "im": -5.5511151231257827e-17,
    "re": -0.63111403892052187
  }
}
"""),
    # one sample
    (['airy', '--nu', '0.7', '--w-prime', '-1.3', '--z-min=0.4', '--z-max=2.9',
      '--samples', '1'],
     'z,x,Z1_re,Z1_im,Z2_re,Z2_im\n'
     '0.40000000000000002,1.2938029739677896,0.90442121063952086,0.52216782942353457,1.1182717786494105,-0.6456345124303986\n'
     '# turning_point,1.8571428571428574\n'
     '# wronskian,-0.63111403892052187,-5.5511151231257827e-17\n'),
    (['airy', '--nu', '2.6', '--w-prime', '0.35', '--z-min=-1.7', '--z-max=4.1',
      '--samples', '7'],
     'z,x,Z1_re,Z1_im,Z2_re,Z2_im\n'
     '-1.7,2.152511649612213,2.5943508286768373,1.4978491493089008,2.6569885511264091,-1.5340130552265854\n'
     '-0.73333333333333328,0.82327841144054348,0.50640240916997348,0.29237156725255919,0.88212530462913485,-0.50929528208661146\n'
     '0.23333333333333339,-0.50595482673112635,-0.29401197515140609,-0.16974789299863788,0.78846271474334284,-0.45521916060305201\n'
     '1.2,-1.8351880649027958,-0.5990951128334655,-0.3458877246645905,0.13272466556050888,-0.076628621389462831\n'
     '2.166666666666667,-3.1644213030744663,0.41732696494652455,0.24094383555196547,-0.52295565609109507,0.30192858881843099\n'
     '3.1333333333333329,-4.4936545412461344,-0.15878313418749501,-0.0916734852659227,0.49669798399350845,-0.28676871476459648\n'
     '4.0999999999999996,-5.8228877794178056,0.093111006566906407,0.053757664705920423,-0.45058651134927558,0.26014624362071853\n'
     '# turning_point,-0.13461538461538461\n'
     '# wronskian,-0.63111403892052187,-5.5511151231257827e-17\n'),
]


@pytest.mark.parametrize("argv, expected", _AIRY_GOLDEN)
def test_airy_bytes_golden(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected


# one radial-eigen run per geometry: any drift of the refined eigenvalues shows here
_RADIAL_GOLDEN = [
    (['radial-eigen', '--geometry', 'flat', '--b', '1', '--m=1', '--n-max', '2', '--r-max', '7',
      '--grid-points', '600', '--tol', '1e-4'],
     'index,eigenvalue,error_estimate\n'
     '0,1.9999999998592615,8.506764548036708e-06\n'
     '1,6.0000000001420508,4.2534903257340773e-05\n'
     '2,10.000000002465272,0.00011059335699729426\n'),
    (['radial-eigen', '--geometry', 'lobachevsky', '--b', '5', '--m=-1', '--n-max', '2',
      '--r-max', '30', '--grid-points', '1200', '--tol', '1e-4'],
     'index,eigenvalue,error_estimate\n'
     '0,12.999999978791985,0.0001301818029949923\n'
     '1,19.000000045576449,0.00037766105454532334\n'
     '2,23.000000226836267,0.00045601257593830269\n'),
    (['radial-eigen', '--geometry', 'spherical', '--b', '1.5', '--m=2', '--n-max', '2',
      '--grid-points', '400', '--tol', '1e-3'],
     'index,eigenvalue,error_estimate\n'
     '0,1.4999999999817184,3.1324215229814691e-06\n'
     '1,6.4999999998011022,3.4617263550510792e-05\n'
     '2,13.499999998402,0.00015541534969247076\n'),
]


@pytest.mark.parametrize("argv, expected", _RADIAL_GOLDEN)
def test_radial_eigen_bytes_golden(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected


def test_airy_series_fallback_runs_without_mpmath():
    script = (
        "import sys\n"
        "from coxlab import cli, special_functions as sf\n"
        "runs = []\n"
        "fixed = sf._series_fixed\n"
        "sf._series_fixed = lambda *args: runs.append(args) or fixed(*args)\n"
        "code = cli.main(['airy', '--nu', '1', '--w-prime', '0', '--z-min=-4',\n"
        "                 '--z-max', '8', '--samples', '13'])\n"
        "assert code == 0 and runs, (code, runs)  # x^3/9 < -30 takes the fallback\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(coxlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


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
    # refused by the argument parser, before any library call
    code, out, err = run(
        capsys, "axial-integrate", "--geometry", "lobachevsky", "--b", "1",
        "--gamma", "0.2", "--lambda-sep", "1", *flags,
    )
    assert code == 1
    assert out == ""
    assert f"argument {flags[-2].split('=')[0]}: expected a finite number" in err


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


def test_parser_is_built_once(capsys):
    cli._build_parser.cache_clear()
    for argv in (["spectrum", "--b", "1"], ["airy", "--nu", "1", "--samples", "3"],
                 ["spectrum", "--geometry", "marshmallow"]):
        main(argv)
    capsys.readouterr()
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_flags_do_not_leak_into_the_next_call(capsys):
    plain = ("spectrum", "--geometry", "lobachevsky", "--b", "5", "--n-max", "6")
    first = run(capsys, *plain)
    code, out, _ = run(
        capsys, "spectrum", "--include-invalid", "--format", "json", "--b", "2",
        "--geometry", "lobachevsky", "--n-max", "6",
    )
    assert code == 0 and json.loads(out)["b"] == 2.0
    assert run(capsys, *plain) == first
    header, rows = csv_rows(first[1])
    assert header[0] == "n" and all(r[5] == "true" for r in rows)


_FINITE = "expected a finite number"


@pytest.mark.parametrize(
    "argv, config, code, message",
    [
        (["spectrum", "--b", "nan"], None, 1, _FINITE),
        (["spectrum", "--b", "1", "--eta", "nan"], None, 1, _FINITE),
        (["zprofile", "--geometry", "lobachevsky", "--b", "1", "--gamma", "0.1",
          "--z-min=-inf", "--z-max", "inf"], None, 1, _FINITE),
        (["radial-eigen", "--geometry", "spherical", "--b", "nan", "--grid-points", "100"],
         None, 1, _FINITE),
        (["verify-tensor", "--trials", "2", "--tol", "nan"], None, 1, _FINITE),
        (["spectrum", "--b", "abc"], None, 1, _FINITE),
        (["spectrum"], "b=nan", 1, "ConfigError"),
        (["verify-tensor", "--trials", "2"], "tol=inf", 1, "ConfigError"),
        (["airy", "--nu", "1", "--samples", "-1"], None, 1, "samples >= 1"),
        (["airy", "--nu", "1", "--samples", "0"], None, 1, "samples >= 1"),
        (["airy", "--nu", "1", "--z-max", "1e200"], None, 1, "DomainError"),
        (["airy", "--nu", "1", "--z-min", "1e99", "--z-max", "1e100", "--samples", "3"],
         None, 2, "NonConvergence"),
        # cosh z overflowed here: RuntimeWarnings, then a NaN step error
        (["axial-integrate", "--geometry", "lobachevsky", "--b", "1", "--gamma", "0.2",
          "--lambda-sep", "1", "--z-min=-800", "--z-max", "800", "--steps", "100"],
         None, 2, "StepFailure: local error 1."),
        (["axial-integrate", "--geometry", "lobachevsky", "--field", "electric", "--nu", "1",
          "--gamma", "0.2", "--lambda-sep", "1", "--z-min=-800", "--z-max", "800",
          "--steps", "100"], None, 2, "StepFailure"),
        # huge finite values: an OverflowError traceback, inf rows with exit 0,
        # numpy's infs-or-NaNs ValueError, an OverflowError from J**2
        (["spectrum", "--k", "1e300", "--b", "1"], None, 1, "DomainError: closed-form epsilon"),
        (["spectrum", "--b", "1e308", "--n-max", "2"], None, 1, "DomainError: closed-form Lambda"),
        (["radial-eigen", "--geometry", "spherical", "--b", "1e300", "--grid-points", "100"],
         None, 1, "DomainError: radial matrix overflows"),
        (["verify-tensor", "--trials", "2", "--b", "1e300", "--nu", "1"],
         None, 1, "DomainError: field invariants overflow"),
        # b/Lambda overflow (Lambda^2 underflow gave a ZeroDivisionError traceback,
        # b^2 overflow "# extremum,-inf,..." with exit 0); U overflow:
        # RuntimeWarning, -inf row
        (["zprofile", "--geometry", "lobachevsky", "--b", "1e300", "--gamma", "0.1",
          "--lambda-sep", "1e-200", "--samples", "5"],
         None, 1, "DomainError: stationarity quadratic overflows"),
        (["zprofile", "--geometry", "spherical", "--b", "1e300", "--gamma", "0.1",
          "--lambda-sep", "1e-200", "--z-min=-1", "--z-max=1", "--samples", "5"],
         None, 1, "DomainError: stationarity quadratic overflows"),
        (["zprofile", "--geometry", "lobachevsky", "--b", "1e307", "--gamma", "0.999",
          "--lambda-sep", "1", "--samples", "5"],
         None, 1, "DomainError: effective potential overflows"),
        # key domains, whatever the command; tol <= 0 used to exit 2 as a failed check
        (["verify-tensor", "--tol", "-1"], None, 1, "ParameterError: verify-tensor needs tol > 0"),
        (["radial-eigen", "--geometry", "spherical", "--b", "1"], "tol=0", 1, "tol > 0"),
        (["axial-integrate", "--geometry", "flat", "--field", "electric", "--nu", "1",
          "--tol", "0"], None, 1, "tol > 0"),
        (["verify-tensor", "--trials", "0"], None, 1, "trials >= 1"),
        (["spectrum", "--n-max", "-1"], None, 1, "spectrum needs n-max >= 0"),
        (["radial-eigen", "--geometry", "spherical", "--n-max", "-1"], None, 1, "n-max >= 0"),
        (["zprofile", "--geometry", "lobachevsky", "--samples", "0"], None, 1, "samples >= 1"),
        # one value over the cap; an uncapped -1e8:1e8 built a 2e8-element tuple
        (["spectrum", "--m-range=0:10001", "--n-max", "0"],
         None, 1, "spectrum needs m-range of at most 10001 values"),
        (["verify-tensor", "--trials", "1"], "m-range=-5001:5001", 1, "m-range of at most 10001"),
        # a config value outside the declared choices printed CSV / ran airy with exit 0
        (["spectrum", "--n-max", "0"], "format=xml", 1, "ConfigError: config key 'format'"),
        (["airy", "--nu", "1", "--samples", "2"], "field=gravity", 1, "ConfigError"),
        # one cell under and one over the grid-points domain
        (["radial-eigen", "--geometry", "spherical", "--grid-points", "15"],
         None, 1, "radial-eigen needs grid-points in [16, 1000000]"),
        (["radial-eigen", "--geometry", "spherical"], "grid-points=1000001", 1,
         "grid-points in [16, 1000000]"),
        # uncapped counts allocated until numpy's _ArrayMemoryError traceback, and a
        # negative seed reached numpy's ValueError; one past each bound
        (["zprofile", "--geometry", "lobachevsky", "--samples", "1000001"],
         None, 1, "zprofile needs samples >= 1 and <= 1000000"),
        (["airy", "--nu", "1"], "samples=1000001", 1, "airy needs samples >= 1 and <= 1000000"),
        (["axial-integrate", "--geometry", "lobachevsky", "--b", "1", "--steps", "1000001"],
         None, 1, "axial-integrate needs steps >= 1 and <= 1000000"),
        (["axial-integrate", "--geometry", "lobachevsky", "--b", "1", "--steps", "0"],
         None, 1, "axial-integrate needs steps >= 1 and <= 1000000"),
        (["verify-tensor", "--seed", "-1"], None, 1, "verify-tensor needs seed >= 0"),
        # degenerate cutoffs: numpy's LinAlgError traceback from stebz, and
        # divide-by-zero RuntimeWarnings ahead of the refusal
        (["radial-eigen", "--geometry", "flat", "--b", "1", "--r-max", "1e-100",
          "--grid-points", "400"], None, 2, "NonConvergence: Sturm bisection failed"),
        (["radial-eigen", "--geometry", "flat", "--b", "1", "--r-max", "1e-300",
          "--grid-points", "400"], None, 1, "DomainError: radial matrix overflows"),
    ],
)
def test_refusals_without_traceback(capsys, tmp_path, monkeypatch, argv, config, code, message):
    if config:
        path = tmp_path / "run.cfg"
        path.write_text(config + "\n")
        monkeypatch.setenv("COXLAB_CONFIG", str(path))
    got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_m_range_cap_admits_exactly_the_cap():
    args = cli._build_parser().parse_args(["verify-tensor", "--m-range=-5000:5000"])
    assert cli._resolve(args).m_range == range(-5000, 5001)  # 10001 values


def test_grid_points_domain_admits_its_bounds():
    for points in (16, 1_000_000):  # resolved only: a million cells is never solved here
        args = cli._build_parser().parse_args(["radial-eigen", f"--grid-points={points}"])
        assert cli._resolve(args).grid_points == points


@pytest.mark.parametrize("key, bounds", [("samples", (1, 1_000_000)), ("steps", (1, 1_000_000)),
                                         ("seed", (0,))])
def test_count_domains_admit_their_bounds(key, bounds):
    for value in bounds:  # resolved only: nothing this large is computed here
        args = cli._build_parser().parse_args(["airy", f"--{key}={value}"])
        assert getattr(cli._resolve(args), key) == value


# one valid, non-default text per key; a new key must be added here
_KEY_SAMPLES = {
    "geometry": "spherical", "field": "electric", "b": "1.5", "nu": "-0.25", "eta": "0.5",
    "gamma": "0.125", "lambda-sep": "3.5", "n-max": "4", "m-range": "-2:3", "k": "0.75",
    "z-min": "-1.25", "z-max": "2.5", "samples": "17", "grid-points": "250", "r-max": "9",
    "trials": "3", "seed": "11", "tol": "0.001", "format": "json", "out": "table.txt",
    "include-invalid": None, "w-prime": "1.5", "w": "0.5", "epsilon": "2", "m": "-3",
    "ic-value": "0.5", "ic-slope": "-1", "steps": "12",
}


def test_every_key_resolves_alike_from_flag_and_config(tmp_path, monkeypatch):
    assert list(_KEY_SAMPLES) == list(cli._KEYS)
    parser = cli._build_parser()
    defaults = cli._resolve(parser.parse_args(["spectrum"]))
    for key, text in _KEY_SAMPLES.items():
        flag = ["--" + key] if text is None else [f"--{key}={text}"]
        from_flag = cli._resolve(parser.parse_args(["spectrum", *flag]))
        path = tmp_path / f"{key}.cfg"
        path.write_text(f"{key}={'true' if text is None else text}\n")
        monkeypatch.setenv("COXLAB_CONFIG", str(path))
        from_file = cli._resolve(parser.parse_args(["spectrum"]))
        monkeypatch.delenv("COXLAB_CONFIG")
        assert from_flag == from_file, key
        field = key.replace("-", "_")
        assert getattr(from_flag, field) != getattr(defaults, field), key
        others = [f for f in from_flag._fields if f not in (field, "fixed_field")]
        assert [getattr(from_flag, f) for f in others] == [getattr(defaults, f) for f in others]
        assert from_flag.fixed_field == (key in ("b", "nu"))


# Literal output of configurations whose every value is exact, so the expected
# text is written out here and does not come from the cli's own writers.
_PINNED = [
    (["spectrum", "--geometry", "lobachevsky", "--b", "2", "--n-max", "2",
      "--include-invalid"],
     "n,m,k,Lambda,epsilon,valid,branch,reason\n"
     "0,0,0,2,,true,,\n"
     "1,0,0,4,,true,,\n"
     "2,0,0,4,,false,,s + 1/2 = 2.5 exceeds b = 2.0\n"),
    (["spectrum", "--geometry", "lobachevsky", "--b", "2", "--n-max", "2",
      "--include-invalid", "--format", "json"],
     """{
  "b": 2,
  "command": "spectrum",
  "eta": 0,
  "field": "magnetic",
  "geometry": "lobachevsky",
  "k": 0,
  "rows": [
    {
      "Lambda": 2,
      "branch": "",
      "epsilon": null,
      "k": 0,
      "m": 0,
      "n": 0,
      "reason": "",
      "valid": true
    },
    {
      "Lambda": 4,
      "branch": "",
      "epsilon": null,
      "k": 0,
      "m": 0,
      "n": 1,
      "reason": "",
      "valid": true
    },
    {
      "Lambda": 4,
      "branch": "",
      "epsilon": null,
      "k": 0,
      "m": 0,
      "n": 2,
      "reason": "s + 1/2 = 2.5 exceeds b = 2.0",
      "valid": false
    }
  ],
  "schemaVersion": 1
}
"""),
    (["verify-tensor", "--trials", "1", "--b", "0", "--nu", "0"],
     """{
  "checks": {
    "deSitter": {
      "maxResidual": 0
    },
    "inverseProduct": {
      "maxResidual": 0
    },
    "minimalPolynomial": {
      "maxResidual": 0
    },
    "newtonCayley": {
      "maxResidual": 0
    }
  },
  "command": "verify-tensor",
  "failing": [],
  "fixedField": true,
  "maxResidual": 0,
  "pass": true,
  "schemaVersion": 1,
  "seed": 7,
  "tolerance": 1e-10,
  "trials": 1
}
"""),
    (["axial-integrate", "--geometry", "flat", "--field", "electric", "--nu", "1",
      "--ic-value", "0", "--ic-slope", "0", "--steps", "2"],
     "z,Z_re,Z_im,Z_abs\n"
     "-3,0,0,0\n"
     "0,0,0,0\n"
     "3,0,0,0\n"
     "# residual_estimate,0\n"),
    (["axial-integrate", "--geometry", "flat", "--field", "electric", "--nu", "1",
      "--ic-value", "0", "--ic-slope", "0", "--steps", "2", "--format", "json"],
     """{
  "Lambda": 2,
  "command": "axial-integrate",
  "epsilon": 0,
  "field": "electric",
  "geometry": "flat",
  "residualEstimate": 0,
  "rows": [
    {
      "Z": {
        "im": 0,
        "re": 0
      },
      "abs": 0,
      "z": -3
    },
    {
      "Z": {
        "im": 0,
        "re": 0
      },
      "abs": 0,
      "z": 0
    },
    {
      "Z": {
        "im": 0,
        "re": 0
      },
      "abs": 0,
      "z": 3
    }
  ],
  "schemaVersion": 1,
  "steps": 2,
  "w": 0
}
"""),
]


@pytest.mark.parametrize("argv, expected", _PINNED)
def test_output_bytes_pinned(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected


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
