"""Command-line surface for the coxlab library.

Subcommands
-----------
verify-tensor    randomized identity suite for the dressed mass matrix
spectrum         analytic magnetic spectra as (n, m) tables
radial-eigen     finite-volume radial eigenvalues with error estimates
zprofile         effective axial potential U(z) and force F_z(z) profiles
airy             closed-form linear-field branch pair Z1, Z2
axial-integrate  fixed-step integration of an assembled axial equation

Configuration
-------------
Flags override values from an optional flat ``key=value`` config file named
by the ``COXLAB_CONFIG`` environment variable, which in turn overrides the
built-in defaults.  Keys are the long flag names without the leading dashes
(``n-max=4``).  Unknown keys are rejected, and so are NaN and +-inf for
any float key, whether given as a flag or in the file (exit code 1).

Output is deterministic for a fixed configuration and seed: floats are
printed with 17 significant digits, JSON objects are emitted with sorted
keys, and no timestamps or machine identifiers appear.

Exit codes: 0 success, 1 invalid input or configuration, 2 numerical or
verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .axial import (
    airy_pair,
    integrate_axial,
    potential_profile,
)
from .backgrounds import BackgroundSpec, QuantumNumbers, assemble_axial_ode, assemble_radial_ode
from .errors import (
    ConfigError,
    CoxlabInputError,
    CoxlabNumericalError,
    DomainError,
    ParameterError,
    PoleError,
)
from .radial import GridSpec, analytic_spectrum, solve_radial_eigen
from .tensor_algebra import (
    FLAT_METRIC,
    DiagonalMetric,
    FieldConfig3,
    MixedTensor,
    ParticleConstants,
    build_mixed_field_tensor,
    dual_tensor,
    field_invariants,
    general_lambda_inverse,
    lambda_inverse,
    minimal_poly_residuals,
    newton_char_coeffs,
)

SCHEMA_VERSION = 1

_COMMANDS = (
    "verify-tensor",
    "spectrum",
    "radial-eigen",
    "zprofile",
    "airy",
    "axial-integrate",
)


def _finite_float(text: str) -> float:
    """float() that refuses NaN and +-inf: the converter of every float key."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


# key -> (converter, default); the key set doubles as the config-file schema
_KEYS: dict[str, tuple] = {
    "geometry": (str, "flat"),
    "field": (str, "magnetic"),
    "b": (_finite_float, 0.0),
    "nu": (_finite_float, 0.0),
    "eta": (_finite_float, 0.0),
    "gamma": (_finite_float, 0.0),
    "lambda-sep": (_finite_float, 2.0),
    "n-max": (int, 10),
    "m-range": (str, "0"),
    "k": (_finite_float, 0.0),
    "z-min": (_finite_float, -3.0),
    "z-max": (_finite_float, 3.0),
    "samples": (int, 601),
    "grid-points": (int, 3000),
    "r-max": (_finite_float, None),
    "trials": (int, 100),
    "seed": (int, 7),
    "tol": (_finite_float, None),
    "format": (str, "csv"),
    "out": (str, None),
    "include-invalid": (bool, False),
    "w-prime": (_finite_float, None),
    "w": (_finite_float, 0.0),
    "epsilon": (_finite_float, 0.0),
    "m": (int, 0),
    "ic-value": (_finite_float, 1.0),
    "ic-slope": (_finite_float, 0.0),
    "steps": (int, 1000),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters for one CLI invocation."""

    command: str
    geometry: str
    field: str
    b: float
    nu: float
    eta: float
    gamma: float
    lambda_sep: float
    n_max: int
    m_range: tuple[int, ...]
    k: float
    z_min: float
    z_max: float
    samples: int
    grid_points: int
    r_max: float | None
    trials: int
    seed: int
    tol: float | None
    fmt: str
    out: str | None
    include_invalid: bool
    w_prime: float | None
    w: float
    epsilon: float
    m: int
    ic_value: float
    ic_slope: float
    steps: int
    fixed_field: bool  # verify-tensor: b/nu were given, use them verbatim


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _convert(key: str, raw: str):
    conv = _KEYS[key][0]
    try:
        return _parse_bool(raw) if conv is bool else conv(raw)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"invalid value for config key {key!r}: {raw!r}") from exc


def _load_config_file() -> dict[str, str]:
    path = os.environ.get("COXLAB_CONFIG")
    if not path:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"COXLAB_CONFIG points to a missing file: {path}")
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, _, raw = text.partition("=")
            key = key.strip()
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = raw.strip()
    return values


def _parse_m_range(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if ":" in text:
            lo_s, _, hi_s = text.partition(":")
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        if "," in text:
            return tuple(int(part) for part in text.split(","))
        return (int(text),)
    except ValueError as exc:
        raise ConfigError(
            f"m-range must be an integer, 'lo:hi', or a comma list; got {text!r}"
        ) from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call and reused: parse_args keeps no state
    # between calls (every flag defaults to None, resolved per call)
    common = argparse.ArgumentParser(add_help=False)
    for key, (conv, _default) in _KEYS.items():
        flag = "--" + key
        if conv is bool:
            common.add_argument(flag, action="store_const", const=True, default=None)
        elif conv is str and key == "geometry":
            common.add_argument(
                flag, choices=("flat", "lobachevsky", "spherical"), default=None
            )
        elif conv is str and key == "field":
            common.add_argument(flag, choices=("magnetic", "electric"), default=None)
        elif conv is str and key == "format":
            common.add_argument(flag, choices=("csv", "json"), default=None)
        else:
            common.add_argument(flag, type=conv, default=None)
    parser = argparse.ArgumentParser(
        prog="coxlab",
        description="Scalar-particle spectra and field-dressed tensor checks.",
        epilog="COXLAB_CONFIG may name a key=value config file; flags override it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_values = _load_config_file()
    resolved: dict[str, object] = {}
    explicit: set[str] = set()
    for key, (_conv, default) in _KEYS.items():
        attr = key.replace("-", "_")
        cli_val = getattr(args, attr)
        if cli_val is not None:
            resolved[key] = cli_val
            explicit.add(key)
        elif key in file_values:
            resolved[key] = _convert(key, file_values[key])
            explicit.add(key)
        else:
            resolved[key] = default
    return RunConfig(
        command=args.command,
        geometry=resolved["geometry"],
        field=resolved["field"],
        b=resolved["b"],
        nu=resolved["nu"],
        eta=resolved["eta"],
        gamma=resolved["gamma"],
        lambda_sep=resolved["lambda-sep"],
        n_max=resolved["n-max"],
        m_range=_parse_m_range(resolved["m-range"]),
        k=resolved["k"],
        z_min=resolved["z-min"],
        z_max=resolved["z-max"],
        samples=resolved["samples"],
        grid_points=resolved["grid-points"],
        r_max=resolved["r-max"],
        trials=resolved["trials"],
        seed=resolved["seed"],
        tol=resolved["tol"],
        fmt=resolved["format"],
        out=resolved["out"],
        include_invalid=resolved["include-invalid"],
        w_prime=resolved["w-prime"],
        w=resolved["w"],
        epsilon=resolved["epsilon"],
        m=resolved["m"],
        ic_value=resolved["ic-value"],
        ic_slope=resolved["ic-slope"],
        steps=resolved["steps"],
        fixed_field=("b" in explicit or "nu" in explicit),
    )


# ---------------------------------------------------------------------------
# deterministic formatting
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    """17-significant-digit text, lossless for binary64 round trips."""
    return "%.17g" % float(x)


def _json_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + _json_text(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(key))}: {_json_text(obj[key], indent + 1)}"
            for key in sorted(obj)
        )
        return "{\n" + items + "\n" + pad + "}"
    raise ConfigError(f"cannot serialize {type(obj).__name__} to JSON")


def _json_doc(payload: dict) -> str:
    doc = dict(payload)
    doc["schemaVersion"] = SCHEMA_VERSION
    return _json_text(doc) + "\n"


def _csv_doc(header: list[str], rows: list[list[str]], footer: list[str]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    lines.extend(footer)
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _background(cfg: RunConfig) -> BackgroundSpec:
    return BackgroundSpec(
        geometry=cfg.geometry,
        field=cfg.field,
        b=cfg.b,
        nu=cfg.nu,
        eta=cfg.eta,
        gamma=cfg.gamma,
    )


# ---------------------------------------------------------------------------
# verify-tensor
# ---------------------------------------------------------------------------

def _draw_case(rng: np.random.Generator):
    metric = DiagonalMetric(
        rng.uniform(0.5, 2.0),
        -rng.uniform(0.5, 2.0),
        -rng.uniform(0.5, 2.0),
        -rng.uniform(0.5, 2.0),
    )
    fields = FieldConfig3(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
    consts = ParticleConstants(rng.uniform(0.8, 1.6), rng.uniform(-0.5, 0.5))
    return fields, metric, consts


def cmd_verify_tensor(cfg: RunConfig) -> tuple[str, int]:
    if cfg.trials < 1:
        raise ParameterError("verify-tensor needs trials >= 1")
    tolerance = 1e-10 if cfg.tol is None else cfg.tol
    rng = np.random.default_rng(cfg.seed)
    res_minpoly = 0.0
    res_inverse = 0.0
    res_cayley = 0.0
    eye = np.eye(4)
    for _ in range(cfg.trials):
        if cfg.fixed_field:
            fields = FieldConfig3((0.0, 0.0, cfg.nu), (0.0, 0.0, cfg.b))
            metric = FLAT_METRIC
            consts = ParticleConstants(1.0, 0.5)
        else:
            fields, metric, consts = _draw_case(rng)
        F = build_mixed_field_tensor(fields, metric)
        Fd = dual_tensor(fields, metric)
        inv = field_invariants(fields, metric)
        r3, r4 = minimal_poly_residuals(F, Fd, inv)
        res_minpoly = max(res_minpoly, r3, r4)

        Lam = MixedTensor(consts.mu * eye + consts.lam * F.entries)
        closed, _ = lambda_inverse(consts, F, Fd, inv)
        general, _ = general_lambda_inverse(consts, F)
        res_inverse = max(
            res_inverse,
            float(np.max(np.abs(Lam.entries @ closed.entries - eye))),
            float(np.max(np.abs(Lam.entries @ general.entries - eye))),
        )

        res_cayley = max(
            res_cayley,
            newton_char_coeffs(F).cayley_residual,
            newton_char_coeffs(Lam).cayley_residual,
        )

    res_desitter = 0.0
    for R in (0.5, 1.0, 2.0):
        G = MixedTensor((R / 4.0) * eye)
        ch = newton_char_coeffs(G)
        exact = (R, -3.0 * R**2 / 8.0, R**3 / 16.0, -(R**4) / 256.0)
        for got, want in zip((ch.p1, ch.p2, ch.p3, ch.p4), exact):
            res_desitter = max(res_desitter, abs(got - want) / abs(want))
        nil = np.linalg.matrix_power(G.entries - (R / 4.0) * eye, 4)
        res_desitter = max(res_desitter, float(np.max(np.abs(nil))))

    checks = {
        "minimalPolynomial": res_minpoly,
        "inverseProduct": res_inverse,
        "newtonCayley": res_cayley,
        "deSitter": res_desitter,
    }
    failing = sorted(name for name, value in checks.items() if value > tolerance)
    report = {
        "command": "verify-tensor",
        "trials": cfg.trials,
        "seed": cfg.seed,
        "tolerance": tolerance,
        "fixedField": cfg.fixed_field,
        "checks": {name: {"maxResidual": value} for name, value in checks.items()},
        "maxResidual": max(checks.values()),
        "pass": not failing,
        "failing": failing,
    }
    if failing:
        print(
            "error: verification failed: " + ", ".join(failing),
            file=sys.stderr,
        )
    return _json_doc(report), 0 if not failing else 2


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig) -> tuple[str, int]:
    if cfg.n_max < 0:
        raise ParameterError("spectrum needs n-max >= 0")
    spec = _background(cfg)
    entries = []
    for m in cfg.m_range:
        for n in range(cfg.n_max + 1):
            entry = analytic_spectrum(spec, QuantumNumbers(n, m, cfg.k), strict=False)
            if entry.valid or cfg.include_invalid:
                entries.append((n, m, entry))
    entries.sort(key=lambda item: (item[0], item[1]))

    if cfg.fmt == "json":
        rows = [
            {
                "n": n,
                "m": m,
                "k": cfg.k,
                "Lambda": entry.Lambda,
                "epsilon": entry.epsilon,
                "valid": entry.valid,
                "branch": entry.branch,
                "reason": entry.reason,
            }
            for n, m, entry in entries
        ]
        payload = {
            "command": "spectrum",
            "geometry": cfg.geometry,
            "field": cfg.field,
            "b": cfg.b,
            "eta": cfg.eta,
            "k": cfg.k,
            "rows": rows,
        }
        return _json_doc(payload), 0

    rows = [
        [
            str(n),
            str(m),
            _fmt(cfg.k),
            _fmt(entry.Lambda) if entry.Lambda is not None else "",
            _fmt(entry.epsilon) if entry.epsilon is not None else "",
            "true" if entry.valid else "false",
            entry.branch,
            entry.reason,
        ]
        for n, m, entry in entries
    ]
    return _csv_doc(
        ["n", "m", "k", "Lambda", "epsilon", "valid", "branch", "reason"], rows, []
    ), 0


# ---------------------------------------------------------------------------
# radial-eigen
# ---------------------------------------------------------------------------

def cmd_radial_eigen(cfg: RunConfig) -> tuple[str, int]:
    spec = _background(cfg)
    ode = assemble_radial_ode(spec, QuantumNumbers(0, cfg.m, cfg.k))
    grid = GridSpec(
        points=cfg.grid_points,
        r_max=cfg.r_max,
        tol=1e-6 if cfg.tol is None else cfg.tol,
    )
    result = solve_radial_eigen(ode, cfg.n_max + 1, grid)
    if cfg.fmt == "json":
        rows = [
            {
                "index": i,
                "eigenvalue": float(result.eigenvalues[i]),
                "errorEstimate": float(result.error_estimates[i]),
            }
            for i in range(len(result.eigenvalues))
        ]
        payload = {
            "command": "radial-eigen",
            "geometry": cfg.geometry,
            "field": cfg.field,
            "b": cfg.b,
            "m": cfg.m,
            "eigenName": ode.eigen_name,
            "gridPoints": cfg.grid_points,
            "rows": rows,
        }
        return _json_doc(payload), 0
    rows = [
        [str(i), _fmt(result.eigenvalues[i]), _fmt(result.error_estimates[i])]
        for i in range(len(result.eigenvalues))
    ]
    return _csv_doc(["index", "eigenvalue", "error_estimate"], rows, []), 0


# ---------------------------------------------------------------------------
# zprofile
# ---------------------------------------------------------------------------

def cmd_zprofile(cfg: RunConfig) -> tuple[str, int]:
    spec = _background(cfg)
    if abs(cfg.z_min + cfg.z_max) > 1e-12 * max(1.0, abs(cfg.z_max)):
        raise ParameterError("zprofile grid must be symmetric about z = 0")
    try:
        prof = potential_profile(spec, cfg.lambda_sep, cfg.z_min, cfg.z_max, cfg.samples)
    except PoleError as exc:
        # a range straddling a pole is a bad request, not a numerical failure
        raise DomainError(str(exc)) from exc
    extrema = [
        {"z": eq.z, "kind": eq.kind} for eq in prof.extrema.equilibria
    ]
    if cfg.fmt == "json":
        rows = [
            {"z": float(z), "U": float(u), "Fz": float(f)}
            for z, u, f in zip(prof.z_grid, prof.U, prof.Fz)
        ]
        payload = {
            "command": "zprofile",
            "geometry": cfg.geometry,
            "b": cfg.b,
            "gamma": cfg.gamma,
            "Lambda": cfg.lambda_sep,
            "rows": rows,
            "extrema": extrema,
        }
        return _json_doc(payload), 0
    rows = [
        [_fmt(z), _fmt(u), _fmt(f)]
        for z, u, f in zip(prof.z_grid, prof.U, prof.Fz)
    ]
    footer = [
        f"# extremum,{_fmt(eq['z'])},{eq['kind']}" for eq in extrema
    ]
    return _csv_doc(["z", "U", "Fz"], rows, footer), 0


# ---------------------------------------------------------------------------
# airy
# ---------------------------------------------------------------------------

def cmd_airy(cfg: RunConfig) -> tuple[str, int]:
    if cfg.samples < 1:
        raise ParameterError("airy needs samples >= 1")
    w_prime = 0.0 if cfg.w_prime is None else cfg.w_prime
    pair = airy_pair(w_prime, cfg.nu)
    zs = np.linspace(cfg.z_min, cfg.z_max, cfg.samples)
    xs = pair.x_of_z(zs)
    table = list(zip(zs.tolist(), xs.tolist(), pair.z1(xs).tolist(), pair.z2(xs).tolist()))
    if cfg.fmt == "json":
        rows = [
            {
                "z": z,
                "x": x,
                "Z1": {"re": z1.real, "im": z1.imag},
                "Z2": {"re": z2.real, "im": z2.imag},
            }
            for z, x, z1, z2 in table
        ]
        payload = {
            "command": "airy",
            "wPrime": w_prime,
            "nu": cfg.nu,
            "turningPoint": pair.turning_point,
            "wronskian": {"re": pair.wronskian.real, "im": pair.wronskian.imag},
            "rows": rows,
        }
        return _json_doc(payload), 0
    rows = [
        [_fmt(z), _fmt(x), _fmt(z1.real), _fmt(z1.imag), _fmt(z2.real), _fmt(z2.imag)]
        for z, x, z1, z2 in table
    ]
    footer = [
        f"# turning_point,{_fmt(pair.turning_point)}",
        f"# wronskian,{_fmt(pair.wronskian.real)},{_fmt(pair.wronskian.imag)}",
    ]
    return _csv_doc(["z", "x", "Z1_re", "Z1_im", "Z2_re", "Z2_im"], rows, footer), 0


# ---------------------------------------------------------------------------
# axial-integrate
# ---------------------------------------------------------------------------

def cmd_axial_integrate(cfg: RunConfig) -> tuple[str, int]:
    spec = _background(cfg)
    ode = assemble_axial_ode(spec, cfg.lambda_sep, epsilon=cfg.epsilon, w=cfg.w)
    sol = integrate_axial(
        ode,
        (cfg.ic_value, cfg.ic_slope),
        (cfg.z_min, cfg.z_max),
        steps=cfg.steps,
        tol=1e-9 if cfg.tol is None else cfg.tol,
    )
    if cfg.fmt == "json":
        rows = [
            {
                "z": float(sol.z[i]),
                "Z": {"re": sol.Z[i].real, "im": sol.Z[i].imag},
                "abs": float(abs(sol.Z[i])),
            }
            for i in range(len(sol.z))
        ]
        payload = {
            "command": "axial-integrate",
            "geometry": cfg.geometry,
            "field": cfg.field,
            "Lambda": cfg.lambda_sep,
            "epsilon": cfg.epsilon,
            "w": cfg.w,
            "steps": cfg.steps,
            "residualEstimate": float(sol.residual_estimate),
            "rows": rows,
        }
        return _json_doc(payload), 0
    rows = [
        [_fmt(sol.z[i]), _fmt(sol.Z[i].real), _fmt(sol.Z[i].imag), _fmt(abs(sol.Z[i]))]
        for i in range(len(sol.z))
    ]
    footer = [f"# residual_estimate,{_fmt(sol.residual_estimate)}"]
    return _csv_doc(["z", "Z_re", "Z_im", "Z_abs"], rows, footer), 0


_DISPATCH = {
    "verify-tensor": cmd_verify_tensor,
    "spectrum": cmd_spectrum,
    "radial-eigen": cmd_radial_eigen,
    "zprofile": cmd_zprofile,
    "airy": cmd_airy,
    "axial-integrate": cmd_axial_integrate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into "invalid input"
        return 0 if (exc.code or 0) == 0 else 1
    try:
        cfg = _resolve(args)
        text, code = _DISPATCH[cfg.command](cfg)
        _emit(text, cfg.out)
    except CoxlabInputError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except CoxlabNumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
