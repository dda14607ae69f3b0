"""Command-line surface for the coxlab library.

Commands
--------
verify-tensor    randomized identity suite for the dressed mass matrix
spectrum         analytic magnetic spectra as (n, m) tables
radial-eigen     finite-volume radial eigenvalues with error estimates
zprofile         effective axial potential U(z) and force F_z(z) profiles
airy             closed-form linear-field branch pair Z1, Z2
axial-integrate  fixed-step integration of an assembled axial equation

Every command takes the same flags, before or after the command name.

Configuration
-------------
Flags override values from an optional flat ``key=value`` config file named
by the ``COXLAB_CONFIG`` environment variable, which in turn overrides the
built-in defaults.  Keys are the long flag names without the leading dashes
(``n-max=4``).  Unknown keys are rejected, and so are NaN and +-inf for
any float key, whether given as a flag or in the file (exit code 1).
Whatever the command, ``trials >= 1``, ``n-max >= 0``, ``seed >= 0``,
``1 <= samples <= 1000000``, ``1 <= steps <= 1000000``,
``16 <= grid-points <= 1000000``, ``tol > 0`` and at most 10001 ``m-range``
values are required (exit code 1).

verify-tensor prints a JSON report; the other commands print one table.  A
complex value is two CSV cells, in columns ``<name>_re,<name>_im``, and a
JSON object ``{"im", "re"}``; a footer entry is a CSV line ``# name,cells``
(one per item of a list) and a top-level JSON field beside ``rows``.

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
from typing import Callable, NamedTuple

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
    ParameterError,
)
from .radial import GridSpec, analytic_spectrum, solve_radial_eigen
from .tensor_algebra import (
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

_M_RANGE_MAX = 10_001


def _finite_float(text: str) -> float:
    """float() that refuses NaN and +-inf: the converter of every float key."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


class _Key(NamedTuple):
    """One key: its --flag, its config-file line and its RunConfig field."""

    conv: Callable[[str], object]
    default: object = None
    choices: tuple[str, ...] | None = None
    # (test, text): a resolved value failing test is refused as
    # "<command> needs <key> <text>"; None (a command's own default) passes
    domain: tuple[Callable[[object], bool], str] | None = None


_KEYS = {
    "geometry": _Key(str, "flat", ("flat", "lobachevsky", "spherical")),
    "field": _Key(str, "magnetic", ("magnetic", "electric")),
    "b": _Key(_finite_float, 0.0),
    "nu": _Key(_finite_float, 0.0),
    "eta": _Key(_finite_float, 0.0),
    "gamma": _Key(_finite_float, 0.0),
    "lambda-sep": _Key(_finite_float, 2.0),
    "n-max": _Key(int, 10, domain=(lambda n: n >= 0, ">= 0")),
    # parsed to a range or tuple of ints once resolved, so the cap is a length
    "m-range": _Key(str, "0", domain=(
        lambda ms: len(ms) <= _M_RANGE_MAX, f"of at most {_M_RANGE_MAX} values")),
    "k": _Key(_finite_float, 0.0),
    "z-min": _Key(_finite_float, -3.0),
    "z-max": _Key(_finite_float, 3.0),
    "samples": _Key(int, 601, domain=(lambda n: 1 <= n <= 1_000_000, ">= 1 and <= 1000000")),
    "grid-points": _Key(int, 3000, domain=(lambda n: 16 <= n <= 1_000_000, "in [16, 1000000]")),
    "r-max": _Key(_finite_float),
    "trials": _Key(int, 100, domain=(lambda n: n >= 1, ">= 1")),
    "seed": _Key(int, 7, domain=(lambda n: n >= 0, ">= 0")),
    "tol": _Key(_finite_float, domain=(lambda t: t > 0, "> 0")),
    "format": _Key(str, "csv", ("csv", "json")),
    "out": _Key(str),
    "include-invalid": _Key(_parse_bool, False),
    "w-prime": _Key(_finite_float, 0.0),
    "w": _Key(_finite_float, 0.0),
    "epsilon": _Key(_finite_float, 0.0),
    "m": _Key(int, 0),
    "ic-value": _Key(_finite_float, 1.0),
    "ic-slope": _Key(_finite_float, 0.0),
    "steps": _Key(int, 1000, domain=(lambda n: 1 <= n <= 1_000_000, ">= 1 and <= 1000000")),
}

_FIELDS = {name: name.replace("-", "_") for name in _KEYS}


# Fully resolved run parameters for one CLI invocation: one field per key,
# plus fixed_field (verify-tensor: b/nu were given, use them verbatim).
RunConfig = NamedTuple("RunConfig", [
    ("command", str), *((field, object) for field in _FIELDS.values()), ("fixed_field", bool),
])


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

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


def _parse_m_range(text: str) -> range | tuple[int, ...]:
    text = text.strip()
    try:
        if ":" in text:
            lo_s, _, hi_s = text.partition(":")
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError
            return range(lo, hi + 1)
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
    # between calls (every flag defaults to None, resolved per call).  Every
    # command takes the same keys, so one parser holds the command beside them
    parser = argparse.ArgumentParser(
        prog="coxlab",
        description="Scalar-particle spectra and field-dressed tensor checks.",
        epilog="COXLAB_CONFIG may name a key=value config file; flags override it.",
    )
    parser.add_argument("command", choices=_DISPATCH)
    for name, key in _KEYS.items():
        if key.conv is _parse_bool:
            parser.add_argument("--" + name, action="store_const", const=True, default=None)
        else:
            parser.add_argument("--" + name, type=key.conv, choices=key.choices, default=None)
    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_values = _load_config_file()
    values: dict[str, object] = {}
    for name, key in _KEYS.items():
        value = getattr(args, _FIELDS[name])
        if value is None and name in file_values:
            raw = file_values[name]
            try:
                value = key.conv(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"invalid value for config key {name!r}: {raw!r}") from exc
            if key.choices and value not in key.choices:
                raise ConfigError(f"config key {name!r} must be one of {', '.join(key.choices)}; "
                                  f"got {raw!r}")
        values[_FIELDS[name]] = key.default if value is None else value
    values["m_range"] = _parse_m_range(values["m_range"])
    for name, key in _KEYS.items():
        value = values[_FIELDS[name]]
        if key.domain and value is not None and not key.domain[0](value):
            raise ParameterError(f"{args.command} needs {name} {key.domain[1]}")
    fixed = any(getattr(args, k) is not None or k in file_values for k in ("b", "nu"))
    return RunConfig(command=args.command, fixed_field=fixed, **values)


# ---------------------------------------------------------------------------
# deterministic formatting
# ---------------------------------------------------------------------------

_fmt = "%.17g".__mod__  # 17 significant digits: lossless for binary64 round trips


class _Text(str):
    """JSON already rendered in _json_text's layout, inserted verbatim."""


def _json_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, _Text):
        return obj
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag}
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


def _json_doc(payload: dict, command: str) -> str:
    return _json_text({**payload, "command": command, "schemaVersion": SCHEMA_VERSION}) + "\n"


class _Table(NamedTuple):
    """A table command's output: JSON-only header fields, (CSV name, JSON
    key, values) columns and (CSV name, JSON key, value) footer entries."""

    header: dict
    columns: list
    footer: tuple = ()


_BOOL_TEXT = {False: "false", True: "true"}.__getitem__
# cell text per Python type of a table value; a complex value is two CSV
# cells "re,im" and in JSON _json_text's {"im", "re"} layout at a row's depth
_CSV_CELL = {float: _fmt, int: str, bool: _BOOL_TEXT, str: str, type(None): lambda _: "",
             complex: lambda v: f"{_fmt(v.real)},{_fmt(v.imag)}"}
_JSON_CELL = {float: _fmt, int: str, bool: _BOOL_TEXT, str: json.dumps,
              type(None): lambda _: "null",
              complex: lambda v: '{\n        "im": %s,\n        "re": %s\n      }'
              % (_fmt(v.imag), _fmt(v.real))}


def _cells(values, text_of: dict) -> list[str]:
    """Cell texts of a column of Python scalars: a column of one type maps
    one formatter over it instead of choosing one per cell."""
    kinds = set(map(type, values))
    if len(kinds) == 1:
        return list(map(text_of[kinds.pop()], values))
    return [text_of[type(v)](v) for v in values]


def _csv_table(table: _Table) -> str:
    names = [f"{name}_re,{name}_im" if values and type(values[0]) is complex else name
             for name, _, values in table.columns]
    cells = [_cells(values, _CSV_CELL) for _, _, values in table.columns]
    lines = [",".join(names), *map(",".join, zip(*cells))]
    for name, _, value in table.footer:
        for item in value if isinstance(value, list) else [value]:
            parts = item.values() if isinstance(item, dict) else [item]
            lines.append(",".join(["# " + name, *_cells(parts, _CSV_CELL)]))
    return "\n".join(lines) + "\n"


def _json_table(table: _Table, command: str) -> str:
    # rows are rendered column by column, straight into _json_text's layout
    fields = []
    for _, key, values in sorted(table.columns, key=lambda column: column[1]):
        prefix = f"      {json.dumps(key)}: "
        fields.append([prefix + text for text in _cells(values, _JSON_CELL)])
    rows = ["    {\n" + ",\n".join(row) + "\n    }" for row in zip(*fields)]
    payload = {**table.header, **{key: value for _, key, value in table.footer}}
    payload["rows"] = _Text("[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]")
    return _json_doc(payload, command)


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

_CHUNK = 1024  # trials per stacked pass: memory stays flat however many are asked for
# a trial's draws in rng order: g00, -g11, -g22, -g33, E_1..E_3, B_1..B_3, mu, lam
_DRAW_LO = np.array([0.5] * 4 + [-1.0] * 6 + [0.8, -0.5])
_DRAW_SPAN = np.array([2.0] * 4 + [1.0] * 6 + [1.6, 0.5]) - _DRAW_LO


def _worst(checks: dict, name: str, *per_trial: np.ndarray) -> None:
    """Raise checks[name] to the largest per-trial value by Python's max (NaN is skipped)."""
    checks[name] = max(checks[name], *(v for values in per_trial for v in values.tolist()))


def cmd_verify_tensor(cfg: RunConfig) -> tuple[str, int]:
    tolerance = 1e-10 if cfg.tol is None else cfg.tol
    rng = np.random.default_rng(cfg.seed)
    checks = dict.fromkeys(
        ("minimalPolynomial", "inverseProduct", "newtonCayley", "deSitter"), 0.0)
    eye = np.eye(4)
    # One call per identity and chunk raises for the chunk's first failing trial;
    # drawn trials cannot overflow field_invariants and the two inverses share D
    # up to rounding, so trial order holds across calls.  A fixed field makes
    # every trial one configuration: one row stands for all.
    for start in range(0, 1 if cfg.fixed_field else cfg.trials, _CHUNK):
        x = (np.array([[1.0] * 4 + [0.0, 0.0, cfg.nu, 0.0, 0.0, cfg.b, 1.0, 0.5]])
             if cfg.fixed_field  # else rows equal to per-trial rng.uniform(lo, hi) draws
             else _DRAW_LO + _DRAW_SPAN * rng.random((min(_CHUNK, cfg.trials - start), 12)))
        metric = DiagonalMetric(x[:, 0], -x[:, 1], -x[:, 2], -x[:, 3])
        fields = FieldConfig3(x[:, 4:7], x[:, 7:10])
        consts = ParticleConstants(x[:, 10], x[:, 11])
        F = build_mixed_field_tensor(fields, metric)
        Fd = dual_tensor(fields, metric)
        inv = field_invariants(fields, metric)
        _worst(checks, "minimalPolynomial", *minimal_poly_residuals(F, Fd, inv))

        Lam = MixedTensor(x[:, 10, None, None] * eye + x[:, 11, None, None] * F.entries)
        closed, _ = lambda_inverse(consts, F, Fd, inv)
        general, _ = general_lambda_inverse(consts, F)
        products = (Lam.entries @ inverse.entries - eye for inverse in (closed, general))
        _worst(checks, "inverseProduct", *(np.abs(P).max(axis=(1, 2)) for P in products))
        generators = MixedTensor(np.concatenate((F.entries, Lam.entries)))
        _worst(checks, "newtonCayley", newton_char_coeffs(generators).cayley_residual)

    Rs = (0.5, 1.0, 2.0)
    quarter = np.array(Rs)[:, None, None] / 4.0
    G = MixedTensor(quarter * eye)
    ch = newton_char_coeffs(G)
    got = np.stack([ch.p1, ch.p2, ch.p3, ch.p4], -1)
    exact = np.array([(R, -3.0 * R**2 / 8.0, R**3 / 16.0, -(R**4) / 256.0) for R in Rs])
    nil = np.linalg.matrix_power(G.entries - quarter * eye, 4)
    relative = np.ravel(abs(got - exact) / abs(exact))
    _worst(checks, "deSitter", relative, np.abs(nil).max(axis=(1, 2)))

    failing = sorted(name for name, value in checks.items() if value > tolerance)
    report = {
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
    return _json_doc(report, cfg.command), 0 if not failing else 2


# ---------------------------------------------------------------------------
# table commands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig) -> _Table:
    names = ("n", "m", "k", "Lambda", "epsilon", "valid", "branch", "reason")
    spec = _background(cfg)
    rows = []
    for m in cfg.m_range:
        for n in range(cfg.n_max + 1):
            e = analytic_spectrum(spec, QuantumNumbers(n, m, cfg.k))
            if e.valid or cfg.include_invalid:
                rows.append((n, m, cfg.k, e.Lambda, e.epsilon, e.valid, e.branch, e.reason))
    rows.sort(key=lambda row: row[:2])
    columns = list(zip(*rows)) or [()] * len(names)
    return _Table(
        {"geometry": cfg.geometry, "field": cfg.field, "b": cfg.b, "eta": cfg.eta, "k": cfg.k},
        [(name, name, values) for name, values in zip(names, columns)],
    )


def cmd_radial_eigen(cfg: RunConfig) -> _Table:
    spec = _background(cfg)
    ode = assemble_radial_ode(spec, QuantumNumbers(0, cfg.m, cfg.k))
    grid = GridSpec(
        points=cfg.grid_points,
        r_max=cfg.r_max,
        tol=1e-6 if cfg.tol is None else cfg.tol,
    )
    result = solve_radial_eigen(ode, cfg.n_max + 1, grid)
    return _Table(
        {"geometry": cfg.geometry, "field": cfg.field, "b": cfg.b, "m": cfg.m,
         "eigenName": ode.eigen_name, "gridPoints": cfg.grid_points},
        [("index", "index", list(range(len(result.eigenvalues)))),
         ("eigenvalue", "eigenvalue", result.eigenvalues.tolist()),
         ("error_estimate", "errorEstimate", result.error_estimates.tolist())],
    )


def cmd_zprofile(cfg: RunConfig) -> _Table:
    spec = _background(cfg)
    if abs(cfg.z_min + cfg.z_max) > 1e-12 * max(1.0, abs(cfg.z_max)):
        raise ParameterError("zprofile grid must be symmetric about z = 0")
    prof = potential_profile(spec, cfg.lambda_sep, cfg.z_min, cfg.z_max, cfg.samples)
    return _Table(
        {"geometry": cfg.geometry, "b": cfg.b, "gamma": cfg.gamma, "Lambda": cfg.lambda_sep},
        [("z", "z", prof.z_grid.tolist()), ("U", "U", prof.U.tolist()),
         ("Fz", "Fz", prof.Fz.tolist())],
        (("extremum", "extrema",
          [{"z": eq.z, "kind": eq.kind} for eq in prof.extrema.equilibria]),),
    )


def cmd_airy(cfg: RunConfig) -> _Table:
    pair = airy_pair(cfg.w_prime, cfg.nu)
    zs = np.linspace(cfg.z_min, cfg.z_max, cfg.samples)
    xs = pair.x_of_z(zs)
    return _Table(
        {"wPrime": cfg.w_prime, "nu": cfg.nu},
        [("z", "z", zs.tolist()), ("x", "x", xs.tolist()),
         ("Z1", "Z1", pair.z1(xs).tolist()), ("Z2", "Z2", pair.z2(xs).tolist())],
        (("turning_point", "turningPoint", pair.turning_point),
         ("wronskian", "wronskian", pair.wronskian)),
    )


def cmd_axial_integrate(cfg: RunConfig) -> _Table:
    spec = _background(cfg)
    ode = assemble_axial_ode(spec, cfg.lambda_sep, epsilon=cfg.epsilon, w=cfg.w)
    sol = integrate_axial(
        ode,
        (cfg.ic_value, cfg.ic_slope),
        (cfg.z_min, cfg.z_max),
        steps=cfg.steps,
        tol=1e-9 if cfg.tol is None else cfg.tol,
    )
    Z = sol.Z.tolist()
    return _Table(
        {"geometry": cfg.geometry, "field": cfg.field, "Lambda": cfg.lambda_sep,
         "epsilon": cfg.epsilon, "w": cfg.w, "steps": cfg.steps},
        # abs of a Python complex rounds like numpy's scalar abs, unlike np.abs
        [("z", "z", sol.z.tolist()), ("Z", "Z", Z), ("Z_abs", "abs", [abs(v) for v in Z])],
        (("residual_estimate", "residualEstimate", float(sol.residual_estimate)),),
    )


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
        out = _DISPATCH[cfg.command](cfg)
        if isinstance(out, _Table):
            out = (_json_table(out, cfg.command) if cfg.format == "json"
                   else _csv_table(out)), 0
        text, code = out
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (CoxlabInputError, CoxlabNumericalError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, CoxlabInputError) else 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
