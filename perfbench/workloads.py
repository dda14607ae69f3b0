"""The four request workloads of the coxlab benchmark.

Each workload is a seeded, endless stream of requests plus three steps
the run loop drives: ``prepare`` (untimed: per-request housekeeping),
``call`` (the timed request against coxlab's public API) and ``collect``
(untimed: copy the answer into plain data).  ``check`` compares a
collected answer with the references in ``oracles``; ``describe``
records the input properties of the requests a run actually sent;
``known_defect`` names the documented library defect whose input region
a request lies in, if any.

Requests cycle through a fixed set of classes (geometry x grid size,
equation x step count, batch kind, configuration pool) in a fresh
seeded order each cycle, with continuous parameters drawn per request.
The class mix is therefore the same for every seed, which keeps the
latency quantiles of different seeds comparable.  The input regions of
the known library defects are strata of their own at a fixed share:
every other draw keeps clear of them, so each run of whole cycles holds
the same number of requests there, whatever the seed.

coxlab functions are always looked up as module attributes at call
time, so the traced run sees every call through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from coxlab import axial, backgrounds, cli, radial, special_functions

import calibration
import oracles


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tail_pct: float  # fixed per workload: >= 10 samples beyond it at the run's request count
    rate: float  # nominal requests per second; sizes a run (run.request_count)
    cycle: int  # requests per cycle of classes; a run sends whole cycles
    calibration: calibration.Unit  # coxlab-free work shaped like the requests
    stream: Callable[[int, Path], Iterator[dict]]
    call: Callable[[dict], object]
    collect: Callable[[dict, object], object]
    check: Callable[[dict, object], str | None]
    describe: Callable[[list], dict]
    prepare: Callable[[dict], None] = lambda req: None
    known_defect: Callable[[dict], str | None] = lambda req: None


def _cycle(rng: np.random.Generator, classes: list) -> Iterator:
    """Every class once per cycle, in a fresh seeded order each cycle."""
    while True:
        for i in rng.permutation(len(classes)):
            yield classes[i]


def _share(count: int, total: int) -> float:
    return round(count / total, 4) if total else 0.0


# ---------------------------------------------------------------------------
# radial_sweep
# ---------------------------------------------------------------------------
# Eigensolver and tridiagonal assembly dominate; no special functions, no
# axial code and no repeated inputs, so special-function, integrator and
# caching changes should leave this workload unchanged.

RADIAL_GEOMETRIES = ("flat", "lobachevsky", "spherical")
RADIAL_CELLS = (400, 800, 1200, 1600, 3200)  # odd count: p50 and p95 fall inside a class
RADIAL_TOL = 5e-3
LOBACHEVSKY_R_MAX = 30.0
ANTIPODE_DEFECT = "spherical antipode exponent |m + 2b| < 1"
ANTIPODE_MISS = (0.05, 0.6)  # |m + 2b| here: every grid size misses
ANTIPODE_CLEAR = 0.75  # |m + 2b| from here on: every grid size passes
ANTIPODE_EVERY = 10  # one spherical request in ten is drawn in the miss band


def antipode_defect(geometry: str, b: float, m: int) -> bool:
    """Known solver defect.  Spherical eigenfunctions behave like
    (pi - r)^|m + 2b| at the antipode.  For exponents below 1 the solver
    converges slower than the h^2 its Richardson step assumes, and below
    about 0.65 its levels miss the closed form by several times the reported
    error estimate (b = 1.405, m = -3, 1600 cells: relative error 1.2e-2
    against an estimate of 1.2e-3).  Between 0.63 and 0.70 whether a level
    misses depends on the grid size; ANTIPODE_MISS and ANTIPODE_CLEAR stay
    out of that band (measured over 400-3200 cells, and the cli's 200-600
    grid points at tol 1e-2)."""
    return geometry == "spherical" and abs(m + 2.0 * b) < 1.0


def antipode_draw(rng, m_values, b_range, miss: bool) -> tuple[int, float]:
    """(m, b) of a spherical request: in the band where the solver always
    misses (one draw in ANTIPODE_EVERY, a little above the natural share of
    about 8%), or clear of the band where the outcome depends on the grid.
    The miss band stays a fixed share, so every seed fails the same number
    of requests."""
    if miss:
        s = rng.uniform(*ANTIPODE_MISS) * (1.0 if rng.integers(2) else -1.0)
        ms = [m for m in m_values if b_range[0] <= (s - m) / 2.0 <= b_range[1]]
        m = int(rng.choice(ms))
        return m, (s - m) / 2.0
    while True:
        m, b = int(rng.choice(m_values)), float(rng.uniform(*b_range))
        if abs(m + 2.0 * b) >= ANTIPODE_CLEAR:
            return m, b


def _lobachevsky_count(b: float, m: int) -> int:
    """Lowest levels that are bound by at least 1/2 below the edge t = b, so
    a cutoff of 30 holds their tails (the solver rejects weaker binding)."""
    count = 0
    for n in range(3):
        _lam, bound, t = oracles.lobachevsky_level(b, n, m)
        if not (bound and t <= b - 0.5):
            break
        count += 1
    return count


def radial_stream(seed: int, workdir: Path) -> Iterator[dict]:
    rng = np.random.default_rng([seed, 1])
    classes = [(g, c) for g in RADIAL_GEOMETRIES for c in RADIAL_CELLS]
    spherical = 0
    for geometry, cells in _cycle(rng, classes):
        r_max = None
        count = 3
        if geometry == "flat":
            b = float(rng.uniform(0.5, 2.5))
            m = int(rng.integers(-3, 4))
            r_max = math.sqrt(40.0 / b)  # |R|^2 r ~ exp(-b r^2): tail below 1e-8
        elif geometry == "spherical":
            m, b = antipode_draw(rng, range(-3, 4), (0.5, 4.0), spherical % ANTIPODE_EVERY == 0)
            spherical += 1
        else:
            r_max = LOBACHEVSKY_R_MAX
            count = 0
            while count == 0:
                b = float(rng.uniform(2.0, 7.0))
                m = int(rng.integers(-3, 4))
                count = _lobachevsky_count(b, m)
        yield {"geometry": geometry, "b": b, "m": m, "count": count,
               "cells": cells, "r_max": r_max, "tol": RADIAL_TOL}


def radial_call(req: dict):
    spec = backgrounds.BackgroundSpec(geometry=req["geometry"], b=req["b"])
    ode = radial.spectrum_matched_ode(spec, backgrounds.QuantumNumbers(0, req["m"]))
    grid = radial.GridSpec(points=req["cells"], r_max=req["r_max"], tol=req["tol"])
    return radial.solve_radial_eigen(ode, req["count"], grid)


def radial_collect(req: dict, res) -> dict:
    return {"eigenvalues": np.array(res.eigenvalues), "estimates": np.array(res.error_estimates)}


def _check_levels(geometry, b, ms, values, estimates, tol) -> str | None:
    """Each level within its own error estimate of the closed form, and each
    estimate within the requested relative tolerance."""
    if len(values) != len(ms):
        return f"expected {len(ms)} levels, got {len(values)}"
    for n, (m, lam, est) in enumerate(zip(ms, values, estimates)):
        exact = oracles.level(geometry, b, n, m)
        scale = max(1.0, abs(exact))
        if not est <= tol * max(1.0, abs(lam)):
            return f"level {n}: estimate {est:.3e} above tol {tol}"
        if not abs(lam - exact) <= est + 1e-9 * scale:
            return f"level {n}: {lam!r} vs closed form {exact!r} (estimate {est:.2e})"
    return None


def radial_check(req: dict, res) -> str | None:
    if not isinstance(res, dict):
        return f"unexpected outcome {res!r}"
    return _check_levels(req["geometry"], req["b"], [req["m"]] * req["count"],
                         res["eigenvalues"], res["estimates"], req["tol"])


def radial_known_defect(req: dict) -> str | None:
    return ANTIPODE_DEFECT if antipode_defect(req["geometry"], req["b"], req["m"]) else None


def radial_describe(reqs: list) -> dict:
    cells = [r["cells"] for r in reqs]
    keys = {tuple(sorted((k, v) for k, v in r.items())) for r in reqs}
    return {
        "cells_min": min(cells), "cells_max": max(cells),
        "cells_share": {c: _share(cells.count(c), len(cells)) for c in RADIAL_CELLS},
        "geometry_share": {g: _share(sum(r["geometry"] == g for r in reqs), len(reqs))
                           for g in RADIAL_GEOMETRIES},
        "levels_per_request": round(float(np.mean([r["count"] for r in reqs])), 3),
        "known_defect_share": _share(sum(radial_known_defect(r) is not None for r in reqs),
                                     len(reqs)),
        "repeat_share": _share(len(reqs) - len(keys), len(reqs)),
    }


# ---------------------------------------------------------------------------
# axial_integrate
# ---------------------------------------------------------------------------
# The per-step Python loop of integrate_axial and the scalar coefficient
# callbacks assembled by backgrounds do almost all the work; radial is never
# called.  Flat-electric requests start from airy_pair data at x >= -5, where
# 0F1 arguments stay above -30 and no mpmath fallback runs.

AXIAL_EQUATIONS = ("lobachevsky-magnetic", "spherical-magnetic",
                   "lobachevsky-electric", "spherical-electric", "flat-electric")
AXIAL_STEPS = (200, 300, 400, 600, 800)
PROFILE_STEPS = (200, 400, 800)  # curved magnetic requests at these steps also tabulate U
PROFILE_SAMPLES = (201, 401, 801)


def axial_stream(seed: int, workdir: Path) -> Iterator[dict]:
    rng = np.random.default_rng([seed, 2])
    classes = [(e, s) for e in AXIAL_EQUATIONS for s in AXIAL_STEPS]
    u = rng.uniform
    for eq, steps in _cycle(rng, classes):
        req = {"eq": eq, "steps": steps, "profile": None}
        if eq.endswith("magnetic"):
            lob = eq.startswith("lobachevsky")
            P = {"b": u(0.5, 3.0), "Lambda": u(0.5, 4.0), "epsilon": u(0.0, 3.0),
                 "gamma": u(-0.8, 0.8) if lob else u(0.02, 0.08)}
            a = u(1.0, 2.0) if lob else u(0.6, 0.95)
            req["ic"] = (1.0 + 0j, complex(u(-1.0, 1.0)))
            req["z_range"] = (-a, a)
            if steps in PROFILE_STEPS:
                # spherical poles sit at cos^2 z = gamma, beyond |z| = 1.28 here
                req["profile"] = {"samples": int(rng.choice(PROFILE_SAMPLES)),
                                  "z_max": 3.0 if lob else 1.1}
        elif eq == "flat-electric":
            P = {"nu": u(0.5, 2.0), "gamma": u(-0.5, 0.5), "Lambda": u(0.5, 3.0),
                 "w": u(0.0, 5.0), "compton": 1.0}
            x0 = u(-5.0, 2.5)
            z0 = -oracles.flat_w_prime(P) / P["nu"] - x0 / P["nu"] ** (1.0 / 3.0)
            req["branch"] = "z1" if rng.integers(2) else "z2"
            req["z_range"] = (z0, z0 + u(1.5, 2.5))
        else:
            lob = eq.startswith("lobachevsky")
            P = {"nu": u(0.5, 3.0), "gamma": u(-0.8, 0.8), "Lambda": u(0.5, 3.0),
                 "w": u(0.0, 3.0)}
            a = u(1.0, 2.0) if lob else u(0.6, 0.95)
            req["ic"] = (1.0 + 0j, complex(u(-1.0, 1.0)))
            req["z_range"] = (-a, a)
        req["params"] = {k: float(v) for k, v in P.items()}
        yield req


def _axial_spec(req: dict):
    geometry, kind = req["eq"].split("-")
    P = req["params"]
    if kind == "magnetic":
        return backgrounds.BackgroundSpec(geometry=geometry, field=kind, b=P["b"], gamma=P["gamma"])
    return backgrounds.BackgroundSpec(geometry=geometry, field=kind, nu=P["nu"], gamma=P["gamma"])


def axial_call(req: dict):
    P = req["params"]
    spec = _axial_spec(req)
    if req["eq"].endswith("magnetic"):
        ode = backgrounds.assemble_axial_ode(spec, P["Lambda"], epsilon=P["epsilon"])
    else:
        ode = backgrounds.assemble_axial_ode(spec, P["Lambda"], w=P["w"],
                                             compton=P.get("compton", 1.0))
    if req["eq"] == "flat-electric":
        pair = axial.airy_pair(ode.params["w_prime"], P["nu"])
        x0 = float(pair.x_of_z(req["z_range"][0]))
        f, df = (pair.z1, pair.dz1) if req["branch"] == "z1" else (pair.z2, pair.dz2)
        ic = (f(x0), -(P["nu"] ** (1.0 / 3.0)) * df(x0))
    else:
        ic = req["ic"]
    sol = axial.integrate_axial(ode, ic, req["z_range"], req["steps"])
    prof = None
    if req["profile"]:
        zp = req["profile"]["z_max"]
        prof = axial.potential_profile(spec, P["Lambda"], -zp, zp, req["profile"]["samples"])
    return sol, prof


def axial_collect(req: dict, raw) -> dict:
    sol, prof = raw
    out = {"z": np.array(sol.z), "Z": np.array(sol.Z), "residual": float(sol.residual_estimate)}
    if prof is not None:
        out["U"] = np.array(prof.U)
        out["Fz"] = np.array(prof.Fz)
        out["equilibria"] = [(e.z, e.kind) for e in prof.extrema.equilibria]
    return out


def _check_profile(geometry, b, g, lam, z, U, Fz, equilibria) -> str | None:
    U_ref = oracles.effective_potential(geometry, b, g, lam, z)
    F_ref = oracles.effective_force(geometry, b, g, lam, z)
    if not oracles.close(U, U_ref, 1e-10, 1e-12 * float(np.max(np.abs(U_ref)))):
        return "potential table differs from the closed form"
    if not oracles.close(Fz, F_ref, 1e-10, 1e-12 * float(np.max(np.abs(F_ref)))):
        return "force table differs from the closed form"
    if not any(zq == 0.0 for zq, _ in equilibria):
        return "z = 0 missing from the equilibria"
    h = 1e-4
    for zq, kind in equilibria:
        f = float(oracles.effective_force(geometry, b, g, lam, zq))
        if abs(f) > 1e-7 * max(1.0, float(np.max(np.abs(F_ref)))):
            return f"equilibrium at z = {zq} has force {f:.3e}"
        um, u0, up = (float(oracles.effective_potential(geometry, b, g, lam, zq + d))
                      for d in (-h, 0.0, h))
        if kind != ("minimum" if um + up - 2.0 * u0 > 0 else "maximum"):
            return f"equilibrium at z = {zq} misclassified as {kind}"
    return None


def axial_check(req: dict, res) -> str | None:
    if not isinstance(res, dict):
        return f"unexpected outcome {res!r}"
    z0, z1 = req["z_range"]
    steps = req["steps"]
    z_want = z0 + ((z1 - z0) / steps) * np.arange(steps + 1)
    if res["z"].shape != z_want.shape or not np.allclose(res["z"], z_want, rtol=0, atol=1e-12):
        return "integration grid differs from the requested one"
    P = req["params"]
    if req["eq"] == "flat-electric":
        z1_ref, z2_ref = oracles.airy_branches(oracles.airy_x_of_z(P, z_want))
        want = z1_ref if req["branch"] == "z1" else z2_ref
    else:
        want = oracles.integrate_reference(req["eq"], P, req["ic"], z_want)
    scale = max(1.0, float(np.max(np.abs(want))))
    if not oracles.close(res["Z"], want, 0.0, 1e-6 * scale):
        dev = float(np.max(np.abs(res["Z"] - want))) / scale
        return f"{req['eq']}: solution deviates {dev:.2e} (relative) from the reference"
    if req["profile"]:
        geometry = req["eq"].split("-")[0]
        zp = req["profile"]["z_max"]
        zg = np.linspace(-zp, zp, req["profile"]["samples"])
        return _check_profile(geometry, P["b"], P["gamma"], P["Lambda"], zg,
                              res["U"], res["Fz"], res["equilibria"])
    return None


def axial_describe(reqs: list) -> dict:
    steps = [r["steps"] for r in reqs]
    profiles = [r["profile"]["samples"] for r in reqs if r["profile"]]
    return {
        "steps_min": min(steps), "steps_max": max(steps), "steps_total": int(sum(steps)),
        "equation_share": {e: _share(sum(r["eq"] == e for r in reqs), len(reqs))
                           for e in AXIAL_EQUATIONS},
        "profile_share": _share(len(profiles), len(reqs)),
        "profile_samples_total": int(sum(profiles)),
        "repeat_share": 0.0,
    }


# ---------------------------------------------------------------------------
# hypergeometric
# ---------------------------------------------------------------------------
# Batches of special-function points.  Two batch kinds in eight carry one
# argument class where the extended-precision sum exhausts its digit budget
# and the series is re-run in mpmath arithmetic (1F1 at imaginary x beyond
# about 13, 0F1 below about -30); those batches make the latency tail, and
# their share of points is recorded, so changes to either the fast path or
# the fallback show here.  One batch kind in eight adds two points in the
# region of a known gauss_2f1 defect (see ``gauss_near_integer``); random
# draws elsewhere keep clear of that region, so every seed fails the same
# number of batches.

HYPER_SLOTS = ("radial",) * 3 + ("plain",) * 2 + ("near-integer", "fallback-0f1", "fallback-1f1")
GAUSS_REGIONS = ("x=1", "direct", "1-x", "pfaff", "1/x")
RADIAL_POINTS = 6
GAUSS_DEFECT = "gauss_2f1 connection formula near an integer parameter difference"
GAUSS_DEFECT_WIDTH = 3e-4  # no miss measured beyond 1e-4


def gauss_near_integer(args) -> bool:
    """Known library defect.  The 1-x and 1/x connection formulas divide by
    Gamma poles at integer c - a - b (resp. b - a); gauss_2f1 raises
    PoleError within 1e-8 of an integer, but further out, up to about 1e-4,
    it loses digits (c - a - b = 2 + 7e-6 at x = 0.597: relative error
    4.7e-9; at 1e-6 most points miss 1e-9).  True for real parameters within
    GAUSS_DEFECT_WIDTH of such an integer in those two regions."""
    a, b, c, x = (complex(v) for v in args)
    if a.imag or b.imag or c.imag:
        return False
    if 0.5 < x.real < 1.0:
        d = (c - a - b).real
    elif x.real < -2.0:
        d = (b - a).real
    else:
        return False
    return abs(d - round(d)) < GAUSS_DEFECT_WIDTH


def _gauss_real(rng, region: str) -> tuple:
    while True:
        args = _gauss_draw(rng, region)
        if not gauss_near_integer(args):  # that region is the near-integer batches' stratum
            return args


def _gauss_draw(rng, region: str) -> tuple:
    u = rng.uniform
    a, b = u(-1.5, 1.5), u(-1.5, 1.5)
    if region == "x=1":
        c = a + b + u(0.5, 2.5)  # Gauss sum converges: Re(c - a - b) > 0
        if c < 0.3:
            c += 2.0
        return (a, b, c, 1.0)
    x = {"direct": (-0.5, 0.5), "1-x": (0.5, 0.97), "pfaff": (-2.0, -0.5),
         "1/x": (-40.0, -2.0)}[region]
    return (a, b, u(0.3, 4.0), u(*x))


def _near_integer_points(rng, k: int) -> list:
    """One 1-x and one 1/x point whose parameter difference sits between
    1e-7 and 1e-6 from an integer (log-stratified over the batches)."""
    u = rng.uniform
    delta = 10.0 ** -_stratum(rng, 6.0, 7.0, k)
    sign = 1.0 if k % 2 else -1.0
    a, b = u(-1.5, 1.5), u(-1.5, 1.5)
    c = a + b + int(rng.integers(1, 4)) + sign * delta  # c - a - b near 1, 2 or 3
    one_minus_x = (a, b, c, u(0.5, 0.97))
    a = u(-1.5, 0.5)
    b = a + 1.0 - sign * delta  # b - a near 1
    return [("gauss_2f1", one_minus_x), ("gauss_2f1", (a, b, u(0.3, 4.0), u(-40.0, -2.0)))]


def _stratum(rng, lo: float, hi: float, k: int, strata: int = 8) -> float:
    """The k-th draw of a stratified sequence on [lo, hi): every run of
    ``strata`` fallback batches spans the whole range, whatever the seed."""
    return lo + (hi - lo) * ((k % strata) + rng.uniform()) / strata


def _direct_points(rng, slot: str, k: int) -> list:
    """Points of a direct batch; ``k`` counts the batches of this slot kind."""
    u = rng.uniform
    pts = [("gauss_2f1", _gauss_real(rng, r)) for r in GAUSS_REGIONS]
    pts.append(("gauss_2f1", (complex(u(0.0, 2.0), u(-3.0, 3.0)),
                              complex(u(0.0, 2.0), u(-3.0, 3.0)), u(1.0, 3.0), u(-30.0, 0.9))))
    pts.append(("kummer_1f1", (u(-3.0, 3.0), u(0.5, 4.0), u(-20.0, 20.0))))
    pts.append(("kummer_1f1", (complex(u(0.0, 2.0), u(-2.0, 2.0)), u(0.5, 3.0),
                               complex(0.0, u(-12.0, 12.0)))))
    pts.append(("hyp0f1", (u(0.3, 4.0), u(-25.0, 40.0))))
    pts.append(("bessel_j_fractional", (u(0.1, 3.5), complex(u(0.1, 10.0), u(-2.0, 2.0)))))
    if slot == "near-integer":
        pts += _near_integer_points(rng, k)
    elif slot == "fallback-0f1":
        pts += [("hyp0f1", (u(0.3, 4.0), -_stratum(rng, 32.0, 80.0, k + j))) for j in (0, 4)]
    elif slot == "fallback-1f1":
        y = _stratum(rng, 14.0, 30.0, k) * (1 if rng.integers(2) else -1)
        pts.append(("kummer_1f1", (complex(u(0.0, 2.0), u(-2.0, 2.0)), u(0.5, 3.0),
                                   complex(0.0, y))))
    return pts


def hyper_stream(seed: int, workdir: Path) -> Iterator[dict]:
    rng = np.random.default_rng([seed, 3])
    sent = dict.fromkeys(HYPER_SLOTS, 0)
    for slot in _cycle(rng, list(HYPER_SLOTS)):
        sent[slot] += 1
        if slot == "radial":
            x_max = rng.uniform(4.0, 50.0)
            # quadratic spacing: points in the direct, Pfaff and 1/x regions of 2F1(1 - x)
            xs = [1.0 + (x_max - 1.0) * (k / (RADIAL_POINTS - 1)) ** 2 for k in range(RADIAL_POINTS)]
            yield {"kind": "radial", "m": int(rng.integers(0, 4)),
                   "w_perp": float(rng.uniform(0.5, 6.0)), "x": xs}
        else:
            yield {"kind": slot, "points": _direct_points(rng, slot, sent[slot])}


def hyper_call(req: dict):
    if req["kind"] == "radial":
        m, w = req["m"], req["w_perp"]
        vals = [radial.radial_hypergeometric_solution(m, w, x) for x in req["x"]]
        return vals + list(radial.asymptotic_amplitudes(m, w))
    return [getattr(special_functions, kernel)(*args) for kernel, args in req["points"]]


def hyper_collect(req: dict, vals) -> list:
    return [complex(v) for v in vals]


def in_fallback_region(kernel: str, args) -> bool:
    """Arguments where the extended-precision series runs out of digits."""
    if kernel == "kummer_1f1":
        x = complex(args[2])
        return x.real == 0.0 and abs(x.imag) > 13.0
    if kernel == "hyp0f1":
        return complex(args[1]).real < -30.0
    return False


def hyper_check(req: dict, vals) -> str | None:
    if not isinstance(vals, list):
        return f"unexpected outcome {vals!r}"
    if req["kind"] == "radial":
        m, w = req["m"], req["w_perp"]
        want = [oracles.radial_solution(m, w, x) for x in req["x"]]
        want += list(oracles.radial_amplitudes(m, w))
        # the standing wave crosses zero: compare on the scale of the batch
        scale = max(abs(v) for v in want[:RADIAL_POINTS])
        for i, (got, ref) in enumerate(zip(vals, want)):
            atol = 1e-11 * (scale if i < RADIAL_POINTS else 1.0)
            if not oracles.close(got, ref, 1e-9, atol):
                return f"radial point {i} (m={m}, w={w}): {got!r} vs mpmath {ref!r}"
        return None if len(vals) == len(want) else "wrong number of values"
    if len(vals) != len(req["points"]):
        return "wrong number of values"
    for (kernel, args), got in zip(req["points"], vals):
        ref = oracles.special_value(kernel, args)
        if not oracles.close(got, ref, 1e-9, 1e-13):
            return f"{kernel}{args}: {got!r} vs mpmath {ref!r}"
    return None


def hyper_known_defect(req: dict) -> str | None:
    if any(kernel == "gauss_2f1" and gauss_near_integer(args)
           for kernel, args in req.get("points", ())):
        return GAUSS_DEFECT
    return None


def _gauss_region(x: float) -> str:
    if x == 1.0:
        return "x=1"
    if abs(x) <= 0.5:
        return "direct"
    if x > 0.0:
        return "1-x"
    return "pfaff" if x >= -2.0 else "1/x"


def hyper_describe(reqs: list) -> dict:
    points = [p for r in reqs if r["kind"] != "radial" for p in r["points"]]
    radial_points = sum(len(r["x"]) + 2 for r in reqs if r["kind"] == "radial")
    total = len(points) + radial_points
    fallback = sum(in_fallback_region(k, a) for k, a in points)
    regions = [_gauss_region(a[3]) for k, a in points if k == "gauss_2f1"]
    regions += [_gauss_region(1.0 - x) for r in reqs if r["kind"] == "radial" for x in r["x"]]
    return {
        "points": total,
        "fallback_region_share": _share(fallback, total),
        "batch_share": {k: _share(sum(r["kind"] == k for r in reqs), len(reqs))
                        for k in sorted(set(HYPER_SLOTS))},
        "gauss_region_counts": {g: regions.count(g) for g in GAUSS_REGIONS},
        "known_defect_share": _share(sum(hyper_known_defect(r) is not None for r in reqs),
                                     len(reqs)),
        "repeat_share": 0.0,
    }


# ---------------------------------------------------------------------------
# cli_requests
# ---------------------------------------------------------------------------
# Small in-process cli.main calls from a pool of 40 configurations, four of
# which must be refused with exit code 1.  Fixed per-request costs (parser
# construction, config resolution, formatting) dominate, the opposite of
# radial_sweep; most configurations repeat, so a caching change shows here
# and not there.  The only workload that reaches cli and tensor_algebra.

CLI_POOL_SIZE = 40


def _f(x: float) -> str:
    return repr(float(x))


def _cli_pool(rng: np.random.Generator, workdir: Path) -> list:
    u = rng.uniform
    out = str(workdir / "out.txt")
    pool = []

    def add(argv, kind, P=None, expect=0, config=None):
        pool.append({"argv": list(argv) + ["--out", out], "cmd": argv[0], "kind": kind,
                     "params": P or {}, "expect": expect, "config": config, "out": out})

    # request sizes are fixed per pool slot, so every seed has the same cost mix
    for trials in (5, 8, 12, 16, 20):
        argv = ["verify-tensor", "--trials", str(trials), "--seed", str(int(rng.integers(1000)))]
        if trials == 20:
            argv += ["--b", _f(u(0.1, 1.0)), "--nu", _f(u(0.1, 1.0))]
        add(argv, "verify-tensor", {"trials": trials})

    for i in range(8):
        geometry = RADIAL_GEOMETRIES[i % 3]
        fmt = "json" if i % 2 else "csv"
        lo = int(rng.integers(-2, 1))
        hi = lo + i % 3
        P = {"geometry": geometry, "n_max": 1 + i % 3, "m": (lo, hi),
             "k": 0.0, "eta": 0.0, "include_invalid": geometry == "lobachevsky" and i > 3}
        if geometry == "flat":
            P.update(b=u(0.5, 2.0), eta=u(-0.9, 0.9), k=u(0.0, 1.0))
        else:
            P["b"] = u(2.0, 6.0) if geometry == "lobachevsky" else u(0.5, 3.0)
        argv = ["spectrum", "--geometry", geometry, "--b", _f(P["b"]), "--eta", _f(P["eta"]),
                "--k", _f(P["k"]), "--n-max", str(P["n_max"]), f"--m-range={lo}:{hi}",
                "--format", fmt]
        if P["include_invalid"]:
            argv.append("--include-invalid")
        add(argv, "spectrum", P)

    for i, samples in enumerate((51, 81, 121, 161, 201)):
        geometry = "lobachevsky" if i % 2 == 0 else "spherical"
        P = {"geometry": geometry, "b": u(0.5, 3.0), "lambda": u(0.5, 4.0),
             "gamma": u(-0.8, 0.8) if geometry == "lobachevsky" else u(0.02, 0.08),
             "z_max": 3.0 if geometry == "lobachevsky" else 1.1, "samples": samples}
        add(["zprofile", "--geometry", geometry, "--b", _f(P["b"]), "--gamma", _f(P["gamma"]),
             "--lambda-sep", _f(P["lambda"]), f"--z-min={-P['z_max']!r}",
             "--z-max", _f(P["z_max"]), "--samples", str(P["samples"])], "zprofile", P)

    for samples in (21, 41, 61, 81):
        nu, wp = u(0.5, 3.0), u(-2.0, 2.0)
        zt = -wp / nu
        s = nu ** (1.0 / 3.0)
        # x from -6 to 4: 0F1 arguments x^3/9 stay above -30
        P = {"nu": nu, "w_prime": wp, "z_min": zt - 4.0 / s, "z_max": zt + 6.0 / s,
             "samples": samples}
        add(["airy", "--nu", _f(nu), "--w-prime", _f(wp), f"--z-min={P['z_min']!r}",
             f"--z-max={P['z_max']!r}", "--samples", str(P["samples"])], "airy", P)

    for i, grid in enumerate((300, 500, 200, 400, 600)):
        geometry = "flat" if i < 2 else "spherical"
        # cli radial-eigen assembles the equation for m: closed-form label -m
        if geometry == "flat":
            m = int(rng.integers(-2, 3))
            b = u(0.8, 2.0)
        else:  # one entry of the pool in the antipode miss band, the others clear of it
            label, b = antipode_draw(rng, range(-2, 3), (0.5, 3.0), miss=i == 2)
            m = -label
        P = {"geometry": geometry, "b": b, "m": m, "n_max": 1 + i % 2, "grid": grid, "tol": 1e-2}
        argv = ["radial-eigen", "--geometry", geometry, "--b", _f(P["b"]), f"--m={P['m']}",
                "--n-max", str(P["n_max"]), "--grid-points", str(P["grid"]), "--tol", "0.01"]
        if geometry == "flat":
            argv += ["--r-max", _f(math.sqrt(40.0 / P["b"]))]
        add(argv, "radial-eigen", P)

    for i, steps in enumerate((150, 175, 200, 225, 250)):
        eq = ("lobachevsky-magnetic", "spherical-magnetic", "lobachevsky-electric")[i % 3]
        geometry, field = eq.split("-")
        lob = geometry == "lobachevsky"
        a = u(1.0, 2.0) if lob else u(0.6, 0.9)
        P = {"gamma": u(-0.5, 0.5) if lob else u(0.02, 0.08), "Lambda": u(0.5, 3.0),
             "epsilon": u(0.0, 2.0), "w": u(0.0, 2.0), "b": u(0.5, 2.0), "nu": u(0.5, 2.0),
             "ic": (u(0.5, 1.5), u(-1.0, 1.0)), "a": a, "steps": steps}
        strength = ["--b", _f(P["b"])] if field == "magnetic" else ["--nu", _f(P["nu"])]
        add(["axial-integrate", "--geometry", geometry, "--field", field, *strength,
             "--gamma", _f(P["gamma"]), "--lambda-sep", _f(P["Lambda"]),
             "--epsilon", _f(P["epsilon"]), "--w", _f(P["w"]),
             f"--ic-value={P['ic'][0]!r}", f"--ic-slope={P['ic'][1]!r}",
             f"--z-min={-a!r}", "--z-max", _f(a), "--steps", str(P["steps"])],
            "axial-integrate:" + eq, P)

    # valid requests whose settings come partly from a COXLAB_CONFIG file
    def config_file(name, lines):
        path = workdir / name
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        return str(path)

    b = u(2.0, 6.0)
    P = {"geometry": "lobachevsky", "b": b, "n_max": 3, "m": (0, 1), "k": 0.0, "eta": 0.0,
         "include_invalid": False}
    add(["spectrum", "--m-range=0:1"], "spectrum", P,
        config=config_file("spectrum.cfg", ["# pool entry", "geometry=lobachevsky",
                                            f"b={b!r}", "n-max=3", "m-range=5"]))
    P = {"geometry": "lobachevsky", "b": u(0.5, 3.0), "lambda": u(0.5, 4.0),
         "gamma": u(-0.8, 0.8), "z_max": 2.0, "samples": 101}
    add(["zprofile", "--lambda-sep", _f(P["lambda"])], "zprofile", P,
        config=config_file("zprofile.cfg", ["geometry=lobachevsky", f"b={P['b']!r}",
                                            f"gamma={P['gamma']!r}", "z-min=-2", "z-max=2",
                                            "samples=101", "lambda-sep=9"]))
    P = {"geometry": "spherical", "b": antipode_draw(rng, (-1,), (0.5, 3.0), miss=False)[1],
         "m": 1, "n_max": 1, "grid": 300, "tol": 1e-2}
    add(["radial-eigen", "--m=1"], "radial-eigen", P,
        config=config_file("radial.cfg", ["geometry=spherical", f"b={P['b']!r}", "n-max=1",
                                          "grid-points=300", "tol=0.01", "format=csv"]))
    trials = 8
    add(["verify-tensor", "--seed", "11"], "verify-tensor", {"trials": trials},
        config=config_file("tensor.cfg", [f"trials={trials}", "seed=3"]))

    # refusals: exit code 1 and no output
    add(["spectrum", "--geometry", "flat", "--b", "1.0", "--eta", _f(u(1.05, 2.0))], "refuse", expect=1)
    g = u(0.2, 0.8)
    add(["zprofile", "--geometry", "spherical", "--b", "1.0", "--gamma", _f(g),
         "--z-min=-1.2", "--z-max", "1.2"], "refuse", expect=1)
    add(["spectrum"], "refuse", expect=1,
        config=config_file("unknown.cfg", ["geometry=flat", "magnetic-field=1"]))
    add(["radial-eigen", "--geometry", "flat", "--b", "1.0", "--eta", _f(u(1.0, 1.5)),
         "--r-max", "6.0", "--grid-points", "300"], "refuse", expect=1)
    assert len(pool) == CLI_POOL_SIZE
    return pool


def cli_stream(seed: int, workdir: Path) -> Iterator[dict]:
    rng = np.random.default_rng([seed, 4])
    workdir.mkdir(parents=True, exist_ok=True)
    pool = _cli_pool(rng, workdir)
    for i, entry in enumerate(pool):
        entry["pool_index"] = i
    yield from _cycle(rng, pool)


def cli_prepare(req: dict) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(req["out"])
    if req["config"]:
        os.environ["COXLAB_CONFIG"] = req["config"]
    else:
        os.environ.pop("COXLAB_CONFIG", None)


def cli_call(req: dict) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(req["argv"])


def cli_collect(req: dict, code: int):
    try:
        with open(req["out"], "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = None
    return (code, data)


def _rows_csv(text: str):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    footer = [ln[2:].split(",") for ln in text.splitlines() if ln.startswith("# ")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]], footer


def _check_spectrum(P: dict, text: str) -> str | None:
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        rows = [(r["n"], r["m"], r["Lambda"], r["epsilon"], r["valid"]) for r in doc["rows"]]
    else:
        _head, raw, _ = _rows_csv(text)
        rows = [(int(r[0]), int(r[1]), float(r[3]), float(r[4]) if r[4] else None,
                 r[5] == "true") for r in raw]
    b, geometry = P["b"], P["geometry"]
    want = []
    for m in range(P["m"][0], P["m"][1] + 1):
        for n in range(P["n_max"] + 1):
            lam = oracles.level(geometry, b, n, m)
            valid = geometry != "lobachevsky" or oracles.lobachevsky_level(b, n, m)[1]
            if valid or P["include_invalid"]:
                eps = oracles.flat_epsilon(b, P["eta"], P["k"], n, m) if geometry == "flat" else None
                want.append((n, m, lam, eps, valid))
    want.sort(key=lambda r: (r[0], r[1]))
    if [(r[0], r[1], r[4]) for r in rows] != [(r[0], r[1], r[4]) for r in want]:
        return "spectrum rows differ from the closed-form level set"
    for got, ref in zip(rows, want):
        if not oracles.close(got[2], ref[2], 1e-12, 1e-12):
            return f"level {got[:2]}: {got[2]!r} vs {ref[2]!r}"
        if (got[3] is None) != (ref[3] is None) or (
                ref[3] is not None and not oracles.close(got[3], ref[3], 1e-12, 1e-12)):
            return f"epsilon {got[:2]}: {got[3]!r} vs {ref[3]!r}"
    return None


def _check_cli_output(req: dict, text: str) -> str | None:
    P = req["params"]
    kind = req["kind"]
    if kind == "verify-tensor":
        doc = json.loads(text)
        if not (doc["pass"] and doc["trials"] == P["trials"] and doc["schemaVersion"] == 1
                and doc["maxResidual"] <= doc["tolerance"]):
            return "verify-tensor report does not pass"
        return None
    if kind == "spectrum":
        return _check_spectrum(P, text)
    _head, rows, footer = _rows_csv(text)
    cols = np.array([[float(v) for v in r] for r in rows]) if rows else np.zeros((0, 4))
    if kind == "zprofile":
        zg = np.linspace(-P["z_max"], P["z_max"], P["samples"])
        if cols.shape[0] != P["samples"] or not oracles.close(cols[:, 0], zg, 0.0, 1e-12):
            return "zprofile grid differs from the request"
        extrema = [(float(f[1]), f[2]) for f in footer if f[0] == "extremum"]
        return _check_profile(P["geometry"], P["b"], P["gamma"], P["lambda"], zg,
                              cols[:, 1], cols[:, 2], extrema)
    if kind == "airy":
        zg = np.linspace(P["z_min"], P["z_max"], P["samples"])
        Q = {"nu": P["nu"], "w": P["w_prime"], "Lambda": 0.0, "gamma": 0.0}
        x = oracles.airy_x_of_z(Q, zg)
        z1, z2 = oracles.airy_branches(x)
        scale = float(np.max(np.abs(np.concatenate([z1, z2]))))
        got1 = cols[:, 2] + 1j * cols[:, 3]
        got2 = cols[:, 4] + 1j * cols[:, 5]
        if not (oracles.close(cols[:, 0], zg, 0.0, 1e-12)
                and oracles.close(cols[:, 1], x, 1e-12, 1e-12)
                and oracles.close(got1, z1, 1e-9, 1e-12 * scale)
                and oracles.close(got2, z2, 1e-9, 1e-12 * scale)):
            return "airy branches differ from scipy.special.airy"
        return None
    if kind == "radial-eigen":
        return _check_levels(P["geometry"], P["b"], [-P["m"]] * (P["n_max"] + 1),
                             cols[:, 1], cols[:, 2], P["tol"])
    if kind.startswith("axial-integrate:"):
        eq = kind.split(":")[1]
        zg = -P["a"] + (2.0 * P["a"] / P["steps"]) * np.arange(P["steps"] + 1)
        want = oracles.integrate_reference(eq, P, P["ic"], zg)
        scale = max(1.0, float(np.max(np.abs(want))))
        if not (oracles.close(cols[:, 0], zg, 0.0, 1e-12)
                and oracles.close(cols[:, 1] + 1j * cols[:, 2], want, 0.0, 1e-6 * scale)):
            return f"{eq}: integration differs from the DOP853 reference"
        return None
    return f"no check for {kind}"


def make_cli_check():
    """The check for cli answers.  A repeated configuration must reproduce
    the bytes already verified for it (the cli promises deterministic
    output); only new bytes are re-verified."""
    verified: dict[int, bytes] = {}

    def check(req: dict, res) -> str | None:
        if not isinstance(res, tuple):
            return f"unexpected outcome {res!r}"
        code, data = res
        if code != req["expect"]:
            return f"exit code {code}, expected {req['expect']} for {req['argv'][:3]}"
        if req["expect"] != 0:
            return None if data is None else "refused request wrote output"
        if data is None:
            return "no output written"
        idx = req["pool_index"]
        if idx in verified:
            return None if verified[idx] == data else "output differs from an earlier identical request"
        reason = _check_cli_output(req, data.decode("utf-8"))
        if reason is None:
            verified[idx] = data
        return reason

    return check


def cli_known_defect(req: dict) -> str | None:
    P = req["params"]
    if req["kind"] == "radial-eigen" and antipode_defect(P["geometry"], P["b"], -P["m"]):
        return ANTIPODE_DEFECT
    return None


def cli_describe(reqs: list) -> dict:
    seen: set[int] = set()
    repeats = 0
    for r in reqs:
        repeats += r["pool_index"] in seen
        seen.add(r["pool_index"])
    cmds = sorted({r["cmd"] for r in reqs})
    return {
        "pool_size": CLI_POOL_SIZE,
        "repeat_share": _share(repeats, len(reqs)),
        "refusal_share": _share(sum(r["expect"] != 0 for r in reqs), len(reqs)),
        "config_file_share": _share(sum(r["config"] is not None for r in reqs), len(reqs)),
        "known_defect_share": _share(sum(cli_known_defect(r) is not None for r in reqs),
                                     len(reqs)),
        "command_share": {c: _share(sum(r["cmd"] == c for r in reqs), len(reqs)) for c in cmds},
    }


def cli_bytes_out(results: list) -> int:
    return sum(len(r[1]) for r in results if isinstance(r, tuple) and r[1] is not None)


# ---------------------------------------------------------------------------

def make_workloads() -> dict[str, Workload]:
    """Fresh workload objects (the cli check keeps per-run state)."""
    return {
        "radial_sweep": Workload(
            "radial_sweep",
            "eigensolver and tridiagonal assembly over a spread of cells; no special "
            "functions, no axial code, no repeated inputs",
            95.0, 170.0, len(RADIAL_GEOMETRIES) * len(RADIAL_CELLS), calibration.TRIDIAGONAL,
            radial_stream, radial_call, radial_collect, radial_check, radial_describe,
            known_defect=radial_known_defect),
        "axial_integrate": Workload(
            "axial_integrate",
            "per-step RKF45 loop and scalar coefficient callbacks over five axial "
            "equations and a spread of step counts; radial never runs",
            90.0, 22.0, len(AXIAL_EQUATIONS) * len(AXIAL_STEPS), calibration.INTERPRETER,
            axial_stream, axial_call, axial_collect, axial_check, axial_describe),
        "hypergeometric": Workload(
            "hypergeometric",
            "special-function batches over every 2F1 region, with a recorded share of "
            "arguments on the mpmath fallback that makes the latency tail",
            98.0, 250.0, len(HYPER_SLOTS), calibration.INTERPRETER,
            hyper_stream, hyper_call, hyper_collect, hyper_check, hyper_describe,
            known_defect=hyper_known_defect),
        "cli_requests": Workload(
            "cli_requests",
            "small repeated cli.main calls, a tenth refused; fixed per-request costs "
            "dominate; the only path through cli and tensor_algebra",
            99.0, 160.0, CLI_POOL_SIZE, calibration.CLI,
            cli_stream, cli_call, cli_collect, make_cli_check(), cli_describe,
            prepare=cli_prepare, known_defect=cli_known_defect),
    }
