"""coxlab benchmark: one seeded workload of requests, checked against oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; coxlab is imported from
``src/``.  Load is a closed loop with one client: one process, one
thread, each request sent when the previous one returned, and library
thread pools capped at the number of usable CPUs.  A run sends a fixed
number of whole request cycles, sized from ``--seconds`` and the
workload's nominal request rate, so the timed phase lasts about
``--seconds`` and every run of a workload sends as many requests, with
as many in each known-defect region, whatever the seed or the host
speed.  Answers are checked after the timed phase.  Latencies are scaled
to a fixed host speed by a calibration unit timed after every request
(``calibration.py``); the raw times are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same requests twice, untraced (sized from ``--seconds / 2``) and then traced,
checks that both runs give identical answers and that the self times of
the reported functions add up to the traced wall time, and prints the
per-layer metrics.  The last line of standard output is the JSON result;
the lines before it describe the workload, its recorded input
properties, the percentile behind ``latency_tail_ms`` and every missed
check.

Every miss counts in ``failed`` and in ``success_share``.  ``correct``
is false when a request misses its check outside the input regions of
the known library defects that ``workloads.py`` documents (each
workload's ``known_defect``), or when the traced run's self-check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
UNATTRIBUTED_MARGIN = 0.02  # workload glue outside any layer function, share of traced time
SETUP_PROBES = 5  # of each kind, after one discarded probe of each kind
DEPENDENCY_IMPORT_REF_S = 0.4  # nominal dependency import time; scales setup_s

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_share": "share",
    "peak_rss_mb": "MB",
}

TRACED_FUNCTIONS = (
    "tensor_algebra.build_mixed_field_tensor", "tensor_algebra.dual_tensor",
    "tensor_algebra.field_invariants", "tensor_algebra.minimal_poly_residuals",
    "tensor_algebra.lambda_inverse", "tensor_algebra.newton_char_coeffs",
    "tensor_algebra.general_lambda_inverse",
    "backgrounds.assemble_radial_ode", "backgrounds.assemble_axial_ode", "backgrounds.coef_eval",
    "radial.analytic_spectrum", "radial.spectrum_matched_ode", "radial.solve_radial_eigen",
    "radial.radial_hypergeometric_solution", "radial.asymptotic_amplitudes",
    "axial.effective_potential", "axial.effective_force", "axial.effective_force_extrema",
    "axial.potential_profile", "axial.airy_pair", "axial.airy_eval", "axial.integrate_axial",
    "special_functions.gamma_complex", "special_functions.reciprocal_gamma",
    "special_functions.gauss_2f1", "special_functions.kummer_1f1", "special_functions.hyp0f1",
    "special_functions.bessel_j_fractional",
    "cli.main",
)
_FUNCTION_METRICS = {"calls": "count", "busy_s": "s", "self_s": "s", "failed": "count"}
PER_LAYER = {f"{fn}.{key}": unit for fn in TRACED_FUNCTIONS for key, unit in _FUNCTION_METRICS.items()}
PER_LAYER.update({
    "backgrounds.assemble.busy_s": "s",
    "radial.solve_radial_eigen.cells": "count",
    "radial.cells_per_s": "1/s",
    "axial.integrate_axial.steps": "count",
    "axial.steps_per_s": "1/s",
    "axial.potential_profile.samples": "count",
    "special_functions.points_per_s": "1/s",
    "tensor_algebra.trials_per_s": "1/s",
    "cli.bytes_out": "bytes",
    "cli.self_share": "share",
    "trace.overhead_share": "share",
    "trace.unattributed_share": "share",
})


def _log(*parts) -> None:
    print(*parts, flush=True)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def same(a, b) -> bool:
    """Exact equality of collected answers (arrays compared elementwise)."""
    import numpy as np

    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and bool(np.array_equal(a, b, equal_nan=True)))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return a == b or (a != a and b != b)


class Raised:
    """Outcome of a request whose call raised."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Raised) and other.text == self.text

    def __repr__(self) -> str:
        return f"raised {self.text}"


def send(wl, req, call):
    """One closed-loop request: untimed prepare, timed call, untimed collect."""
    wl.prepare(req)
    t0 = time.perf_counter()
    try:
        raw = call(req)
    except Exception as exc:  # the outcome is checked like any answer
        return Raised(exc), time.perf_counter() - t0
    dt = time.perf_counter() - t0
    return wl.collect(req, raw), dt


def request_count(wl, seconds: float) -> int:
    """Requests in a run: whole cycles of the workload's classes, about
    ``seconds`` worth at its nominal rate."""
    return wl.cycle * max(1, round(seconds * wl.rate / wl.cycle))


def run_phase(wl, requests, call, count: int | None = None):
    """Closed loop over the first ``count`` of ``requests`` (or all of
    them).  Returns the requests sent, answers, latencies and the
    calibration unit timed after each request."""
    sent, results, lat, cal = [], [], [], []
    for req in itertools.islice(requests, count):
        res, dt = send(wl, req, call)
        cal.append(wl.calibration.time())
        sent.append(req)
        results.append(res)
        lat.append(dt)
    return sent, results, lat, cal


def scaled(wl, lat, cal) -> "np.ndarray":
    """Latencies at the fixed host speed of the workload's calibration unit."""
    import calibration
    import numpy as np

    return np.asarray(lat, dtype=float) * calibration.speed_factors(wl.calibration, cal)


def count_failures(wl, reqs, results) -> dict[int, str]:
    """Request index -> reason, for every answer that missed its check."""
    failures = {}
    for i, (req, res) in enumerate(zip(reqs, results)):
        reason = wl.check(req, res)
        if reason is not None:
            failures[i] = reason
    return failures


def unexpected_failures(wl, reqs, failures: dict[int, str]) -> dict[int, str]:
    """The misses outside every documented known-defect region; logs a
    count of the misses per known defect."""
    known: dict[str, int] = {}
    unexpected = {}
    for i, reason in failures.items():
        defect = wl.known_defect(reqs[i])
        if defect is None:
            unexpected[i] = reason
        else:
            known[defect] = known.get(defect, 0) + 1
    for defect, n in sorted(known.items()):
        _log(f"known defect: {n} misses in the region of {defect}")
    for i in sorted(unexpected)[:5]:
        _log(f"failed request {i}: {unexpected[i]}")
    return unexpected


# ---------------------------------------------------------------------------
# set-up time: import coxlab and its dependencies, plus one warm-up request
# ---------------------------------------------------------------------------

def setup_probe(kind: str, workload: str, seed: int, workdir: Path) -> float:
    """Seconds to import coxlab and serve one warm-up request ("program"), or
    to import only the libraries coxlab builds on ("dependencies")."""
    t0 = time.perf_counter()
    if kind == "dependencies":
        import mpmath  # noqa: F401
        import numpy  # noqa: F401
        import scipy.linalg  # noqa: F401

        return time.perf_counter() - t0
    import workloads

    wl = workloads.make_workloads()[workload]
    req = next(wl.stream(seed, workdir))
    send(wl, req, wl.call)
    return time.perf_counter() - t0


def measure_setup(args, root: Path, env: dict) -> tuple[list[float], list[float]]:
    """Alternating program and dependency probe processes, each kind after one
    discarded probe that warms file and bytecode caches.  Import time drifts
    with the host; the dependency imports are the same kind of work without
    coxlab, so their median is the yardstick set-up time is scaled by."""
    times: dict[str, list[float]] = {"program": [], "dependencies": []}
    for i in range(SETUP_PROBES + 1):
        for kind, samples in times.items():
            cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", kind,
                   "--workload", args.workload, "--seed", str(args.seed)]
            proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                                  timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
            if i:
                samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return times["program"], times["dependencies"]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(wl, lat, cal, n_failed, setup, rss_mb) -> dict:
    import numpy as np

    raw = np.asarray(lat) * 1e3
    ms = scaled(wl, lat, cal) * 1e3
    tail = float(np.percentile(ms, wl.tail_pct))
    beyond = int(np.count_nonzero(ms > tail))
    _log(f"latency_tail_ms: p{wl.tail_pct:g} of {len(ms)} requests, {beyond} samples beyond it"
         + ("" if beyond >= 10 else " (fewer than ten: the tail is under-sampled)"))
    _log(f"error_share: {n_failed / len(ms):.6g} ({n_failed} of {len(ms)})")
    _log(f"times scaled by the {wl.calibration.name} calibration: unit median "
         f"{statistics.median(cal) * 1e3:.4f} ms, reference {wl.calibration.reference_s * 1e3:g} ms; "
         f"raw requests_per_s "
         f"{len(raw) / float(np.sum(raw)) * 1e3:.4f}, latency_p50_ms {float(np.median(raw)):.4f}, "
         f"latency_tail_ms {float(np.percentile(raw, wl.tail_pct)):.4f}")
    program, deps = setup
    _log(f"setup_s probes (raw seconds): {[round(t, 4) for t in program]}; dependency imports "
         f"{[round(t, 4) for t in deps]}, reference {DEPENDENCY_IMPORT_REF_S:g} s")
    return {
        "setup_s": statistics.median(program) * DEPENDENCY_IMPORT_REF_S / statistics.median(deps),
        "requests_per_s": len(ms) / (float(np.sum(ms)) * 1e-3),
        "latency_p50_ms": float(np.median(ms)),
        "latency_tail_ms": tail,
        "success_share": 1.0 - n_failed / len(ms),
        "peak_rss_mb": rss_mb,
    }


def per_layer(agg, results, overhead_share) -> dict:
    import workloads

    fns, layers = agg["functions"], agg["layers"]
    blank = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0}
    out = {}
    for fn in TRACED_FUNCTIONS:
        for key, value in fns.get(fn, blank).items():
            out[f"{fn}.{key}"] = value

    def busy(fn):
        return fns.get(fn, blank)["busy_s"]

    cells = agg["counters"].get("radial.solve_radial_eigen.cells", 0)
    steps = agg["counters"].get("axial.integrate_axial.steps", 0)
    sf = layers["special_functions"]
    main = fns.get("cli.main", blank)
    out.update({
        "backgrounds.assemble.busy_s": busy("backgrounds.assemble_radial_ode")
        + busy("backgrounds.assemble_axial_ode"),
        "radial.solve_radial_eigen.cells": cells,
        "radial.cells_per_s": _rate(cells, busy("radial.solve_radial_eigen")),
        "axial.integrate_axial.steps": steps,
        "axial.steps_per_s": _rate(steps, busy("axial.integrate_axial")),
        "axial.potential_profile.samples": agg["counters"].get("axial.potential_profile.samples", 0),
        "special_functions.points_per_s": _rate(sf["outer_calls"], sf["busy_s"]),
        "tensor_algebra.trials_per_s": _rate(fns.get("tensor_algebra.lambda_inverse", blank)["calls"],
                                             layers["tensor_algebra"]["busy_s"]),
        "cli.bytes_out": workloads.cli_bytes_out(results),
        "cli.self_share": main["self_s"] / main["busy_s"] if main["busy_s"] > 0 else 0.0,
        "trace.overhead_share": overhead_share,
        "trace.unattributed_share": agg["unattributed_s"] / agg["wall_s"],
    })
    return out


# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", choices=("program", "dependencies"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "coxlab" / "__init__.py").is_file():
        print(f"error: no coxlab sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    ncpu = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, ncpu)
    sys.path.insert(0, str(src))
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            print(setup_probe(args.setup_probe, args.workload, args.seed, workdir))
            return 0
        return measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it


def measure(args, root: Path, workdir: Path) -> int:
    src = root / "src"
    try:
        import coxlab
        import workloads
    except Exception as exc:
        print(f"error: cannot import coxlab from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(coxlab.__file__).resolve().parent != (src / "coxlab").resolve():
        print(f"error: imported coxlab from {coxlab.__file__}, not {src}", file=sys.stderr)
        return 2
    wls = workloads.make_workloads()
    if args.workload not in wls:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wls)}",
              file=sys.stderr)
        return 2
    try:
        setup = ([], []) if args.trace else measure_setup(args, root, dict(os.environ))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    return run(args, wls[args.workload], workdir, setup)


def run(args, wl, workdir: Path, setup: tuple[list[float], list[float]]) -> int:
    send(wl, next(wl.stream(args.seed, workdir)), wl.call)  # warm-up, as in the set-up probes
    stream = wl.stream(args.seed, workdir)  # the timed requests start a cycle
    _log(f"workload {wl.name}: {wl.why}")
    if args.trace:
        reqs, failures, metrics, self_ok = run_traced(wl, stream,
                                                      request_count(wl, args.seconds / 2.0))
        units = PER_LAYER
    else:
        reqs, results, lat, cal = run_phase(wl, stream, wl.call, request_count(wl, args.seconds))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _log("inputs:", json.dumps(wl.describe(reqs), sort_keys=True))
        failures = count_failures(wl, reqs, results)
        metrics = end_to_end(wl, lat, cal, len(failures), setup, rss_mb)
        units, self_ok = END_TO_END, True
    unexpected = unexpected_failures(wl, reqs, failures)
    print(json.dumps({
        "correct": not unexpected and self_ok,
        "attempted": len(reqs),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }), flush=True)
    return 0


def unattributed(functions: dict, busy_s: float, overhead_share: float,
                 reported=TRACED_FUNCTIONS) -> tuple[float, float]:
    """Traced time outside the reported functions, and the most it may be.

    The reported functions' self times add up to the time spent inside
    them.  What is left of the traced time is the unreported root span: the
    workload's own glue code and the cost of the spans themselves, so it may
    not exceed the measured tracing overhead plus a margin for the glue."""
    inside = sum(functions[fn]["self_s"] for fn in reported if fn in functions)
    return busy_s - inside, (max(0.0, overhead_share) + UNATTRIBUTED_MARGIN) * busy_s


def run_traced(wl, stream, count: int):
    """Serve ``count`` requests untraced, replay them traced, and check
    that the answers match and that the self times of the reported functions
    add up to the traced wall time, less the tracing overhead."""
    import tracing

    reqs, results, lat_u, cal_u = run_phase(wl, stream, wl.call, count)
    tracer = tracing.Tracer()
    with tracer.installed():
        _, traced, lat_t, cal_t = run_phase(wl, reqs, tracer.wrap(tracing.ROOT, wl.call))
    tracer.write(Path.cwd() / ".perfbench_out" / f"spans-{wl.name}.npz")
    agg = tracer.aggregate()
    agg["wall_s"] = busy_t = sum(lat_t)
    _log("inputs:", json.dumps(wl.describe(reqs), sort_keys=True))

    failures = count_failures(wl, reqs, results)
    differ = [i for i, (a, b) in enumerate(zip(results, traced)) if not same(a, b)]
    for i in differ:
        failures[i] = "traced answer differs from the untraced one"
    overhead = 1.0 - float(scaled(wl, lat_u, cal_u).sum()) / float(scaled(wl, lat_t, cal_t).sum())
    agg["unattributed_s"], allowed = unattributed(agg["functions"], busy_t, overhead)
    self_ok = not differ and 0.0 <= agg["unattributed_s"] <= allowed
    _log(f"trace self-check: {len(results) - len(differ)} of {len(results)} traced answers "
         f"identical; reported self times sum to {busy_t - agg['unattributed_s']:.4f} s of "
         f"{busy_t:.4f} s traced, {agg['unattributed_s']:.4f} s unattributed, at most "
         f"{allowed:.4f} s allowed (overhead {overhead:.4f} + margin {UNATTRIBUTED_MARGIN:g}) "
         f"({'ok' if self_ok else 'FAILED'})")
    for fn, row in sorted(agg["functions"].items()):
        _log(f"span {fn}: {json.dumps(row, sort_keys=True)}")
    return reqs, failures, per_layer(agg, traced, overhead), self_ok


if __name__ == "__main__":
    sys.exit(main())
