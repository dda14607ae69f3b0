"""Self-test of the benchmark itself (not of coxlab).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that request generation is
deterministic for a seed, that answers corrupted on purpose are counted
as failures, lower ``success_share`` and make the run incorrect instead
of being dropped, that misses in known-defect regions are counted but
only those, that whole cycles of requests miss equally often on every
seed, that traced and untraced runs give identical answers with
the reported functions covering the traced time, and that BENCHMARK.json
names exactly the workloads and metrics the run prints.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKDIR = ROOT / ".perfbench_work" / "selftest"


def take(wl, seed: int, n: int) -> list:
    stream = wl.stream(seed, WORKDIR / f"{wl.name}-{seed}")
    return [next(stream) for _ in range(n)]


def answers(wl, reqs) -> list:
    return [run.send(wl, req, wl.call)[0] for req in reqs]


def test_generation_is_deterministic(wls) -> None:
    for wl in wls.values():
        a, b, c = take(wl, 5, 40), take(wl, 5, 40), take(wl, 6, 40)
        if wl.name == "cli_requests":  # config paths name the seed's own directory
            a, b, c = ([{k: v for k, v in r.items() if k not in ("argv", "config", "out")}
                        for r in reqs] for reqs in (a, b, c))
        assert run.same(a, b), f"{wl.name}: seed 5 generated two different streams"
        assert not run.same(a, c), f"{wl.name}: seeds 5 and 6 generated the same stream"


def corrupt(name: str, req: dict, res):
    """A wrong answer of the kind each workload can return."""
    if name == "radial_sweep":
        bad = dict(res, eigenvalues=res["eigenvalues"].copy())
        bad["eigenvalues"][0] += 10.0 * res["estimates"][0] + 1e-6
        return bad
    if name == "axial_integrate":
        bad = dict(res, Z=res["Z"].copy())
        bad["Z"][-1] *= 1.001
        return bad
    if name == "hypergeometric":
        return [res[0] + 1e-6 * max(1.0, abs(res[0]))] + res[1:]
    code, data = res
    return (2 if code == 0 else 0, data)  # a wrong exit code


def test_corrupted_answers_are_counted(wls) -> None:
    for name in wls:
        wl = workloads.make_workloads()[name]  # fresh cli check state
        reqs = take(wl, 9, 16)
        good = answers(wl, reqs)
        known = run.count_failures(wl, reqs, good)
        assert run.unexpected_failures(wl, reqs, known) == {}, f"{name}: clean answers failed"
        healthy = [i for i in range(len(reqs)) if wl.known_defect(reqs[i]) is None]
        for i in (healthy[0], healthy[-1]):
            wl = workloads.make_workloads()[name]
            bad = list(good)
            bad[i] = corrupt(name, reqs[i], good[i])
            failures = run.count_failures(wl, reqs, bad)
            assert set(failures) == set(known) | {i}, f"{name}: corrupted answer {i} not counted"
            assert list(run.unexpected_failures(wl, reqs, failures)) == [i]
            metrics = run.end_to_end(wl, [1e-3] * len(reqs), [4e-4] * len(reqs), len(failures),
                                     ([0.5], [0.4]), 1.0)
            assert metrics["success_share"] == 1.0 - (len(known) + 1) / len(reqs)
        wl = workloads.make_workloads()[name]
        i = healthy[0]
        raised = good[:i] + [run.Raised(RuntimeError("boom"))] + good[i + 1:]
        failures = run.count_failures(wl, reqs, raised)
        assert list(run.unexpected_failures(wl, reqs, failures)) == [i], f"{name}: exception dropped"
    # a refusal that is answered, and a repeat whose bytes changed, both count
    wl = workloads.make_workloads()["cli_requests"]
    reqs = take(wl, 9, workloads.CLI_POOL_SIZE)
    refused = next(i for i, r in enumerate(reqs) if r["expect"] == 1)
    res = answers(wl, reqs)
    known = set(run.count_failures(workloads.make_workloads()["cli_requests"], reqs, res))
    res[refused] = (0, b"")
    failures = run.count_failures(workloads.make_workloads()["cli_requests"], reqs, res)
    assert set(failures) == known | {refused}, "answered refusal not counted"
    wl = workloads.make_workloads()["cli_requests"]
    valid = next(i for i, r in enumerate(reqs) if r["expect"] == 0 and r["kind"] == "spectrum")
    again = [reqs[valid], reqs[valid]]
    out = answers(wl, again)
    out[1] = (0, out[1][1].replace(b"0", b"1", 1))
    assert list(run.count_failures(wl, again, out)) == [1], "changed repeat output not counted"


def test_known_defects_are_counted() -> None:
    """Requests in a known-defect region stay in the mix, and their misses
    count in ``failed``; a miss anywhere else makes the run incorrect."""
    for name, n in (("radial_sweep", 300), ("hypergeometric", 40)):
        wl = workloads.make_workloads()[name]
        reqs = [r for r in take(wl, 4, n) if wl.known_defect(r) is not None][:4]
        assert reqs, f"{name}: no request in a known-defect region"
        failures = run.count_failures(wl, reqs, answers(wl, reqs))
        assert failures, f"{name}: no known-defect request missed its check"
        assert run.unexpected_failures(wl, reqs, failures) == {}
    assert workloads.antipode_defect("spherical", 1.405, -3)
    assert not workloads.antipode_defect("spherical", 2.1, -3)
    assert workloads.gauss_near_integer((0.25, 0.5, 2.75 + 7e-6, 0.597))
    assert not workloads.gauss_near_integer((0.25, 0.5, 2.75 + 7e-6, 0.2))


def test_failures_do_not_depend_on_seed() -> None:
    """Whole cycles of requests miss their checks equally often on every
    seed: the known-defect regions are strata of a fixed share."""
    for name, cycles in (("radial_sweep", 4), ("axial_integrate", 1), ("hypergeometric", 4),
                         ("cli_requests", 2)):
        counts = []
        for seed in (21, 22):
            wl = workloads.make_workloads()[name]
            reqs = take(wl, seed, cycles * wl.cycle)
            failures = run.count_failures(wl, reqs, answers(wl, reqs))
            assert run.unexpected_failures(wl, reqs, failures) == {}, f"{name}: unexpected miss"
            counts.append(len(failures))
        assert counts[0] == counts[1], f"{name}: seeds 21 and 22 missed {counts} checks"


def test_traced_run_matches(wls) -> None:
    originals = {name: getattr(__import__(f"coxlab.{name}", fromlist=["_"]), "__dict__").copy()
                 for name in tracing.LAYERS}
    for wl in wls.values():
        reqs = take(wl, 3, 10)
        plain = answers(wl, reqs)
        tracer = tracing.Tracer()
        root_call = tracer.wrap(tracing.ROOT, wl.call)
        with tracer.installed():
            traced = [run.send(wl, req, root_call)[0] for req in reqs]
        assert run.same(plain, traced), f"{wl.name}: traced answers differ"
        agg = tracer.aggregate()
        fns = agg["functions"]
        assert fns[tracing.ROOT]["calls"] == len(reqs)
        called = {fn for fn, row in fns.items() if row["calls"]} - {tracing.ROOT}
        assert called <= set(run.TRACED_FUNCTIONS), \
            f"{wl.name}: spans of unreported functions: {called - set(run.TRACED_FUNCTIONS)}"
        busy = fns[tracing.ROOT]["busy_s"]
        left, allowed = run.unattributed(fns, busy, 0.0)
        assert 0.0 <= left <= allowed, f"{wl.name}: {left:.4f} s of {busy:.4f} s unattributed"
        # a reported function left out of the sum must show as unattributed time
        top = max((fn for fn in fns if fn != tracing.ROOT), key=lambda fn: fns[fn]["self_s"])
        partial = [fn for fn in run.TRACED_FUNCTIONS if fn != top]
        left, allowed = run.unattributed(fns, busy, 0.0, partial)
        assert left > allowed, f"{wl.name}: leaving out {top} went unnoticed"
    for name, saved in originals.items():
        mod = __import__(f"coxlab.{name}", fromlist=["_"])
        for attr, value in saved.items():
            assert getattr(mod, attr) is value, f"coxlab.{name}.{attr} left wrapped"


def test_manifest_matches() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.make_workloads())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER
    assert len(manifest["per_layer"]) <= 128


def main() -> int:
    wls = workloads.make_workloads()
    tests = [lambda: test_generation_is_deterministic(wls),
             lambda: test_corrupted_answers_are_counted(wls),
             test_known_defects_are_counted,
             test_failures_do_not_depend_on_seed,
             lambda: test_traced_run_matches(wls),
             test_manifest_matches]
    names = ["generation is deterministic", "corrupted answers are counted",
             "known-defect misses are counted",
             "failures do not depend on the seed", "traced run matches", "BENCHMARK.json matches"]
    failed = 0
    try:
        for name, test in zip(names, tests):
            try:
                test()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
