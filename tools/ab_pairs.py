"""Compare the benchmark's end-to-end metrics of this tree and a git revision.

    python3 tools/ab_pairs.py REF --workload NAME [--pairs 10] [--seeds 101-110]

Run from anywhere inside a checkout.  ``src/`` of REF is extracted with
``git archive`` into a temporary directory, next to a copy of this tree's
``perfbench/``, so both sides run the same benchmark code on their own
library.  Each pair runs ``perfbench/run.py --workload NAME --seed SEED
--seconds S --trace 0`` once on each side, REF first on even pairs and this
tree first on odd ones; pair i takes the i-th seed of the range, cycling.
S is ``run_seconds`` of ``BENCHMARK.json``.

For every end-to-end metric of ``BENCHMARK.json`` the summary prints each
side's median and quartiles and the pairs this tree wins, in the direction
of the metric's ``better``; a tie counts for neither side.  After the pairs,
each side runs once more with ``--trace 1`` on each of the first three seeds
of the range.  A traced run checks that the reported functions account for
the traced time, which the untraced pairs do not: its unattributed share
may be at most max(0, overhead share) + ``run.UNATTRIBUTED_MARGIN``.  For
each traced run the tool prints ``trace.unattributed_share``,
``trace.overhead_share``, the headroom left below that bound and
``correct``; one run per side can pass where another seed's fails.  The
exit code is 1 if any run fails or prints ``"correct": false``, traced runs
included, 0 otherwise.  perfbench/ is run, and its run.py imported for the
margin, never changed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from same_answers import seed_range

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))
from run import UNATTRIBUTED_MARGIN  # noqa: E402  (perfbench/run.py)

TRACED_SEEDS = 3  # traced runs per side, on the first seeds of the range


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(end_to_end: list[dict], ref: list[dict], this: list[dict]) -> list[str]:
    """One line per metric: each side's quartiles and this tree's wins.

    `ref` and `this` hold one ``{metric: value}`` per run, the i-th entries
    of both from the same pair."""
    lines = [f"{'metric':<16} {'ref q1 / median / q3':>32} {'this q1 / median / q3':>32}  wins"]
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        a = [run[name] for run in ref]
        b = [run[name] for run in this]
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        cells = ["{:.4g} / {:.4g} / {:.4g}".format(*quartiles(side)) for side in (a, b)]
        lines.append(f"{name:<16} {cells[0]:>32} {cells[1]:>32}  {wins}/{len(a)}")
    return lines


def trace_report(runs: list[tuple[str, int, dict]]) -> tuple[list[str], bool]:
    """One line per traced run, given as (side, seed, the run's JSON line),
    with its headroom max(0, overhead) + margin - unattributed; and whether
    every run printed correct: true."""
    lines = []
    for side, seed, result in runs:
        unattributed, overhead = (result["metrics"][name]["value"]
                                  for name in ("trace.unattributed_share", "trace.overhead_share"))
        headroom = max(0.0, overhead) + UNATTRIBUTED_MARGIN - unattributed
        lines.append(f"{side:<5} seed {seed} --trace 1: trace.unattributed_share "
                     f"{unattributed:.4f}  trace.overhead_share {overhead:.4f}  "
                     f"headroom {headroom:.4f}  correct: {str(result['correct']).lower()}")
    return lines, all(result["correct"] for _, _, result in runs)


def run_py(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON line of one run.py run in `root`; SystemExit if it fails."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"run failed in {root} (seed {seed}, exit {done.returncode}):\n"
                         + done.stderr[-2000:])
    return json.loads(lines[-1])


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one untraced run.py run in `root`; SystemExit
    on failure."""
    result = run_py(root, workload, seed, seconds, 0)
    if not result["correct"]:
        raise SystemExit(f"run in {root} (seed {seed}) printed correct: false")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("ref", help="git revision to compare with, e.g. HEAD or a commit id")
    p.add_argument("--workload", required=True, help="the workload to run")
    p.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    p.add_argument("--seeds", type=seed_range, default=seed_range("101-110"),
                   help="seed or inclusive range LO-HI (default 101-110)")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    ref, this = [], []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.ref, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
        shutil.copytree(ROOT / "perfbench", tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            for i in range(args.pairs):
                seed = args.seeds[i % len(args.seeds)]
                sides = [(tmp, ref), (ROOT, this)]
                for root, runs in sides if i % 2 == 0 else sides[::-1]:
                    runs.append(bench(root, args.workload, seed, spec["run_seconds"]))
                print(f"pair {i + 1} seed {seed}: latency_tail_ms "
                      f"{ref[-1]['latency_tail_ms']:.4g} -> {this[-1]['latency_tail_ms']:.4g}",
                      flush=True)
            traced = [(side, seed, run_py(root, args.workload, seed, spec["run_seconds"], 1))
                      for seed in args.seeds[:TRACED_SEEDS]
                      for side, root in (("ref", tmp), ("this", ROOT))]
        except SystemExit as exc:
            print(exc, file=sys.stderr)
            return 1
    print(f"{args.workload}, {args.pairs} pairs, {args.ref} -> this tree")
    print("\n".join(summary(spec["end_to_end"], ref, this)))
    lines, correct = trace_report(traced)
    print("\n".join(lines))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
