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
of the metric's ``better``; a tie counts for neither side.  The exit code
is 1 if any run fails or prints ``"correct": false``, 0 otherwise.
perfbench/ is run, never changed.
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


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one run.py run in `root`; SystemExit on failure."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"run failed in {root} (seed {seed}, exit {done.returncode}):\n"
                         + done.stderr[-2000:])
    result = json.loads(lines[-1])
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
        except SystemExit as exc:
            print(exc, file=sys.stderr)
            return 1
    print(f"{args.workload}, {args.pairs} pairs, {args.ref} -> this tree")
    print("\n".join(summary(spec["end_to_end"], ref, this)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
