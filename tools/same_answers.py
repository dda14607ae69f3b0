"""Check that this tree gives every benchmark answer that a git revision gives.

    python3 tools/same_answers.py REF [--seeds 101-110] [--workload NAME ...]

Run from anywhere inside a checkout.  ``src/`` of REF is extracted with
``git archive`` into a temporary directory, so the repository and its
``.git`` stay as they are.  For each workload and seed, one child process
per tree (REF's ``src/`` and this tree's) replays the first requests of the
workload's stream as ``perfbench/run.py`` sends them: ``stream``, then
``prepare``, ``call`` and ``collect`` per request, a call that raises
counted as ``run.Raised`` (its type and message).  The two lists of answers
are compared with ``run.same``: bits of every value, refusals by type and
text.  The indices of differing requests are printed, and the exit code is
1 on any difference, 0 otherwise.  perfbench/ is imported, never changed.
"""

from __future__ import annotations

import argparse
import itertools
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
# requests per seed: whole cycles of each workload, about a benchmark run's worth
COUNTS = {"hypergeometric": 2000, "cli_requests": 1280, "axial_integrate": 175,
          "radial_sweep": 1365}


def replay(src: str, workload: str, seed: int, count: int, out: str) -> None:
    """Child process: the answers of the first `count` requests, pickled to `out`."""
    sys.path[:0] = [src, str(PERFBENCH)]
    import coxlab
    import run
    import workloads

    if Path(coxlab.__file__).resolve().parent != (Path(src) / "coxlab").resolve():
        raise SystemExit(f"imported coxlab from {coxlab.__file__}, not {src}")
    wl = workloads.make_workloads()[workload]
    with tempfile.TemporaryDirectory() as work:
        requests = itertools.islice(wl.stream(seed, Path(work)), count)
        answers = [run.send(wl, req, wl.call)[0] for req in requests]
    with open(out, "wb") as fh:
        pickle.dump(answers, fh)


def answers(src: Path, workload: str, seed: int, tmp: Path) -> list:
    out = tmp / "answers.pickle"
    subprocess.run([sys.executable, __file__, "--replay", str(src), workload, str(seed),
                    str(COUNTS[workload]), str(out)], check=True)
    with open(out, "rb") as fh:
        return pickle.load(fh)


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--replay"]:
        src, workload, seed, count, out = sys.argv[2:]
        replay(src, workload, int(seed), int(count), out)
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("ref", help="git revision to compare with, e.g. HEAD or a commit id")
    p.add_argument("--seeds", type=seed_range, default=seed_range("101-110"),
                   help="seed or inclusive range LO-HI (default 101-110)")
    p.add_argument("--workload", action="append", choices=COUNTS,
                   help="a workload to compare (repeatable; default all four)")
    args = p.parse_args(argv)
    sys.path.insert(0, str(PERFBENCH))
    import run  # unpickles run.Raised and compares with run.same

    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.ref, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
        for workload in args.workload or COUNTS:
            for seed in args.seeds:
                ref = answers(tmp / "src", workload, seed, tmp)
                this = answers(ROOT / "src", workload, seed, tmp)
                differ = [i for i, (a, b) in enumerate(zip(ref, this)) if not run.same(a, b)]
                differing += len(differ)
                print(f"{workload} seed {seed}: {len(differ)} of {len(ref)} answers differ"
                      + (f" at {differ}" if differ else ""), flush=True)
    print(f"{differing} differing answers against {args.ref}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
