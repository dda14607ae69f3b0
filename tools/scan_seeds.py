"""List the seeds on which a benchmark run would not be ``correct``.

    python3 tools/scan_seeds.py WORKLOAD [--seeds 101-110]

Run from anywhere inside a checkout.  For each seed, the requests that
``perfbench/run.py --workload WORKLOAD --seed SEED --seconds 8`` sends
(``run.request_count``) are replayed through ``run.send`` without timing
and checked with ``run.count_failures`` and ``run.unexpected_failures``:
a seed with an unexpected failure is one where run.py prints
``"correct": false``.  Each such seed is printed with the indices of its
failing requests (the reasons go to stderr), and the exit code is 1 if
there is any, 0 otherwise.  perfbench/ is imported, never changed.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import tempfile
from pathlib import Path

from same_answers import seed_range

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 8.0  # the benchmark's run length, which sizes each run's request count


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=sorted(workloads.make_workloads()),
                   help="the workload to replay")
    p.add_argument("--seeds", type=seed_range, default=seed_range("101-110"),
                   help="seed or inclusive range LO-HI (default 101-110)")
    args = p.parse_args(argv)

    bad = 0
    with tempfile.TemporaryDirectory() as work:
        for seed in args.seeds:
            # a fresh workload per seed, as each run.py process builds one: the
            # cli check keeps the bytes it verified per pool entry for its run
            wl = workloads.make_workloads()[args.workload]
            count = run.request_count(wl, SECONDS)
            reqs = list(itertools.islice(wl.stream(seed, Path(work)), count))
            results = [run.send(wl, req, wl.call)[0] for req in reqs]
            unexpected = run.unexpected_failures(wl, reqs, run.count_failures(wl, reqs, results))
            if unexpected:
                bad += 1
                print(f"{args.workload} seed {seed}: {len(unexpected)} of {len(reqs)} requests "
                      f"fail unexpectedly, at {sorted(unexpected)}", flush=True)
    print(f"{bad} of {len(args.seeds)} seeds with unexpected failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
