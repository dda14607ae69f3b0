"""Smoke test for the benchmark tools in tools/.

`scan_seeds.py` replays benchmark requests in a child process; the
cli_requests workload is the quick one (about 2 s per seed).
`same_answers.py` compares against a clean git revision and is not run
here; of `ab_pairs.py`, which runs the benchmark, only the summary of
canned runs is.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scan_seeds_over_two_seeds_exits_0():
    """The cli check keeps the bytes it verified per pool entry; built once
    for all seeds, it took seed 102's pool for changed output of seed 101's
    and reported 1088 of 1280 requests as failures."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "scan_seeds.py"), "cli_requests",
         "--seeds", "101-102"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "0 of 2 seeds with unexpected failures"


def test_ab_pairs_summary_on_canned_runs():
    """Quartiles per side and wins in the direction of `better`; a tie
    counts for neither side."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import ab_pairs
    finally:
        sys.path.remove(str(ROOT / "tools"))
    metrics = [{"name": "requests_per_s", "better": "higher"},
               {"name": "latency_tail_ms", "better": "lower"}]
    ref = [{"requests_per_s": r, "latency_tail_ms": t}
           for r, t in ((100, 1.2), (110, 1.0), (90, 1.1), (105, 1.3), (95, 1.0))]
    this = [{"requests_per_s": r, "latency_tail_ms": t}
            for r, t in ((120, 1.0), (110, 0.9), (100, 1.1), (104, 1.0), (99, 0.8))]
    assert ab_pairs.quartiles([95, 90, 105, 100, 110]) == (95, 100, 105)
    assert ab_pairs.quartiles([2.5]) == (2.5, 2.5, 2.5)
    lines = ab_pairs.summary(metrics, ref, this)
    assert len(lines) == 3
    # requests_per_s: 120 > 100, 110 tie, 100 > 90, 104 < 105, 99 > 95
    assert lines[1].split() == ["requests_per_s", "95", "/", "100", "/", "105",
                                "100", "/", "104", "/", "110", "3/5"]
    # latency_tail_ms: lower wins on pairs 1, 2, 4 and 5; pair 3 ties
    assert lines[2].split() == ["latency_tail_ms", "1", "/", "1.1", "/", "1.2",
                                "0.9", "/", "1", "/", "1", "4/5"]
