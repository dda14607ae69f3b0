"""Smoke test for the benchmark tools in tools/.

`scan_seeds.py` replays benchmark requests in a child process; the
cli_requests workload is the quick one (about 2 s per seed).
`same_answers.py` compares against a clean git revision and is not run
here; of `ab_pairs.py`, which runs the benchmark, only the summaries of
canned runs are.
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


def _ab_pairs():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import ab_pairs
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return ab_pairs


def test_ab_pairs_summary_on_canned_runs():
    """Quartiles per side and wins in the direction of `better`; a tie
    counts for neither side."""
    ab_pairs = _ab_pairs()
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


def test_ab_pairs_trace_report_on_canned_runs():
    """Each traced run's shares and its headroom below the traced check's
    bound, max(0, overhead) + margin; failure when any run printed
    correct: false (a check the untraced pairs cannot fail)."""
    def traced(correct, unattributed, overhead):
        return {"correct": correct, "attempted": 10, "failed": 0, "metrics": {
            "trace.unattributed_share": {"value": unattributed, "unit": "share"},
            "trace.overhead_share": {"value": overhead, "unit": "share"},
            "axial.integrate_axial.calls": {"value": 10, "unit": "count"}}}

    ab_pairs = _ab_pairs()
    assert ab_pairs.UNATTRIBUTED_MARGIN == 0.02  # read from perfbench/run.py
    lines, correct = ab_pairs.trace_report([
        ("ref", 101, traced(True, 0.0171, -0.0113)),
        ("this", 101, traced(True, 0.01562, 0.022)),
        ("ref", 102, traced(True, 0.0162, 0.0)),
        ("this", 102, traced(True, 0.0195, -0.023)),
    ])
    assert correct
    assert lines == [
        "ref   seed 101 --trace 1: trace.unattributed_share 0.0171  "
        "trace.overhead_share -0.0113  headroom 0.0029  correct: true",
        "this  seed 101 --trace 1: trace.unattributed_share 0.0156  "
        "trace.overhead_share 0.0220  headroom 0.0264  correct: true",
        "ref   seed 102 --trace 1: trace.unattributed_share 0.0162  "
        "trace.overhead_share 0.0000  headroom 0.0038  correct: true",
        "this  seed 102 --trace 1: trace.unattributed_share 0.0195  "
        "trace.overhead_share -0.0230  headroom 0.0005  correct: true",
    ]
    lines, correct = ab_pairs.trace_report([("ref", 101, traced(True, 0.017, 0.0)),
                                            ("this", 103, traced(False, 0.031, 0.0))])
    assert not correct and lines[1].endswith("headroom -0.0110  correct: false")
