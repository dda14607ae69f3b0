"""Smoke test for the benchmark tools in tools/.

`scan_seeds.py` replays benchmark requests in a child process; the
cli_requests workload is the quick one (about 2 s per seed).
`same_answers.py` compares against a clean git revision and is not run
here.
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
