"""A short traced benchmark run ends with every check passed.

A traced run (``bench/run.py --trace 1``) replays more of the program than
the timed loop: the validated belief and reward API, a grid-iteration
stationary solve, every corpus case through the command line and the
exhaustive oracle. This runs it for half a second on horizon-wide and on
dsaht-deep and removes the span file each run writes to the git-ignored
``.bench_out/``.
"""

import json
import subprocess
import sys

from conftest import REPO_ROOT


def _traced_run_passes(workload: str) -> None:
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "bench" / "run.py"), "--workload", workload,
         "--seconds", "0.5", "--trace", "1"],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    lines = proc.stdout.splitlines()
    for line in lines:
        if line.startswith("# spans written to "):
            (REPO_ROOT / line.removeprefix("# spans written to ")).unlink()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(lines[-1])
    assert (last["correct"], last["failed"]) == (True, 0), proc.stdout


def test_traced_horizon_wide_run_passes():
    _traced_run_passes("horizon-wide")


def test_traced_dsaht_deep_run_passes():
    _traced_run_passes("dsaht-deep")
