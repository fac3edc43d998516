"""Each benchmark workload runs briefly and judges its own outputs correct.

`perfbench/` drives idfsim's public API and, when traced, patches named
classes and functions of it.  These runs fail here when a change to
`src/` removes or renames something the benchmark uses.  They run one
after another, each in its own worker processes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["campaign_ref20", "campaign_devmap",
                                      "config_bulk", "drc_large"])
def test_workload_runs_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
