"""Smoke test of the benchmark's traced run.

The tracer in ``perfbench/spans.py`` wraps package functions by the names
their callers look them up under (``archsim.merged_pe`` among them), so a
renamed or dropped name makes every traced request raise. This runs one
traced ``gate_crosscheck`` warm-up in a subprocess and reads its result;
it only reads ``perfbench/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_gate_crosscheck():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gate_crosscheck",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    # ok_ops_ratio as run.py defines it: requests that neither raised nor
    # failed a check, over requests attempted
    assert last["attempted"] > 0
    assert (last["attempted"] - last["failed"]) / last["attempted"] == 1
    assert last["metrics"]["gates.merged_pe.calls"]["value"] > 0
