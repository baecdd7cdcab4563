"""Smoke test of the benchmark's traced run.

The tracer in ``perfbench/spans.py`` wraps package functions by the names
their callers look them up under (``archsim.merged_pe`` among them), so a
renamed or dropped name makes every traced request raise. This runs
traced ``gate_crosscheck``, ``sweep_short`` and ``archsim_verify`` warm-ups
in subprocesses and reads their results; it only reads ``perfbench/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traced_warmup(workload):
    """Metrics of one traced warm-up of ``workload``, after checking that
    every request it sent succeeded."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    # ok_ops_ratio as run.py defines it: requests that neither raised nor
    # failed a check, over requests attempted
    assert last["attempted"] > 0
    assert (last["attempted"] - last["failed"]) / last["attempted"] == 1
    return last["metrics"]


def test_traced_gate_crosscheck():
    assert traced_warmup("gate_crosscheck")["gates.merged_pe.calls"]["value"] > 0


def test_traced_sweep_short():
    # runs the wrappers the tracer puts on channel (ber_sweep, trial_rng,
    # encode, quantize)
    metrics = traced_warmup("sweep_short")
    assert metrics["channel.trial_rng.calls"]["value"] > 0
    assert metrics["llr.quantize.self_ms"]["value"] > 0


def test_traced_archsim_verify():
    # runs the wrappers the tracer puts on archsim (verify_equivalence, run,
    # quantize, sc_decode_batch) and on PartialSumState.push, which the
    # campaign no longer calls: a run reads its selects off igc.select_levels
    metrics = traced_warmup("archsim_verify")
    assert metrics["archsim.run.calls"]["value"] > 0
    assert metrics["igc.push.calls"]["value"] == 0
    assert metrics["archsim.verify_equivalence.self_ms"]["value"] > 0
    assert metrics["llr.quantize.self_ms"]["value"] > 0
