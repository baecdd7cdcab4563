"""``tools/bench_pairs.py`` on a stub benchmark: each run's result, detail
and minor page faults, and the faults recorded per side of a pair."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# prints the two lines perfbench/run.py ends with, after touching 4 MiB; the
# detail line carries the faults the stub had taken by then
STUB = """
import json, resource, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
touched = b"x" * (4 << 20)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"detail": {"digest": "d0", "args": args, "faults": faults,
                             "machine": {"machine": "m", "nproc": 1, "python": "3", "numpy": "2"}}}))
print(json.dumps({"correct": True, "failed": 0,
                  "metrics": {"frames_per_s": {"value": 100.0 + float(args["--seed"])}}}))
"""


@pytest.fixture
def bench_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RUN", [sys.executable, "perfbench/run.py"])
    return module


def stub_checkout(path):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(STUB)
    return str(path)


def test_benchmark_once_reads_the_run_and_its_faults(bench_pairs, tmp_path):
    result, detail, faults = bench_pairs.benchmark_once(
        stub_checkout(tmp_path), "sweep_short", 7, 0.5, trace=0)
    assert result["metrics"]["frames_per_s"]["value"] == 107.0
    assert detail["args"] == {"--workload": "sweep_short", "--seed": "7", "--seconds": "0.5",
                              "--trace": "0"}
    # the child's count at exit includes the faults it reported before
    assert isinstance(faults, int) and 0 < detail["faults"] <= faults


def test_pairs_record_faults_per_side(bench_pairs, tmp_path):
    sides = [("parent", stub_checkout(tmp_path / "a")), ("change", stub_checkout(tmp_path / "b"))]
    record = {}
    machines = list(bench_pairs.run_pairs(sides, "sweep_short", 3, 2, 0.5,
                                          {"frames_per_s": True}, record))
    assert machines == [{"machine": "m", "nproc": 1, "python": "3", "numpy": "2"}] * 2
    faults = record["minor_faults"]
    assert set(faults) == {"parent", "change"}
    assert all(len(runs) == 2 and all(f > 0 for f in runs) for runs in faults.values())
    assert record["parent"] == record["change"] == {"frames_per_s": [103.0, 103.0]}
    json.dumps(record)  # the record is written out as JSON
