"""The suite's own pytest configuration: a failing test fails alone.

The warning filters in ``pyproject.toml`` turn warnings into errors. A
warning raised inside pytest's or hypothesis's own reporting would then
abort the session with INTERNALERROR, and every later test would not run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_failing_property_test_fails_alone(tmp_path):
    # a failing @given test makes hypothesis import its patch writer, whose
    # dependencies raise a DeprecationWarning on import
    (tmp_path / "test_one.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_one.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "1 failed" in proc.stdout, output
    assert "INTERNALERROR" not in output
