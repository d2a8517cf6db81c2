"""The tier-1 command, python -W error -m pytest, reports a failing test as a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PLANTED = """
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_planted(n):
    assert n != n
"""


def test_a_failing_hypothesis_test_is_reported_under_w_error(tmp_path):
    # Hypothesis reports a failing example through libcst, which warns on import; the
    # filterwarnings entry in pyproject keeps -W error from making that an INTERNALERROR
    (tmp_path / "test_planted.py").write_text(PLANTED)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "-q", "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1 and "1 failed" in out and "INTERNALERROR" not in out, out
