"""The project's pytest settings report a failing Hypothesis test like any other failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SAMPLE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    # warnings are errors in this project; one raised while Hypothesis builds its
    # failure report used to abort the whole session with INTERNALERROR
    (tmp_path / "test_sample.py").write_text(SAMPLE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
