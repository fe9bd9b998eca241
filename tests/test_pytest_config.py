"""The repo's pytest settings: a failing test reports and the run goes on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_AND_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # Hypothesis's failure report imports libcst, which warns on import; with
    # every warning an error, that used to end the run with INTERNALERROR.
    (tmp_path / "test_pair.py").write_text(FAILING_AND_PASSING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(tmp_path / "test_pair.py")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
