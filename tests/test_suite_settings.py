"""The suite's own pytest settings report a failing property as one failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROPERTY_FILE = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 10


def test_a_passing_test():
    pass
'''


def test_a_failing_property_fails_alone(tmp_path):
    path = tmp_path / "test_property.py"
    path.write_text(PROPERTY_FILE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
