"""The repository's pytest settings report a failing property as a failure.

Warnings are errors in the test settings. A filter that also turned the
warnings of pytest's own plugins into errors would end the run with an
internal error when hypothesis prints a falsifying example, before any
later test ran.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

CONFIG = str(Path(__file__).resolve().parents[1] / "pyproject.toml")

TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_a_later_test():
    pass
'''


def test_failing_property_shows_its_example_and_later_tests_run(tmp_path):
    (tmp_path / "test_property.py").write_text(TESTS)
    command = [sys.executable, "-m", "pytest", "-c", CONFIG, "--rootdir", str(tmp_path)]
    command += ["-p", "no:cacheprovider", "test_property.py"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "Falsifying example" in output
    assert "1 failed, 1 passed" in output
