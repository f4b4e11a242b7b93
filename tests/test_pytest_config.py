"""The repository's pytest settings report a failing property as a failure.

Warnings are errors in the test settings, and a test that leaks an open
file fails. A filter that also turned the
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


LEAK = '''
def test_leaks_an_open_file(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("x")
    open(path).read()
'''


def _pytest(tmp_path, name, source):
    """Run one test file under the repository's settings; (exit code, output)."""
    (tmp_path / name).write_text(source)
    command = [sys.executable, "-m", "pytest", "-c", CONFIG, "--rootdir", str(tmp_path)]
    command += ["-p", "no:cacheprovider", name]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout + done.stderr


def test_failing_property_shows_its_example_and_later_tests_run(tmp_path):
    returncode, output = _pytest(tmp_path, "test_property.py", TESTS)
    assert returncode == 1, output
    assert "Falsifying example" in output
    assert "1 failed, 1 passed" in output


def test_a_leaked_file_handle_fails_the_test(tmp_path):
    returncode, output = _pytest(tmp_path, "test_leak.py", LEAK)
    assert returncode == 1, output
    assert "ResourceWarning" in output
