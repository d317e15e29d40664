import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_deprecation_warning_is_an_error():
    warnings.warn("old API", DeprecationWarning)
'''


def test_failing_tests_exit_1_under_the_suite_settings(tmp_path):
    # Writing a failing hypothesis example as a patch imports libcst, which
    # warns about mypy_extensions.TypedDict; that warning must not become
    # an INTERNALERROR (exit 3), while every other DeprecationWarning
    # still fails its test.
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
                           "-p", "no:cacheprovider", "test_failing.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "2 failed" in proc.stdout
