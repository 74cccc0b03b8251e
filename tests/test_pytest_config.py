"""The repository's pytest configuration against a failing property test."""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = '''from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_a_failing_property_test_does_not_stop_the_session(tmp_path):
    """With pyproject.toml's warning filters, a failing @given test makes
    hypothesis's plugin write its failure patch, which imports libcst; the
    session goes on to the next test instead of ending in an
    INTERNALERROR."""
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp_path)
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_a_probe.py").write_text(PROBE)
    (tests / "test_b_later.py").write_text("def test_later():\n    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA",
         "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "PASSED tests/test_b_later.py::test_later" in out, out
    assert "FAILED tests/test_a_probe.py::test_fails" in out, out
    assert run.returncode == 1, out
