"""tools/unreached.py: the statements a traced pytest run never executes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TOY = '''"""A toy module."""


def sign(x):
    """Doc."""
    if x < 0:
        return -1
    return 1
'''

TOY_TEST = '''from toy import sign


def test_sign():
    assert sign(3) == 1
'''


def test_the_one_unreached_branch_of_a_toy_module_is_listed(tmp_path):
    source, tests = tmp_path / "src", tmp_path / "tests"
    source.mkdir()
    tests.mkdir()
    (source / "toy.py").write_text(TOY)
    (tests / "test_toy.py").write_text(TOY_TEST)
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "unreached.py"),
         "--source", str(source), "-q", "-p", "no:cacheprovider", str(tests)],
        cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(source)})
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-2:] == [
        "toy.py: 1 of 4: 7",
        "total: 1 of 4 statements never ran",
    ]
