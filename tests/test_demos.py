"""Every script in demos/, and the README's library quickstart, runs to
completion against the source tree under the warning policy of
pyproject.toml, which a subprocess does not inherit."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
WARNINGS_AS_ERRORS = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
                      "-W", "error::FutureWarning"]


def run_python(*args):
    return subprocess.run(
        [sys.executable, *WARNINGS_AS_ERRORS, *args], cwd=ROOT, env=ENV, capture_output=True,
        text=True, timeout=120,
    )


def test_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    first, second = proc.stdout.splitlines()
    assert float(first) >= 0.95
    assert second.endswith(" 1")
