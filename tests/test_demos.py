"""Every narrative script under demos/, and the README quickstart, runs to
completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
_DEMOS = sorted((_REPO_ROOT / "demos").glob("*.py"))
_README = _REPO_ROOT / "README.md"


def _quickstart(tmp_path):
    # The first fenced python block under the "Library quickstart" heading.
    section = _README.read_text().split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    script = tmp_path / "quickstart.py"
    script.write_text(code)
    return script


def test_demos_are_present():
    assert _DEMOS


@pytest.mark.parametrize("script", _DEMOS + [_README], ids=lambda path: path.stem)
def test_demo_runs(script, tmp_path):
    if script == _README:
        script = _quickstart(tmp_path)
    env = dict(os.environ)
    paths = [str(_REPO_ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
