"""Smoke tests: the example scripts run to completion on the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import feedback_kmeans

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PACKAGE_ROOT = str(Path(feedback_kmeans.__file__).resolve().parent.parent)


@pytest.mark.parametrize(
    "script, args", [("toy_demo.py", []), ("desk_experiment.py", ["400", "7"])]
)
def test_script_exits_cleanly(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
