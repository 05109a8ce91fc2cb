"""The example scripts run to completion on the current API; the toy demo's output is pinned."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import feedback_kmeans

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PACKAGE_ROOT = str(Path(feedback_kmeans.__file__).resolve().parent.parent)


# The toy demo's whole output: its trace, best flags and best clustering.
TOY_DEMO_STDOUT = """\
feedback: per-cluster x variance (lower is better)

step 0 [init] k=2 aggregate=25.000  <- new best
    cluster 0: x values [0.0, 10.0]; cluster 1: x values [0.0, 10.0]
step 1 [split(0)] k=3 aggregate=12.500  <- new best
    cluster 0: x values [0.0, 10.0]; cluster 1: x values [0.0]; cluster 2: x values [10.0]
step 2 [split(0)] k=4 aggregate=0.000  <- new best
    cluster 0: x values [0.0]; cluster 1: x values [10.0]; cluster 2: x values [10.0]; cluster 3: x values [0.0]
step 3 [split(0)] k=5 aggregate=0.000
    cluster 0: x values [10.0]; cluster 1: x values [10.0]; cluster 2: x values [0.0]; cluster 3: x values [0.0]; cluster 4: x values [0.0]
step 4 [split(0)] k=6 aggregate=0.000
    cluster 0: x values [10.0]; cluster 1: x values [0.0]; cluster 2: x values [0.0]; cluster 3: x values [0.0]; cluster 4: x values [10.0]; cluster 5: x values [10.0]
step 5 [split(0)] k=7 aggregate=0.000
    cluster 0: x values [0.0]; cluster 1: x values [0.0]; cluster 2: x values [0.0]; cluster 3: x values [10.0]; cluster 4: x values [10.0]; cluster 5: x values [10.0]; cluster 6: x values [10.0]
step 6 [split(0)] k=8 aggregate=0.000
    cluster 0: x values [0.0]; cluster 1: x values [0.0]; cluster 2: x values [10.0]; cluster 3: x values [10.0]; cluster 4: x values [10.0]; cluster 5: x values [10.0]; cluster 6: x values [0.0]; cluster 7: x values [0.0]

best clustering: step 2, aggregate 0.000, k=4
every cluster is x-homogeneous: True
"""


def run_script(script, *args):
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
    return result


@pytest.mark.parametrize(
    "script, args", [("toy_demo.py", []), ("desk_experiment.py", ["400", "7"])]
)
def test_script_exits_cleanly(script, args):
    run_script(script, *args)


def test_toy_demo_output_is_pinned():
    assert run_script("toy_demo.py").stdout == TOY_DEMO_STDOUT


def test_desk_experiment_prints_every_failed_cell():
    # At 60 points some clusters are too small for the oracle, so cells fail.
    result = run_script("desk_experiment.py", "60", "7")
    failed = int(re.search(r"^ran 72 cells in .*s \((\d+) failed\)$", result.stdout, re.M).group(1))
    lines = result.stderr.splitlines()
    assert failed > 0 and len(lines) == failed
    for line in lines:
        assert re.fullmatch(r"failed: sme?:(rss|custom) k=[2-7] seed=\d+: \w+: .+", line), line
