"""The experiment scripts run from any working directory."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, args",
    [
        ("chamber_tables.py", ["p:2"]),
        ("random_complex_experiment.py", ["--space", "p:2", "--count", "2"]),
        ("moduli_family_scan.py", ["--samples", "2"]),
        ("tangent_scale.py", ["--spaces", "p:2", "--count", "1", "--repeat", "1"]),
    ],
)
def test_script_runs_outside_the_repo(script, args, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
