"""Smoke test of the scripts that drive the whole pipeline."""

import os
from pathlib import Path
import subprocess
import sys

import gasinertia

REPO_ROOT = Path(__file__).resolve().parent.parent

# every file of the README's Files table that a pipeline run writes;
# exclusions.csv is only ever written by the user
DATA_FILES = ["topology.csv", "states.csv"]
ANALYSIS_FILES = ["terms.csv", "history.npz", "components.csv", "components_pipes.csv",
                  "runs_high.csv", "runs_high_realistic.csv", "chains.csv", "events.csv",
                  "sweep.csv", "hexbin.csv"]


def test_funnel_demo_writes_every_file(tmp_path):
    env = dict(os.environ)
    # the package as this test imports it, installed or not
    src = str(Path(gasinertia.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "run_funnel_demo.py"),
         "--out", str(tmp_path)], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    for folder, names in (("data", DATA_FILES), ("analysis", ANALYSIS_FILES)):
        for name in names:
            assert (tmp_path / folder / name).is_file(), (folder, name)
    assert "--- done in" in result.stdout
