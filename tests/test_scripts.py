"""Smoke tests of the scripts that drive the whole pipeline and the benchmark."""

from importlib import util
import itertools
import os
from pathlib import Path
import subprocess
import sys

import gasinertia
from gasinertia.components import DirectedArc, longest_path_value

from oracles import closure_strong_components

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


def test_bench_grid_tier_measures_the_grid():
    spec = util.spec_from_file_location("bench", REPO_ROOT / "scripts" / "bench.py")
    bench = util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for size, seed in itertools.product((2, 3, 5), range(4)):
        arcs = bench.grid_arcs(size, seed)
        assert len({arc[:2] for arc in arcs if arc[3] != "v"}) + sum(
            arc[3] == "v" for arc in arcs) // 2 == 2 * size * (size - 1)
        parts = closure_strong_components([arc[:3] for arc in arcs])
        assert bench.largest_weighted_part(arcs) == max(
            (len(part) for part in parts
             if any(w > 0.0 and u in part and v in part for u, v, w, _ in arcs)), default=0)
    probed = bench.run_grid_tier({"checkout": REPO_ROOT}, 5, (0, 1))["checkout"]
    for seed in (0, 1):
        value, correction = longest_path_value(
            [DirectedArc(*arc) for arc in bench.grid_arcs(5, seed)])
        assert probed["seeds"][str(seed)]["value_hex"] == value.hex()
        assert probed["seeds"][str(seed)]["correction_hex"] == correction.hex()
