#!/usr/bin/env python3
"""Run the full pipeline on the bundled 50-pipe funnel scenario.

Chains synth -> scan -> components -> persistence -> report through the
same entry points as the installed CLI and leaves every intermediate CSV
in the output directory for inspection.
"""

import argparse
import os
import sys
import time
from pathlib import Path

# synth's states.csv bytes depend on the OpenBLAS thread count, so the
# demo pins it before numpy loads to give the same files on every machine
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from gasinertia.cli import main as cli_main  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO = REPO_ROOT / "scenarios" / "funnel50.scn"


def stage(name: str, argv: list[str]) -> None:
    print(f"--- {name}: gasinertia {' '.join(argv)}")
    code = cli_main(argv)
    if code != 0:
        sys.exit(f"{name} failed with exit code {code}")


def run(out_dir: Path) -> None:
    data = out_dir / "data"
    out = out_dir / "analysis"
    started = time.perf_counter()
    stage("synth", ["synth", "--scenario", str(SCENARIO), "--out", str(data)])
    stage("scan", ["scan", "--topology", str(data / "topology.csv"),
                   "--states", str(data / "states.csv"),
                   "--out", str(out)])
    stage("components", ["components", "--topology", str(data / "topology.csv"),
                         "--states", str(data / "states.csv"),
                         "--terms", str(out / "terms.csv"),
                         "--out", str(out)])
    stage("persistence", ["persistence", "--components", str(out / "components.csv"),
                          "--members", str(out / "components_pipes.csv"),
                          "--out", str(out)])
    stage("report", ["report", "--components", str(out / "components.csv"),
                     "--members", str(out / "components_pipes.csv"),
                     "--terms", str(out / "terms.csv"), "--out", str(out)])
    elapsed = time.perf_counter() - started
    print(f"--- done in {elapsed:.2f} s; results under {out}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="funnel_demo", help="output directory")
    args = parser.parse_args()
    run(Path(args.out))
