#!/usr/bin/env python3
"""Run the screening benchmark on every workload and keep the results.

    python3 scripts/bench.py --label <label> [--checkout DIR] [--against DIR] [--seed 1]

First compiles the measured checkout's src/ to bytecode, so that no run
times the compiling of a module whose .pyc is older than its source (with
PYTHONDONTWRITEBYTECODE set, every fresh interpreter would compile it
again).  For each workload in BENCHMARK.json, runs perfbench/run.py in
the checkout for the declared run_seconds, once with --trace 0
(end-to-end metrics) and once with --trace 1 (per-layer metrics), one
run at a time.  The JSON object on the last line of each run is kept,
with the output digests the run printed and, under "table", every
`  name value unit` line of its table, which also holds the metrics the
JSON leaves out (synth_s, synth.simulate_s, synth.ms_per_frame,
ingest.serialize_states_s).  Everything is written to BENCH_<label>.json
at the root of the checkout that holds this script, with the measured
checkout's commit, the Python and numpy versions and the CPU count.

Then tier M, ten times quiet-history's frames and events (3,000 frames,
about 7e5 pipe points and 1.9e6 state rows), is generated at the same
seed by the checkout's perfbench/workloads.py in a child, and
`gasinertia scan` runs on it three times, each in a fresh child with BLAS
pinned to one thread: one child's times spread too far to show a 10%
change.  The median wall and processor seconds (start-up and imports
included), pipe points and state rows per median processor second, the
largest peak RSS, the sha256 and rows of terms.csv, and the size in bytes
of scan's history.npz and its bytes per terms row go under tiers.M.  A
child's peak RSS counts the peak of the process that started it, so this
one never holds a tier's data, and the scan child's peak RSS is its own.
The same at twice the frames and events (6,000 and 600) goes under
tiers.M_6000: scan's peak RSS should not grow with the number of frames.
tiers.M_meshed is meshed-transients at 1,000 frames, where about 45% of
the pipe points pass the prefilter, so that writing terms.csv weighs:
besides the above it records the terms rows per processor second.
tiers.M_meshed_2000 is the same at 2,000 frames: from one to the other,
the growth of a peak RSS per terms row is what the terms cost a stage to
hold.  tiers.M_swapped is tier M with the first two rows of
its middle frame swapped after generation: the frame breaks the template
every other frame repeats, so one window of states.csv goes through the
row loop, and terms.csv must be tier M's.  tiers.M_every_other is tier M
with the first two rows of every other frame swapped, written again in
one pass: no two frames in a row repeat one template, so the row loop
reads every window of states.csv, and terms.csv must again be tier M's.
tiers.M_long is tier M with every value spelled again as
repr(v * (1 + 3e-13)), in 16 or 17 digits, as a full-precision export
spells them: the reader's Clinger path declines them all.
tiers.M_repr is tier M parsed
and written again by the checkout's serialize_states: values spelled by
repr (the few that reach 16 or 17 characters leave Clinger's path for
Eisel-Lemire's) and \r\n line ends.  tiers.W is the paper's width:
quiet-history's spec on a 55x56 grid (6,083 pipes, 15,316 rows and about
785 KB a frame, so that a frame spans about three windows of the reader)
at 200 frames and 20 events (about 157 MB), with scan children only.  On
tiers M, M_6000, M_meshed and M_meshed_2000, `gasinertia components` then
runs three times with scan's history.npz (a sidecar hit) and three times
with it deleted (a miss, which reads states.csv again), each in a fresh
child: the median processor seconds, the largest peak RSS and the
components.csv sha256 go under components.hit and components.miss, and
the tier fails unless all six digests are the same.  `gasinertia
persistence` then runs once
on a sidecar hit's outputs: the sha256 of chains.csv and events.csv and
the chains and events it counts go under persistence.  `gasinertia
report` runs once on the same outputs, with the tier's terms.csv and the
horizon it takes from the component span: the sha256 of sweep.csv and
hexbin.csv go under report.

tiers.S is the synthetic simulator: `gasinertia synth --scenario
scenarios/funnel50.scn` (1,000 frames of the funnel50 fixture) runs three
times, each in a fresh child with BLAS pinned to one thread.  The median
wall and processor seconds, the largest peak RSS and the sha256 of
states.csv go under tiers.S, and the tier fails unless every child wrote
the same states.csv.  tiers.S_noisy is the same scenario at noise 0.002,
so that every frame needs a Newton solve: in tiers.S most frames are
written without one.

With --against DIR, a second checkout (the parent commit, say), every
tier's inputs are written once, and its scan and components children
alternate between DIR and the measured checkout, one child of each in
turn (each case of components apart), so that a spell of load on a shared machine weighs on both sides
alike.  Each tier then records DIR's results, in the same form, under
its "against" key, and the file records DIR's commit under "against".
Tiers S and S_noisy read the measured checkout's scenario on both sides
and fail if the two sides' states.csv differ.  Two sides may find other
events: a tier's persistence.moved says whether chains.csv or events.csv
differ from DIR's, its report.moved whether sweep.csv or hexbin.csv do,
and no tier fails for it.
Standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import hashlib
from importlib import metadata, util
import itertools
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# scan children per tier, of which the median counts
SCANS = 3


def git(checkout: Path, *args: str) -> str:
    done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def run_workload(checkout: Path, workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv[1:])} exited with {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    result["sha256"] = {name: digest for _, digest, name in
                        (line.split() for line in lines if line.startswith("  sha256 "))}
    result["table"] = {}
    for words in (line.split() for line in lines if line.startswith("  ")):
        if len(words) >= 3 and words[0] != "sha256":
            try:
                result["table"][words[0]] = {"value": float(words[1]), "unit": words[2]}
            except ValueError:
                pass   # not a metric: wall-clock medians, diagnostics, failures
    return result


def swap_rows(path: str, frames: range, size: int) -> None:
    """Swap the first two rows of each of frames in a file of frames of
    size rows after a header, writing it again in one pass."""
    with open(path, "rb") as source, open(path + ".swapped", "wb") as target:
        target.write(source.readline())
        for frame, rows in enumerate(iter(lambda: list(itertools.islice(source, size)), [])):
            if frame in frames:
                rows[:2] = rows[1::-1]
            target.writelines(rows)
    os.replace(path + ".swapped", path)


def respell_long(path: str) -> None:
    """Spell every value of a file of unquoted rows after a header again as
    repr(v * (1 + 3e-13)), in 16 or 17 digits, writing it again in one pass."""
    with open(path, "rb") as source, open(path + ".long", "wb") as target:
        target.write(source.readline())
        for line in source:
            head, _, value = line.rpartition(b",")
            target.write(b"%s,%r\n" % (head, float(value) * (1 + 3e-13)))
    os.replace(path + ".long", path)


def generate(job: str) -> None:
    """Write a tier's inputs, as run_tier's job (JSON) says, and print the
    frames, pipe points and state rows as JSON."""
    job = json.loads(job)
    spec = util.spec_from_file_location("workloads",
                                        Path(job["checkout"], "perfbench", "workloads.py"))
    workloads = sys.modules[spec.name] = util.module_from_spec(spec)   # dataclasses look it up
    spec.loader.exec_module(workloads)
    tier = dataclasses.replace(getattr(workloads, job["workload"]), **job["changes"])
    planted = workloads.generate_grid(tier, job["seed"], job["root"])
    states = f"{job['root']}/states.csv"
    if swapped := range(*job["swapped"]):
        # every generated frame has the same rows
        swap_rows(states, swapped, planted.states_rows // tier.frames)
    if job["long"]:
        respell_long(states)
    if job["repr"]:
        from gasinertia import ingest
        network = ingest.parse_topology(f"{job['root']}/topology.csv")
        ingest.serialize_states(ingest.parse_states(states, network), states)
    print(json.dumps({"frames": tier.frames, "points": planted.total,
                      "states_rows": planted.states_rows}))


def run_stage(argv: list[str], env: dict) -> tuple[float, float, float]:
    """Run a gasinertia stage in a child; its wall and processor seconds and
    its peak RSS in MB."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "gasinertia", *argv], env=env,
                             stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"tier {argv[0]} exited with {os.waitstatus_to_exitcode(status)}")
    # Linux reports ru_maxrss in KiB
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def file_digest(path: Path) -> tuple[str, int]:
    """The sha256 and the newline count of a file, read a piece at a time,
    as a child's peak RSS counts this process's peak before the child
    started."""
    sha, newlines = hashlib.sha256(), 0
    with open(path, "rb") as handle:
        while piece := handle.read(1 << 16):
            sha.update(piece)
            newlines += piece.count(b"\n")
    return sha.hexdigest(), newlines


def run_persistence_and_report(out: str, terms: str, env: dict) -> dict[str, dict]:
    """Run persistence, then report with the terms file terms, each in a
    child on the components outputs in out; under persistence the digests
    of chains.csv and events.csv and the counts it prints, under report
    the digests of sweep.csv and hexbin.csv."""
    inputs = ["--components", f"{out}/components.csv", "--members",
              f"{out}/components_pipes.csv", "--out", out]
    printed = {}
    for stage, extra in (("persistence", []), ("report", ["--terms", terms])):
        done = subprocess.run([sys.executable, "-m", "gasinertia", stage, *inputs, *extra],
                              env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"tier {stage} exited with {done.returncode}:\n{done.stderr}")
        printed[stage] = done.stdout
    return {"persistence": {
                "chains_sha256": file_digest(Path(out, "chains.csv"))[0],
                "events_sha256": file_digest(Path(out, "events.csv"))[0],
                "chains_found": int(re.search(r"chains found: (\d+)", printed["persistence"])[1]),
                "events": int(re.search(r"^events: (\d+)", printed["persistence"], re.M)[1])},
            "report": {"sweep_sha256": file_digest(Path(out, "sweep.csv"))[0],
                       "hexbin_sha256": file_digest(Path(out, "hexbin.csv"))[0]}}


def child_envs(sides: dict[str, Path]) -> dict[str, dict]:
    """Per side, the environment of its children: its src/ and one BLAS thread."""
    return {name: dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1",
                       OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
            for name, checkout in sides.items()}


def run_synth_tier(sides: dict[str, Path], scenario: Path, noise: float | None = None
                   ) -> dict[str, dict]:
    """Run synth on scenario, at noise unless None, SCANS times per side,
    each in a child, the sides' children alternating; per side, the median
    wall and processor seconds, the largest peak RSS and the digest of
    states.csv, which must be the same for every child of every side."""
    envs = child_envs(sides)
    with tempfile.TemporaryDirectory() as root:
        if noise is not None:
            # of a scalar key given twice, the later line counts
            copy = Path(root, scenario.name)
            copy.write_text(f"{scenario.read_text()}\nnoise = {noise}\n")
            scenario = copy
        runs = {name: [] for name in sides}
        digests = set()
        for _ in range(SCANS):
            for name in sides:
                out = Path(root, name)
                runs[name].append(run_stage(["synth", "--scenario", str(scenario),
                                             "--out", str(out)], envs[name]))
                digests.add(file_digest(out / "states.csv")[0])
    if len(digests) != 1:
        sys.exit(f"tier {scenario.name} at noise {noise}: states.csv differs between "
                 f"children: {sorted(digests)}")
    results = {}
    for name, stages in runs.items():
        walls, cpus, peaks = zip(*stages)
        results[name] = {"synth_wall_s": statistics.median(walls),
                         "synth_cpu_s": statistics.median(cpus), "peak_rss_mb": max(peaks),
                         "states_sha256": next(iter(digests))}
    return results


def run_tier(sides: dict[str, Path], seed: int, workload: str, swapped: range = range(0),
             long_values: bool = False, repr_values: bool = False, components: bool = False,
             **changes) -> dict[str, dict]:
    """Scan the grid workload (a GridSpec name of the perfbench/workloads.py
    of sides["checkout"]) with changes SCANS times per side, each in a
    child, after swapping the first two rows of each frame of swapped,
    spelling every value again in 16 or 17 digits if long_values, or
    writing the states again with serialize_states if repr_values; per
    side, the median wall and processor seconds, the largest peak RSS and
    the digest of the terms.  If components, then run components with and
    without the sidecar, and give their costs and digests too, and those of
    persistence and report on a sidecar hit's outputs.  sides maps
    a name to a checkout; their children alternate in the order of sides.
    A child of sides["checkout"] writes the inputs, which every side reads."""
    envs = child_envs(sides)
    with tempfile.TemporaryDirectory() as root:
        job = dict(checkout=str(sides["checkout"]), workload=workload, seed=seed, root=root,
                   swapped=[swapped.start, swapped.stop, swapped.step], long=long_values,
                   repr=repr_values, changes=changes)
        code = "import sys, bench; bench.generate(sys.argv[1])"
        done = subprocess.run([sys.executable, "-c", code, json.dumps(job)],
                              cwd=Path(__file__).parent, env=envs["checkout"],
                              capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"generating the tier exited with {done.returncode}:\n{done.stderr}")
        planted = json.loads(done.stdout.splitlines()[-1])
        inputs = ["--topology", f"{root}/topology.csv", "--states", f"{root}/states.csv"]
        stages = {name: [] for name in sides}
        for _ in range(SCANS):
            for name in sides:
                stages[name].append(run_stage(["scan", *inputs, "--exclusions",
                                               f"{root}/exclusions.csv", "--out",
                                               f"{root}/{name}/out"], envs[name]))
        results = {}
        for name, runs in stages.items():
            walls, cpus, peaks = zip(*runs)
            wall, cpu, peak = statistics.median(walls), statistics.median(cpus), max(peaks)
            terms_sha256, newlines = file_digest(Path(root, name, "out", "terms.csv"))
            # the generated pipe ids need no quoting, so every row but the
            # header is one line
            terms_rows = newlines - 1
            sidecar = Path(root, name, "out", "history.npz").stat().st_size
            results[name] = {**planted, "terms_rows": terms_rows, "history_npz_bytes": sidecar,
                             "history_npz_bytes_per_terms_row": sidecar / max(terms_rows, 1),
                             "scan_wall_s": wall, "scan_cpu_s": cpu,
                             "points_per_cpu_s": planted["points"] / cpu,
                             "rows_per_cpu_s": planted["states_rows"] / cpu,
                             "terms_rows_per_cpu_s": terms_rows / cpu,
                             "peak_rss_mb": peak, "terms_sha256": terms_sha256}
        if components:
            for case in ("hit", "miss"):
                runs = {name: [] for name in sides}
                for _ in range(SCANS):
                    for name in sides:
                        if case == "miss":
                            Path(root, name, "out", "history.npz").unlink(missing_ok=True)
                        out = f"{root}/{name}/{case}"
                        _, cpu, peak = run_stage(["components", *inputs, "--terms",
                                                  f"{root}/{name}/out/terms.csv", "--out", out],
                                                 envs[name])
                        runs[name].append((cpu, peak,
                                           file_digest(Path(out, "components.csv"))[0]))
                for name, stages in runs.items():
                    cpus, peaks, digests = zip(*stages)
                    if len(set(digests)) != 1:
                        sys.exit(f"tier components.csv of {name} differs between children")
                    results[name].setdefault("components", {})[case] = {
                        "cpu_s": statistics.median(cpus), "peak_rss_mb": max(peaks),
                        "sha256": digests[0]}
            for name, result in results.items():
                if len({case["sha256"] for case in result["components"].values()}) != 1:
                    sys.exit(f"tier components.csv of {name} differs with and without "
                             "history.npz")
                result.update(run_persistence_and_report(
                    f"{root}/{name}/hit", f"{root}/{name}/out/terms.csv", envs[name]))
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--checkout", type=Path, default=REPO_ROOT,
                        help="checkout to measure (default: this one)")
    parser.add_argument("--against", type=Path,
                        help="second checkout, whose tier children alternate with --checkout's")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    checkout = args.checkout.resolve()
    sides = {"checkout": checkout}
    if args.against is not None:
        # DIR's child runs first in each round of a tier's children
        sides = {"against": args.against.resolve(), **sides}
    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    for side in sides.values():
        # compileall writes bytecode even under PYTHONDONTWRITEBYTECODE
        if not compileall.compile_dir(side / "src", quiet=1):
            sys.exit(f"{side / 'src'} does not compile")
    seconds = declared["run_seconds"]
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    bench = {
        "label": args.label,
        "commit": git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "seconds": seconds,
        "workloads": {},
    }
    if args.against is not None:
        bench["against"] = {"checkout": str(sides["against"]),
                            "commit": git(sides["against"], "rev-parse", "HEAD"),
                            "dirty": bool(git(sides["against"], "status", "--porcelain",
                                              "--untracked-files=no"))}
    for workload in (w["name"] for w in declared["workloads"]):
        bench["workloads"][workload] = {
            f"trace_{trace}": run_workload(checkout, workload, args.seed, seconds, trace)
            for trace in (0, 1)}
        print(f"{workload}: done", flush=True)
    tiers = {
        "M": dict(workload="QUIET_HISTORY", components=True, frames=3000, events=300),
        "M_6000": dict(workload="QUIET_HISTORY", components=True, frames=6000, events=600),
        "M_meshed": dict(workload="MESHED_TRANSIENTS", components=True, frames=1000),
        "M_meshed_2000": dict(workload="MESHED_TRANSIENTS", components=True, frames=2000),
        "M_swapped": dict(workload="QUIET_HISTORY", swapped=range(1500, 1501),
                          frames=3000, events=300),
        "M_every_other": dict(workload="QUIET_HISTORY", swapped=range(0, 3000, 2),
                              frames=3000, events=300),
        "M_long": dict(workload="QUIET_HISTORY", long_values=True, frames=3000, events=300),
        "M_repr": dict(workload="QUIET_HISTORY", repr_values=True, frames=3000, events=300),
        "W": dict(workload="QUIET_HISTORY", rows=55, cols=56, frames=200, events=20),
        "S": dict(scenario=checkout / "scenarios" / "funnel50.scn"),
        "S_noisy": dict(scenario=checkout / "scenarios" / "funnel50.scn", noise=0.002)}
    bench["tiers"] = {}
    for name, tier in tiers.items():
        results = (run_synth_tier(sides, **tier) if "scenario" in tier
                   else run_tier(sides, args.seed, **tier))
        bench["tiers"][name] = results["checkout"]
        if "against" in results:
            bench["tiers"][name]["against"] = results["against"]
            for stage in ("persistence", "report"):
                if stage in results["checkout"]:
                    ours, theirs = (results[side][stage] for side in ("checkout", "against"))
                    ours["moved"] = any(ours[key] != theirs[key]
                                        for key in ours if key.endswith("_sha256"))
    print("tiers: done", flush=True)
    path = REPO_ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
