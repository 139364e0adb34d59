"""Screening benchmark: one run of one workload, printed as metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quiet-history --seed 1 --seconds 30 --trace 0

The run writes the workload's inputs from the seed and then runs the
CLI stages pass after pass in one fresh child process (pipeline.py)
until the measuring time is used up.  It checks every pass's outputs and
prints a table, the output digests and, as its last line, one JSON
object with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  See perfbench/NOTES.md for what each workload and metric
is for.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

CHILD_TIMEOUT_S = 170.0
OUTPUTS = ["out/terms.csv", "out/components.csv", "out/components_pipes.csv",
           "out/runs_high.csv", "out/runs_high_realistic.csv", "out/chains.csv",
           "out/events.csv", "out/sweep.csv", "out/hexbin.csv"]


def analysis_stages(topology: str, states: str, threads: int,
                    exclusions: str | None) -> list[dict]:
    out = "{pass}/out"
    scan = ["scan", "--topology", topology, "--states", states, "--out", out,
            "--threads", str(threads)]
    if exclusions:
        scan += ["--exclusions", exclusions]
    return [
        {"name": "scan", "argv": scan},
        {"name": "components", "argv": ["components", "--topology", topology, "--states", states,
                                        "--terms", f"{out}/terms.csv", "--out", out,
                                        "--threads", str(threads)]},
        {"name": "persistence", "argv": ["persistence", "--components", f"{out}/components.csv",
                                         "--members", f"{out}/components_pipes.csv",
                                         "--out", out]},
        {"name": "report", "argv": ["report", "--components", f"{out}/components.csv",
                                    "--members", f"{out}/components_pipes.csv",
                                    "--terms", f"{out}/terms.csv", "--out", out]},
    ]


def prepare(workload: str, seed: int, inputs: str) -> dict:
    """Write the inputs; return the stages, outputs and expectations."""
    os.makedirs(inputs)
    if workload == "funnel-noisy":
        scenario = os.path.join(inputs, "funnel.scn")
        workloads.write_funnel_scenario(seed, scenario)
        data = "{pass}/data"
        stages = [{"name": "synth", "argv": ["synth", "--scenario", scenario, "--out", data]}]
        stages += analysis_stages(f"{data}/topology.csv", f"{data}/states.csv", 1, None)
        return {"stages": stages, "outputs": ["data/topology.csv", "data/states.csv"] + OUTPUTS,
                "tau_s": workloads.FUNNEL_TAU_S}
    spec = {"quiet-history": workloads.QUIET_HISTORY,
            "meshed-transients": workloads.MESHED_TRANSIENTS}[workload]
    planted = workloads.generate_grid(spec, seed, inputs)
    threads = 2 if workload == "meshed-transients" else 1
    exclusions = os.path.join(inputs, "exclusions.csv") if spec.exclusions else None
    stages = analysis_stages(os.path.join(inputs, "topology.csv"),
                             os.path.join(inputs, "states.csv"), threads, exclusions)
    return {"stages": stages, "outputs": OUTPUTS, "planted": planted, "tau_s": spec.tau_s}


def scan_counts(stdout: str) -> dict[str, int]:
    for line in stdout.splitlines():
        if line.startswith("data points:"):
            counts = {}
            for part in line.split(","):
                key, value = part.rsplit(":", 1)
                counts[key.strip()] = int(value)
            return counts
    return {}


class Checks:
    """Tally of output checks; each one is an operation of the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _read_components(out_dir: str):
    with open(os.path.join(out_dir, "components.csv"), newline="") as handle:
        rows = {row[2]: row for row in list(csv.reader(handle))[1:]}
    members: dict[str, list[str]] = {}
    with open(os.path.join(out_dir, "components_pipes.csv"), newline="") as handle:
        for component_id, pipe_id in list(csv.reader(handle))[1:]:
            members.setdefault(pipe_id, []).append(component_id)
    return rows, members


def check_contents(checks: Checks, prepared: dict, out_dir: str) -> None:
    """Planted events must show up with the class they were planted with."""
    rows, members = _read_components(out_dir)
    tau_s = prepared["tau_s"]

    def graded(pipe_id: str, pair: int) -> list[list[str]]:
        t0 = workloads.stamp(pair, tau_s)
        return [rows[c] for c in members.get(pipe_id, ())
                if rows[c][0] == t0 and rows[c][6] in ("small", "high")]

    planted = prepared.get("planted")
    if planted is not None:
        for pair, pipe_ids in planted.regions:
            missing = [p for p in pipe_ids if not graded(p, pair)]
            checks.check(not missing, f"planted region at pair {pair}: "
                                      f"{len(missing)} of {len(pipe_ids)} pipes not graded")
        return
    pipe_id, pairs = workloads.FUNNEL_HIGH
    for pair in pairs:
        checks.check(any(row[6] == "high" for row in graded(pipe_id, pair)),
                     f"{pipe_id} not high at pair {pair}")
    pipe_id, pair = workloads.FUNNEL_UNREALISTIC
    beyond = [row for row in graded(pipe_id, pair)
              if float(row[7]) > workloads.REALISTIC_LIMIT_KNM3H]
    with open(os.path.join(out_dir, "events.csv"), newline="") as handle:
        events = list(csv.reader(handle))[1:]
    dropped = [e for e in events if e[1] == workloads.stamp(pair, tau_s) and e[5] == "0"]
    checks.check(bool(beyond) and bool(dropped),
                 f"{pipe_id} at pair {pair} not dropped by the realism filter")


def percentile_text(values: list[float]) -> str:
    """Sample count and the highest of p90/p99/p99.9 with ten samples
    beyond it."""
    n = len(values)
    text = f"median of n={n}"
    best = None
    for p in (90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    if best is None:
        return text + ", no tail percentile below n=100"
    ordered = sorted(values)
    return text + f", p{best:g}={ordered[min(n - 1, math.ceil(best / 100.0 * n) - 1)]:.6g}"


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# Processor time of pipeline.reference_sample on the machine the
# benchmark was built on (2-vCPU Xeon virtual machine, Python 3.11), in
# its fastest state.
REFERENCE_S = 0.042


def reference_seconds(seconds: float, reference: list[float]) -> float:
    """A processor time in reference seconds: scaled by how fast the
    machine ran the reference loop just before and just after it.

    On a shared machine the same pass takes up to twice the processor
    time when other tenants contend for the core and its caches, in
    spells of seconds to minutes.  The reference loop, timed on either
    side, slows down with it, and the ratio holds within a few percent.
    """
    return seconds * REFERENCE_S / statistics.mean(reference)


def stage_samples(passes: list[dict], name: str) -> list[float]:
    return [reference_seconds(s["s"], s["reference"])
            for p in passes for s in p["stages"] if s["name"] == name]


def pipeline_samples(passes: list[dict]) -> list[float]:
    return [sum(reference_seconds(s["s"], s["reference"]) for s in p["stages"]) for p in passes]


def end_to_end(passes: list[dict], untraced: list[dict], peak_rss_mb: float,
               points: int) -> tuple[dict, dict]:
    # one setup sample precedes every timed pass, traced or not; the
    # pass's first reference sample follows it
    samples: dict[str, list[float]] = {
        "setup_s": [reference_seconds(p["setup"]["s"],
                                      [p["setup"]["reference_before"], p["reference"][0]])
                    for p in passes[1:]],
        "pipeline_s": pipeline_samples(untraced),
    }
    for name in ("synth", "scan", "components"):
        values = stage_samples(untraced, name)
        if values:
            samples[f"{name}_s"] = values
    metrics = {name: (median_of(values), "s") for name, values in samples.items()}
    metrics["scan_points_per_s"] = (points / metrics["scan_s"][0], "points/s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics, samples


def per_layer(traced: list[dict], untraced: list[dict], rows: int) -> dict:
    """Per-layer quantities: median over the traced passes."""
    per_pass: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        per_pass.setdefault(name, []).append(value)

    longest_ms: list[float] = []
    for record in traced:
        t = record["trace"]
        # the pass's reference samples bracket all of its spans
        scale = REFERENCE_S / statistics.mean(record["reference"])
        span_s = {key: scale * value for key, value in t["span_s"].items()}
        calls, point = t["span_calls"], t["point"]
        for key in ("ingest.parse_states", "ingest.write_terms", "ingest.read_terms",
                    "components.build", "components.group", "components.orient",
                    "components.longest_path", "components.write", "components.read",
                    "temporal.run_lengths", "temporal.chains", "temporal.realism",
                    "report.sweep", "report.hexbin"):
            add(f"{key}_s", span_s.get(key, 0.0))
        if t["synth_frames"]:
            # funnel-noisy only, so these stay out of BENCHMARK.json
            add("synth.simulate_s", span_s.get("synth.simulate", 0.0))
            add("synth.ms_per_frame", 1e3 * span_s.get("synth.simulate", 0.0) / t["synth_frames"])
            add("ingest.serialize_states_s", span_s.get("ingest.serialize_states", 0.0))
        parse_calls = calls.get("ingest.parse_states", 0)
        add("ingest.parse_states_calls", parse_calls)
        parse_s = span_s.get("ingest.parse_states", 0.0)
        add("ingest.states_rows_per_s", rows * parse_calls / parse_s if parse_s else 0.0)
        for key in ("thresholds.prefilter", "physics.evaluate", "ingest.is_excluded",
                    "thresholds.pipe_relevant"):
            count, seconds = point.get(key, (0, 0.0))
            add(f"{key}_calls", count)
            add(f"{key}_s", scale * seconds)
        scan = next((s for s in record["stages"] if s["name"] == "scan"), None)
        counts = scan_counts(scan["stdout"]) if scan else {}
        if counts.get("data points"):
            add("thresholds.survivor_ratio", counts["evaluated"] / counts["data points"])
        if counts.get("evaluated"):
            add("thresholds.relevant_ratio", counts["relevant"] / counts["evaluated"])
        add("cli.scan_self_s", scale * t["stage_self_s"].get("cli.scan_self", 0.0))
        add("cli.components_self_s", scale * t["stage_self_s"].get("cli.components_self", 0.0))
        longest_ms.extend(1e3 * scale * s for s, _, _ in t["longest_path"])
        value = sum(v for _, v, _ in t["longest_path"])
        add("components.cycle_correction_share",
            sum(c for _, _, c in t["longest_path"]) / value if value else 0.0)
        add("components.count", len(t["components"]))
        add("components.max_pipes", max(t["components"], default=0))
        add("report.hexbin_points", t["hexbin_points"])

    metrics = {name: median_of(values) for name, values in per_pass.items()}
    # pooled over the calls of all traced passes
    metrics["components.longest_path_p50_ms"] = median_of(longest_ms)
    metrics["components.longest_path_p90_ms"] = (
        statistics.quantiles(longest_ms, n=10)[8] if len(longest_ms) > 1 else median_of(longest_ms))
    metrics["trace.overhead_s"] = (median_of(pipeline_samples(traced))
                                   - median_of(pipeline_samples(untraced)))
    return metrics


def load_declared(root: str) -> tuple[list[dict], list[dict]]:
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return declared["end_to_end"], declared["per_layer"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["quiet-history", "meshed-transients", "funnel-noisy"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gasinertia", "cli.py")):
        print("error: run from the root of a gasinertia checkout (src/gasinertia missing)",
              file=sys.stderr)
        return 2
    end_to_end_declared, per_layer_declared = load_declared(root)

    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(args, root, work, end_to_end_declared, per_layer_declared)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, root: str, work: str, end_to_end_declared, per_layer_declared) -> int:
    started = time.perf_counter()
    prepared = prepare(args.workload, args.seed, os.path.join(work, "inputs"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # string hashing changes dict and set layouts between processes; pin
    # it so that the spread between runs is the program's, not the hash's
    env["PYTHONHASHSEED"] = "0"
    # OpenBLAS helper threads spin while they wait, which adds processor
    # time that depends on scheduling rather than on work, and synth's
    # states.csv bytes differ between one and two BLAS threads; one
    # thread keeps both the timings and the digests machine-independent
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"

    budget = max(1.0, args.seconds - (time.perf_counter() - started))
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    with open(spec_path, "w") as handle:
        json.dump({"root": root, "stages": prepared["stages"], "outputs": prepared["outputs"],
                   "pass_root": os.path.join(work, "passes"), "seconds": budget,
                   "trace": bool(args.trace)}, handle)
    child = subprocess.run([sys.executable, os.path.join(os.path.dirname(__file__), "pipeline.py"),
                            spec_path, result_path], env=env, timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0 or not os.path.isfile(result_path):
        print(f"error: pipeline child exited with {child.returncode}", file=sys.stderr)
        return 1
    with open(result_path) as handle:
        result = json.load(handle)
    passes = result["passes"]

    checks = Checks()
    planted = prepared.get("planted")
    warmup_out = os.path.join(work, "passes", "pass0")
    if planted is not None:
        expected = {"data points": planted.total, "excluded": planted.excluded,
                    "evaluated": planted.evaluated}
        states_rows = planted.states_rows
    else:
        data = os.path.join(warmup_out, "data")
        total, evaluated = workloads.count_points(os.path.join(data, "topology.csv"),
                                                  os.path.join(data, "states.csv"))
        expected = {"data points": total, "excluded": 0, "evaluated": evaluated}
        with open(os.path.join(data, "states.csv")) as handle:
            states_rows = sum(1 for _ in handle) - 1
    stage_failed = False
    for k, record in enumerate(passes):
        for stage in record["stages"]:
            checks.check(stage["code"] == 0, f"pass {k} {stage['name']} exited {stage['code']}: "
                                             f"{stage['stderr'].strip()[-300:]}")
            stage_failed |= stage["code"] != 0
            if stage["name"] == "scan" and stage["code"] == 0:
                counts = scan_counts(stage["stdout"])
                checks.check(all(counts.get(key) == value for key, value in expected.items()),
                             f"pass {k} scan counts {counts} != {expected}")
        if k:
            checks.check(record["digests"] == passes[0]["digests"],
                         f"pass {k} outputs differ from pass 0")
    if not stage_failed:
        check_contents(checks, prepared, os.path.join(warmup_out, "out"))

    timed = passes[1:]
    untraced = [p for p in timed if not p["traced"]]
    traced = [p for p in timed if p["traced"]]
    if stage_failed or not untraced:
        for failure in checks.failures:
            print(f"FAILED: {failure}", file=sys.stderr)
        print("error: no complete timed pass; no metrics", file=sys.stderr)
        return 1

    points = expected["data points"]
    metrics, samples = end_to_end(passes, untraced, result["peak_rss_mb"], points)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(untraced)} untraced and {len(traced)} traced timed passes "
          f"after one warm-up pass")
    if planted is not None:
        print(f"planted: {planted.total} points, {planted.excluded} excluded, "
              f"{planted.evaluated} at or above the prefilter, {len(planted.regions)} "
              f"event region pairs, {planted.states_rows} state rows")
    for name, (value, unit) in metrics.items():
        tail = f"  ({percentile_text(samples[name])})" if name in samples else ""
        print(f"  {name:<22} {value:.6g} {unit}{tail}")
    walls = {"pipeline": [sum(s["wall_s"] for s in p["stages"]) for p in untraced]}
    for stage in passes[0]["stages"]:
        walls[stage["name"]] = [s["wall_s"] for p in untraced for s in p["stages"]
                                if s["name"] == stage["name"]]
    print("  wall-clock medians (plain seconds, not gated): "
          + ", ".join(f"{name} {median_of(values):.4g} s" for name, values in walls.items()))
    failed_share = len(checks.failures) / checks.attempted
    print(f"  {'failed_share':<22} {failed_share:.6g} ratio  "
          f"({len(checks.failures)} of {checks.attempted} operations)")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    persistence = next(s for s in passes[0]["stages"] if s["name"] == "persistence")
    for line in persistence["stdout"].splitlines():
        if line.startswith("diagnostics:"):
            print(f"  persistence {line}")
    for name, digest in sorted(passes[0]["digests"].items()):
        print(f"  sha256 {digest} {name}")

    if args.trace:
        layers = per_layer(traced, untraced, states_rows)
        absent = sorted({name for p in traced for name in p.get("absent", [])})
        units = {m["name"]: m["unit"] for m in per_layer_declared}
        print("per layer (median over traced passes):")
        for name, value in layers.items():
            # the undeclared ones are funnel-only or per-point extras
            words = name.rsplit(".", 1)[-1].split("_")
            unit = units.get(name) or ("count" if "calls" in words
                                       else "ms" if "ms" in words else "s")
            print(f"  {name:<38} {value:.6g} {unit}")
        if absent:
            print(f"  absent (reported as 0): {', '.join(absent)}")
        reported = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in per_layer_declared}
    else:
        reported = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in end_to_end_declared}
    print(json.dumps({"correct": not checks.failures, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
