"""Child process of the benchmark: runs pipeline passes in-process.

Usage: python3 pipeline.py SPEC.json RESULT.json

SPEC names the checkout root, the stages (CLI argument lists in which
"{pass}" stands for the pass directory), the output files to digest, the
measuring time and whether to trace.  Every pass calls
gasinertia.cli.main once per stage, exactly as the command line would.
Pass 0 warms up: it is checked and digested but not timed, and its
outputs stay on disk for the content checks.  With tracing on, untraced
and traced passes alternate, so both see the same machine conditions.

Every timing is processor time of this process (all threads,
time.process_time), with wall time recorded beside it.  A fixed
reference loop is timed before the first stage, after every stage and
before every setup sample, so each timing has a reference sample on
either side of it; run.py turns timings into reference seconds with
them.
"""

from __future__ import annotations

from contextlib import nullcontext, redirect_stderr, redirect_stdout
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback

MIN_TIMED_PASSES = 3
# processor time of one fresh interpreter importing the CLI
SETUP_CODE = ("import time; start = time.process_time(); import gasinertia.cli; "
              "print(repr(time.process_time() - start))")
# stop adding passes after this long even below the minimum, so that a
# much slower program still ends inside the run's time limit
HARD_STOP_S = 140.0


def _digest(path: str) -> str | None:
    if not os.path.isfile(path):
        return None
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def reference_sample() -> float:
    """Processor time of fixed pure-Python work of the screener's kind:
    format and split text rows, parse numbers, update a dict."""
    start = time.process_time()
    totals: dict[str, float] = {}
    for i in range(30000):
        line = f"2026-01-01T00:{i % 60:02d}:00Z,p{i % 300},arc.flow_kNm3h,{i * 0.37:.4f}"
        _when, entity, _quantity, value = line.split(",")
        totals[entity] = totals.get(entity, 0.0) + abs(float(value) * (1000.0 / 3600.0)) ** 0.5
    return time.process_time() - start


def setup_sample() -> float:
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(cli, spec: dict, pass_dir: str, tracer) -> dict:
    os.makedirs(pass_dir, exist_ok=True)
    stages = []
    reference = [reference_sample()]
    for stage in spec["stages"]:
        argv = [arg.replace("{pass}", pass_dir) for arg in stage["argv"]]
        out, err = io.StringIO(), io.StringIO()
        context = tracer.stage(stage["name"]) if tracer is not None else nullcontext()
        start_wall = time.perf_counter()
        start = time.process_time()
        try:
            with redirect_stdout(out), redirect_stderr(err), context:
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:       # a crash is a failed stage, not a failed benchmark
            code = -1
            err.write(traceback.format_exc())
        seconds = time.process_time() - start
        wall = time.perf_counter() - start_wall
        reference.append(reference_sample())
        stages.append({"name": stage["name"], "s": seconds, "wall_s": wall,
                       "reference": reference[-2:], "code": code, "stdout": out.getvalue(),
                       "stderr": err.getvalue()[-2000:]})
        if code != 0:
            break
    return {
        "stages": stages,
        "reference": reference,
        "digests": {name: _digest(os.path.join(pass_dir, name)) for name in spec["outputs"]},
    }


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from gasinertia import cli
    from tracing import Tracer

    tracer = Tracer() if spec["trace"] else None
    started = time.perf_counter()
    deadline = started + spec["seconds"]
    passes = []
    setup_sample()      # compiles bytecode on a fresh checkout; not counted
    while True:
        index = len(passes)
        traced = tracer is not None and index > 0 and index % 2 == 0
        setup = None
        if index > 0:
            # the pass's first reference sample follows the setup sample
            before = reference_sample()
            setup = {"s": setup_sample(), "reference_before": before}
        if traced:
            tracer.reset()
            tracer.install()
        gc.collect()
        try:
            record = run_pass(cli, spec, os.path.join(spec["pass_root"], f"pass{index}"),
                              tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        record["setup"] = setup
        if traced:
            record["trace"] = tracer.summary()
            record["absent"] = tracer.absent
        passes.append(record)
        if index > 0:
            shutil.rmtree(os.path.join(spec["pass_root"], f"pass{index}"), ignore_errors=True)
        failed = any(stage["code"] != 0 for stage in record["stages"])
        timed = passes[1:]
        enough = (sum(not p["traced"] for p in timed) >= MIN_TIMED_PASSES
                  and (tracer is None or sum(p["traced"] for p in timed) >= MIN_TIMED_PASSES))
        now = time.perf_counter()
        if failed or now - started > HARD_STOP_S or (enough and now >= deadline):
            break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as handle:
        json.dump({"passes": passes, "peak_rss_mb": peak_kb / 1024.0}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
