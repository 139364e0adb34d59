"""Shared builders and fixtures for the test suite."""

import contextlib
from datetime import datetime, timedelta, timezone
import io
import os
import threading

import pytest

from gasinertia.cli import main
from gasinertia.components import Component
from gasinertia.ingest import microseconds
from gasinertia.model import BAR, KNM3H
from gasinertia.thresholds import RelevanceClass

BASE_TS = datetime(2026, 1, 1, tzinfo=timezone.utc)
TAU_S = 180.0


def stamp(index: int) -> datetime:
    return BASE_TS + timedelta(seconds=TAU_S * index)


def make_pair(index: int) -> tuple[int, int]:
    """The instants of the time pair covering grid step index -> index + 1."""
    return tuple(microseconds([stamp(index), stamp(index + 1)]).tolist())


def make_component(pipe_ids: tuple[str, ...], value_bar: float = 1.0,
                   relevance: RelevanceClass = RelevanceClass.HIGH,
                   dflow_knm3h: float = 10.0) -> Component:
    return Component(
        pipe_ids=pipe_ids,
        longest_path_pa=value_bar * BAR,
        cycle_correction_pa=0.0,
        relevance=relevance,
        max_abs_dflow_m3s=dflow_knm3h * KNM3H,
    )


def make_stream(entries: list[tuple[int, list[Component]]]) -> list:
    """Stream from (pair index, components) entries; skipped indices gap."""
    return [(make_pair(index), comps) for index, comps in entries]


SCENARIO = """fixture = line3
frames = 8
tau_s = 180
event = n3 3 -300
event = n3 4 -10
"""


def feed_fifo(path, data: bytes, chunk: int = 37) -> threading.Thread:
    """A FIFO made at path and a started thread that writes data into it,
    chunk bytes a write, so that a reader gets short reads from the pipe."""
    os.mkfifo(path)

    def feed():
        with open(path, "wb", buffering=0) as pipe:
            for start in range(0, len(data), chunk):
                pipe.write(data[start:start + chunk])

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    return feeder


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full file-mediated pipeline over a three-pipe event scenario."""
    root = tmp_path_factory.mktemp("pipeline")
    scn = root / "case.scn"
    scn.write_text(SCENARIO)
    data = root / "data"
    out = root / "out"
    results = {}
    results["synth"] = run_cli(["synth", "--scenario", scn, "--out", data])
    results["scan"] = run_cli([
        "scan", "--topology", data / "topology.csv",
        "--states", data / "states.csv", "--out", out])
    results["components"] = run_cli([
        "components", "--topology", data / "topology.csv",
        "--states", data / "states.csv", "--terms", out / "terms.csv",
        "--out", out])
    results["persistence"] = run_cli([
        "persistence", "--components", out / "components.csv",
        "--members", out / "components_pipes.csv", "--out", out])
    results["report"] = run_cli([
        "report", "--components", out / "components.csv",
        "--members", out / "components_pipes.csv", "--terms", out / "terms.csv",
        "--horizon-days", "100", "--out", out])
    return {"root": root, "data": data, "out": out, "results": results}
