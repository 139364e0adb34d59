"""Seeded inputs for the screening benchmark and the facts planted in them.

The grid workloads write topology.csv, states.csv and exclusions.csv
directly, because the synthetic simulator cannot solve meshed networks
yet.  The histories are not momentum-consistent; they only have to give
the screener the mix of quiet points, noisy points and planted flow
events that each workload is meant to load.

Every quantity the output checks need is computed here from the text
that was written, with the screener's own unit arithmetic, so the checks
do not depend on any code under test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
import math
import os
import random

# Unit arithmetic of the screener's file boundary and its default
# prefilter, repeated here so that the expected counts are independent of
# the code under test but bit-identical to what it computes.
KNM3H = 1000.0 / 3600.0
MIN_FLOW_CHANGE_M3S = 0.5 * KNM3H

START = datetime(2026, 1, 1, tzinfo=timezone.utc)
RHO_N = 0.85


def stamp(frame: int, tau_s: float) -> str:
    when = START + timedelta(seconds=frame * tau_s)
    return when.strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class GridSpec:
    """Shape of one grid workload; the seed decides everything inside it."""

    rows: int
    cols: int
    rings: int
    ring_size: int
    valves: int
    closed_valves: int
    resistors: int
    frames: int
    tau_s: float
    noise_knm3h: float          # std of the per-frame flow noise
    events: int
    region_pipes: tuple[int, int]
    ramp_frames: tuple[int, int]
    hold_frames: tuple[int, int]
    mixed_signs: bool
    # per-pipe |alpha| of one ramp step; above 0.1 bar every planted pipe
    # makes its component at least "small" on its own
    alpha_pa: tuple[float, float]
    exclusions: int
    exclusion_frames: tuple[int, int]
    structure_seed: int


@dataclass
class Planted:
    """What the generator put into a grid history."""

    states_rows: int
    total: int                  # pipe data points: pipes x pairs
    excluded: int
    evaluated: int              # not excluded and at or above the prefilter
    # (pair index, sorted pipe ids) for every pair an event moves
    regions: list[tuple[int, tuple[str, ...]]]


@dataclass(frozen=True)
class Pipe:
    pipe_id: str
    from_node: str
    to_node: str
    length_m: float
    diameter_m: float


def _build_topology(spec: GridSpec, rng: random.Random):
    """Grid of pipes with some edges turned into valves and resistors,
    plus separate rings hung off the grid through regulators."""
    grid_edges = []
    for r in range(spec.rows):
        for c in range(spec.cols):
            if c + 1 < spec.cols:
                grid_edges.append((f"n{r}_{c}", f"n{r}_{c + 1}"))
            if r + 1 < spec.rows:
                grid_edges.append((f"n{r}_{c}", f"n{r + 1}_{c}"))
    special = rng.sample(range(len(grid_edges)), spec.valves + spec.resistors)
    valve_edges = set(special[:spec.valves])
    resistor_edges = set(special[spec.valves:])

    pipes: list[Pipe] = []
    valves: list[tuple[str, str, str]] = []
    resistors: list[tuple[str, str, str]] = []
    for k, (a, b) in enumerate(grid_edges):
        if k in valve_edges:
            valves.append((f"v{len(valves)}", a, b))
        elif k in resistor_edges:
            resistors.append((f"r{len(resistors)}", a, b))
        else:
            pipes.append(Pipe(f"p{len(pipes)}", a, b,
                              rng.choice((8e3, 10e3, 12e3, 15e3, 20e3)),
                              rng.choice((0.5, 0.6, 0.7, 0.8))))
    regulators = []
    for i in range(spec.rings):
        for j in range(spec.ring_size):
            pipes.append(Pipe(f"q{i}_{j}", f"g{i}_{j}", f"g{i}_{(j + 1) % spec.ring_size}",
                              rng.choice((8e3, 10e3)), rng.choice((0.5, 0.6))))
        regulators.append((f"reg{i}", f"n{rng.randrange(spec.rows)}_{spec.cols - 1}",
                           f"g{i}_0"))
    closed = set(v[0] for v in rng.sample(valves, spec.closed_valves))
    return pipes, valves, resistors, regulators, closed


def _region(pipes: list[Pipe], adjacency: dict[str, list[int]], size: int,
            rng: random.Random) -> list[int]:
    """Connected set of about `size` pipes grown breadth-first."""
    start = rng.randrange(len(pipes))
    seen = {start}
    queue = deque([start])
    order = []
    while queue and len(order) < size:
        k = queue.popleft()
        order.append(k)
        p = pipes[k]
        neighbours = adjacency[p.from_node] + adjacency[p.to_node]
        rng.shuffle(neighbours)
        for j in neighbours:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return order


def _dq_knm3h(pipe: Pipe, alpha_pa: float, tau_s: float) -> float:
    """Flow step in kNm3/h whose inertia term is alpha_pa."""
    area = math.pi * pipe.diameter_m ** 2 / 4.0
    return alpha_pa * area * tau_s / (pipe.length_m * RHO_N) / KNM3H


def generate_grid(spec: GridSpec, seed: int, out_dir: str) -> Planted:
    """Write topology.csv, states.csv and exclusions.csv into out_dir.

    The network, the event footprints and their sign patterns come from
    spec.structure_seed, because the cost of the longest-path search
    depends on the cycle structure of each component far more than on
    anything else; with them drawn per seed, the spread between seeds
    would measure the draw instead of the program.  The benchmark seed
    draws everything else: event timing and step sizes, base flows, flow
    and pressure noise, densities and exclusion windows.
    """
    shape = random.Random(spec.structure_seed)
    rng = random.Random(seed)
    pipes, valves, resistors, regulators, closed = _build_topology(spec, shape)
    n_pipes = len(pipes)
    frames = spec.frames

    adjacency: dict[str, list[int]] = {}
    for k, p in enumerate(pipes):
        adjacency.setdefault(p.from_node, []).append(k)
        adjacency.setdefault(p.to_node, []).append(k)

    # Each event gets its own slot of frames, so no pipe is moved by two
    # events at one pair and every planted step keeps its full size.
    steps = [dict() for _ in range(frames)]      # frame -> {pipe index: dq}
    regions: list[tuple[int, tuple[str, ...]]] = []
    in_events: set[int] = set()
    slot = (frames - 1) // spec.events
    longest = 2 * spec.ramp_frames[1] + spec.hold_frames[1]
    if slot < longest:
        raise ValueError(f"{spec.events} events of up to {longest} frames "
                         f"do not fit into {frames} frames")
    for e in range(spec.events):
        ramp = shape.randint(*spec.ramp_frames)
        hold = shape.randint(*spec.hold_frames)
        members = _region(pipes, adjacency, shape.randint(*spec.region_pipes), shape)
        sign = shape.choice((-1.0, 1.0))
        signs = [shape.choice((-1.0, 1.0)) if spec.mixed_signs else sign for _ in members]
        start = 1 + e * slot + rng.randint(0, slot - (2 * ramp + hold))
        for k, s in zip(members, signs):
            dq = s * _dq_knm3h(pipes[k], rng.uniform(*spec.alpha_pa), spec.tau_s)
            for j in range(ramp):
                steps[start + j][k] = dq
                steps[start + ramp + hold + j][k] = -dq
        ids = tuple(sorted(pipes[k].pipe_id for k in members))
        for j in range(ramp):
            # pair index i joins frames i and i + 1, so a step at frame f
            # shows in pair f - 1
            regions.append((start + j - 1, ids))
            regions.append((start + ramp + hold + j - 1, ids))
        in_events.update(members)

    quiet = [k for k in range(n_pipes) if k not in in_events]
    windows = []
    for k in rng.sample(quiet, min(spec.exclusions, len(quiet))):
        width = rng.randint(*spec.exclusion_frames)
        first = rng.randint(1, frames - width - 1)
        windows.append((k, first, first + width))

    base_flow = [rng.uniform(-40.0, 40.0) for _ in range(n_pipes)]
    nodes = sorted({p.from_node for p in pipes} | {p.to_node for p in pipes}
                   | {a for _, a, _ in valves + resistors + regulators}
                   | {b for _, _, b in valves + resistors + regulators})
    base_pressure = {n: rng.uniform(50.0, 60.0) for n in nodes}
    rho = [f"{rng.uniform(0.8, 0.9):.4f}" for _ in range(n_pipes)]
    passive = valves + resistors

    level = list(base_flow)
    prev_written: list[float] | None = None
    excluded_at: dict[int, set[int]] = {}
    for k, first, last in windows:
        for f in range(first, last):
            excluded_at.setdefault(f, set()).add(k)
    evaluated = 0
    rows = 0
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "states.csv"), "w", newline="") as handle:
        handle.write("timestamp_iso8601,entity_id,quantity,value\n")
        for f in range(frames):
            when = stamp(f, spec.tau_s)
            lines = []
            for n in nodes:
                value = base_pressure[n] + rng.gauss(0.0, 0.02)
                lines.append(f"{when},{n},node.pressure_bar,{value:.5f}\n")
            written = []
            for k, dq in steps[f].items():
                level[k] += dq
            for k, p in enumerate(pipes):
                text = f"{level[k] + rng.gauss(0.0, spec.noise_knm3h):.4f}"
                written.append(float(text))
                lines.append(f"{when},{p.pipe_id},arc.flow_kNm3h,{text}\n")
            for eid, _, _ in passive:
                lines.append(f"{when},{eid},arc.flow_kNm3h,{rng.uniform(-5.0, 5.0):.4f}\n")
            for eid, _, _ in valves:
                lines.append(f"{when},{eid},valve.open,{0 if eid in closed else 1}\n")
            for k, p in enumerate(pipes):
                lines.append(f"{when},{p.pipe_id},pipe.rho_n_kgNm3,{rho[k]}\n")
            handle.writelines(lines)
            rows += len(lines)
            if prev_written is not None:
                skip = excluded_at.get(f, ())
                for k in range(n_pipes):
                    if k in skip:
                        continue
                    # the screener's arithmetic: file value times KNM3H,
                    # then |Q(t1) - Q(t0)| >= 0.5 kNm3/h in SI
                    if abs(written[k] * KNM3H - prev_written[k] * KNM3H) >= MIN_FLOW_CHANGE_M3S:
                        evaluated += 1
            prev_written = written

    with open(os.path.join(out_dir, "topology.csv"), "w", newline="") as handle:
        handle.write("element_id,kind,from_node,to_node,length_m,diameter_m,roughness_m,slope\n")
        for p in pipes:
            handle.write(f"{p.pipe_id},pipe,{p.from_node},{p.to_node},"
                         f"{p.length_m!r},{p.diameter_m!r},1e-05,0.0\n")
        for kind, elements in (("valve", valves), ("resistor", resistors),
                               ("regulator", regulators)):
            for eid, a, b in elements:
                handle.write(f"{eid},{kind},{a},{b},,,,\n")

    with open(os.path.join(out_dir, "exclusions.csv"), "w", newline="") as handle:
        handle.write("pipe_id,start_iso8601,end_iso8601\n")
        for k, first, last in windows:
            handle.write(f"{pipes[k].pipe_id},{stamp(first, spec.tau_s)},"
                         f"{stamp(last, spec.tau_s)}\n")

    # a window [start, end) excludes the pairs whose t1 frame lies inside it
    excluded = sum(len(ks) for f, ks in excluded_at.items() if 1 <= f < frames)
    return Planted(states_rows=rows,
                   total=n_pipes * (frames - 1), excluded=excluded,
                   evaluated=evaluated, regions=regions)


QUIET_HISTORY = GridSpec(
    rows=10, cols=11, rings=2, ring_size=24, valves=8, closed_valves=2,
    resistors=6, frames=300, tau_s=180.0, noise_knm3h=0.08, events=30,
    region_pipes=(3, 8), ramp_frames=(1, 1), hold_frames=(3, 6),
    mixed_signs=False, alpha_pa=(1.3e4, 2.5e4), exclusions=6,
    exclusion_frames=(20, 120), structure_seed=1)

MESHED_TRANSIENTS = GridSpec(
    rows=12, cols=13, rings=2, ring_size=28, valves=8, closed_valves=2,
    resistors=6, frames=100, tau_s=180.0, noise_knm3h=0.42, events=8,
    region_pipes=(90, 110), ramp_frames=(2, 2), hold_frames=(2, 4),
    mixed_signs=True, alpha_pa=(1.2e4, 2.0e4), exclusions=0,
    exclusion_frames=(1, 1), structure_seed=2)


# funnel50's shipped event schedule (scenarios/funnel50.scn), compressed
# from 1000 to FUNNEL_FRAMES frames so that one noisy synth fits many
# times into a run: (node, frame, inflow kNm3/h)
FUNNEL_FRAMES = 80
FUNNEL_TAU_S = 180.0
FUNNEL_EVENTS = [("a15", 12, -25.92), ("b1", 28, -194.4), ("c1", 40, -410.4),
                 ("c1", 41, -806.4), ("d1", 64, -2174.4)]
FUNNEL_NOISE = 0.002
# planted classes: c is high at both of its steps, d moves more than the
# realism limit and must be dropped (pair index = step frame - 1)
FUNNEL_HIGH = ("cp0", (39, 40))
FUNNEL_UNREALISTIC = ("dp0", 63)
REALISTIC_LIMIT_KNM3H = 2000.0


def write_funnel_scenario(seed: int, path: str) -> None:
    lines = ["fixture = funnel50", f"frames = {FUNNEL_FRAMES}", f"tau_s = {FUNNEL_TAU_S:g}",
             "temperature_K = 283.15", "rho_n_kgNm3 = 0.85", f"noise = {FUNNEL_NOISE}",
             f"seed = {seed}", "start = 2026-01-01T00:00:00Z"]
    lines += [f"event = {node} {frame} {value}" for node, frame, value in FUNNEL_EVENTS]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def count_points(topology_path: str, states_path: str) -> tuple[int, int]:
    """(pipe data points, points at or above the prefilter) of a history
    without exclusions, read with the screener's unit arithmetic."""
    with open(topology_path) as handle:
        pipes = [line.split(",")[0] for line in handle.read().splitlines()[1:]
                 if line.split(",")[1] == "pipe"]
    frames: list[dict[str, float]] = []
    current = None
    with open(states_path) as handle:
        next(handle)
        for line in handle:
            when, entity, quantity, value = line.rstrip("\r\n").split(",")
            if when != current:
                frames.append({})
                current = when
            if quantity == "arc.flow_kNm3h":
                frames[-1][entity] = float(value) * KNM3H
    evaluated = 0
    for before, after in zip(frames, frames[1:]):
        for pipe in pipes:
            if abs(after[pipe] - before[pipe]) >= MIN_FLOW_CHANGE_M3S:
                evaluated += 1
    return len(pipes) * (len(frames) - 1), evaluated
