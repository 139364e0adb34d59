"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written from scratch with different
algorithms than the package (bisection instead of an explicit formula,
exhaustive search instead of relaxation) so agreement is meaningful.
"""

from __future__ import annotations

from collections import defaultdict, deque
import csv
import math

import numpy as np

from gasinertia.ingest import (
    QUANTITY_FLOW,
    QUANTITY_PRESSURE,
    QUANTITY_RHO,
    QUANTITY_VALVE,
    STATES_COLUMNS,
    TERMS_COLUMNS,
    History,
    ParseError,
    Terms,
    format_timestamp,
    history_columns,
    instant,
    microseconds,
    parse_timestamp,
)
from gasinertia.components import Component, DirectedArc
from gasinertia.model import (BAR, KNM3H, Diagnostics, Element, ElementKind, GasParams,
                              ModelError, Network, StateFrame, validate_normal_density)
from gasinertia.physics import (
    RE_LAMINAR_LIMIT,
    PipeTable,
    TermRecord,
    friction_term_beta,
    inertia_term_alpha,
    remaining_terms_gamma,
    reynolds_number,
)
from gasinertia.thresholds import ThresholdConfig, classify_absolute
from gasinertia.synth import (NEWTON_MAX_ITER, NEWTON_TOL, RESISTOR_DROP_COEFF,
                              SimulationError, _System)


def colebrook_friction(re: float, rr: float, tol: float = 1e-14) -> float:
    """Implicit Colebrook-White friction factor by bisection.

    Solves 1/sqrt(lam) = -2 log10(rr/3.7 + 2.51/(re sqrt(lam))).
    """

    def g(lam: float) -> float:
        inv = 1.0 / math.sqrt(lam)
        return inv + 2.0 * math.log10(rr / 3.7 + 2.51 * inv / re)

    lo, hi = 1e-6, 2.0
    assert g(lo) > 0.0 > g(hi), "bisection bracket failed"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Papay compressibility and Chen friction as plain scalar formulas, written
# from the physics module docstrings rather than taken from the package.
Z_FLOOR_REF = 0.1
RE_LAMINAR_REF = 2320.0
RR_VALIDITY_REF = 0.05


def papay_z(pressure_pa: float, temperature_k: float, p_pc_pa: float,
            t_pc_k: float) -> tuple[float, bool]:
    """Papay z(p, T) clamped at 0.1; returns (z, clamped)."""
    p_r = pressure_pa / p_pc_pa
    t_r = temperature_k / t_pc_k
    z = 1.0 - 3.52 * p_r * math.exp(-2.26 * t_r) + 0.274 * p_r ** 2 * math.exp(-1.878 * t_r)
    return (Z_FLOOR_REF, True) if z < Z_FLOOR_REF else (z, False)


def chen_lambda(re: float, rr: float) -> tuple[float, bool]:
    """Chen friction factor with laminar fallback; returns (lam, out_of_validity)."""
    if re == 0.0:
        return 0.0, False
    if re < RE_LAMINAR_REF:
        return 64.0 / re, False
    a = rr / 3.7065
    b = 5.0452 / re * math.log10(rr ** 1.1098 / 2.8257 + 5.8506 / re ** 0.8981)
    return 1.0 / (2.0 * math.log10(a - b)) ** 2, rr >= RR_VALIDITY_REF


def friction_factor_two_branch(mass_flow_kgs, pipes: PipeTable, gas: GasParams):
    """physics.friction_factor with both branches evaluated and selected
    elementwise, kept as the reference its one-branch path must match bit
    for bit."""
    re = reynolds_number(mass_flow_kgs, pipes, gas)
    re_t = np.maximum(re, RE_LAMINAR_LIMIT)
    inner = pipes.chen_rough + 5.8506 / re_t ** 0.8981
    chen = (-2.0 * np.log10(pipes.chen_offset - 5.0452 / re_t * np.log10(inner))) ** -2.0
    laminar = 64.0 / np.where(re == 0.0, math.inf, re)
    result = np.where(re >= RE_LAMINAR_LIMIT, chen, laminar)
    return result if result.ndim else float(result)


def inertia_alpha(length_m: float, diameter_m: float, rho_n: float, tau_s: float,
                  flow_t0: float, flow_t1: float) -> float:
    area = math.pi * diameter_m ** 2 / 4.0
    return length_m * rho_n * (flow_t1 - flow_t0) / (area * tau_s)


def friction_beta(length_m: float, diameter_m: float, roughness_m: float, rho_n: float,
                  flow_t1: float, p_left: float, p_right: float, temperature_k: float,
                  p_pc_pa: float, t_pc_k: float, viscosity: float
                  ) -> tuple[float, int, int]:
    """beta in Pa at the t1 state; returns (beta, z clamps, validity breaches)."""
    area = math.pi * diameter_m ** 2 / 4.0
    re = abs(rho_n * flow_t1) * diameter_m / (area * viscosity)
    lam, invalid = chen_lambda(re, roughness_m / diameter_m)
    p_m = (p_left + p_right) / 2.0
    z, clamped = papay_z(p_m, temperature_k, p_pc_pa, t_pc_k)
    r_s = 101325.0 / (rho_n * 273.15)
    beta = (lam * r_s * temperature_k * length_m * rho_n ** 2 * abs(flow_t1) * flow_t1
            * z / (2.0 * area ** 2 * diameter_m * p_m))
    return beta, int(clamped), int(invalid)


def enumerate_longest_path(arcs: list[tuple[str, str, float]]) -> float:
    """Longest node-simple directed path weight by exhaustive DFS."""
    adjacency: dict[str, list[tuple[str, float]]] = defaultdict(list)
    nodes: set[str] = set()
    for u, v, w in arcs:
        adjacency[u].append((v, w))
        nodes.update((u, v))
    best = 0.0

    def dfs(node: str, visited: frozenset[str], acc: float) -> None:
        nonlocal best
        if acc > best:
            best = acc
        for neighbor, weight in adjacency[node]:
            if neighbor not in visited:
                dfs(neighbor, visited | {neighbor}, acc + weight)

    for start in nodes:
        dfs(start, frozenset({start}), 0.0)
    return best


def longest_path_all_sources(arcs: list[tuple[str, str, float]]) -> tuple[float, float]:
    """The earlier two-phase longest path, kept as a bit-identity reference.

    Phase one cancels negative cycles of the negated weights in rounds over
    all arcs, as the package did before it cancelled per strongly connected
    component; on inputs without a weighted one both agree bit for bit.
    Phase two runs Bellman-Ford from every node on the cycle-free weights
    and takes the best distance over all sources and targets, instead of
    reading it from the cancellation distances.
    Returns (value, cycle_correction).
    """
    node_ids = sorted({u for u, _, _ in arcs} | {v for _, v, _ in arcs})
    index = {node: i for i, node in enumerate(node_ids)}
    n = len(node_ids)
    edges = [(index[u], index[v]) for u, v, _ in arcs]
    weights = [-w for _, _, w in arcs]

    correction = 0.0
    while True:
        dist = [0.0] * n
        parent_arc = [-1] * n
        touched = -1
        for _ in range(n):
            touched = -1
            for ai, (u, v) in enumerate(edges):
                cand = dist[u] + weights[ai]
                if cand < dist[v]:
                    dist[v] = cand
                    parent_arc[v] = ai
                    touched = v
        if touched < 0:
            break
        node = touched
        for _ in range(n):
            node = edges[parent_arc[node]][0]
        cycle_arcs = []
        cursor = node
        while True:
            ai = parent_arc[cursor]
            cycle_arcs.append(ai)
            cursor = edges[ai][0]
            if cursor == node:
                break
        correction += -sum(weights[ai] for ai in cycle_arcs)
        for ai in cycle_arcs:
            weights[ai] = 0.0

    best = 0.0
    for source in range(n):
        dist = [math.inf] * n
        dist[source] = 0.0
        for _ in range(n - 1):
            changed = False
            for ai, (u, v) in enumerate(edges):
                if dist[u] + weights[ai] < dist[v]:
                    dist[v] = dist[u] + weights[ai]
                    changed = True
            if not changed:
                break
        for target in range(n):
            if target != source and dist[target] < math.inf:
                best = max(best, -dist[target])
    return best + correction, correction


def closure_strong_components(arcs: list[tuple[str, str, float]]) -> list[frozenset[str]]:
    """Strongly connected parts as the classes of mutual reachability,
    read off a transitive closure built by Warshall's algorithm."""
    nodes = sorted({u for u, _, _ in arcs} | {v for _, v, _ in arcs})
    reach = {node: {node} for node in nodes}
    for u, v, _ in arcs:
        reach[u].add(v)
    for via in nodes:
        for node in nodes:
            if via in reach[node]:
                reach[node] |= reach[via]
    return list({frozenset(v for v in reach[node] if node in reach[v]) for node in nodes})


def enumerate_longest_undirected_trail(edges: list[tuple[str, str, float]]) -> float:
    """Longest edge-simple undirected trail weight by exhaustive DFS."""
    nodes = {u for u, _, _ in edges} | {v for _, v, _ in edges}
    best = 0.0

    def dfs(node: str, used: frozenset[int], acc: float) -> None:
        nonlocal best
        if acc > best:
            best = acc
        for index, (u, v, w) in enumerate(edges):
            if index in used:
                continue
            if u == node:
                dfs(v, used | {index}, acc + w)
            elif v == node:
                dfs(u, used | {index}, acc + w)

    for start in nodes:
        dfs(start, frozenset(), 0.0)
    return best


def brute_runs(membership: dict[str, list[int]], consecutive: list[bool]) -> dict[int, int]:
    """Run-length histogram computed by direct scanning."""
    histogram: dict[int, int] = defaultdict(int)
    for indices in membership.values():
        indices = sorted(indices)
        run = 1
        for prev, cur in zip(indices, indices[1:]):
            if cur == prev + 1 and consecutive[prev]:
                run += 1
            else:
                histogram[run] += 1
                run = 1
        histogram[run] += 1
    return dict(histogram)


def space_time_events(stream: list, min_class, min_length: int) -> list[tuple]:
    """Connected components of the space-time graph by breadth-first search.

    Vertices are (pair index, component index) of components of at least
    min_class; an edge joins two of adjacent pairs, the second starting
    where the first ends, whose pipe sets intersect.
    """
    vertices = [(k, ci) for k, (_pair, comps) in enumerate(stream)
                for ci, comp in enumerate(comps) if comp.relevance >= min_class]

    def adjacent(a, b) -> bool:
        (ka, ca), (kb, cb) = sorted((a, b))
        return (kb == ka + 1 and stream[ka][0][1] == stream[kb][0][0]
                and bool(set(stream[ka][1][ca].pipe_ids) & set(stream[kb][1][cb].pipe_ids)))

    seen: set = set()
    events = []
    for start in vertices:
        if start in seen:
            continue
        seen.add(start)
        queue, members = deque([start]), []
        while queue:
            vertex = queue.popleft()
            members.append(vertex)
            for other in vertices:
                if other not in seen and adjacent(vertex, other):
                    seen.add(other)
                    queue.append(other)
        if len(members) >= min_length:
            events.append(tuple(sorted(members)))
    return sorted(events)


def brute_hex_center(x: float, y: float, resolution: float) -> tuple[float, float]:
    """Nearest pointy-top hexagon center by searching a wide lattice patch."""
    dy = 1.5 * resolution
    dx = math.sqrt(3.0) * resolution
    jc = round(y / dy)
    ic = round(x / dx)
    best = None
    for j in range(jc - 3, jc + 4):
        for i in range(ic - 3, ic + 4):
            cx = (i + 0.5 * (j & 1)) * dx
            cy = j * dy
            # squared by a product, which rounds once, like numpy's square
            key = ((x - cx) * (x - cx) + (y - cy) * (y - cy), cx, cy)
            if best is None or key < best:
                best = key
    return best[1], best[2]


def classify_scan_points(stamps: list, frames: list[dict], pipes: dict[str, tuple[str, str]],
                         windows: list[tuple], min_flow_change: float
                         ) -> tuple[dict[str, int], list[tuple[int, str]]]:
    """Scan classes of every (pair, pipe) data point, one point at a time.

    stamps are the frame instants in order; frames[k] maps (quantity,
    entity id) to a value, with "flow" and "rho" keyed by pipe and
    "pressure" by node; pipes maps a pipe id to its (from, to) nodes;
    windows are (pipe id, start, end) and exclude a point when start <=
    t1 < end.  The first rule that applies decides: excluded, missing flow
    or density, below the prefilter |Q(t1) - Q(t0)| < min_flow_change,
    missing end pressure at t1, else evaluated.  Returns the class counts
    and the evaluated points as (pair index, pipe id), pair by pair and
    by pipe id within a pair.
    """
    counts = {"total": 0, "excluded": 0, "missing": 0, "below_prefilter": 0, "evaluated": 0}
    survivors = []
    for k in range(len(frames) - 1):
        before, after = frames[k], frames[k + 1]
        for pipe_id in sorted(pipes):
            counts["total"] += 1
            if any(p == pipe_id and start <= stamps[k + 1] < end for p, start, end in windows):
                counts["excluded"] += 1
                continue
            q0, q1 = before.get(("flow", pipe_id)), after.get(("flow", pipe_id))
            if q0 is None or q1 is None or after.get(("rho", pipe_id)) is None:
                counts["missing"] += 1
            elif abs(q1 - q0) < min_flow_change:
                counts["below_prefilter"] += 1
            elif any(after.get(("pressure", node)) is None for node in pipes[pipe_id]):
                counts["missing"] += 1
            else:
                counts["evaluated"] += 1
                survivors.append((k, pipe_id))
    return counts, survivors


def dense_fd_jacobian(system, x: np.ndarray, r0: np.ndarray, q_prev, tau_s: float,
                      inflow: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of system.residual at x, one residual
    call per column, with the step 1e-7 * max(|x_i|, scale_i), where the
    scale is BAR for the free pressures and 1 for the flows."""
    n = x.size
    jac = np.empty((r0.size, n))
    for i in range(n):
        h = 1e-7 * max(abs(x[i]), BAR if i < system.n_free else 1.0)
        xp = x.copy()
        xp[i] += h
        jac[:, i] = (system.residual(xp, q_prev, tau_s, inflow) - r0) / h
    return jac


class FrozenSystem:
    """synth._System with its residual and Jacobian as they were before the
    end pressures were gathered straight from the unknowns and the Jacobian
    filled on its pattern, kept as the reference for their bits.

    The index arrays, the incidence, the pattern and its grouping are built
    here from the scenario's network and the layout of the system's
    unknowns (free node pressures, then pipe, valve and resistor flows, each
    by id): every node pressure is scattered into a vector, the flows are
    concatenated again, the terms come from friction_term_beta and
    remaining_terms_gamma, and the Jacobian is an np.where over the dense
    pattern.  Every other attribute is the system's, so that simulate runs
    on it when it stands in for synth._System.
    """

    def __init__(self, scenario) -> None:
        self.system = system = _System(scenario)
        network = scenario.network
        node_index = {n: i for i, n in enumerate(system.hydraulic_nodes)}
        self.p_fixed = np.zeros(len(system.hydraulic_nodes))
        for node_id, pressure in scenario.reference_pressure_pa.items():
            self.p_fixed[node_index[node_id]] = pressure
        self.free_index = np.array([node_index[n] for n in system.free_nodes], dtype=int)

        def ends(ids):
            elements = [network.elements[i] for i in ids]
            return (np.array([node_index[e.from_node] for e in elements], dtype=int),
                    np.array([node_index[e.to_node] for e in elements], dtype=int))

        self.pipe_from, self.pipe_to = ends(system.pipe_ids)
        self.valve_from, self.valve_to = ends(system.valve_ids)
        self.res_from, self.res_to = ends(system.resistor_ids)
        self.pipes = PipeTable.of([network.elements[i].geometry for i in system.pipe_ids])
        self.valve_open = np.array([i not in scenario.closed_valves for i in system.valve_ids],
                                   dtype=bool)
        self.rho = scenario.rho_n_kgm3
        self.gas = GasParams(temperature_k=scenario.temperature_k)

        passive = system.pipe_ids + system.valve_ids + system.resistor_ids
        free_pos = {n: i for i, n in enumerate(system.free_nodes)}
        self.incidence = np.zeros((len(free_pos), len(passive)))
        for col, element_id in enumerate(passive):
            element = network.elements[element_id]
            if element.from_node in free_pos:
                self.incidence[free_pos[element.from_node], col] -= 1.0
            if element.to_node in free_pos:
                self.incidence[free_pos[element.to_node], col] += 1.0
        touches = self.incidence != 0.0
        self.pattern = np.block([[touches.T, np.eye(len(passive), dtype=bool)],
                                 [np.zeros((len(free_pos),) * 2, dtype=bool), touches]])
        self.group_of = np.empty(self.pattern.shape[1], dtype=int)
        taken: list[np.ndarray] = []
        for i, rows in enumerate(self.pattern.T):
            g = next((g for g, used in enumerate(taken) if not (used & rows).any()), len(taken))
            if g == len(taken):
                taken.append(np.zeros_like(rows))
            taken[g] |= rows
            self.group_of[i] = g
        self.n_groups = len(taken)

    def __getattr__(self, name: str):
        return getattr(self.system, name)

    def residual(self, x: np.ndarray, q_prev, tau_s: float, inflow: np.ndarray) -> np.ndarray:
        a = self.system.n_free
        b = a + len(self.system.pipe_ids)
        c = b + len(self.system.valve_ids)
        p_free, q_pipe, q_valve, q_res = x[..., :a], x[..., a:b], x[..., b:c], x[..., c:]
        p = np.broadcast_to(self.p_fixed, p_free.shape[:-1] + self.p_fixed.shape).copy()
        p[..., self.free_index] = p_free
        p_l = p[..., self.pipe_from]
        p_r = p[..., self.pipe_to]
        drop = (friction_term_beta(self.pipes, self.gas, self.rho, q_pipe, p_l, p_r)
                + remaining_terms_gamma(self.pipes, self.gas, self.rho, q_pipe, p_l, p_r))
        if q_prev is not None:
            drop = drop + inertia_term_alpha(self.pipes, self.rho, tau_s, q_prev, q_pipe)
        flows = np.concatenate([q_pipe, q_valve, q_res], axis=-1)
        balance = (self.incidence @ flows if flows.ndim == 1
                   else np.array([self.incidence @ f for f in flows]))
        return np.concatenate([
            (p_l - p_r - drop) / BAR,
            np.where(self.valve_open, (p[..., self.valve_from] - p[..., self.valve_to]) / BAR,
                     q_valve),
            (p[..., self.res_from] - p[..., self.res_to]
             - RESISTOR_DROP_COEFF * np.abs(q_res) * q_res) / BAR,
            inflow + balance], axis=-1)

    def jacobian(self, x: np.ndarray, r: np.ndarray, q_prev, tau_s: float,
                 inflow: np.ndarray) -> np.ndarray:
        scale = np.ones(x.size)
        scale[:self.system.n_free] = BAR
        h = 1e-7 * np.maximum(np.abs(x), scale)
        xp = np.repeat(x[None], self.n_groups, axis=0)
        xp[self.group_of, np.arange(x.size)] += h
        dr = self.residual(xp, q_prev, tau_s, inflow) - r
        return np.where(self.pattern, dr[self.group_of].T / h, 0.0)


def newton_frame(system, x: np.ndarray, q_prev, tau_s: float, inflow: np.ndarray,
                 frame_index: int, batched: bool) -> tuple[np.ndarray, bool]:
    """synth._solve_frame as it was before each trial point's residual came
    in one batch with its stepped copies, kept as the reference for the
    bits of simulate: a residual call per trial point and a jacobian call
    per Newton iteration.  batched is ignored."""
    r = system.residual(x, q_prev, tau_s, inflow)
    norm = float(np.max(np.abs(r)))
    if norm < NEWTON_TOL:
        return x, False
    for _iteration in range(NEWTON_MAX_ITER):
        try:
            dx = np.linalg.solve(system.jacobian(x, r, q_prev, tau_s, inflow), -r)
        except np.linalg.LinAlgError:
            raise SimulationError(
                frame_index,
                "singular system; every hydraulic island needs a pressure "
                "reference and an open path to it") from None
        step = 1.0
        for _halving in range(12):
            x_new = x + step * dx
            try:
                r_new = system.residual(x_new, q_prev, tau_s, inflow)
            except ValueError:
                step *= 0.5
                continue
            norm_new = float(np.max(np.abs(r_new)))
            if norm_new < norm or norm_new < NEWTON_TOL:
                break
            step *= 0.5
        else:
            raise SimulationError(frame_index, f"line search stalled at |r| = {norm:.3e}")
        x, r, norm = x_new, r_new, norm_new
        if norm < NEWTON_TOL:
            return x, True
    raise SimulationError(frame_index,
                          f"no convergence in {NEWTON_MAX_ITER} iterations, |r| = {norm:.3e}")


def bfs_groups(elements: list[tuple[str, str, str, str]], relevant: set[str],
               valve_open: dict[str, bool]) -> tuple[list[tuple[list[str], list[str]]], int]:
    """Groups of relevant pipes with their bridges, by breadth-first search.

    elements are (element_id, kind, from_node, to_node) with the kind's
    plain name.  Relevant pipes, valves open at t1 and resistors link
    their two nodes; the links reached from a node form its group.
    Returns the groups that hold a pipe as (pipe ids, bridge ids), both
    sorted, ordered by smallest pipe id, and the number of valves
    without a state.
    """
    links = [e for e in elements
             if (e[1] == "pipe" and e[0] in relevant) or e[1] == "resistor"
             or (e[1] == "valve" and valve_open.get(e[0]))]
    missing = sum(1 for e in elements if e[1] == "valve" and e[0] not in valve_open)
    adjacent: dict[str, list[tuple[str, str, str, str]]] = defaultdict(list)
    for link in links:
        adjacent[link[2]].append(link)
        adjacent[link[3]].append(link)

    groups = []
    seen: set[str] = set()
    for start in adjacent:
        if start in seen:
            continue
        seen.add(start)
        queue, reached = deque([start]), set()
        while queue:
            for link in adjacent[queue.popleft()]:
                reached.add(link)
                for end in link[2:]:
                    if end not in seen:
                        seen.add(end)
                        queue.append(end)
        pipes = sorted(e[0] for e in reached if e[1] == "pipe")
        if pipes:
            groups.append((pipes, sorted(e[0] for e in reached if e[1] != "pipe")))
    return sorted(groups), missing


def parse_states_rows(path: str, network) -> History:
    """ingest.parse_states as a loop over the rows of the file, kept as the
    reference for its arrays, its ParseError lines and their messages.

    Frozen from the loop that read every states file before the window
    reader existed, with read_table's framing written out: the header must
    be STATES_COLUMNS, blank rows are skipped and rows are numbered from 2.
    """
    columns = history_columns(network)
    node_col, arc_col, valve_col, pipe_col = ({key: k for k, key in enumerate(ids)}
                                              for ids in columns)
    stamps, frames = [], []
    current = stamp_text = None
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != STATES_COLUMNS:
            raise ParseError(path, 1,
                             f"expected header {','.join(STATES_COLUMNS)}, got "
                             f"{','.join(header) if header else '<empty>'}")
        for line, row in enumerate(reader, start=2):
            if len(row) != 4:
                if row:
                    raise ParseError(path, line, f"expected 4 columns, got {len(row)}")
                continue
            text, entity, quantity, value_text = row
            if text != stamp_text:
                stamp = parse_timestamp(text, path, line)
                stamp_text = text
                if current is None or stamp != current:
                    if current is not None and stamp <= current:
                        raise ParseError(path, line,
                                         f"timestamps not strictly increasing: "
                                         f"{format_timestamp(stamp)} after "
                                         f"{format_timestamp(current)}")
                    current = stamp
                    stamps.append(stamp)
                    frames.append([[math.nan] * len(ids) for ids in columns])
                    pressure_row, flow_row, valve_row, rho_row = frames[-1]
            try:
                value = float(value_text)
            except ValueError:
                raise ParseError(path, line,
                                 f"invalid number {value_text!r} in column value") from None
            if not math.isfinite(value):
                raise ParseError(path, line, f"non-finite value {value_text!r} for {entity!r}")
            if quantity == QUANTITY_PRESSURE:
                column = node_col.get(entity)
                if column is None:
                    raise ParseError(path, line, f"unknown node {entity!r}")
                if not value > 0.0:
                    raise ParseError(path, line, f"pressure must be positive, got {value}")
                pressure_row[column] = value * BAR
            elif quantity == QUANTITY_FLOW:
                column = arc_col.get(entity)
                if column is None:
                    raise ParseError(path, line, f"unknown element {entity!r}")
                flow_row[column] = value * KNM3H
            elif quantity == QUANTITY_VALVE:
                column = valve_col.get(entity)
                if column is None:
                    raise ParseError(path, line, f"{entity!r} is not a valve")
                valve_row[column] = 1.0 if value != 0.0 else 0.0
            elif quantity == QUANTITY_RHO:
                column = pipe_col.get(entity)
                if column is None:
                    raise ParseError(path, line, f"{entity!r} is not a pipe")
                try:
                    rho_row[column] = validate_normal_density(value)
                except ModelError as exc:
                    raise ParseError(path, line, str(exc)) from None
            else:
                raise ParseError(path, line, f"unknown quantity {quantity!r}")
    arrays = (np.array([rows[q] for rows in frames], dtype=float).reshape(len(frames), len(ids))
              for q, ids in enumerate(columns))
    return History(microseconds(stamps), *columns, *arrays)


def serialize_states_rows(history: History, path: str) -> None:
    """ingest.serialize_states as csv.writer wrote it, one row at a time,
    kept as the reference for the bytes of every states file it writes.

    Frozen from the writer that preceded the preformatted cells, with
    write_table's framing written out: the header, then frame by frame the
    given values in column order (pressures in bar, flows in kNm3/h, valve
    states as 1 or 0, densities), floats written with repr.
    """
    quantities = ((QUANTITY_PRESSURE, history.node_ids, history.pressure_pa / BAR, repr),
                  (QUANTITY_FLOW, history.arc_ids, history.flow_m3s / KNM3H, repr),
                  (QUANTITY_VALVE, history.valve_ids, history.valve_open,
                   lambda state: "1" if state else "0"),
                  (QUANTITY_RHO, history.pipe_ids, history.rho_n, repr))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(STATES_COLUMNS)
        for k, stamp in enumerate(history.timestamps.tolist()):
            text = format_timestamp(instant(stamp))
            for quantity, ids, values, form in quantities:
                for entity, value in zip(ids, values[k].tolist()):
                    if value == value:
                        writer.writerow((text, entity, quantity, form(value)))


def write_terms_rows(terms: Terms, path: str) -> None:
    """ingest.write_terms as csv.writer wrote it, one row at a time, kept
    as the reference for the bytes of every terms file it writes.

    Frozen from the writer that preceded the spelled numbers: the header,
    then per data point its pair's t0 and t1, its pipe id, the seven
    number columns in file units written with repr, and the relevant flag
    as 1 or 0.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TERMS_COLUMNS)
        for i, (k, pipe, flag) in enumerate(zip(terms.pair_index.tolist(),
                                                terms.pipe_index.tolist(),
                                                terms.relevant.tolist())):
            t0, t1 = terms.pairs[k].tolist()
            writer.writerow([format_timestamp(instant(t0)), format_timestamp(instant(t1)),
                             terms.pipes[pipe],
                             *(repr(value) for value in terms.numbers[:, i].tolist()),
                             "1" if flag else "0"])


# ---------------------------------------------------------------------------
# components as objects: records, frames and arcs keyed by id strings, kept
# as the reference that NetworkIndex must match bit for bit

class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        root = x
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


Group = tuple[list[TermRecord], list[Element]]


def group_records(network: Network, records: list[TermRecord], frame_t1: StateFrame,
                  diag: Diagnostics | None = None) -> list[Group]:
    """Relevant-pipe records partitioned into connected groups with their
    bridges, ordered by smallest pipe id, records by pipe id and bridges
    by element id."""
    uf = _UnionFind()
    by_pipe: dict[str, TermRecord] = {}
    for rec in records:
        element = network.elements[rec.pipe_id]
        uf.union(element.from_node, element.to_node)
        by_pipe[rec.pipe_id] = rec

    bridges: list[Element] = []
    for element in network.valves_and_resistors:
        if element.kind is ElementKind.VALVE:
            state = frame_t1.valve_open.get(element.element_id)
            if state is None and diag is not None:
                diag.missing_valve_state += 1
            if not state:
                continue
        uf.union(element.from_node, element.to_node)
        bridges.append(element)

    groups: dict[str, Group] = {}
    for pipe_id in sorted(by_pipe):
        root = uf.find(network.elements[pipe_id].from_node)
        groups.setdefault(root, ([], []))[0].append(by_pipe[pipe_id])
    for element in bridges:
        group = groups.get(uf.find(element.from_node))
        if group is not None:
            group[1].append(element)
    return sorted(groups.values(), key=lambda group: group[0][0].pipe_id)


def orient_arcs(network: Network, group: Group, frame_t0: StateFrame, frame_t1: StateFrame,
                diag: Diagnostics | None = None) -> list[DirectedArc]:
    """A group's arcs, pipes by the sign of alpha, then zero-weight bridges."""
    records, bridges = group
    arcs: list[DirectedArc] = []
    for rec in records:
        element = network.elements[rec.pipe_id]
        if rec.alpha_pa >= 0.0:
            arcs.append(DirectedArc(element.from_node, element.to_node,
                                    abs(rec.alpha_pa), rec.pipe_id))
        else:
            arcs.append(DirectedArc(element.to_node, element.from_node,
                                    abs(rec.alpha_pa), rec.pipe_id))

    for element in bridges:
        forward = backward = True
        if element.kind is ElementKind.RESISTOR:
            drops = []
            for frame in (frame_t0, frame_t1):
                p_from = frame.node_pressure_pa.get(element.from_node)
                p_to = frame.node_pressure_pa.get(element.to_node)
                drops.append(None if p_from is None or p_to is None else p_from - p_to)
            if drops[0] is None or drops[1] is None:
                if diag is not None:
                    diag.missing_resistor_pressure += 1
            else:
                forward = drops[1] >= drops[0]
                backward = drops[1] <= drops[0]
        if forward:
            arcs.append(DirectedArc(element.from_node, element.to_node, 0.0, element.element_id))
        if backward:
            arcs.append(DirectedArc(element.to_node, element.from_node, 0.0, element.element_id))
    return arcs


def _strong_components(n: int, ends: list[tuple[int, int]]) -> list[int]:
    """Tarjan's strongly connected components, labelled by root node."""
    successors: list[list[int]] = [[] for _ in range(n)]
    for u, v in ends:
        successors[u].append(v)
    order, low, component, stack = {}, [0] * n, [-1] * n, []
    for root in range(n):
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack.append(root)
        work = [(root, iter(successors[root]))]
        while work:
            node, pending = work[-1]
            for nxt in pending:
                if nxt not in order:
                    order[nxt] = low[nxt] = len(order)
                    stack.append(nxt)
                    work.append((nxt, iter(successors[nxt])))
                    break
                if component[nxt] < 0:
                    low[node] = min(low[node], order[nxt])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[node])
                if low[node] == order[node]:
                    while component[node] < 0:
                        component[stack.pop()] = node
    return component


def object_longest_path(arcs: list[DirectedArc]) -> tuple[float, float]:
    """components.longest_path_value over arcs keyed by node id strings."""
    node_ids = sorted({a.from_node for a in arcs} | {a.to_node for a in arcs})
    index = {node: i for i, node in enumerate(node_ids)}
    ends = [(index[a.from_node], index[a.to_node]) for a in arcs]
    weights = [-a.weight_pa for a in arcs]
    component = _strong_components(len(node_ids), ends)
    inside: dict[int, list[int]] = {}
    for ai, (u, v) in enumerate(ends):
        if component[u] == component[v]:
            inside.setdefault(component[u], []).append(ai)
    weighted = [arc_ids for arc_ids in inside.values() if any(weights[ai] for ai in arc_ids)]

    correction = 0.0
    for arc_ids in weighted + [range(len(ends))]:
        n = len({node for ai in arc_ids for node in ends[ai]})
        while True:
            dist, parent_arc = [0.0] * len(node_ids), [-1] * len(node_ids)
            for _ in range(n):
                touched = -1
                for ai in arc_ids:
                    u, v = ends[ai]
                    cand = dist[u] + weights[ai]
                    if cand < dist[v]:
                        dist[v] = cand
                        parent_arc[v] = ai
                        touched = v
                if touched < 0:
                    break
            if touched < 0:
                break
            node = touched
            for _ in range(n):
                node = ends[parent_arc[node]][0]
            cycle_arcs = [parent_arc[node]]
            while ends[cycle_arcs[-1]][0] != node:
                cycle_arcs.append(parent_arc[ends[cycle_arcs[-1]][0]])
            correction -= sum(weights[ai] for ai in cycle_arcs)
            for ai in cycle_arcs:
                weights[ai] = 0.0
    return -min(dist) + correction, correction


def object_components(network: Network, records: list[TermRecord], frame_t0: StateFrame,
                      frame_t1: StateFrame, cfg: ThresholdConfig,
                      diag: Diagnostics | None = None) -> list[Component]:
    """components.build_pair_components as group_records, orient_arcs and
    object_longest_path."""
    components = []
    for group in group_records(network, records, frame_t1, diag):
        value, correction = object_longest_path(
            orient_arcs(network, group, frame_t0, frame_t1, diag))
        members = group[0]
        components.append(Component(
            pipe_ids=tuple(rec.pipe_id for rec in members),
            longest_path_pa=value,
            cycle_correction_pa=correction,
            relevance=classify_absolute(value, cfg),
            max_abs_dflow_m3s=max(abs(rec.dflow_m3s) for rec in members),
        ))
    return components
