"""Synthetic state histories from small reference networks.

A scenario picks a fixture topology, a frame count and a boundary
schedule.  Each hydraulically connected island needs one pressure
reference node; the remaining boundary nodes carry signed inflow
setpoints (negative = offtake).  Frame 0 is solved as a steady state;
every later frame solves the implicit Euler system in which each pipe
obeys the discretized momentum balance of the physics module against the
previous frame and every free node balances its flows.  Open valves equalize endpoint
pressures, resistors add a small quadratic drop, closed valves block
flow, and actively controlled elements transfer nothing.

The solver is a damped Newton iteration on a vectorized residual with
forward-difference Jacobians: unknowns that share no residual row are
stepped together (Curtis, Powell & Reid 1974), so a point and one stepped
copy of it per group go through one batched residual call however large
the network, and meshed networks converge as chains do.  Each trial point
goes so: accepted short of convergence, its copies give the next Jacobian,
and an iteration costs one call.  Frames whose residual is already
converged are emitted without a solve, and their successors' first
residuals are not batched, so quiet stretches cost one row per frame.

A residual call gathers every arc's end pressures straight from the free
pressures and the reference pressures, takes the flows as a view of the
unknowns, and evaluates friction and remainder in one call that computes
the pressure check, R_s T, the mean pressure and its compressibility once,
and z/p once per node.  The Jacobian is a zero matrix filled on its pattern
only.  Every expression keeps its order of operations, so the files synth
writes are byte-identical to those of the scatter-and-mask evaluation and
of the Newton loop with a call per trial and per Jacobian that
tests/oracles.py keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
import math

import numpy as np

from .model import (
    BAR,
    KNM3H,
    Element,
    ElementKind,
    GasParams,
    ModelError,
    Network,
    Node,
    PipeGeometry,
    validate_normal_density,
)
from .physics import PipeTable, friction_and_remainder, inertia_term_alpha
from .ingest import (History, ParseError, history_columns, microseconds, parse_timestamp,
                     read_settings)

# fixed quadratic drop coefficient of synthetic resistors, Pa/(m^3/s)^2
RESISTOR_DROP_COEFF = 1.0e3

NEWTON_TOL = 1.0e-11
NEWTON_MAX_ITER = 50

DEFAULT_START = datetime(2026, 1, 1, tzinfo=timezone.utc)


class SimulationError(RuntimeError):
    """Raised when the implicit solve fails; carries the frame index."""

    def __init__(self, frame_index: int, message: str) -> None:
        super().__init__(f"frame {frame_index}: {message}")
        self.frame_index = frame_index


@dataclass(frozen=True)
class BoundaryEvent:
    """From frame_index onward the node's inflow setpoint becomes value."""

    node_id: str
    frame_index: int
    inflow_m3s: float


@dataclass(frozen=True)
class Scenario:
    name: str
    network: Network
    reference_pressure_pa: dict[str, float]
    base_inflow_m3s: dict[str, float]
    events: tuple[BoundaryEvent, ...] = ()
    frames: int = 10
    tau_s: float = 180.0
    start: datetime = DEFAULT_START
    rho_n_kgm3: float = 0.85
    temperature_k: float = 283.15
    noise: float = 0.0
    seed: int = 0
    closed_valves: frozenset[str] = frozenset()

    def inflow_at(self, node_id: str, frame_index: int) -> float:
        value = self.base_inflow_m3s.get(node_id, 0.0)
        for event in self.events:
            if event.node_id == node_id and event.frame_index <= frame_index:
                value = event.inflow_m3s
        return value


# ---------------------------------------------------------------------------
# fixtures

def _chain(prefix: str, count: int, length_m: float, diameter_m: float,
           roughness_m: float = 1e-5) -> tuple[list[Node], list[Element]]:
    nodes = [Node(f"{prefix}{i}") for i in range(count + 1)]
    geometry = PipeGeometry(length_m=length_m, diameter_m=diameter_m,
                            roughness_m=roughness_m)
    elements = [Element(f"{prefix}p{i}", ElementKind.PIPE,
                        f"{prefix}{i}", f"{prefix}{i + 1}", geometry)
                for i in range(count)]
    return nodes, elements


def fixture_single50() -> tuple[Network, dict[str, float], dict[str, float]]:
    """One flat 50 km pipe, reference upstream, offtake downstream."""
    nodes, elements = _chain("s", 1, 50e3, 0.9)
    network = Network.build(nodes, elements)
    return network, {"s0": 60.0 * BAR}, {"s1": -20.0 * KNM3H}


def fixture_line3() -> tuple[Network, dict[str, float], dict[str, float]]:
    """Three 10 km pipes in a row."""
    nodes, elements = _chain("n", 3, 10e3, 0.5)
    network = Network.build(nodes, elements)
    return network, {"n0": 60.0 * BAR}, {"n3": -10.0 * KNM3H}


def fixture_funnel50() -> tuple[Network, dict[str, float], dict[str, float]]:
    """Fifty pipes in seven hydraulically independent islands.

    Chains a and g and ring f provide bulk and transients, single-pipe
    islands b, c, d host cleanly shaped flow-change events, and island e
    carries a valve and a resistor.  Regulators and compressors tie the
    islands into one drawing without transferring gas.
    """
    nodes: list[Node] = []
    elements: list[Element] = []

    for prefix, count, length_m, diameter_m in (
            ("a", 15, 10e3, 0.6),
            ("b", 1, 40e3, 0.6),
            ("c", 1, 50e3, 0.8),
            ("d", 1, 20e3, 0.9),
            ("g", 11, 8e3, 0.4)):
        ns, es = _chain(prefix, count, length_m, diameter_m)
        nodes.extend(ns)
        elements.extend(es)

    # island e: two chains joined by a valve and a resistor
    nodes.extend(Node(f"e{i}") for i in range(8))
    e_geo = PipeGeometry(length_m=5e3, diameter_m=0.3, roughness_m=1e-5)
    e_pipes = [("ep0", "e0", "e1"), ("ep1", "e2", "e3"), ("ep2", "e4", "e5"),
               ("ep3", "e5", "e6"), ("ep4", "e6", "e7")]
    elements.extend(Element(eid, ElementKind.PIPE, a, b, e_geo) for eid, a, b in e_pipes)
    elements.append(Element("ev", ElementKind.VALVE, "e1", "e2"))
    elements.append(Element("er", ElementKind.RESISTOR, "e3", "e4"))

    # island f: ring of 16 pipes
    nodes.extend(Node(f"f{i}") for i in range(16))
    f_geo = PipeGeometry(length_m=5e3, diameter_m=0.4, roughness_m=1e-5)
    elements.extend(Element(f"fp{i}", ElementKind.PIPE, f"f{i}", f"f{(i + 1) % 16}", f_geo)
                    for i in range(16))

    # inert couplings between the islands
    elements.append(Element("reg_ab", ElementKind.REGULATOR, "a15", "b0"))
    elements.append(Element("reg_bc", ElementKind.REGULATOR, "b1", "c0"))
    elements.append(Element("comp_cd", ElementKind.COMPRESSOR, "c1", "d0"))
    elements.append(Element("reg_de", ElementKind.REGULATOR, "d1", "e0"))
    elements.append(Element("comp_ef", ElementKind.COMPRESSOR, "e7", "f0"))
    elements.append(Element("reg_fg", ElementKind.REGULATOR, "f8", "g0"))

    network = Network.build(nodes, elements)
    references = {name: 60.0 * BAR for name in ("a0", "b0", "c0", "d0", "e0", "f0", "g0")}
    inflow = {"a15": -14.4 * KNM3H, "b1": -14.4 * KNM3H, "c1": -14.4 * KNM3H,
              "d1": -14.4 * KNM3H, "e7": -3.6 * KNM3H, "f8": -7.2 * KNM3H,
              "g11": -5.4 * KNM3H}
    return network, references, inflow


FIXTURES = {
    "single50": fixture_single50,
    "line3": fixture_line3,
    "funnel50": fixture_funnel50,
}


# scalar scenario keys: Scenario field and value type; absent keys keep
# the field's default
_SCALARS = {"frames": ("frames", int), "tau_s": ("tau_s", float),
            "temperature_K": ("temperature_k", float),
            "rho_n_kgNm3": ("rho_n_kgm3", float), "noise": ("noise", float),
            "seed": ("seed", int), "start": ("start", parse_timestamp)}


def _scalar(path: str, line: int, key: str, value: str):
    """The value of a scalar key.  Numbers are finite: noise and seed
    non-negative, rho_n_kgNm3 inside the accepted band, the rest positive."""
    kind = _SCALARS[key][1]
    if key == "start":
        return parse_timestamp(value, path, line)
    try:
        number = kind(value)
    except ValueError:
        raise ParseError(path, line, f"bad {key} {value!r}") from None
    bound = "non-negative" if key in ("noise", "seed") else "positive"
    if key == "rho_n_kgNm3":
        try:
            validate_normal_density(number)
        except ModelError as exc:
            raise ParseError(path, line, str(exc)) from None
    elif not (0 < number < math.inf or (number == 0 and bound == "non-negative")):
        raise ParseError(path, line, f"{key} must be {bound} and finite, got {value}")
    return number


def parse_scenario(path: str) -> Scenario:
    """Read a key = value scenario file.

    Recognized keys: fixture, frames, tau_s, temperature_K, rho_n_kgNm3,
    noise, seed, start, closed_valve (repeatable), pressure (node bar,
    repeatable) and event (node frame inflow_kNm3h, repeatable; any node
    but a pressure reference, where it makes a new inflow or offtake).
    Errors name the line of the offending key; a missing fixture key is
    reported at line 0.
    """
    fixture: tuple[int, str] | None = None
    scalars: dict[str, object] = {}
    events: list[tuple[int, BoundaryEvent]] = []
    pressures: list[tuple[int, str, float]] = []
    closed: dict[str, int] = {}
    for line, key, value in read_settings(path):
        if key == "event":
            try:
                node_id, frame, inflow = value.split()
                events.append((line, BoundaryEvent(node_id, int(frame), float(inflow) * KNM3H)))
            except ValueError:
                raise ParseError(path, line, f"bad event {value!r}, "
                                             "expected: node frame inflow_kNm3h") from None
            if not math.isfinite(events[-1][1].inflow_m3s):
                raise ParseError(path, line, f"event inflow must be finite, got {inflow}")
        elif key == "pressure":
            try:
                node_id, bar_text = value.split()
                bar = float(bar_text)
            except ValueError:
                raise ParseError(path, line,
                                 f"bad pressure {value!r}, expected: node bar") from None
            if not 0.0 < bar < math.inf:
                raise ParseError(path, line,
                                 f"pressure must be positive and finite, got {bar_text}")
            pressures.append((line, node_id, bar * BAR))
        elif key == "closed_valve":
            closed.setdefault(value, line)
        elif key == "fixture":
            fixture = (line, value)
        elif key in _SCALARS:
            scalars[_SCALARS[key][0]] = _scalar(path, line, key, value)
        else:
            raise ParseError(path, line, f"unknown key {key!r}")
    if fixture is None:
        raise ParseError(path, 0, "scenario requires a fixture key")
    fixture_line, fixture_name = fixture
    if fixture_name not in FIXTURES:
        raise ParseError(path, fixture_line,
                         f"unknown fixture {fixture_name!r}, "
                         f"available: {', '.join(sorted(FIXTURES))}")
    network, references, inflow = FIXTURES[fixture_name]()
    for line, node_id, pressure in pressures:
        if node_id not in network.nodes:
            raise ParseError(path, line, f"pressure references unknown node {node_id!r}")
        if node_id in inflow:
            raise ParseError(path, line, f"pressure node {node_id!r} has an inflow setpoint")
        references[node_id] = pressure
    scenario = Scenario(
        name=fixture_name,
        network=network,
        reference_pressure_pa=references,
        base_inflow_m3s=inflow,
        events=tuple(event for _line, event in events),
        closed_valves=frozenset(closed),
        **scalars,
    )
    for line, event in events:
        if event.node_id not in network.nodes:
            raise ParseError(path, line, f"event references unknown node {event.node_id!r}")
        if event.node_id in references:
            raise ParseError(path, line, f"event node {event.node_id!r} is a pressure reference")
        if not 0 <= event.frame_index < scenario.frames:
            raise ParseError(path, line,
                             f"event frame {event.frame_index} outside 0..{scenario.frames - 1}")
    for valve_id, line in closed.items():
        element = network.elements.get(valve_id)
        if element is None or element.kind is not ElementKind.VALVE:
            raise ParseError(path, line, f"closed_valve {valve_id!r} is not a valve")
    return scenario


# ---------------------------------------------------------------------------
# implicit solver

class _System:
    """Index layout and vectorized residual of one scenario."""

    def __init__(self, scenario: Scenario) -> None:
        network = scenario.network
        self.pipe_ids = sorted(network.pipes())
        self.valve_ids = sorted(network.of_kind(ElementKind.VALVE))
        self.resistor_ids = sorted(network.of_kind(ElementKind.RESISTOR))
        passive = self.pipe_ids + self.valve_ids + self.resistor_ids

        node_set: set[str] = set()
        for element_id in passive:
            element = network.elements[element_id]
            node_set.add(element.from_node)
            node_set.add(element.to_node)
        self.hydraulic_nodes = sorted(node_set)
        for node_id in scenario.reference_pressure_pa:
            if node_id not in node_set:
                raise ValueError(f"reference node {node_id!r} touches no passive element")

        self.free_nodes = [n for n in self.hydraulic_nodes
                           if n not in scenario.reference_pressure_pa]
        self.reference_nodes = [n for n in self.hydraulic_nodes
                                if n in scenario.reference_pressure_pa]
        self.flow_nodes = sorted(set(scenario.base_inflow_m3s)
                                 | {event.node_id for event in scenario.events})
        self.free_pos = {n: i for i, n in enumerate(self.free_nodes)}
        for node_id in self.flow_nodes:
            if node_id not in self.free_pos:
                raise ValueError(
                    f"inflow node {node_id!r} must be a free hydraulic node")
        self.p_ref = np.array([scenario.reference_pressure_pa[n] for n in self.reference_nodes])

        self.n_free = len(self.free_nodes)
        self.n_pipe = len(self.pipe_ids)
        self.n_valve = len(self.valve_ids)
        self.n_res = len(self.resistor_ids)
        self.n_unknowns = self.n_free + self.n_pipe + self.n_valve + self.n_res

        # unknowns: free node pressures, then the flows of passive in its
        # order; residual rows: one per arc of passive, then the balances
        elements = [network.elements[element_id] for element_id in passive]
        self.pipes = PipeTable.of([e.geometry for e in elements[:self.n_pipe]])
        # positions in [p_free | p_ref] of every arc's from node, then of
        # every arc's to node
        at = {n: i for i, n in enumerate(self.free_nodes + self.reference_nodes)}
        self.ends = np.array([at[e.from_node] for e in elements]
                             + [at[e.to_node] for e in elements], dtype=int)
        self.pipe_ends = self.ends.reshape(2, -1)[:, :self.n_pipe].ravel()
        self.valve_open = np.array([vid not in scenario.closed_valves
                                    for vid in self.valve_ids], dtype=bool)
        # a closed valve's row is its flow, at the same position among the
        # rows as among the flows
        self.closed_rows = self.n_pipe + np.flatnonzero(~self.valve_open)

        self.rho = scenario.rho_n_kgm3
        self.gas = GasParams(temperature_k=scenario.temperature_k)

        # free-node balance over all passive arcs: an arc's flow leaves its
        # from node and enters its to node
        self.incidence = np.zeros((self.n_free, len(passive)))
        for col, element in enumerate(elements):
            if element.from_node in self.free_pos:
                self.incidence[self.free_pos[element.from_node], col] -= 1.0
            if element.to_node in self.free_pos:
                self.incidence[self.free_pos[element.to_node], col] += 1.0

        # rows each unknown enters: an arc row through its free end
        # pressures and its own flow, a balance row through the flows of
        # its arcs
        touches = self.incidence != 0.0
        self.pattern = np.block([[touches.T, np.eye(len(passive), dtype=bool)],
                                 [np.zeros((self.n_free, self.n_free), dtype=bool), touches]])
        # greedy grouping: no two unknowns of a group enter the same row
        self.group_of = np.empty(self.n_unknowns, dtype=int)
        taken: list[np.ndarray] = []
        for i, rows in enumerate(self.pattern.T):
            g = next((g for g, used in enumerate(taken) if not (used & rows).any()), len(taken))
            if g == len(taken):
                taken.append(np.zeros_like(rows))
            taken[g] |= rows
            self.group_of[i] = g
        self.groups = [np.flatnonzero(self.group_of == g).tolist() for g in range(len(taken))]

        # forward differences: the step floor of each unknown, the flat
        # position of each unknown's step in a batch of x and its copies, and
        # per entry of pattern its flat position in the Jacobian and in the
        # copies' residuals, its row and its column
        n = self.n_unknowns
        self.step_floor = np.where(np.arange(n) < self.n_free, BAR, 1.0)
        self.steps = (1 + self.group_of) * n + np.arange(n)
        self.entry_rows, self.entry_cols = np.nonzero(self.pattern)
        self.entries = self.entry_rows * n + self.entry_cols
        self.entry_diffs = self.group_of[self.entry_cols] * n + self.entry_rows

    def residual(self, x: np.ndarray, q_prev: np.ndarray | None,
                 tau_s: float, inflow: np.ndarray) -> np.ndarray:
        """Scaled residual: momentum rows in bar, balance rows in m^3/s.  A
        batch of x, one per row, gives each row's residual bit for bit."""
        n_arcs = self.n_unknowns - self.n_free
        pipes, resistors = slice(0, self.n_pipe), slice(self.n_pipe + self.n_valve, n_arcs)
        flows = x[..., self.n_free:]
        q_pipe, q_res = flows[..., pipes], flows[..., resistors]
        p_ref = np.broadcast_to(self.p_ref, x.shape[:-1] + self.p_ref.shape)
        nodes = np.concatenate([x[..., :self.n_free], p_ref], axis=-1)
        ends = nodes.take(self.ends, axis=-1)
        p_from, p_to = ends[..., :n_arcs], ends[..., n_arcs:]
        beta, gamma = friction_and_remainder(self.pipes, self.gas, self.rho, q_pipe, nodes,
                                             self.pipe_ends)
        drop = beta + gamma
        if q_prev is not None:
            drop = drop + inertia_term_alpha(self.pipes, self.rho, tau_s, q_prev, q_pipe)
        # the from end's pressure less the to end's, less the arc's drop
        arcs = p_from - p_to
        arcs[..., pipes] -= drop
        arcs[..., resistors] -= RESISTOR_DROP_COEFF * np.abs(q_res) * q_res
        r = np.empty(x.shape)
        np.divide(arcs, BAR, out=r[..., :n_arcs])
        r[..., self.closed_rows] = flows[..., self.closed_rows]
        # a product per row: one over the batch may sum in another order
        balance = (self.incidence @ flows if flows.ndim == 1
                   else np.array([self.incidence @ f for f in flows]))
        np.add(inflow, balance, out=r[..., n_arcs:])
        return r

    def perturbed(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x and a copy per group with the group's unknowns stepped, and the steps."""
        h = 1e-7 * np.maximum(np.abs(x), self.step_floor)
        batch = np.repeat(x[None], 1 + len(self.groups), axis=0)
        batch.ravel()[self.steps] += h
        return batch, h

    def fill(self, r: np.ndarray, stepped: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The Jacobian from the residuals of x and its copies, filled on pattern."""
        jac = np.zeros(r.size * r.size)
        jac[self.entries] = ((stepped.take(self.entry_diffs) - r.take(self.entry_rows))
                             / h.take(self.entry_cols))
        return jac.reshape(r.size, r.size)

    def jacobian(self, x: np.ndarray, r: np.ndarray, q_prev: np.ndarray | None,
                 tau_s: float, inflow: np.ndarray) -> np.ndarray:
        """The Jacobian at x, whose residual is r, in one batched residual call."""
        batch, h = self.perturbed(x)
        return self.fill(r, self.residual(batch[1:], q_prev, tau_s, inflow), h)


def _solve_frame(system: _System, x: np.ndarray, q_prev: np.ndarray | None,
                 tau_s: float, inflow: np.ndarray, frame_index: int,
                 batched: bool) -> tuple[np.ndarray, bool]:
    """The solution of a frame from x, and whether it took a Newton step;
    x's residual comes in a batch with its stepped copies if batched."""
    args = (q_prev, tau_s, inflow)
    if batched:
        batch, h = system.perturbed(x)
        rb = system.residual(batch, *args)
        r = rb[0]
    else:
        r = system.residual(x, *args)
    norm = float(np.max(np.abs(r)))
    if norm < NEWTON_TOL:
        return x, False
    jac = system.fill(r, rb[1:], h) if batched else system.jacobian(x, r, *args)
    for _iteration in range(NEWTON_MAX_ITER):
        try:
            dx = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            raise SimulationError(
                frame_index,
                "singular system; every hydraulic island needs a pressure "
                "reference and an open path to it") from None
        step = 1.0
        for _halving in range(12):
            batch, h = system.perturbed(x + step * dx)
            try:
                rb = system.residual(batch, *args)
            except ValueError:
                # a trial step to a non-positive pressure is rejected like a
                # step that fails to reduce the residual; its copies' pressures
                # are higher, so the batch fails exactly when the trial does
                step *= 0.5
                continue
            norm_new = float(np.max(np.abs(rb[0])))
            if norm_new < norm or norm_new < NEWTON_TOL:
                break
            step *= 0.5
        else:
            raise SimulationError(frame_index, f"line search stalled at |r| = {norm:.3e}")
        x, r, norm = batch[0], rb[0], norm_new
        if norm < NEWTON_TOL:
            return x, True
        jac = system.fill(r, rb[1:], h)
    raise SimulationError(frame_index,
                          f"no convergence in {NEWTON_MAX_ITER} iterations, |r| = {norm:.3e}")


def simulate(scenario: Scenario) -> History:
    """Generate the state history of a scenario.

    One frame per time step gives pressures at hydraulic nodes, flows on
    passive arcs, valve states and per-pipe normal density; the other
    entries stay NaN.  Identical scenarios (including seed) produce
    identical histories.
    """
    system = _System(scenario)
    n = scenario.frames
    columns = history_columns(scenario.network)
    node_ids, arc_ids, _valve_ids, pipe_ids = columns
    pressure = np.full((n, len(node_ids)), np.nan)
    flow = np.full((n, len(arc_ids)), np.nan)
    # positions among the sorted ids of the unknowns the solver gives
    free = np.searchsorted(node_ids, system.free_nodes)
    pressure[:, np.searchsorted(node_ids, system.reference_nodes)] = system.p_ref
    passive = np.searchsorted(arc_ids, system.pipe_ids + system.valve_ids + system.resistor_ids)
    rng = np.random.default_rng(scenario.seed)
    mean_ref = float(np.mean(list(scenario.reference_pressure_pa.values())))

    x = np.empty(system.n_unknowns)
    x[:system.n_free] = mean_ref
    x[system.n_free:] = 0.1

    q_prev: np.ndarray | None = None
    # a frame's first residual is batched unless the frame before was
    solved = True
    for k in range(n):
        inflow = np.zeros(system.n_free)
        for node_id in system.flow_nodes:
            value = scenario.inflow_at(node_id, k)
            if scenario.noise > 0.0:
                value *= 1.0 + scenario.noise * rng.standard_normal()
            inflow[system.free_pos[node_id]] = value

        x, solved = _solve_frame(system, x, q_prev, scenario.tau_s, inflow, k, solved)
        q_prev = x[system.n_free:system.n_free + system.n_pipe].copy()
        # x holds pipe, valve and resistor flows in the order of passive
        pressure[k, free] = x[:system.n_free]
        flow[k, passive] = x[system.n_free:]

    # the solver orders valves and pipes by id, as the columns do
    return History(
        microseconds(scenario.start + timedelta(seconds=k * scenario.tau_s) for k in range(n)),
        *columns, pressure, flow,
        np.tile(system.valve_open.astype(float), (n, 1)),
        np.full((n, len(pipe_ids)), scenario.rho_n_kgm3))

