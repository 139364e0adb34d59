"""Connected structures of relevant pipes and their longest-path measure.

For one time pair, pipes with a relevant inertia term are grouped into
connected components.  Open valves and resistors bridge groups without
contributing weight; regulators and compressors never bridge.  Each
component is then read as a directed multigraph (pipes oriented by the
sign of alpha) and summarized by the value of its longest directed path
of |alpha|, a first-order estimate of the pressure error from dropping
the inertia terms along one route.

NetworkIndex does all three over integer node, pipe and bridge indices,
the network's tables made once per run; build_pair_components and
longest_path_value give its results for records, frames and arcs.  A
component does not hold its pair: a Stream holds each pair once, as its
t0 and t1 in int64 microseconds, with the pair's components.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math

from .model import (
    BAR,
    Diagnostics,
    ElementKind,
    KNM3H,
    Network,
    StateFrame,
)
from .ingest import (ParseError, format_timestamp, history_columns, instant, parse_instants,
                     read_table, write_table)
from .physics import TermRecord
from .thresholds import RelevanceClass, ThresholdConfig, classify_absolute


@dataclass(frozen=True)
class DirectedArc:
    from_node: str
    to_node: str
    weight_pa: float
    element_id: str

    def __post_init__(self) -> None:
        if self.weight_pa < 0.0:
            raise ValueError(f"arc weight must be >= 0, got {self.weight_pa}")


@dataclass(frozen=True)
class Component:
    """One connected group of relevant pipes over one time pair."""

    pipe_ids: tuple[str, ...]
    longest_path_pa: float
    cycle_correction_pa: float
    relevance: RelevanceClass
    max_abs_dflow_m3s: float


# chronological (pair, its components) entries, a pair's t0 and t1 instants
# as a History holds them
Stream = list[tuple[tuple[int, int], list[Component]]]


class NetworkIndex:
    """The tables components are built from, made once per run: nodes
    numbered in sorted id order, each pipe's end nodes in sorted pipe id
    order, and each valve and resistor, the bridges, in sorted element id
    order with its end nodes and its columns in the rows a pair is built
    from, pressures over pressure_ids and valve states over valve_ids."""

    def __init__(self, network: Network, pressure_ids: tuple[str, ...],
                 valve_ids: tuple[str, ...]) -> None:
        node = {node_id: i for i, node_id in enumerate(sorted(network.nodes))}
        self.nodes = len(node)
        self.pipe_ids = tuple(sorted(network.pipes()))
        self.pipe_ends = [(node[network.elements[pipe_id].from_node],
                           node[network.elements[pipe_id].to_node]) for pipe_id in self.pipe_ids]
        column = {node_id: k for k, node_id in enumerate(pressure_ids)}
        valve_column = {valve_id: k for k, valve_id in enumerate(valve_ids)}
        # (from, to, a valve's state column, None if no row gives its state,
        # or a resistor's end pressure columns)
        self.bridges = [(node[el.from_node], node[el.to_node],
                         valve_column.get(el.element_id) if el.kind is ElementKind.VALVE
                         else (column[el.from_node], column[el.to_node]))
                        for el in network.valves_and_resistors]

    def pair_components(self, positions: list[int], alpha_pa: list[float],
                        dflow_m3s: list[float], valve_t1: list[float], pressure_t0: list[float],
                        pressure_t1: list[float], cfg: ThresholdConfig,
                        diag: Diagnostics | None = None) -> list[Component]:
        """The components of a pair from its relevant pipes, at positions of
        pipe_ids with their alpha and flow change, and its valve states at
        t1 and pressures at t0 and t1, where NaN marks a value not given.

        Relevant pipes, valves open at t1 (a missing state counts as
        closed, with a diagnostic) and resistors merge nodes; actively
        controlled elements never do.  A group's arcs are its pipes by id,
        pointing with the sign of alpha (positive keeps the from/to
        direction) and weighing |alpha|, then the bridges it merged by id,
        at zero weight: an open valve both ways, a resistor the way its
        pressure drop moved from t0 to t1, or both ways when the drop held
        or an end pressure is missing (with a diagnostic).  Groups come by
        smallest pipe id.
        """
        parent = list(range(self.nodes))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        order = sorted(range(len(positions)), key=positions.__getitem__)
        merged = []
        for bridge in self.bridges:
            if not isinstance(given := bridge[2], tuple):
                state = math.nan if given is None else valve_t1[given]
                if state != state and diag is not None:
                    diag.missing_valve_state += 1
                if state != 1.0:
                    continue
            merged.append(bridge)
        for u, v, *_ in [self.pipe_ends[positions[i]] for i in order] + merged:
            parent[find(v)] = find(u)

        groups: dict[int, tuple[list[int], list[tuple]]] = {}
        for i in order:
            groups.setdefault(find(self.pipe_ends[positions[i]][0]), ([], []))[0].append(i)
        for bridge in merged:
            if (group := groups.get(find(bridge[0]))) is not None:
                group[1].append(bridge)

        components = []
        for members, bridges in groups.values():
            arcs = [(u, v, -abs(a)) if a >= 0.0 else (v, u, -abs(a)) for (u, v), a in
                    ((self.pipe_ends[positions[i]], alpha_pa[i]) for i in members)]
            for u, v, given in bridges:
                forward = backward = True
                if isinstance(given, tuple):
                    p = [row[k] for row in (pressure_t0, pressure_t1) for k in given]
                    if any(x != x for x in p):
                        if diag is not None:
                            diag.missing_resistor_pressure += 1
                    else:
                        forward, backward = p[2] - p[3] >= p[0] - p[1], p[2] - p[3] <= p[0] - p[1]
                arcs += [(u, v, -0.0)] * forward + [(v, u, -0.0)] * backward
            value, correction = _longest_path(arcs)
            components.append(Component(
                tuple(self.pipe_ids[positions[i]] for i in members), value, correction,
                classify_absolute(value, cfg), max(abs(dflow_m3s[i]) for i in members)))
        return components


def _strong_components(n: int, ends: list[tuple[int, int]]) -> list[int]:
    """Strongly connected component of every node, labelled by its root node
    (Tarjan, SIAM J. Comput. 1, 1972; an explicit stack replaces recursion)."""
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
                if component[nxt] < 0:  # still on the stack
                    low[node] = min(low[node], order[nxt])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[node])
                if low[node] == order[node]:
                    while component[node] < 0:
                        component[stack.pop()] = node
    return component


def _longest_path(arcs: list[tuple]) -> tuple[float, float]:
    """longest_path_value of arcs given as (from node, to node, negated
    weight), their nodes numbered in sorted order."""
    index = {node: i for i, node in enumerate(sorted({a[0] for a in arcs} | {a[1] for a in arcs}))}
    ends = [(index[u], index[v]) for u, v, _ in arcs]
    weights = [w for _, _, w in arcs]
    component = _strong_components(len(index), ends)
    inside: dict[int, list[int]] = {}
    for ai, (u, v) in enumerate(ends):
        if component[u] == component[v]:
            inside.setdefault(component[u], []).append(ai)
    weighted = [arc_ids for arc_ids in inside.values() if any(weights[ai] for ai in arc_ids)]

    correction = 0.0
    for arc_ids in weighted + [range(len(ends))]:
        n = len({node for ai in arc_ids for node in ends[ai]})
        while True:
            # the round's arcs in arc order, with their weights as cancelled so far
            rows = [(ai, *ends[ai], weights[ai]) for ai in arc_ids]
            dist, parent_arc = [0.0] * len(index), [-1] * len(index)
            for _ in range(n):
                touched = -1
                for ai, u, v, w in rows:
                    cand = dist[u] + w
                    if cand < dist[v]:
                        dist[v] = cand
                        parent_arc[v] = ai
                        touched = v
                if touched < 0:
                    break
            if touched < 0:
                break
            # walk n parents back to land inside the cycle, then extract it
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


def longest_path_value(arcs: list[DirectedArc]) -> tuple[float, float]:
    """Longest directed path weight over a non-negative multigraph.

    Works on negated weights with Bellman-Ford from a virtual source
    joined to every node, so all distances start at zero.  Cycles lie
    inside strongly connected components, so cancellation rounds run over
    the arcs inside each such component that carries weight; those whose
    arcs all weigh zero hold only open valves and resistors and are
    skipped.  A round that still relaxes after n passes (n the nodes of
    its arcs) exposes a negative cycle through the parent arcs; its
    absolute weight is added to a correction term, its arcs are zeroed,
    and a new round starts.  A last round over all arcs converges: its
    smallest distance is the shortest path from any source, and its
    negation plus the correction is the value.  Exact on acyclic inputs;
    with cycles the result overestimates, but only up to rounding: the
    correction and the path are rounded apart, so it can read up to one
    ulp per arc under the true longest simple path.  Nodes are numbered in
    sorted id order and every pass relaxes the arcs in their given order.

    Returns (value_pa, cycle_correction_pa).
    """
    if not arcs:
        raise ValueError("longest_path_value requires at least one arc")
    return _longest_path([(a.from_node, a.to_node, -a.weight_pa) for a in arcs])


COMPONENTS_COLUMNS = ["t0", "t1", "component_id", "n_pipes", "longest_path_bar",
                      "cycle_correction_bar", "class", "max_abs_flow_change"]
MEMBERS_COLUMNS = ["component_id", "pipe_id"]


def write_components(stream: Stream, path: str, members_path: str) -> None:
    """Serialize a component stream; ids number components chronologically.

    max_abs_flow_change is written in 1000 Nm^3/h like every flow column.
    The companion file lists each component's member pipes, which the
    persistence step needs to follow pipes through time.
    """
    rows: list[list[str]] = []
    member_rows: list[list[str]] = []
    for pair, comps in stream:
        t0_text, t1_text = (format_timestamp(instant(us)) for us in pair)
        for comp in comps:
            component_id = str(len(rows))
            rows.append([t0_text, t1_text, component_id, str(len(comp.pipe_ids)),
                         repr(comp.longest_path_pa / BAR), repr(comp.cycle_correction_pa / BAR),
                         comp.relevance.label, repr(comp.max_abs_dflow_m3s / KNM3H)])
            member_rows.extend([component_id, pipe_id] for pipe_id in comp.pipe_ids)
    write_table(path, COMPONENTS_COLUMNS, rows)
    write_table(members_path, MEMBERS_COLUMNS, member_rows)


def read_components(path: str, members_path: str) -> Stream:
    """Rebuild a component stream from its CSV form and member list.

    Rows come pair by pair in time order: a pair may not start before the
    previous row's pair ends.  Every member row must name a component of
    the components file, and every component must have n_pipes member rows.
    No pipe may sit in two components of one pair, as persistence assumes.
    """
    # component id -> (line, n_pipes, pair, component without its pipes)
    parsed: dict[str, tuple[int, int, tuple[int, int], Component]] = {}
    # pair texts -> their pair; the rows of a pair repeat its texts
    by_text: dict[tuple[str, str], tuple[int, int]] = {}
    previous = None
    for line, row in read_table(path, COMPONENTS_COLUMNS):
        if (pair := by_text.get((row[0], row[1]))) is None:
            pair = by_text[row[0], row[1]] = parse_instants(row, path, line)
        if previous is not None and pair != previous and pair[0] < previous[1]:
            raise ParseError(path, line, f"pair {row[0]} .. {row[1]} starts before the "
                                         f"previous row's pair ends at "
                                         f"{format_timestamp(instant(previous[1]))}")
        previous = pair
        if row[2] in parsed:
            raise ParseError(path, line, f"duplicate component id {row[2]!r}")
        try:
            n_pipes = int(row[3])
            parsed[row[2]] = (line, n_pipes, pair, Component(
                pipe_ids=(),
                longest_path_pa=float(row[4]) * BAR,
                cycle_correction_pa=float(row[5]) * BAR,
                relevance=RelevanceClass.from_label(row[6]),
                max_abs_dflow_m3s=float(row[7]) * KNM3H,
            ))
        except (ValueError, KeyError) as exc:
            raise ParseError(path, line, f"bad component row: {exc}") from None

    members: dict[str, list[str]] = {component_id: [] for component_id in parsed}
    placed: set[tuple[tuple[int, int], str]] = set()
    for line, (component_id, pipe_id) in read_table(members_path, MEMBERS_COLUMNS):
        pipes = members.get(component_id)
        if pipes is None:
            raise ParseError(members_path, line,
                             f"component id {component_id!r} names no component of {path}")
        pair = parsed[component_id][2]
        if (pair, pipe_id) in placed:
            raise ParseError(members_path, line, f"pipe {pipe_id!r} is in two components "
                                                 f"of pair {format_timestamp(instant(pair[0]))}")
        placed.add((pair, pipe_id))
        pipes.append(pipe_id)

    stream: Stream = []
    for component_id, (line, n_pipes, pair, comp) in parsed.items():
        pipe_ids = tuple(members[component_id])
        if n_pipes != len(pipe_ids):
            raise ParseError(path, line,
                             f"n_pipes {n_pipes} disagrees with member list "
                             f"({len(pipe_ids)} pipes)")
        if not stream or stream[-1][0] != pair:
            stream.append((pair, []))
        stream[-1][1].append(replace(comp, pipe_ids=pipe_ids))
    return stream


def build_pair_components(network: Network, relevant_records: list[TermRecord],
                          frame_t0: StateFrame, frame_t1: StateFrame,
                          cfg: ThresholdConfig,
                          diag: Diagnostics | None = None) -> list[Component]:
    """Group, orient and measure records of one pair already screened for
    relevance, by NetworkIndex over the values the frames give; a pipe's
    last record stands for its earlier ones."""
    records = list({rec.pipe_id: rec for rec in relevant_records}.values())
    node_ids, _, valve_ids, _ = history_columns(network)
    index = NetworkIndex(network, node_ids, valve_ids)
    position = {pipe_id: k for k, pipe_id in enumerate(index.pipe_ids)}
    states = [frame_t1.valve_open.get(valve_id) for valve_id in valve_ids]
    return index.pair_components(
        [position[rec.pipe_id] for rec in records],
        [rec.alpha_pa for rec in records], [rec.dflow_m3s for rec in records],
        [math.nan if state is None else float(bool(state)) for state in states],
        *([frame.node_pressure_pa.get(node_id, math.nan) for node_id in node_ids]
          for frame in (frame_t0, frame_t1)), cfg, diag)
