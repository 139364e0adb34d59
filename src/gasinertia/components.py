"""Connected structures of relevant pipes and their longest-path measure.

For one time pair, pipes with a relevant inertia term are grouped into
connected components.  Open valves and resistors bridge groups without
contributing weight; regulators and compressors never bridge.  Each
component is then read as a directed multigraph (pipes oriented by the
sign of alpha) and summarized by the value of its longest directed path
of |alpha|, a first-order estimate of the pressure error from dropping
the inertia terms along one route.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import (
    BAR,
    Diagnostics,
    Element,
    ElementKind,
    KNM3H,
    Network,
    StateFrame,
    TimePair,
)
from .ingest import (ParseError, format_timestamp, parse_pair, parse_timestamp, read_table,
                     write_table)
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

    pair: TimePair
    pipe_ids: tuple[str, ...]
    longest_path_pa: float
    cycle_correction_pa: float
    relevance: RelevanceClass
    max_abs_dflow_m3s: float


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


def group_records(network: Network, records: list[TermRecord],
                  frame_t1: StateFrame,
                  diag: Diagnostics | None = None) -> list[Group]:
    """Partition relevant-pipe records into connected groups with their bridges.

    Nodes are merged through relevant pipes, through valves that are open
    at t1 (missing state counts as closed, with a diagnostic) and through
    resistors; those valves and resistors are the bridges.  Actively
    controlled elements never merge nodes.  Returns one (records, bridges)
    pair per group, ordered by smallest pipe id, records sorted by pipe
    id and bridges by element id.
    """
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


def orient_arcs(network: Network, group: Group,
                frame_t0: StateFrame, frame_t1: StateFrame,
                diag: Diagnostics | None = None) -> list[DirectedArc]:
    """Directed arc set for one group, pipes first, then bridges.

    Pipes point with the sign of alpha (positive alpha keeps the from/to
    direction) and weigh |alpha|.  Bridges contribute zero weight: an
    open valve in both directions, a resistor in the direction its
    pressure drop moved between t0 and t1, or both when the endpoint
    pressures are unavailable or the drop did not change.
    """
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
            # orient by the change of its pressure drop
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
    ulp per arc under the true longest simple path.

    Returns (value_pa, cycle_correction_pa).
    """
    if not arcs:
        raise ValueError("longest_path_value requires at least one arc")
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


COMPONENTS_COLUMNS = ["t0", "t1", "component_id", "n_pipes", "longest_path_bar",
                      "cycle_correction_bar", "class", "max_abs_flow_change"]
MEMBERS_COLUMNS = ["component_id", "pipe_id"]


def write_components(stream: list[tuple[TimePair, list[Component]]],
                     path: str, members_path: str) -> None:
    """Serialize a component stream; ids number components chronologically.

    max_abs_flow_change is written in 1000 Nm^3/h like every flow column.
    The companion file lists each component's member pipes, which the
    persistence step needs to follow pipes through time.
    """
    rows: list[list[str]] = []
    member_rows: list[list[str]] = []
    for pair, comps in stream:
        t0_text, t1_text = format_timestamp(pair.t0), format_timestamp(pair.t1)
        for comp in comps:
            component_id = str(len(rows))
            rows.append([t0_text, t1_text, component_id, str(len(comp.pipe_ids)),
                         repr(comp.longest_path_pa / BAR), repr(comp.cycle_correction_pa / BAR),
                         comp.relevance.label, repr(comp.max_abs_dflow_m3s / KNM3H)])
            member_rows.extend([component_id, pipe_id] for pipe_id in comp.pipe_ids)
    write_table(path, COMPONENTS_COLUMNS, rows)
    write_table(members_path, MEMBERS_COLUMNS, member_rows)


def read_components(path: str, members_path: str
                    ) -> list[tuple[TimePair, list[Component]]]:
    """Rebuild a component stream from its CSV form and member list.

    Rows come pair by pair in time order: a pair may not start before the
    previous row's pair ends.  Every member row must name a component of
    the components file, and every component must have n_pipes member rows.
    """
    # component id -> (line, n_pipes, component without its pipes)
    parsed: dict[str, tuple[int, int, Component]] = {}
    previous: TimePair | None = None
    for line, row in read_table(path, COMPONENTS_COLUMNS):
        pair = parse_pair(parse_timestamp(row[0], path, line),
                          parse_timestamp(row[1], path, line), path, line)
        if previous is not None and pair != previous and pair.t0 < previous.t1:
            raise ParseError(path, line, f"pair {row[0]} .. {row[1]} starts before the "
                                         f"previous row's pair ends at "
                                         f"{format_timestamp(previous.t1)}")
        previous = pair
        if row[2] in parsed:
            raise ParseError(path, line, f"duplicate component id {row[2]!r}")
        try:
            n_pipes = int(row[3])
            parsed[row[2]] = (line, n_pipes, Component(
                pair=pair,
                pipe_ids=(),
                longest_path_pa=float(row[4]) * BAR,
                cycle_correction_pa=float(row[5]) * BAR,
                relevance=RelevanceClass.from_label(row[6]),
                max_abs_dflow_m3s=float(row[7]) * KNM3H,
            ))
        except (ValueError, KeyError) as exc:
            raise ParseError(path, line, f"bad component row: {exc}") from None

    members: dict[str, list[str]] = {component_id: [] for component_id in parsed}
    for line, (component_id, pipe_id) in read_table(members_path, MEMBERS_COLUMNS):
        pipes = members.get(component_id)
        if pipes is None:
            raise ParseError(members_path, line,
                             f"component id {component_id!r} names no component of {path}")
        pipes.append(pipe_id)

    stream: list[tuple[TimePair, list[Component]]] = []
    for component_id, (line, n_pipes, comp) in parsed.items():
        pipe_ids = tuple(members[component_id])
        if n_pipes != len(pipe_ids):
            raise ParseError(path, line,
                             f"n_pipes {n_pipes} disagrees with member list "
                             f"({len(pipe_ids)} pipes)")
        if not stream or stream[-1][0] != comp.pair:
            stream.append((comp.pair, []))
        stream[-1][1].append(replace(comp, pipe_ids=pipe_ids))
    return stream


def build_pair_components(network: Network, relevant_records: list[TermRecord],
                          frame_t0: StateFrame, frame_t1: StateFrame,
                          cfg: ThresholdConfig,
                          diag: Diagnostics | None = None) -> list[Component]:
    """Group, orient and measure records already screened for relevance."""
    components: list[Component] = []
    for group in group_records(network, relevant_records, frame_t1, diag):
        value, cycle_correction = longest_path_value(
            orient_arcs(network, group, frame_t0, frame_t1, diag))
        records = group[0]
        components.append(Component(
            pair=records[0].pair,
            pipe_ids=tuple(rec.pipe_id for rec in records),
            longest_path_pa=value,
            cycle_correction_pa=cycle_correction,
            relevance=classify_absolute(value, cfg),
            max_abs_dflow_m3s=max(abs(rec.dflow_m3s) for rec in records),
        ))
    return components

