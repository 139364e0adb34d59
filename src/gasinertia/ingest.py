"""CSV input formats: topology, long-format state history, exclusions.

File units are bar and 1000 Nm^3/h; they are converted to SI exactly once
here.  Serializers write floats with repr so a parse/serialize cycle is a
fixed point.  Parse errors carry file and line context.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timezone
import math
from typing import Iterable

from .model import (
    BAR,
    KNM3H,
    Element,
    ElementKind,
    ModelError,
    Network,
    Node,
    PipeGeometry,
    StateFrame,
    TimePair,
    validate_normal_density,
)
from .physics import TermRecord

TOPOLOGY_COLUMNS = ["element_id", "kind", "from_node", "to_node",
                    "length_m", "diameter_m", "roughness_m", "slope"]
STATES_COLUMNS = ["timestamp_iso8601", "entity_id", "quantity", "value"]
EXCLUSIONS_COLUMNS = ["pipe_id", "start_iso8601", "end_iso8601"]

QUANTITY_PRESSURE = "node.pressure_bar"
QUANTITY_FLOW = "arc.flow_kNm3h"
QUANTITY_VALVE = "valve.open"
QUANTITY_RHO = "pipe.rho_n_kgNm3"


class ParseError(Exception):
    """A malformed input file; message carries path and line number."""

    def __init__(self, path: str, line: int, message: str) -> None:
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def parse_timestamp(text: str, path: str = "<str>", line: int = 0) -> datetime:
    try:
        stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise ParseError(path, line, f"invalid ISO 8601 timestamp {text!r}") from None
    if stamp.tzinfo is None:
        raise ParseError(path, line, f"timestamp {text!r} lacks a timezone")
    return stamp


def format_timestamp(stamp: datetime) -> str:
    return stamp.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def _parse_float(text: str, path: str, line: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(path, line, f"invalid number {text!r} in column {column}") from None


def _check_header(header: list[str] | None, expected: list[str], path: str) -> None:
    if header != expected:
        raise ParseError(path, 1,
                         f"expected header {','.join(expected)}, got "
                         f"{','.join(header) if header else '<empty>'}")


def parse_topology(path: str) -> Network:
    """Read a topology CSV; nodes are implied by element endpoints."""
    nodes: dict[str, Node] = {}
    elements: list[Element] = []
    seen: set[str] = set()
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        _check_header(header, TOPOLOGY_COLUMNS, path)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TOPOLOGY_COLUMNS):
                raise ParseError(path, lineno,
                                 f"expected {len(TOPOLOGY_COLUMNS)} columns, got {len(row)}")
            element_id, kind_text, from_node, to_node = row[0], row[1], row[2], row[3]
            if element_id in seen:
                raise ParseError(path, lineno, f"duplicate element id {element_id!r}")
            seen.add(element_id)
            try:
                kind = ElementKind(kind_text)
            except ValueError:
                raise ParseError(path, lineno, f"unknown element kind {kind_text!r}") from None
            geometry = None
            if kind is ElementKind.PIPE:
                values = [_parse_float(row[i], path, lineno, TOPOLOGY_COLUMNS[i])
                          for i in range(4, 8)]
                try:
                    geometry = PipeGeometry(length_m=values[0], diameter_m=values[1],
                                            roughness_m=values[2], slope=values[3])
                except ModelError as exc:
                    raise ParseError(path, lineno, str(exc)) from None
            elif any(cell.strip() for cell in row[4:8]):
                raise ParseError(path, lineno,
                                 f"{kind.value} rows must leave geometry columns empty")
            for node_id in (from_node, to_node):
                if node_id not in nodes:
                    nodes[node_id] = Node(node_id)
            try:
                elements.append(Element(element_id, kind, from_node, to_node, geometry))
            except ModelError as exc:
                raise ParseError(path, lineno, str(exc)) from None
    try:
        return Network.build(list(nodes.values()), elements)
    except ModelError as exc:
        raise ParseError(path, 0, str(exc)) from None


def serialize_topology(network: Network, path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TOPOLOGY_COLUMNS)
        for element_id in sorted(network.elements):
            el = network.elements[element_id]
            if el.geometry is not None:
                geo = [repr(el.geometry.length_m), repr(el.geometry.diameter_m),
                       repr(el.geometry.roughness_m), repr(el.geometry.slope)]
            else:
                geo = ["", "", "", ""]
            writer.writerow([el.element_id, el.kind.value, el.from_node, el.to_node] + geo)


def parse_states(path: str, network: Network) -> list[StateFrame]:
    """Read a long-format state history into per-timestamp frames.

    Rows of one timestamp may come in any order but timestamps must be
    grouped and strictly increasing.  Entities must exist in the network
    and match the quantity kind; pressures must be positive and densities
    inside the accepted band.
    """
    frames: list[StateFrame] = []
    current_stamp: datetime | None = None
    pressures: dict[str, float] = {}
    flows: dict[str, float] = {}
    valves: dict[str, bool] = {}
    rhos: dict[str, float] = {}
    stamp_line = 0

    def flush() -> None:
        if current_stamp is None:
            return
        try:
            frames.append(StateFrame(current_stamp, dict(pressures), dict(flows),
                                     dict(valves), dict(rhos)))
        except ModelError as exc:
            raise ParseError(path, stamp_line, str(exc)) from None
        pressures.clear(); flows.clear(); valves.clear(); rhos.clear()

    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        _check_header(header, STATES_COLUMNS, path)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(STATES_COLUMNS):
                raise ParseError(path, lineno,
                                 f"expected {len(STATES_COLUMNS)} columns, got {len(row)}")
            stamp = parse_timestamp(row[0], path, lineno)
            if current_stamp is None or stamp != current_stamp:
                if current_stamp is not None and stamp <= current_stamp:
                    raise ParseError(path, lineno,
                                     f"timestamps not strictly increasing: "
                                     f"{format_timestamp(stamp)} after "
                                     f"{format_timestamp(current_stamp)}")
                flush()
                current_stamp = stamp
                stamp_line = lineno
            entity, quantity = row[1], row[2]
            value = _parse_float(row[3], path, lineno, "value")
            if not math.isfinite(value):
                raise ParseError(path, lineno, f"non-finite value {row[3]!r} for {entity!r}")
            if quantity == QUANTITY_PRESSURE:
                if entity not in network.nodes:
                    raise ParseError(path, lineno, f"unknown node {entity!r}")
                if not value > 0.0:
                    raise ParseError(path, lineno, f"pressure must be positive, got {value}")
                pressures[entity] = value * BAR
            elif quantity == QUANTITY_FLOW:
                if entity not in network.elements:
                    raise ParseError(path, lineno, f"unknown element {entity!r}")
                flows[entity] = value * KNM3H
            elif quantity == QUANTITY_VALVE:
                element = network.elements.get(entity)
                if element is None or element.kind is not ElementKind.VALVE:
                    raise ParseError(path, lineno, f"{entity!r} is not a valve")
                valves[entity] = value != 0.0
            elif quantity == QUANTITY_RHO:
                element = network.elements.get(entity)
                if element is None or element.kind is not ElementKind.PIPE:
                    raise ParseError(path, lineno, f"{entity!r} is not a pipe")
                try:
                    rhos[entity] = validate_normal_density(value)
                except ModelError as exc:
                    raise ParseError(path, lineno, str(exc)) from None
            else:
                raise ParseError(path, lineno, f"unknown quantity {quantity!r}")
        flush()
    return frames


def serialize_states(frames: Iterable[StateFrame], path: str) -> None:
    """Write frames in the long format, each frame in a fixed row order."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(STATES_COLUMNS)
        for frame in frames:
            stamp = format_timestamp(frame.timestamp)
            for node_id in sorted(frame.node_pressure_pa):
                writer.writerow([stamp, node_id, QUANTITY_PRESSURE,
                                 repr(frame.node_pressure_pa[node_id] / BAR)])
            for arc_id in sorted(frame.arc_flow_m3s):
                writer.writerow([stamp, arc_id, QUANTITY_FLOW,
                                 repr(frame.arc_flow_m3s[arc_id] / KNM3H)])
            for valve_id in sorted(frame.valve_open):
                writer.writerow([stamp, valve_id, QUANTITY_VALVE,
                                 "1" if frame.valve_open[valve_id] else "0"])
            for pipe_id in sorted(frame.pipe_rho_n_kgm3):
                writer.writerow([stamp, pipe_id, QUANTITY_RHO,
                                 repr(frame.pipe_rho_n_kgm3[pipe_id])])


@dataclass(frozen=True)
class ExclusionWindow:
    """Half-open time window [start, end) during which a pipe is ignored."""

    pipe_id: str
    start: datetime
    end: datetime

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise ModelError(f"exclusion window for {self.pipe_id!r} requires end > start")

    def covers(self, pair: TimePair) -> bool:
        # a record belongs to the window when its evaluation time t1 does
        return self.start <= pair.t1 < self.end


def parse_exclusions(path: str, network: Network) -> list[ExclusionWindow]:
    windows: list[ExclusionWindow] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        _check_header(header, EXCLUSIONS_COLUMNS, path)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(EXCLUSIONS_COLUMNS):
                raise ParseError(path, lineno,
                                 f"expected {len(EXCLUSIONS_COLUMNS)} columns, got {len(row)}")
            pipe_id = row[0]
            element = network.elements.get(pipe_id)
            if element is None or element.kind is not ElementKind.PIPE:
                raise ParseError(path, lineno, f"{pipe_id!r} is not a pipe")
            start = parse_timestamp(row[1], path, lineno)
            end = parse_timestamp(row[2], path, lineno)
            try:
                windows.append(ExclusionWindow(pipe_id, start, end))
            except ModelError as exc:
                raise ParseError(path, lineno, str(exc)) from None
    return windows


def index_exclusions(windows: Iterable[ExclusionWindow]) -> dict[str, list[ExclusionWindow]]:
    indexed: dict[str, list[ExclusionWindow]] = {}
    for window in windows:
        indexed.setdefault(window.pipe_id, []).append(window)
    return indexed


def is_excluded(pipe_id: str, pair: TimePair,
                indexed: dict[str, list[ExclusionWindow]]) -> bool:
    return any(window.covers(pair) for window in indexed.get(pipe_id, ()))


TERMS_COLUMNS = ["t0", "t1", "pipe_id", "flow_t0_kNm3h", "flow_t1_kNm3h",
                 "dflow_kNm3h", "alpha_bar", "beta_bar", "alpha_per_10km_bar",
                 "ratio", "relevant"]

# alpha per length is reported in bar per 10 km in files and plots
PER_10KM = BAR / 10e3


def write_terms(rows: Iterable[tuple[TermRecord, bool]], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TERMS_COLUMNS)
        for record, relevant in rows:
            writer.writerow([
                format_timestamp(record.pair.t0),
                format_timestamp(record.pair.t1),
                record.pipe_id,
                repr(record.flow_t0_m3s / KNM3H),
                repr(record.flow_t1_m3s / KNM3H),
                repr(record.dflow_m3s / KNM3H),
                repr(record.alpha_pa / BAR),
                repr(record.beta_pa / BAR),
                repr(record.alpha_per_length_pam / PER_10KM),
                repr(record.ratio),
                "1" if relevant else "0",
            ])


def read_terms(path: str) -> list[tuple[TermRecord, bool]]:
    rows: list[tuple[TermRecord, bool]] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        _check_header(header, TERMS_COLUMNS, path)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TERMS_COLUMNS):
                raise ParseError(path, lineno,
                                 f"expected {len(TERMS_COLUMNS)} columns, got {len(row)}")
            pair = TimePair(parse_timestamp(row[0], path, lineno),
                            parse_timestamp(row[1], path, lineno))
            record = TermRecord(
                pipe_id=row[2],
                pair=pair,
                flow_t0_m3s=_parse_float(row[3], path, lineno, "flow_t0_kNm3h") * KNM3H,
                flow_t1_m3s=_parse_float(row[4], path, lineno, "flow_t1_kNm3h") * KNM3H,
                alpha_pa=_parse_float(row[6], path, lineno, "alpha_bar") * BAR,
                beta_pa=_parse_float(row[7], path, lineno, "beta_bar") * BAR,
                alpha_per_length_pam=_parse_float(row[8], path, lineno,
                                                  "alpha_per_10km_bar") * PER_10KM,
                ratio=_parse_float(row[9], path, lineno, "ratio"),
            )
            rows.append((record, row[10] == "1"))
    return rows


def frame_pairs(frames: list[StateFrame]) -> list[tuple[TimePair, StateFrame, StateFrame]]:
    """Consecutive frames as analysis pairs, in chronological order."""
    pairs = []
    for left, right in zip(frames, frames[1:]):
        pairs.append((TimePair(left.timestamp, right.timestamp), left, right))
    return pairs
