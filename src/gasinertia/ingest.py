"""CSV input formats: topology, long-format state history, exclusions,
terms; and the binary history sidecar.

File units are bar and 1000 Nm^3/h; they are converted to SI exactly once
here.  Serializers write floats with repr so a parse/serialize cycle is a
fixed point.  Parse errors carry file and line context.
"""

from __future__ import annotations

from bisect import bisect_left
import csv
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
import math
from typing import Iterable
import zipfile

import numpy as np

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


@dataclass(frozen=True, eq=False)
class History:
    """A state history as arrays: one row per frame, one column per entity.

    Columns follow the sorted id tuples: every node, every element (flows
    may be given for any arc), every valve and every pipe of the network.
    NaN marks a value the history does not give; valve_open holds 1.0 for
    open and 0.0 for closed.  Timestamps are strictly increasing.
    """

    timestamps: tuple[datetime, ...]
    node_ids: tuple[str, ...]
    arc_ids: tuple[str, ...]
    valve_ids: tuple[str, ...]
    pipe_ids: tuple[str, ...]
    pressure_pa: np.ndarray     # [frames x nodes]
    flow_m3s: np.ndarray        # [frames x arcs]
    valve_open: np.ndarray      # [frames x valves]
    rho_n: np.ndarray           # [frames x pipes], kg/m^3 at normal conditions

    def __len__(self) -> int:
        return len(self.timestamps)

    def frame(self, k: int) -> StateFrame:
        """Frame k as per-entity mappings of the values it gives."""
        return StateFrame(self.timestamps[k],
                          _given(self.node_ids, self.pressure_pa[k]),
                          _given(self.arc_ids, self.flow_m3s[k]),
                          {valve_id: state == 1.0 for valve_id, state
                           in _given(self.valve_ids, self.valve_open[k]).items()},
                          _given(self.pipe_ids, self.rho_n[k]))

    def pairs(self) -> list[TimePair]:
        """Consecutive frames as analysis pairs, in chronological order."""
        return [TimePair(t0, t1) for t0, t1 in zip(self.timestamps, self.timestamps[1:])]


def _given(ids: tuple[str, ...], row: np.ndarray) -> dict[str, float]:
    # NaN is the one value unequal to itself
    return {key: value for key, value in zip(ids, row.tolist()) if value == value}


def parse_states(path: str, network: Network) -> History:
    """Read a long-format state history into arrays.

    Rows of one timestamp may come in any order but timestamps must be
    grouped and strictly increasing; different spellings of one instant
    belong to the same frame.  Entities must exist in the network and
    match the quantity kind; pressures must be positive and densities
    inside the accepted band.  A repeated row overrides the earlier one.
    Rows are checked in file order, so the first bad line is reported.
    """
    node_ids = tuple(sorted(network.nodes))
    arc_ids = tuple(sorted(network.elements))
    valve_ids = tuple(sorted(network.of_kind(ElementKind.VALVE)))
    pipe_ids = tuple(sorted(network.pipes()))
    node_col = {key: k for k, key in enumerate(node_ids)}
    arc_col = {key: k for k, key in enumerate(arc_ids)}
    valve_col = {key: k for k, key in enumerate(valve_ids)}
    pipe_col = {key: k for k, key in enumerate(pipe_ids)}
    stamps: list[datetime] = []
    # one list per frame and quantity; a list keeps the last of repeated rows
    pressures: list[list[float]] = []
    flows: list[list[float]] = []
    valves: list[list[float]] = []
    rhos: list[list[float]] = []
    current: datetime | None = None
    stamp_text = None

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
            text, entity, quantity, value_text = row
            if text != stamp_text:
                # rows of one frame repeat their timestamp text, so it is
                # parsed once per run of equal texts
                stamp = parse_timestamp(text, path, lineno)
                stamp_text = text
                if current is None or stamp != current:
                    if current is not None and stamp <= current:
                        raise ParseError(path, lineno,
                                         f"timestamps not strictly increasing: "
                                         f"{format_timestamp(stamp)} after "
                                         f"{format_timestamp(current)}")
                    current = stamp
                    stamps.append(stamp)
                    pressure_row = [math.nan] * len(node_ids)
                    flow_row = [math.nan] * len(arc_ids)
                    valve_row = [math.nan] * len(valve_ids)
                    rho_row = [math.nan] * len(pipe_ids)
                    pressures.append(pressure_row)
                    flows.append(flow_row)
                    valves.append(valve_row)
                    rhos.append(rho_row)
            value = _parse_float(value_text, path, lineno, "value")
            if not math.isfinite(value):
                raise ParseError(path, lineno, f"non-finite value {value_text!r} for {entity!r}")
            if quantity == QUANTITY_PRESSURE:
                column = node_col.get(entity)
                if column is None:
                    raise ParseError(path, lineno, f"unknown node {entity!r}")
                if not value > 0.0:
                    raise ParseError(path, lineno, f"pressure must be positive, got {value}")
                pressure_row[column] = value * BAR
            elif quantity == QUANTITY_FLOW:
                column = arc_col.get(entity)
                if column is None:
                    raise ParseError(path, lineno, f"unknown element {entity!r}")
                flow_row[column] = value * KNM3H
            elif quantity == QUANTITY_VALVE:
                column = valve_col.get(entity)
                if column is None:
                    raise ParseError(path, lineno, f"{entity!r} is not a valve")
                valve_row[column] = 1.0 if value != 0.0 else 0.0
            elif quantity == QUANTITY_RHO:
                column = pipe_col.get(entity)
                if column is None:
                    raise ParseError(path, lineno, f"{entity!r} is not a pipe")
                try:
                    rho_row[column] = validate_normal_density(value)
                except ModelError as exc:
                    raise ParseError(path, lineno, str(exc)) from None
            else:
                raise ParseError(path, lineno, f"unknown quantity {quantity!r}")
    frames = len(stamps)
    return History(tuple(stamps), node_ids, arc_ids, valve_ids, pipe_ids,
                   np.array(pressures, dtype=float).reshape(frames, len(node_ids)),
                   np.array(flows, dtype=float).reshape(frames, len(arc_ids)),
                   np.array(valves, dtype=float).reshape(frames, len(valve_ids)),
                   np.array(rhos, dtype=float).reshape(frames, len(pipe_ids)))


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


# scan saves the parsed history next to its terms file; components loads it
# instead of parsing states.csv again when both input files are unchanged
HISTORY_SIDECAR = "history.npz"
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def file_sha256(path: str) -> str:
    # imported here because loading it costs every stage's start about 4 ms,
    # and only scan and components hash files
    import hashlib

    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def save_history(history: History, path: str, states_path: str, topology_path: str) -> None:
    """Write history with the digests of the files it was parsed from."""
    np.savez(path,
             states_sha256=file_sha256(states_path),
             topology_sha256=file_sha256(topology_path),
             timestamps_us=np.array([(t - _EPOCH) // _MICROSECOND for t in history.timestamps],
                                    dtype=np.int64),
             node_ids=np.array(history.node_ids, dtype=str),
             arc_ids=np.array(history.arc_ids, dtype=str),
             valve_ids=np.array(history.valve_ids, dtype=str),
             pipe_ids=np.array(history.pipe_ids, dtype=str),
             pressure_pa=history.pressure_pa,
             flow_m3s=history.flow_m3s,
             valve_open=history.valve_open,
             rho_n=history.rho_n)


def load_history(path: str, states_path: str, topology_path: str) -> History | None:
    """The history saved at path, or None unless it exists and was saved
    from files with the same contents as states_path and topology_path."""
    try:
        with np.load(path) as saved:
            if (str(saved["states_sha256"]) != file_sha256(states_path)
                    or str(saved["topology_sha256"]) != file_sha256(topology_path)):
                return None
            ids = [tuple(saved[name].tolist())
                   for name in ("node_ids", "arc_ids", "valve_ids", "pipe_ids")]
            return History(tuple(_EPOCH + us * _MICROSECOND
                                 for us in saved["timestamps_us"].tolist()),
                           *ids, saved["pressure_pa"], saved["flow_m3s"],
                           saved["valve_open"], saved["rho_n"])
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        # an absent or unreadable sidecar only means parsing the CSV again
        return None


@dataclass(frozen=True)
class ExclusionWindow:
    """Half-open time window [start, end) during which a pipe is ignored."""

    pipe_id: str
    start: datetime
    end: datetime

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise ModelError(f"exclusion window for {self.pipe_id!r} requires end > start")


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


def exclusion_mask(windows: Iterable[ExclusionWindow], pairs: list[TimePair],
                   pipe_ids: tuple[str, ...]) -> np.ndarray:
    """[pairs x pipes] mask of the data points some window covers.

    A data point belongs to a window when its evaluation time t1 does.
    """
    t1 = [pair.t1 for pair in pairs]
    column = {pipe_id: k for k, pipe_id in enumerate(pipe_ids)}
    mask = np.zeros((len(pairs), len(pipe_ids)), dtype=bool)
    for window in windows:
        # pairs are chronological, so the pairs whose t1 lies in
        # [start, end) form one run
        mask[bisect_left(t1, window.start):bisect_left(t1, window.end),
             column[window.pipe_id]] = True
    return mask


TERMS_COLUMNS = ["t0", "t1", "pipe_id", "flow_t0_kNm3h", "flow_t1_kNm3h",
                 "dflow_kNm3h", "alpha_bar", "beta_bar", "alpha_per_10km_bar",
                 "ratio", "relevant"]

# alpha per length is reported in bar per 10 km in files and plots
PER_10KM = BAR / 10e3


def write_terms(rows: Iterable[tuple[TermRecord, bool]], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TERMS_COLUMNS)
        pair = None
        for record, relevant in rows:
            if record.pair != pair:
                # rows come grouped by pair
                pair = record.pair
                t0_text, t1_text = format_timestamp(pair.t0), format_timestamp(pair.t1)
            writer.writerow([
                t0_text,
                t1_text,
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
    stamps: dict[str, datetime] = {}
    pairs: dict[tuple[str, str], TimePair] = {}

    def stamp(text: str, lineno: int) -> datetime:
        # each distinct timestamp text is parsed once
        value = stamps.get(text)
        if value is None:
            value = stamps[text] = parse_timestamp(text, path, lineno)
        return value

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
            pair = pairs.get((row[0], row[1]))
            if pair is None:
                pair = pairs[row[0], row[1]] = TimePair(stamp(row[0], lineno),
                                                        stamp(row[1], lineno))
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
            if row[10] not in ("0", "1"):
                raise ParseError(path, lineno, f"relevant must be 0 or 1, got {row[10]!r}")
            rows.append((record, row[10] == "1"))
    return rows
