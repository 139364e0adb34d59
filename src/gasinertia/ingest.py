"""File formats: topology, long-format state history, exclusions, terms,
key = value settings; and history.npz, the binary sidecar in which scan
saves its terms and the few history columns components reads.

This module is the only one that knows how a file is framed: `read_table`
and `write_table` handle every CSV file of the pipeline, `read_settings`
every key = value file, but for the largest: states.csv is read once, in
byte windows, each into one buffer where its bytes are framed once, with
numpy byte operations and fast paths for decimals of up to 19 digits where a
window's frames repeat the bytes of one sequence of (entity, quantity) rows
and row by row, framed as read_table frames rows, where not; and the states
and terms writers join rows of cells quoted once, in the bytes csv.writer
writes.  states_blocks hands the history on one block of the frames each
window completes, so that a reader that keeps little of each block, as
narrow_history does for scan and components, needs memory for a window, or
the frame it carries; parse_states joins them.  File units are bar and
1000 Nm^3/h; a history is converted to SI exactly once here, and terms stay
in file units, as both files that carry them do.  Serializers write floats
as repr spells them, so a parse/serialize cycle is a fixed point; the terms
writer spells most of them itself, a column at a time (_repr_cells).  Parse
errors, and bytes the encoding cannot decode, carry file and line context.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone
import functools
import io
import math
import os
from typing import Iterable, Iterator, NamedTuple
import zipfile

import numpy as np

from .model import (
    BAR,
    KNM3H,
    RHO_N_MAX_KGM3,
    RHO_N_MIN_KGM3,
    Element,
    ElementKind,
    ModelError,
    Network,
    Node,
    PipeGeometry,
    StateFrame,
    validate_normal_density,
)
from .thresholds import ThresholdConfig, pipe_relevant

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


def read_table(path: str, columns: list[str], sha=None) -> Iterator[tuple[int, list[str]]]:
    """(line, row) for every row of a CSV file whose header is columns, as
    _rows gives them.  sha, a hashlib object, is updated with the bytes of
    every line read."""
    with open(path, newline="", errors="surrogateescape") as handle:
        lines = handle if sha is None else (
            sha.update(line.encode(_ENCODING, "surrogateescape")) or line for line in handle)
        for line, _, row in _rows(path, lines, columns):
            yield line, row


# how open() decodes a text file
_ENCODING = io.TextIOWrapper(io.BytesIO()).encoding


def _rows(path: str, lines: Iterable[str], columns: list[str], line: int = 1,
          hold: bool = False, ascii: bool = False) -> Iterator[tuple[int, int, list[str]]]:
    """(line, index in lines of its first line, cells) for every row of
    lines, the text of path from row line on, decoded with surrogateescape.

    Row 1 must be the header columns.  Blank rows are skipped.  A row with
    another number of cells, or a byte the encoding could not decode,
    raises ParseError at its row.  If hold, the last row, which a window
    may have cut, is left out.  If ascii, lines are known to be ASCII.
    """
    # a byte the encoding could not decode is a surrogate now, on which
    # encoding again raises
    reader = csv.reader(lines if ascii else (
        (line.isascii() or line.encode(_ENCODING)) and line for line in lines))
    line, start, width, last = line - 1, 0, len(columns), len(lines) if hold else 0
    try:
        if line == 0:
            header = next(reader, None)
            if header != columns:
                raise ParseError(path, 1, f"expected header {','.join(columns)}, got "
                                          f"{','.join(header) if header else '<empty>'}")
            line, start = 1, reader.line_num
        for line, row in enumerate(reader, start=line + 1):
            if reader.line_num == last:
                return
            at, start = start, reader.line_num
            if len(row) == width:
                yield line, at, row
            elif row:
                raise ParseError(path, line, f"expected {width} columns, got {len(row)}")
    except UnicodeEncodeError as exc:
        # the row after the last one read holds the byte
        raise _undecodable(path, line + 1, exc) from None


def _undecodable(path: str, line: int, exc: UnicodeEncodeError) -> ParseError:
    # surrogateescape decodes byte b to the surrogate U+DC00 + b
    return ParseError(path, line, f"cannot decode byte {ord(exc.object[exc.start]) - 0xDC00:#04x}"
                                  f" as {exc.encoding}")


def write_table(path: str, columns: list[str], rows: Iterable[Iterable[str]]) -> None:
    """Write a CSV file: the header, then rows as they are produced."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def read_settings(path: str) -> Iterator[tuple[int, str, str]]:
    """(line, key, value) for every `key = value` line of a settings file.

    `#` starts a comment; blank lines are skipped.  Keys and values are
    stripped of surrounding whitespace.  A byte the encoding cannot read
    raises ParseError at its line.
    """
    with open(path, errors="surrogateescape") as handle:
        for line, raw in enumerate(handle, start=1):
            try:
                # a byte the encoding could not decode became a surrogate
                raw.encode(handle.encoding)
            except UnicodeEncodeError as exc:
                raise _undecodable(path, line, exc) from None
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ParseError(path, line, f"expected key = value, got {text!r}")
            key, value = text.split("=", 1)
            yield line, key.strip(), value.strip()


def parse_topology(path: str, sha=None) -> Network:
    """Read a topology CSV (sha as in read_table); nodes are implied by element endpoints."""
    nodes: dict[str, Node] = {}
    elements: dict[str, Element] = {}
    for line, row in read_table(path, TOPOLOGY_COLUMNS, sha):
        element_id, kind_text, from_node, to_node = row[:4]
        if element_id in elements:
            raise ParseError(path, line, f"duplicate element id {element_id!r}")
        try:
            kind = ElementKind(kind_text)
        except ValueError:
            raise ParseError(path, line, f"unknown element kind {kind_text!r}") from None
        geometry = None
        if kind is ElementKind.PIPE:
            values = [_parse_float(row[i], path, line, TOPOLOGY_COLUMNS[i])
                      for i in range(4, 8)]
            try:
                geometry = PipeGeometry(length_m=values[0], diameter_m=values[1],
                                        roughness_m=values[2], slope=values[3])
            except ModelError as exc:
                raise ParseError(path, line, str(exc)) from None
        elif any(cell.strip() for cell in row[4:8]):
            raise ParseError(path, line,
                             f"{kind.value} rows must leave geometry columns empty")
        for node_id in (from_node, to_node):
            if node_id not in nodes:
                nodes[node_id] = Node(node_id)
        try:
            elements[element_id] = Element(element_id, kind, from_node, to_node, geometry)
        except ModelError as exc:
            raise ParseError(path, line, str(exc)) from None
    # the rows above already reject what Network.build checks: duplicate
    # ids and unknown endpoints
    return Network.build(list(nodes.values()), list(elements.values()))


def serialize_topology(network: Network, path: str) -> None:
    def rows():
        for element_id in sorted(network.elements):
            el = network.elements[element_id]
            if el.geometry is not None:
                geo = [repr(el.geometry.length_m), repr(el.geometry.diameter_m),
                       repr(el.geometry.roughness_m), repr(el.geometry.slope)]
            else:
                geo = ["", "", "", ""]
            yield [el.element_id, el.kind.value, el.from_node, el.to_node] + geo

    write_table(path, TOPOLOGY_COLUMNS, rows())


# past the readers, an instant (of a History, Terms, a component stream or
# an exclusion window) is int64 microseconds since this one, as in
# history.npz; the offset a file spells it with is not kept
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def microseconds(stamps: Iterable[datetime]) -> np.ndarray:
    """Aware datetimes as the instants of a History."""
    return np.array([(stamp - _EPOCH) // _MICROSECOND for stamp in stamps], dtype=np.int64)


def instant(us: int) -> datetime:
    """An instant of a History as a UTC datetime."""
    return _EPOCH + int(us) * _MICROSECOND


def parse_instants(row: list[str], path: str, line: int) -> tuple[int, int]:
    """The t0 and t1 that begin row, a row of path at line, as instants,
    t1 after t0."""
    t0, t1 = (parse_timestamp(text, path, line) for text in row[:2])
    pair = tuple(microseconds((t0, t1)).tolist())
    if not pair[1] > pair[0]:
        raise ParseError(path, line, f"time pair requires t1 > t0, got {t0} .. {t1}")
    return pair


@dataclass(frozen=True, eq=False)
class History:
    """A state history as arrays: one row per frame, one column per entity.

    Columns follow the sorted id tuples: every node, every element (flows
    may be given for any arc), every valve and every pipe of the network,
    or a subset, as in the history scan saves for components.  NaN marks
    a value the history does not give; valve_open holds 1.0 for open and
    0.0 for closed.  Timestamps are strictly increasing instants.
    """

    timestamps: np.ndarray      # [frames] int64, as microseconds gives them
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

    # acceptance criterion 9 iterates simulate()'s frames through this
    def __getitem__(self, k: int) -> StateFrame:
        """Frame k (negative k counts from the end; iterating yields every
        frame) as per-entity mappings of the values it gives."""
        return StateFrame(instant(self.timestamps[k]),
                          _given(self.node_ids, self.pressure_pa[k]),
                          _given(self.arc_ids, self.flow_m3s[k]),
                          {valve_id: state == 1.0 for valve_id, state
                           in _given(self.valve_ids, self.valve_open[k]).items()},
                          _given(self.pipe_ids, self.rho_n[k]))

    def arrays(self) -> tuple[np.ndarray, ...]:
        """The value arrays, in the order of history_columns."""
        return self.pressure_pa, self.flow_m3s, self.valve_open, self.rho_n


def row_pairs(stamps: np.ndarray, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Terms.pairs and pair_index of chronological rows whose pairs begin
    at frames of a History's timestamps stamps: each pair once, numbered
    in the order its rows first appear, as parsing numbers them."""
    first, pair_index = np.unique(frames, return_inverse=True)
    return np.stack([stamps[first], stamps[first + 1]], axis=1), pair_index


def history_columns(network: Network) -> tuple[tuple[str, ...], ...]:
    """The sorted id tuples of a History over network: nodes, elements,
    valves and pipes."""
    return tuple(tuple(sorted(ids)) for ids in (network.nodes, network.elements,
                                                network.of_kind(ElementKind.VALVE),
                                                network.pipes()))


def narrow_history(blocks: Iterable[History], network: Network) -> History:
    """Blocks of a history over history_columns(network), narrowed to what
    components reads, valve states and pressures at resistor ends, and
    joined.  No view of a block is kept, as it would keep the whole block."""
    ends = sorted({node for element in network.of_kind(ElementKind.RESISTOR).values()
                   for node in (element.from_node, element.to_node)})
    columns = tuple(ends), (), tuple(sorted(network.of_kind(ElementKind.VALVE))), ()
    end_cols = np.searchsorted(history_columns(network)[0], ends)
    # fancy indexing copies
    return join_histories([History(block.timestamps, *columns, block.pressure_pa[:, end_cols],
                                   np.empty((len(block), 0)), block.valve_open,
                                   np.empty((len(block), 0))) for block in blocks], columns)


def _given(ids: tuple[str, ...], row: np.ndarray) -> dict[str, float]:
    # NaN is the one value unequal to itself
    return {key: value for key, value in zip(ids, row.tolist()) if value == value}


# states.csv is read in windows of about this many bytes, each cut at its
# last newline: smaller ones cost more per byte, larger ones raise peak
# memory and read no faster
_WINDOW = 1 << 18


class _Carry(NamedTuple):
    """What a window of states.csv leaves to the next: how many of its last
    bytes, its rows from line on (1 is the header), the next goes on with,
    where their newlines stand at the buffer's front if the template reader
    framed them, and the template since the row loop ran (_window_step)."""

    held: int = 0
    line: int = 1
    template: tuple | None = None
    ends: np.ndarray = np.empty(0, np.intp)


# per quantity, in the order of history_columns, what the row loop says of
# an id the network does not hold under it
_MISSES = {QUANTITY_PRESSURE: "unknown node {0!r}", QUANTITY_FLOW: "unknown element {0!r}",
           QUANTITY_VALVE: "{0!r} is not a valve", QUANTITY_RHO: "{0!r} is not a pipe"}


def states_blocks(path: str, network: Network, sha=None) -> Iterator[History]:
    """A long-format state history as consecutive blocks of whole frames,
    each a History over history_columns(network), checked as parse_states
    checks the whole.

    The file is read once, in windows.  The template reader (_window_step)
    reads a window in which every frame repeats one template and passes the
    checks as arrays; the row loop (_row_step) reads any other, and only
    it raises ParseError.  Either gives one block of the frames the window
    completes: a frame is complete once the next row is known to start a
    later instant.  sha, a hashlib object, is updated with every byte of
    the file.
    """
    columns = history_columns(network)
    # a frame is a row over every column of columns, in order
    places = {key: place for place, key in enumerate(
        (entity, quantity) for ids, quantity in zip(columns, _MISSES) for entity in ids)}
    with open(path, "rb") as handle:
        header = handle.readline()
        if sha is not None:
            sha.update(header)
        # the row loop reads a header in other bytes than csv.writer's
        head = ",".join(STATES_COLUMNS).encode()
        carry = _Carry(line=2) if header in (head + b"\n", head + b"\r\n") else _Carry(len(header))
        # windows are read into one buffer, after the bytes the last one left,
        # which move to _CELL; a window ends at its last newline, its cut
        buffer, final = bytearray(_CELL) + header, False
        cut = filled = len(buffer)
        while not final:
            kept = carry.held + filled - cut
            memoryview(buffer)[_CELL:_CELL + kept] = memoryview(buffer)[filled - kept:filled]
            # grown to hold a window and the template's words after it (_window_step),
            # as no view of it outlives a window
            pad = 8 * carry.template[0].shape[1] if carry.template is not None else 0
            buffer += bytes(max(_CELL + kept + _WINDOW + pad - len(buffer), 0))
            with memoryview(buffer)[_CELL + kept:_CELL + kept + _WINDOW] as read:
                size = handle.readinto(read)
                if sha is not None:
                    sha.update(read[:size])
            # a short read ends the file, whose last line need not end with a newline
            final, filled = size < _WINDOW, _CELL + kept + size
            cut = filled if final else buffer.rfind(b"\n", _CELL, filled) + 1 or _CELL
            block, carry = (_window_step(buffer, cut, carry, final, places, columns)
                            or _row_step(path, columns, places, buffer[_CELL:cut], carry, final))
            if len(block):
                yield block


def parse_states(path: str, network: Network, sha=None) -> History:
    """Read a long-format state history into arrays: the blocks of
    states_blocks (sha as there), joined.

    Rows of one timestamp may come in any order but timestamps must be
    grouped and strictly increasing; different spellings of one instant
    belong to the same frame.  Entities must exist in the network and
    match the quantity kind; pressures must be positive and densities
    inside the accepted band.  A repeated row overrides the earlier one.
    Rows are checked in file order, so the first bad line is reported.
    """
    return join_histories(list(states_blocks(path, network, sha)), history_columns(network))


def join_histories(blocks: list[History], columns: tuple[tuple[str, ...], ...]) -> History:
    """The history whose frames are those of blocks, one block after the
    other, all over columns."""
    arrays = (np.concatenate([np.empty((0, len(ids)))] + [block.arrays()[q] for block in blocks])
              for q, ids in enumerate(columns))
    stamps = np.concatenate([np.empty(0, np.int64)] + [block.timestamps for block in blocks])
    return History(stamps, *columns, *arrays)


def _row_step(path: str, columns: tuple[tuple[str, ...], ...], places: dict,
              window: bytearray, carry: _Carry, final: bool) -> tuple[History, _Carry]:
    """The frames that window, the carried rows and then those read,
    completes, read row by row with read_table's framing and parse_states'
    checks and messages, places giving the place of an (entity, quantity)
    in a frame's row, and the carry for the next window, which, unless
    final, gets the last row and the frame it may belong to."""
    # places below the first valve's hold pressures, from the first pipe's on densities
    nodes, pipes = len(columns[0]), sum(map(len, columns[:3]))
    lines = list(io.StringIO(window.decode(_ENCODING, "surrogateescape"), newline=""))
    stamps: list[int] = []
    # a row per frame, which keeps the last of repeated values
    rows: list[list[float]] = []
    stamp_text = None
    for line, at, (text, entity, quantity, value_text) in _rows(
            path, lines, STATES_COLUMNS, carry.line, not final, window.isascii()):
        if text != stamp_text:
            # rows of one frame repeat their timestamp text, so it is
            # parsed once per run of equal texts
            stamp = parse_timestamp(text, path, line)
            stamp_text, us = text, (stamp - _EPOCH) // _MICROSECOND
            if stamps and us < stamps[-1]:
                raise ParseError(path, line,
                                 f"timestamps not strictly increasing: "
                                 f"{format_timestamp(stamp)} after "
                                 f"{format_timestamp(instant(stamps[-1]))}")
            if not stamps or us > stamps[-1]:
                stamps.append(us)
                row = [math.nan] * len(places)
                rows.append(row)
                opened = at, line
        try:
            # inlined, as this loop runs once per row of the largest file
            value = float(value_text)
        except ValueError:
            raise ParseError(path, line, f"invalid number {value_text!r} in column value") from None
        if not math.isfinite(value):
            raise ParseError(path, line, f"non-finite value {value_text!r} for {entity!r}")
        place = places.get((entity, quantity))
        if place is None:
            raise ParseError(path, line, _MISSES.get(quantity, "unknown quantity {1!r}")
                             .format(entity, quantity))
        if place < nodes and not value > 0.0:
            raise ParseError(path, line, f"pressure must be positive, got {value}")
        if place >= pipes:
            try:
                validate_normal_density(value)
            except ModelError as exc:
                raise ParseError(path, line, str(exc)) from None
        row[place] = value
    if final:
        return _history(stamps, rows, columns), _Carry()
    # with no frame begun, the next window reads this one's rows again
    at, line = opened if rows else (0, carry.line)
    return (_history(stamps[:-1], rows[:-1], columns),
            _Carry(len("".join(lines[at:]).encode(_ENCODING)), line))


def _history(stamps: list[int] | np.ndarray, rows: list[list[float]] | np.ndarray,
             columns: tuple[tuple[str, ...], ...]) -> History:
    """The History of the frames at the instants stamps whose rows, one per
    frame over every column of columns in order, hold values in file units:
    split into History's arrays, in SI units."""
    rows = np.asarray(rows, dtype=float).reshape(len(stamps), sum(map(len, columns)))
    pressure, flow, valve, rho = np.split(rows, np.cumsum([*map(len, columns[:3])]), axis=1)
    # each array its own, as a view would keep all rows; |NaN| has no sign,
    # so a valve not given stays NaN
    return History(np.array(stamps, dtype=np.int64), *columns, pressure * BAR, flow * KNM3H,
                   np.sign(np.abs(valve)), rho.copy())


# a value of at most _DIGITS characters of the form [-]digits[.digits] is an
# integer below 2^53 over a power of ten, which one division rounds as
# float() does (Clinger's fast path)
_DIGITS = 15
_TENS = 10 ** np.arange(_DIGITS + 1)
# the places of a row's last _DIGITS + 1 bytes and, per value length, the
# mask of those that belong to the value, as one void
_PLACES = np.arange(_DIGITS, -1, -1, dtype=np.uint8)
_INSIDE = (_PLACES < np.arange(_DIGITS + 2)[:, None]).view(f"V{_DIGITS + 1}").ravel()


def _gather(buf: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The width bytes of buf from each of at, gathered as one void each."""
    return np.ndarray((buf.size - width + 1,), f"V{width}", buf, 0, (1,))[at]


def _join_digits(words: np.ndarray) -> np.ndarray:
    """Little-endian words of eight digits, the first the most significant, as integers."""
    for shift, low in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0xFFFFFFFF)):
        words = (words * 10 ** (shift // 8) + (words >> shift)) & low
    return words


def _decimals(raw: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float each raw[start:end] spells, as float() reads it where it
    takes a fast path, Clinger's or the Eisel-Lemire method, and the mask
    of those that do; raw holds _CELL bytes before each end."""
    length = end - start
    cells = _gather(raw, end - _DIGITS - 1, _DIGITS + 1).view(np.uint8).reshape(-1, _DIGITS + 1)
    inside = _INSIDE[np.minimum(length, _DIGITS + 1)].view(bool).reshape(cells.shape)
    digits = cells - np.uint8(48)
    digit, point = (digits < 10) & inside, (cells == 46) & inside
    words = _join_digits((digits * digit).view("<u8"))
    whole = (words[:, 0] * 10 ** 8 + words[:, 1]).astype(int)
    # the digits, the points and their places: a cell's two words add without
    # a carry, and a word's bytes times 0x0101010101010101 add up in its top byte
    count, points, place = (((halves[:, 0] + halves[:, 1]) * 0x0101010101010101 >> 56).astype(int)
                            for halves in (x.view("<u8") for x in (digit, point, point * _PLACES)))
    negative = raw[start] == 45
    fast = (length <= _DIGITS) & (count > 0) & (points <= 1) & (length - count - points == negative)
    # digits before a point weigh ten times their worth in whole; a fast
    # value's point stands at a place below 15
    scale = _TENS[place & _DIGITS]
    whole -= whole // (10 * scale) * (9 * scale) * points
    mantissa = whole.astype(float)
    values = np.where(negative, -mantissa, mantissa) / scale
    if not (declined := np.flatnonzero(~fast)).size:
        return values, fast
    # of the values declined, one of at most _CELL characters, at most 19 digits
    # from its first nonzero one and k <= 19 after the point is w 10^-k, w < 10^19
    length, negative, whole, count, points, place = (
        a[declined] for a in (length, negative, whole, count, points, place))
    # every 8 bytes of raw as a word
    word = np.ndarray((raw.size - 7,), "<u8", raw, 0, (1,))[end[declined] - _CELL]
    inside = np.take(_WORD_INSIDE, length, mode="clip")
    digits = word.view(np.uint8) - np.uint8(48)
    # a point less 48 wraps to 254; the word's places are 7 to 0
    digit, point = (digits < 10).view("<u8") & inside, (digits == 254).view("<u8") & inside
    count_h, points_h, place_h = ((x * 0x0101010101010101 >> 56).astype(int)
                                  for x in (digit, point, point * 255 & 0x0001020304050607))
    # the word's digits without its point, as whole's above, before whole's
    front, scale = _join_digits(digits.view("<u8") & digit * 255).astype(int), _TENS[place_h & 7]
    front -= front // (10 * scale) * (9 * scale) * points_h
    w = front.astype(np.uint64) * _POW10[16 - points] + whole.astype(np.uint64)
    k = place + (place_h + 16) * points_h
    fast[declined] = ((length <= _CELL) & (count + count_h > 0) & (points + points_h <= 1)
                      & (length - count - count_h - points - points_h == negative) & (k <= 19)
                      & (front < np.where(points, 10_000, 1000)))
    # by the Eisel-Lemire method as fast_float runs it: w, shifted to fill 64 bits, times
    # 5^-k's high word, and its low word where a carry could reach the 55 bits kept
    size = np.frexp(w.astype(float))[1]
    w <<= (lead := (64 - size + (w >> (size - 1).astype(np.uint64) == 0)).astype(np.uint64))
    five = np.take(_FIVES, k, axis=1, mode="clip")
    high, low = _product(five[0], five[1], w)
    near = np.flatnonzero((high & 0x1FF) == 0x1FF)
    low[near] += (carry := _product(five[2, near], five[3, near], w[near])[0])
    high[near] += low[near] < carry
    # 54 bits, rounded to 53, ties to even: only for k <= 4 can w 10^-k be a tie
    top = high >> 63
    kept = high >> top + 9
    kept -= (low <= 1) & (k <= 4) & ((kept & 3) == 1) & (kept << top + 9 == high)
    bits = (five[4] + top - lead << 52) + (kept + (kept & 1) >> 1)
    values[declined] = (bits * (w != 0) | negative.astype(np.uint64) << 63).view(float)
    return values, fast


# a value of at most _CELL characters is read from the _CELL bytes before
# its end: per length, the bytes of their first word that hold it; per k,
# 5^-k 2^(127 + z) rounded up, z the bit length of 5^k - 1, in 32-bit limbs
# (fast_float's power_of_five_128), and 1085 - k - z: with the product's
# top bit, less w's shift, the biased exponent of w 10^-k, less one
_CELL = 24
_WORD_INSIDE = ~np.uint64(0) << (np.clip(_CELL - np.arange(_CELL + 1), 0, 8) * 8).astype(np.uint64)
_FIVES = np.array([[t >> s & 0xFFFFFFFF for s in (96, 64, 32, 0)] + [1085 - k - z]
                   for k in range(20) for z in [(5 ** k - 1).bit_length()]
                   for t in [(1 << 127 + z) // 5 ** k + (k > 0)]], np.uint64).T.copy()


def _product(high: np.ndarray, low: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a b's high and low 64 bits, a = high 2^32 + low, from 32-bit limbs, mostly in place."""
    b1, b0 = b >> 32, b & 0xFFFFFFFF
    lows = low * b0
    b0 *= high
    b0 += lows >> 32
    lows &= 0xFFFFFFFF
    low = low * b1 + (b0 & 0xFFFFFFFF)
    b1 *= high
    b1 += (b0 >> 32) + (low >> 32)
    return b1, low << 32 | lows


def _window_step(buf: bytearray, cut: int, carry: _Carry, final: bool, places: dict,
                 columns: tuple[tuple[str, ...], ...]) -> tuple[History, _Carry] | None:
    """The frames that the window buf[_CELL:cut], the carried rows and then
    those read, completes, checked as arrays where they are, places giving the
    place of an (entity, quantity) in a frame's row, and the carry for the
    next window; None for a window that only the row loop can read.  Each
    frame repeats the template, the bytes from the first comma to the last of
    each row of the first whole frame, and each row its frame's first
    timestamp bytes; a \\r stands only before a \\n, and a value, read as
    float() reads it, holds no comma.
    """
    if carry.line == 1:
        return None
    raw = np.frombuffer(buf, np.uint8)
    if final and cut > _CELL and raw[cut - 1] != 10:
        buf[cut], cut = 10, cut + 1
    # the newlines the carry knows and those after them: each byte is framed once
    known = carry.ends[-1] + 1 if len(carry.ends) else _CELL
    ends = np.concatenate([carry.ends, np.flatnonzero(raw[known:cut] == 10) + known])
    starts = np.concatenate([[_CELL], ends[:-1] + 1])[:len(ends)]
    returns = raw[ends - 1] == 13
    if buf.find(b"\r", known, cut) >= 0 and (np.count_nonzero(raw[known:cut] == 13)
                                             != np.count_nonzero(returns[len(carry.ends):])):
        return None
    template = carry.template
    if template is None:
        # the first frame, the rows that begin with the first row's timestamp,
        # or all rows, which the next window goes on with unless final, or none
        head = bytes(buf[_CELL:buf.find(b",", _CELL, cut) + 1])
        size = next((r for r, start in enumerate(starts.tolist())
                     if not buf.startswith(head, start, cut)), len(ends))
        if size == len(ends) and not final or not size:
            return _history([], [], columns), carry._replace(held=cut - _CELL, ends=ends)
        middles = [bytes(buf[buf.find(b",", a, b):buf.rfind(b",", a, b) + 1])
                   for a, b in zip(starts[:size].tolist(), ends[:size].tolist())]
        # a quote the cells leave open swallows the 0
        cells = list(csv.reader(middle[1:].decode(_ENCODING, "surrogateescape") + "0"
                                for middle in middles))
        # bytes the encoding cannot read decode to surrogates, which no id holds
        row_place = [places.get((row[0], row[1])) if len(row) == 3 and row[2] == "0" else None
                     for row in cells]
        if len(row_place) != size or None in row_place:
            return None
        # the middles as 8-byte words and the mask of their bytes, their
        # widths, the place of each row, and the places a frame gives, each
        # with the row that gives it: a repeated row keeps the last
        widths = np.array([*map(len, middles)])
        width = -(-widths.max() // 8) * 8
        source = {place: row for row, place in enumerate(row_place)}
        template = (np.array(middles, f"S{width}").view(np.uint64).reshape(size, -1),
                    (np.uint8(255) * (np.arange(width) < widths[:, None])).view(np.uint64),
                    widths, np.array(row_place), *np.array([*source.items()]).T)
    names, mask, widths, row_place, given, source = template
    size, words = len(widths), mask.shape[1]
    # unless final, the row after the last frame must be known
    end = max(len(ends) - (not final), 0) // size * size
    if final and end != len(ends):
        return None
    if not end:
        return _history([], [], columns), carry._replace(held=cut - _CELL, ends=ends)
    stop = ends[end - 1] + 1
    # each frame's timestamp and, unless final, that of the row after the
    # last, which every other row of the frame begins with
    heads = [buf[a:b].partition(b",")[0] for a, b in zip(starts[:end + 1:size].tolist(),
                                                          ends[:end + 1:size].tolist())]
    span = len(heads[0])
    same = all(len(head) == span for head in heads[:end // size])
    if cut + max(words * 8, span) > raw.size:  # more than the room after the cut: a copy
        raw = np.concatenate([raw[:cut], np.zeros(max(words * 8, span), np.uint8)])
    # each row must begin with its frame's head, so its names lie before the cut;
    # heads of one length are compared with the next row's at once
    if same:
        rows = _gather(raw, starts[:end], span).view(np.uint8).reshape(end // size, size * span)
        if not (rows[:, span:] == rows[:, :(size - 1) * span]).all():
            return None
    elif any(buf.count(b"\n" + head + b",", a, b) != size - 1 for head, a, b in zip(
            heads, ends[:end:size].tolist(), ends[size - 1:end:size].tolist())):
        return None
    first = starts[:end] + (span if same else np.repeat([*map(len, heads[:end // size])], size))
    if not ((_gather(raw, first, words * 8).view(np.uint64)
             .reshape(-1, size, words) & mask) == names).all():
        return None
    value = (first.reshape(-1, size) + widths).ravel()
    tail = ends[:end] - returns[:end]
    values, fast = _decimals(raw, value, tail)
    slow = np.flatnonzero(~fast)
    try:
        values[slow] = [float(buf[a:b]) for a, b in zip(value[slow].tolist(), tail[slow].tolist())]
        stamps = microseconds(parse_timestamp(head.decode(_ENCODING, "surrogateescape"))
                              for head in heads)
    except (ValueError, ParseError):
        return None
    values = values.reshape(-1, size)
    # every row is checked, also one a later repeat overrides; places as
    # in _row_step
    density = values[:, row_place >= sum(map(len, columns[:3]))]
    if not (np.isfinite(values).all() and (values[:, row_place < len(columns[0])] > 0.0).all()
            and ((density > RHO_N_MIN_KGM3) & (density <= RHO_N_MAX_KGM3)).all()
            and (np.diff(stamps) > 0).all()):
        return None
    frames = np.full((len(values), len(places)), math.nan)
    frames[:, given] = values[:, source]
    return _history(stamps[:len(values)], frames, columns), carry._replace(
        held=cut - stop, line=carry.line + end, template=template, ends=ends[end:] - stop + _CELL)


def serialize_states(history: History, path: str) -> None:
    """Write a history in the long format: frame by frame, the values it
    gives in column order (pressures, flows, valve states, densities), in
    the bytes csv.writer writes, each column's cells quoted once."""
    quantities = [([f",{_csv_cell(entity)},{quantity}," for entity in ids], values, form)
                  for quantity, ids, values, form in (
                      (QUANTITY_PRESSURE, history.node_ids, history.pressure_pa / BAR, repr),
                      (QUANTITY_FLOW, history.arc_ids, history.flow_m3s / KNM3H, repr),
                      (QUANTITY_VALVE, history.valve_ids, history.valve_open,
                       lambda state: "1" if state else "0"),
                      (QUANTITY_RHO, history.pipe_ids, history.rho_n, repr))]
    with open(path, "w", newline="") as handle:
        handle.write(",".join(STATES_COLUMNS) + "\r\n")
        for k, stamp in enumerate(history.timestamps.tolist()):
            text = format_timestamp(instant(stamp))
            # NaN, unequal to itself, marks a value not given
            handle.write("".join([f"{text}{cell}{form(value)}\r\n"
                                  for cells, values, form in quantities
                                  for cell, value in zip(cells, values[k].tolist())
                                  if value == value]))


# scan saves its history and terms in this file next to its terms file
HISTORY_SIDECAR = "history.npz"


def file_sha256(path: str) -> str:
    # imported here because loading it costs every stage's start about 4 ms,
    # and only the stages that read or write the sidecar hash files
    import hashlib

    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        # one buffer, read into again and again, no larger than a regular file,
        # as zeroing it costs a small file more than hashing; a pipe has no size
        size = os.fstat(handle.fileno()).st_size if os.path.isfile(path) else 1 << 20
        buffer = bytearray(min(size, 1 << 20) or 1)
        view = memoryview(buffer)
        while size := handle.readinto(buffer):
            sha.update(view[:size])
    return sha.hexdigest()


def save_history(history: History, terms: Terms, terms_path: str, terms_sha256: str,
                 states_sha256: str, topology_sha256: str, states_size: int) -> None:
    """Save next to terms_path the terms scan wrote there with digest
    terms_sha256, the digests of the files history and its network were
    parsed from (as states_blocks and parse_topology read them), the sizes
    in bytes of the terms file and of the states file, states_size, and
    history as narrow_history gives it: the timestamps and the columns
    components reads, valve states and the pressures at resistor ends.
    The terms are saved field for field, Terms' field f as member terms_f."""
    np.savez(os.path.join(os.path.dirname(terms_path), HISTORY_SIDECAR),
             states_sha256=states_sha256,
             topology_sha256=topology_sha256,
             terms_sha256=terms_sha256,
             states_size=states_size,
             terms_size=os.path.getsize(terms_path),
             timestamps_us=history.timestamps,
             valve_ids=np.array(history.valve_ids, dtype=str),
             valve_open=history.valve_open,
             node_ids=np.array(history.node_ids, dtype=str),
             pressure_pa=history.pressure_pa,
             **{f"terms_{field.name}": getattr(terms, field.name) for field in fields(terms)})


def load_saved(terms_path: str, cfg: ThresholdConfig | None = None,
               states_path: str | None = None,
               topology_sha256: str | None = None) -> tuple[Terms, History | None] | None:
    """What scan saved next to terms_path: the terms, checked against cfg
    as read_terms checks them, and, given the states file and the digest
    of the topology file, the history, which holds only valve states and
    resistor end pressures.  None unless terms_path and the states file
    have the contents scan wrote and read, and the topology the digest."""
    try:
        with np.load(os.path.join(os.path.dirname(terms_path), HISTORY_SIDECAR)) as saved:
            # another size proves another file without a read; each file is
            # hashed once, and none after the first mismatch
            given = states_path is not None
            if (int(saved["terms_size"]) != os.path.getsize(terms_path)
                    or given and int(saved["states_size"]) != os.path.getsize(states_path)
                    or str(saved["terms_sha256"]) != file_sha256(terms_path)
                    or given and (str(saved["topology_sha256"]) != topology_sha256
                                  or str(saved["states_sha256"]) != file_sha256(states_path))):
                return None
            stamps = saved["timestamps_us"]
            terms = Terms(saved["terms_pairs"], saved["terms_pair_index"],
                          tuple(saved["terms_pipes"].tolist()), saved["terms_pipe_index"],
                          saved["terms_numbers"], saved["terms_relevant"])
            history = None
            if states_path is not None:
                empty = np.empty((len(stamps), 0))
                history = History(stamps, tuple(saved["node_ids"].tolist()), (),
                                  tuple(saved["valve_ids"].tolist()), (), saved["pressure_pa"],
                                  empty, saved["valve_open"], empty)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        # an absent or unreadable sidecar only means parsing the CSV files
        return None
    # read_table numbers the rows after the header from 2 on
    _check_relevant(terms_path, terms, range(2, len(terms.relevant) + 2), cfg)
    return terms, history


@dataclass(frozen=True)
class ExclusionWindow:
    """Half-open time window [start, end) during which a pipe is ignored,
    its edges instants as a History holds them."""

    pipe_id: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise ModelError(f"exclusion window for {self.pipe_id!r} requires end > start")


def parse_exclusions(path: str, network: Network) -> list[ExclusionWindow]:
    windows: list[ExclusionWindow] = []
    for line, (pipe_id, start_text, end_text) in read_table(path, EXCLUSIONS_COLUMNS):
        element = network.elements.get(pipe_id)
        if element is None or element.kind is not ElementKind.PIPE:
            raise ParseError(path, line, f"{pipe_id!r} is not a pipe")
        start, end = microseconds(parse_timestamp(text, path, line)
                                  for text in (start_text, end_text)).tolist()
        try:
            windows.append(ExclusionWindow(pipe_id, start, end))
        except ModelError as exc:
            raise ParseError(path, line, str(exc)) from None
    return windows


def exclusion_mask(windows: list[ExclusionWindow], t1: np.ndarray,
                   pipe_ids: tuple[str, ...] | np.ndarray) -> np.ndarray:
    """[pairs x pipes] mask of the data points some window covers.

    A data point belongs to a window when its evaluation time, its pair's
    t1 as a History's instant, does.  pipe_ids, a tuple or an array, are
    sorted, as History columns are, and hold every window's pipe.
    """
    mask = np.zeros((len(t1), len(pipe_ids)), dtype=bool)
    if windows:
        # t1 is chronological, so the pairs whose t1 lies in [start, end) form one run
        edges = t1.searchsorted([edge for w in windows for edge in (w.start, w.end)])
        columns = np.searchsorted(pipe_ids, [w.pipe_id for w in windows])
        for start, end, column in zip(edges[::2].tolist(), edges[1::2].tolist(), columns.tolist()):
            mask[start:end, column] = True
    return mask


TERMS_COLUMNS = ["t0", "t1", "pipe_id", "flow_t0_kNm3h", "flow_t1_kNm3h",
                 "dflow_kNm3h", "alpha_bar", "beta_bar", "alpha_per_10km_bar",
                 "ratio", "relevant"]

# alpha per length is reported in bar per 10 km in files and plots
PER_10KM = BAR / 10e3


@dataclass(frozen=True, eq=False)
class Terms:
    """Evaluated data points as columns: one entry per point, in file order
    (pairs chronologically, pipes by id within a pair when scan wrote them).

    pair_index points into pairs, the distinct analysis pairs, whose t0 and
    t1 are instants as a History holds them, pipe_index into pipes, sorted
    ids that may hold pipes no row names; numbers holds the number columns
    of TERMS_COLUMNS in file units, as terms.csv and history.npz do.
    """

    pairs: np.ndarray                 # [pairs x 2] int64
    pair_index: np.ndarray            # int
    pipes: tuple[str, ...]
    pipe_index: np.ndarray            # int
    numbers: np.ndarray               # [7 x points] float
    relevant: np.ndarray              # bool


def _csv_cell(text: str) -> str:
    """text as csv.writer writes it among other cells of a row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(("", text))
    return buffer.getvalue()[1:-len(writer.dialect.lineterminator)]


@functools.cache
def _schubfach_table() -> np.ndarray:
    """[4 x 617] uint64: per k from -324 to 292, g = floor(10^-k 2^-r) + 1
    in [2^125, 2^126), as 32-bit limbs of g >> 63 and g mod 2^63, high first."""
    # floor(log2 10^e) is bit_length - 1, or -bit_length for e < 0
    gs = [1 + (p << 125 >> p.bit_length() - 1 if e >= 0 else (1 << 125 + p.bit_length()) // p)
          for e, p in ((e, 10 ** abs(e)) for e in range(324, -293, -1))]
    return np.array([[g >> 95, g >> 63 & 0xFFFFFFFF, g >> 32 & 0x7FFFFFFF, g & 0xFFFFFFFF]
                     for g in gs], dtype=np.uint64).T.copy()


def _rop(k: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """g(k) cp 2^-127 rounded down to odd, 2 bits of fraction, the last sticky,
    as Schubfach's rop computes it for [... x n] cp below 2^60."""
    g11, g10, g01, g00 = np.take(_schubfach_table(), k + 324, axis=1)
    # g1 cp = y1 2^64 + y0 and the high 64 bits x1 of g0 cp, z = y0 / 2 + x1
    y1, y0 = _product(g11, g10, cp)
    z = (y0 >> 1) + _product(g01, g00, cp)[0]
    return y1 + (z >> 63) | (z << 1 != 0)


_POW10 = 10 ** np.arange(20, dtype=np.uint64)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest decimal that reads back as each positive finite float64
    of x, the closest of them, ties to even: its digits as a 17-digit integer
    with zeros appended, and the point before them, x = 0.ddd 10^point.  By
    Giulietti's Schubfach (2020), as Java's DoubleToDecimal, but that one
    digit is kept where it is the shortest: repr gives 5e-324, Java 4.9E-324.
    """
    bits = x.view(np.uint64)
    biased = (bits >> 52).astype(np.int64)
    q = np.maximum(biased, 1) - 1075
    c = bits & (1 << 52) - 1 | (biased > 0).astype(np.uint64) << 52
    # a power of two has its closer neighbour below, but for the least exponent
    asymmetric = (c == 1 << 52) & (q > -1074)
    k = (q * 661971961083 - asymmetric * 274743187321) >> 41
    # 4 c and the bounds of its rounding interval, times 2^h, scaled by 10^-k
    vb, vbl, vbr = _rop(k, np.stack([c << 2, (c << 2) - 2 + asymmetric, (c << 2) + 2])
                        << (q + (-k * 913124641741 >> 38) + 2).astype(np.uint64))
    # the interval is closed for even c; a multiple of 10 in it, of which
    # there is at most one, has the fewest digits; else s or s + 1, the
    # closer if both are in, ties to even
    lowest, highest, s = vbl + (c & 1), vbr - (c & 1), vb >> 2
    sp10 = s // 10 * 10
    upin, wpin = lowest <= sp10 << 2, (sp10 << 2) + 40 <= highest
    uin, win = lowest <= s << 2, (s << 2) + 4 <= highest
    f = np.where(upin != wpin, sp10 + wpin * np.uint64(10),
                 s + (win & (~uin | ((vb & 3) + (s & 1) > 2))))
    digits = np.searchsorted(_POW10, f, side="right")
    return f * _POW10[17 - digits], k + digits


def _repr_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[39 x values] uint8, a cell per float64 of x that spells it as repr
    does, then a comma, and the mask of the bytes that belong.  repr writes
    the shortest round-trip digits, positional for 1e-4 <= |x| < 1e16: those
    are laid out from _shortest in cells of sign, 16 integer digits, point,
    3 zeros and 17 fraction digits, so 0.000ddd, ddd.ddd and ddd00.0 differ
    only in the mask.  Zero, non-finite and exponent-form values go to repr."""
    finite = np.isfinite(x) & (x != 0)
    number, point = _shortest(np.where(finite, np.abs(x), 1.0))
    positional = finite & (point > -4) & (point <= 16)
    point = np.where(positional, point, 1)
    cut = _POW10[17 - np.maximum(point, 0)]
    # the integer part and the fraction's digits, left-aligned, split in
    # halves, quarters, ... of the narrowest type, which divides fastest
    top, fraction = np.divmod(number % cut * (10 ** 17 // cut), 10 ** 16)
    digits = np.stack([number // cut, fraction])
    for power, dtype in zip((10 ** 8, 10 ** 4, 100, 10), ("u4", "u2", "u1", "u1")):
        high = digits // power
        digits = np.stack([high, digits - high * power], axis=1).reshape(
            -1, len(x)).astype(dtype)
    cells = np.empty((39, len(x)), dtype=np.uint8)
    cells[0], cells[17], cells[18:21], cells[38] = ord("-"), ord("."), ord("0"), ord(",")
    cells[1:17], cells[21], cells[22:38] = digits[:16] + 48, top + 48, digits[16:] + 48
    row = np.arange(17, dtype=np.uint8)[:, None]
    # the integer part, 0 for 0.ddd, the zeros of 0.000ddd, and the
    # fraction to its last nonzero digit, or 0 for ddd.0
    last = ((row + 1) * (cells[21:38] != 48)).max(axis=0)
    mask = np.concatenate([np.signbit(x)[None], row[:16] >= 16 - np.maximum(point, 1),
                           np.ones((1, len(x)), dtype=bool), row[:3] < -point,
                           row < np.maximum(last, 1), np.ones((1, len(x)), dtype=bool)])
    declined = np.flatnonzero(~positional)
    if declined.size:
        spelled = [repr(value).encode() for value in x[declined].tolist()]
        cells[:24, declined] = np.array(spelled, dtype="S24").view(np.uint8).reshape(-1, 24).T
        mask[:38, declined] = np.arange(38)[:, None] < np.array(list(map(len, spelled)))
    return cells, mask


def _text_cells(texts: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """[longest x texts] uint8, a column per text left-aligned, and the mask
    of the bytes that belong."""
    cells = np.array(texts, dtype=bytes)
    cells = cells.view(np.uint8).reshape(-1, cells.itemsize)
    return cells.T, np.arange(cells.shape[1])[:, None] < np.array([*map(len, texts)], dtype=int)


# rows written at a time: fewer cost more per row, more raise peak memory
_TERMS_CHUNK = 1 << 10


def write_terms(terms: Terms, path: str) -> str:
    """Write a terms file with the bytes csv.writer would give, and return
    the sha256 of those bytes, hashed as they are written.

    A chunk of rows at a time, the cells, none of which but pipe ids need
    quoting, are laid out left-aligned in a [bytes x rows] matrix, and the
    bytes that belong are kept, row by row.  The text cells, pair stamps,
    the pipe ids rows name and relevant flags, are spelled once for all chunks.
    """
    import hashlib  # imported late, as in file_sha256
    sha = hashlib.sha256()
    with open(path, "w", newline="") as text:
        # the bytes a text file would write, through its buffer
        handle, encoding = text.buffer, text.encoding
        header = (",".join(TERMS_COLUMNS) + "\r\n").encode(encoding)
        handle.write(header)
        sha.update(header)
        used, id_at = np.unique(terms.pipe_index, return_inverse=True)
        # each text column's cells and masks, and per row the column it takes
        texts = [
            (_text_cells([(",".join(format_timestamp(instant(us)) for us in pair) + ",")
                          .encode(encoding) for pair in terms.pairs.tolist()]), terms.pair_index),
            (_text_cells([(_csv_cell(terms.pipes[k]) + ",").encode(encoding)
                          for k in used.tolist()]), id_at),
            # csv.writer ends rows with \r\n
            (_text_cells([b"0\r\n", b"1\r\n"]), terms.relevant.astype(np.intp))]
        for start in range(0, len(terms.relevant), _TERMS_CHUNK):
            rows = slice(start, start + _TERMS_CHUNK)
            pair, pipe, flag = ((cells[:, at[rows]], mask[:, at[rows]])
                                for (cells, mask), at in texts)
            parts = [
                pair, pipe,
                # a cell per row and number column, rows innermost
                (block.reshape(39, 7, -1).transpose(1, 0, 2).reshape(273, -1)
                 for block in _repr_cells(terms.numbers[:, rows].ravel())),
                flag]
            matrix, mask = (np.concatenate(blocks) for blocks in zip(*parts))
            chunk = matrix.T[mask.T]
            handle.write(chunk)
            sha.update(chunk)
            del matrix, mask, chunk  # before the next chunk is laid out
    return sha.hexdigest()


def read_terms(path: str, history: History | None = None, pipes: Iterable[str] = (),
               cfg: ThresholdConfig | None = None) -> Terms:
    """The terms of a terms file, in which a pair and pipe appear once.

    Given the history the terms were computed from and its topology's pipe
    ids, every row must also name one of pipes and two consecutive frames.
    Rows are checked in file order, so the first bad line is reported.
    Given a threshold config, every row's relevant flag must then be the
    one pipe_relevant gives under it.

    Without a history, the terms scan saved next to path are loaded
    instead of parsed when path still has the contents scan wrote.
    """
    saved = load_saved(path, cfg) if history is None else None
    if saved is not None:
        return saved[0]
    terms, lines = _parse_terms(path, history, set(pipes))
    _check_relevant(path, terms, lines, cfg)
    return terms


def _check_relevant(path: str, terms: Terms, lines, cfg: ThresholdConfig | None) -> None:
    """Raise ParseError at the line of the first row whose relevant flag cfg contradicts."""
    if cfg is None:
        return
    wrong = np.flatnonzero(terms.relevant != pipe_relevant(terms.numbers[5] * PER_10KM,
                                                           terms.numbers[6], cfg))
    if wrong.size:
        raise ParseError(path, lines[wrong[0]],
                         f"relevant is {int(terms.relevant[wrong[0]])}, but the thresholds "
                         "of this config say otherwise; run scan with the same config")


def _parse_terms(path: str, history: History | None, pipes: set) -> tuple[Terms, list[int]]:
    """The terms of a terms file and the line of each row, checked as read_terms says."""
    # pair texts -> index of their pair; spellings of one instant share it
    by_text: dict[tuple[str, str], int] = {}
    by_pair: dict[tuple[int, int], int] = {}
    seen: set[tuple[int, str]] = set()
    lines, pair_index, pipe_ids, numbers, relevant = [], [], [], [], []
    for line, row in read_table(path, TERMS_COLUMNS):
        k = by_text.get((row[0], row[1]))
        if k is None:
            pair = parse_instants(row, path, line)
            if pair not in by_pair and history is not None:
                k0, k1 = history.timestamps.searchsorted(pair).tolist()
                span = "pair {} .. {}".format(*(format_timestamp(instant(us)) for us in pair))
                if k1 == len(history) or (history.timestamps[[k0, k1]] != pair).any():  # k0 <= k1
                    raise ParseError(path, line, f"{span} has no matching states")
                if k1 != k0 + 1:
                    raise ParseError(path, line,
                                     f"{span} spans frames {k0} to {k1}, not consecutive frames")
            k = by_text[row[0], row[1]] = by_pair.setdefault(pair, len(by_pair))
        try:
            numbers.append(list(map(float, row[3:10])))
        except ValueError:
            # cell by cell, to name the first bad column
            for column in range(3, 10):
                _parse_float(row[column], path, line, TERMS_COLUMNS[column])
            raise
        if row[10] not in ("0", "1"):
            raise ParseError(path, line, f"relevant must be 0 or 1, got {row[10]!r}")
        if history is not None and row[2] not in pipes:
            raise ParseError(path, line, f"{row[2]!r} is not a pipe of the topology")
        if (k, row[2]) in seen:
            raise ParseError(path, line,
                             f"repeated row for pipe {row[2]!r} and pair {row[0]} .. {row[1]}")
        seen.add((k, row[2]))
        lines.append(line)
        pair_index.append(k)
        pipe_ids.append(row[2])
        relevant.append(row[10] == "1")
    named, pipe_index = np.unique(np.array(pipe_ids, dtype=str), return_inverse=True)
    terms = Terms(np.array(list(by_pair), dtype=np.int64).reshape(-1, 2),
                  np.array(pair_index, dtype=int), tuple(named.tolist()), pipe_index,
                  np.array(numbers, dtype=float).reshape(len(numbers), 7).T,
                  np.array(relevant, dtype=bool))
    return terms, lines
