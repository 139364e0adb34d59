"""parse_states against the row loop it replaced (oracles.parse_states_rows).

The template reader parses states.csv with numpy byte operations and
fast paths for decimals of up to 19 digits, and hands any window it cannot
vouch for to the row loop.  With the window shrunk to a few bytes or a
few hundred, frames straddle windows, and every generated file must
give the oracle's history bit for bit and the file's sha256, or the
oracle's ParseError with the same line and message.
"""

from datetime import datetime, timedelta, timezone
import csv
import hashlib
import io
import os
import tempfile

from hypothesis import event, example, given, note, settings, strategies as st
import numpy as np
import pytest

from gasinertia import ingest
from gasinertia.ingest import (
    QUANTITY_FLOW,
    QUANTITY_PRESSURE,
    QUANTITY_RHO,
    QUANTITY_VALVE,
    STATES_COLUMNS,
    History,
    ParseError,
    file_sha256,
    parse_states,
    serialize_states,
)
from gasinertia.model import Element, ElementKind, Network, Node, PipeGeometry
from gasinertia.synth import parse_scenario, simulate

from oracles import parse_states_rows

START = datetime(2026, 1, 1, tzinfo=timezone.utc)

# ids that need quoting or are not ASCII; a newline in a quoted field
# lets a window end inside it
NODES = ["n0", "n,1", 'n"2', "nö3", "n4", "n5\nb"]
ELEMENTS = [
    Element("p1", ElementKind.PIPE, "n0", "n,1", PipeGeometry(10_000.0, 0.5, 1e-5)),
    Element('p"2', ElementKind.PIPE, "n,1", 'n"2', PipeGeometry(5_000.0, 0.4, 1e-5)),
    Element("v,1", ElementKind.VALVE, 'n"2', "nö3"),
    Element("r1", ElementKind.RESISTOR, "nö3", "n4"),
    Element("pö", ElementKind.PIPE, "n4", "n0", PipeGeometry(8_000.0, 0.3, 1e-5)),
    Element("r2\nb", ElementKind.RESISTOR, "n4", "n5\nb"),
]
NETWORK = Network.build([Node(node_id) for node_id in NODES], ELEMENTS)
PIPES = ["p1", 'p"2', "pö"]

# every valid (entity, quantity) pair; VALUES spells their values
KEYS = ([(node, QUANTITY_PRESSURE) for node in NODES]
        + [(element.element_id, QUANTITY_FLOW) for element in ELEMENTS]
        + [("v,1", QUANTITY_VALVE)]
        + [(pipe, QUANTITY_RHO) for pipe in PIPES])


def number_text(low, high):
    """Text of a float in [low, high], as files spell numbers."""
    def spell(value, form):
        return {"repr": repr(value), "fixed": f"{value:.3f}", "spaced": f" {value!r} ",
                "exp": f"{value:e}"}[form]
    return st.builds(spell, st.floats(low, high, allow_nan=False),
                     st.sampled_from(["repr", "fixed", "spaced", "exp"]))


VALUES = {
    QUANTITY_PRESSURE: number_text(0.5, 99.0),
    QUANTITY_FLOW: number_text(-500.0, 500.0) | st.sampled_from(["-0.0", "0"]),
    QUANTITY_VALVE: st.sampled_from(["0", "1", "0.0", "-0.0", "2.5", " 1 "]),
    QUANTITY_RHO: number_text(0.51, 1.3),
}

# Irregularities, at most one per file.  Most are defects the row loop
# reports; "underscore" (Python's float reads 1_000)
# and "split" (part of a frame moved to a later instant) are valid.  Where
# a row of the kind the edit needs exists, the edit keeps the file's
# (entity, quantity) sequence, so that only the value check can see it.
VALUE_EDITS = {"underscore": "1_000", "nan": "nan", "inf": "inf", "1e400": "1e400",
               "zero pressure": "0", "density out of band": "2.0"}
ROW_EDITS = {
    "unknown entity": lambda e, q, v: ["zz", q, v],
    "wrong kind": lambda e, q, v: ["p1", QUANTITY_VALVE, "1"],
    "short row": lambda e, q, v: [e, q],
}
NEEDS = {"zero pressure": QUANTITY_PRESSURE, "density out of band": QUANTITY_RHO}
IRREGULARITIES = sorted([*VALUE_EDITS, *ROW_EDITS, "nul", "backwards", "cut timestamp",
                         "split", "header"])


def spellings(instant):
    """Texts of one instant: Z, +00:00, +01:00, and one of 44 characters."""
    return [instant.strftime("%Y-%m-%dT%H:%M:%SZ"), instant.isoformat(),
            instant.astimezone(timezone(timedelta(hours=1))).isoformat(),
            instant.strftime("%Y-%m-%dT%H:%M:%S.") + "0" * 18 + "+00:00"]


@st.composite
def states_files(draw):
    """(text of a states.csv over NETWORK, note on how it was made).

    Half the files are clean: one shared template, one spelling per frame,
    minimal quoting, no blank row and a final newline, so that the windows
    alone read them unless their one irregularity, drawn for most, stops
    them.  The others draw each of those properties freely.
    """
    clean = draw(st.booleans())
    free = (lambda strategy, value: value) if clean else (lambda strategy, value: draw(strategy))
    shared = free(st.booleans(), True)
    respell = free(st.sampled_from(["none", "frame", "row"]), draw(st.sampled_from(
        ["none", "frame"])))
    template = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=14))
    rows, frame_of = [], []
    for k in range(draw(st.integers(1, 8))):
        instant = START + timedelta(minutes=3 * k)
        # a clean file keeps to the three short spellings
        texts = spellings(instant)[:3 if clean else 4]
        keys = template if shared else draw(st.lists(st.sampled_from(KEYS), min_size=1,
                                                     max_size=14))
        frame_text = draw(st.sampled_from(texts)) if respell == "frame" else texts[0]
        for entity, quantity in keys:
            text = draw(st.sampled_from(texts)) if respell == "row" else frame_text
            rows.append([text, entity, quantity, draw(VALUES[quantity])])
            frame_of.append(instant)
    defect = draw(st.sampled_from([None] * (len(IRREGULARITIES) // (3 if clean else 1))
                                  + IRREGULARITIES))
    if defect is not None:
        fits = [k for k, row in enumerate(rows) if row[2] == NEEDS.get(defect, row[2])]
        at = draw(st.sampled_from(fits)) if fits else draw(st.integers(0, len(rows) - 1))
        same_frame = [row for row, instant in zip(rows, frame_of) if instant == frame_of[at]]
        if defect in VALUE_EDITS and fits:
            rows[at][3] = VALUE_EDITS[defect]
        elif defect in VALUE_EDITS:
            rows[at][1:] = [NEEDS[defect] == QUANTITY_RHO and "pö" or "n0", NEEDS[defect],
                            VALUE_EDITS[defect]]
        elif defect in ROW_EDITS:
            rows[at][1:] = ROW_EDITS[defect](*rows[at][1:])
        elif defect == "nul":
            # in every frame, so that the id still fits the first frame's
            for row in rows:
                if row[1:3] == rows[at][1:3]:
                    row[1] += "\0"
        elif defect == "backwards":
            # the instant before the first frame, where it is not first
            rows[at][0] = spellings(START - timedelta(minutes=3))[0]
        elif defect == "cut timestamp":
            # a timestamp whose first 40 characters alone would parse
            for row in same_frame:
                row[0] = frame_of[at].strftime("%Y-%m-%dT%H:%M:%S.") + "0" * 14 + "+00:00X"
        elif defect == "split":
            for row in same_frame[same_frame.index(rows[at]):]:
                row[0] = spellings(frame_of[at] + timedelta(seconds=90))[0]
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = free(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]), csv.QUOTE_MINIMAL)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=terminator, quoting=quoting)
    writer.writerow(STATES_COLUMNS[:-1] + ["values"] if defect == "header" else STATES_COLUMNS)
    blank = free(st.none() | st.integers(0, len(rows)), None)
    for k, row in enumerate(rows):
        if k == blank:
            buffer.write(terminator)
        writer.writerow(row)
    text = buffer.getvalue()
    if free(st.booleans(), False):
        text = text[:-len(terminator)]
    return text, dict(clean=clean, shared=shared, respell=respell, defect=defect, blank=blank,
                      terminator=terminator, quoting=quoting)


def assert_same_history(got: History, want: History):
    assert got.timestamps.dtype == want.timestamps.dtype == np.int64
    assert got.timestamps.tolist() == want.timestamps.tolist()
    assert (got.node_ids, got.arc_ids, got.valve_ids, got.pipe_ids) == (
        want.node_ids, want.arc_ids, want.valve_ids, want.pipe_ids)
    for name in ("pressure_pa", "flow_m3s", "valve_open", "rho_n"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        # bit for bit: NaN positions and the sign of zero count
        assert a.tobytes() == b.tobytes(), name


def outcome(parse, path, network=NETWORK):
    try:
        return parse(path, network), None
    except ParseError as exc:
        return None, (exc.line, str(exc))


def compare(text, window, network=NETWORK):
    """Parse text with the windows of window bytes and with the oracle, and
    require the same outcome; True if the windows read it alone."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "states.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        want, want_error = outcome(parse_states_rows, path, network)
        sha, framed, row_step = hashlib.sha256(), [], ingest._row_step
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_WINDOW", window)
            patch.setattr(ingest, "_row_step", lambda *args: framed.append(args)
                          or row_step(*args))
            got, got_error = outcome(lambda p, n: parse_states(p, n, sha), path, network)
        assert got_error == want_error
        if want is not None:
            assert_same_history(got, want)
            assert sha.hexdigest() == file_sha256(path)
    return not framed


@settings(max_examples=400, deadline=None)
@given(states_files(), st.integers(40, 400))
# a frame whose head is longer than the first frame's, ending in the short
# second line of a quoted id: its rows are checked to begin with the head
# before the names after it are gathered, which would lie past the window
@example(case=(",".join(STATES_COLUMNS) + "\n" + "".join(
    f"2026-01-01T00:00:00{zone},n0,node.pressure_bar,{value}\n" for zone, value in [
        ("Z", "1.0")] * 4 + [("+00:00", "1.125"), ("Z", "1.78125")])
    + '2026-01-01T00:00:00Z,"r2\nb",arc.flow_kNm3h,-0.0\n', {}), window=40)
def test_windows_agree_with_the_row_loop(case, window):
    text, how = case
    note(repr(how))
    event("windows only" if compare(text, window) else "row loop")


@pytest.mark.parametrize("window", [40, 400])
@pytest.mark.parametrize("stamps", [
    # part of a frame moved to a later instant: frames of one template
    # at every second row, but four frames, not three
    ["00:00Z", "00:00Z", "03:00Z", "04:30Z", "06:00Z", "06:00Z"],
    # the same where frames spell their instants in heads of two lengths
    ["00:00Z", "00:00Z", "03:00+00:00", "04:30+00:00", "06:00Z", "06:00Z"],
    # one frame in two spellings of its instant
    ["00:00Z", "00:00Z", "03:00Z", "04:00+01:00", "06:00Z", "06:00Z"],
    # whole frames, the last at the instant of the one before, or earlier
    ["00:00Z", "00:00Z", "03:00Z", "03:00Z", "04:00+01:00", "04:00+01:00"],
    ["00:00Z", "00:00Z", "03:00Z", "03:00Z", "01:00Z", "01:00Z"],
], ids=["split frame", "split frame, heads of two lengths", "respelled in a frame",
        "respelled frame", "frame going back"])
def test_runs_that_are_not_frames_reach_the_row_loop(stamps, window):
    rows = [f"2026-01-01T00:{stamp},{entity}" for stamp, entity in zip(
        stamps, ["n0,node.pressure_bar,60.0", "p1,arc.flow_kNm3h,1.5"] * 3)]
    assert not compare(",".join(STATES_COLUMNS) + "\n" + "\n".join(rows) + "\n", window)


@pytest.mark.parametrize("entity, quantity, bad, good", [
    ("n0", "node.pressure_bar", "0", "60.0"), ("pö", "pipe.rho_n_kgNm3", "2.0", "0.8")])
def test_a_value_a_repeat_overrides_is_still_checked(entity, quantity, bad, good):
    rows = [f"2026-01-01T00:0{minute}:00Z,{entity},{quantity},{value}"
            for minute in (0, 3) for value in (bad, good)]
    # compare requires the oracle's error, at the overridden row
    assert not compare(",".join(STATES_COLUMNS) + "\n" + "\n".join(rows) + "\n", 400)


@pytest.mark.parametrize("window", [40, 4000])
@pytest.mark.parametrize("old, new, alone", [
    # ISO 8601 allows any separator of date and time, csv a quote inside a cell
    ("T", '"', True),
    # a \r ends a line for csv
    ("T", "\r", False), ("60.0", "6\r0.0", False),
    # a quote left open runs on into the next rows
    (",n0,", ',"n0,', False), ("1.5", '"x,1.5', False), ("60.0", '"60.0"', False),
], ids=["quote in a timestamp", "return in a timestamp", "return in a value",
        "quote open in an id", "quote open in a fifth cell", "quoted value"])
def test_quotes_and_returns_read_as_csv_reads_them(old, new, alone, window):
    # frames of two rows, three minutes apart; the second frame, or the
    # first, spells its rows with new for old
    for at in (1, 0):
        rows = [f"2026-01-01T00:{3 * minute:02d}:00Z,{key}" for minute in range(8)
                for key in ("n0,node.pressure_bar,60.0", "p1,arc.flow_kNm3h,1.5")]
        rows[2 * at:2 * at + 2] = [row.replace(old, new) for row in rows[2 * at:2 * at + 2]]
        assert compare(",".join(STATES_COLUMNS) + "\n" + "\n".join(rows) + "\n", window) == alone


# ids of one byte, and one of 150 that widens any template it is in
WIDE = "n" + "x" * 149
EDGE_NETWORK = Network.build([Node("a"), Node("b"), Node(WIDE)], [
    Element("v", ElementKind.VALVE, "a", "b"),
    Element("p", ElementKind.PIPE, "b", WIDE, PipeGeometry(1e3, 0.5, 1e-5))])
EDGE_KEYS = [("a", QUANTITY_PRESSURE), ("b", QUANTITY_PRESSURE), (WIDE, QUANTITY_PRESSURE),
             ("v", QUANTITY_FLOW), ("p", QUANTITY_FLOW), ("v", QUANTITY_VALVE),
             ("p", QUANTITY_RHO)]


def edge_rows(frames, keys, first=0):
    """Rows of frames frames from frame first on, each of keys, in order."""
    values = {QUANTITY_PRESSURE: "5{}.{}", QUANTITY_FLOW: "-1{}.0{}", QUANTITY_VALVE: "1",
              QUANTITY_RHO: "0.8{}{}"}
    return [f"{instant.strftime('%Y-%m-%dT%H:%M:%SZ')},{entity},{quantity},"
            + values[quantity].format(k % 10, row)
            for k in range(first, first + frames) for instant in [START + timedelta(minutes=3 * k)]
            for row, (entity, quantity) in enumerate(keys)]


# text after the header, and whether the template reader reads it alone
EDGES = {
    # frames of several hundred bytes: at a few bytes a window, a frame is
    # carried over many windows, and a read is shorter than the carry
    "frames over windows": ("\n".join(edge_rows(5, EDGE_KEYS)) + "\n", True),
    "crlf": ("\r\n".join(edge_rows(5, EDGE_KEYS)) + "\r\n", True),
    "no final newline": ("\n".join(edge_rows(5, EDGE_KEYS)), True),
    # a narrow template, a frame that breaks it, then a template wider than
    # the room the buffer keeps after a window of fewer than 150 bytes
    "wider template": ("\n".join(edge_rows(3, EDGE_KEYS[:2]) + edge_rows(1, EDGE_KEYS[1::-1], 3)
                                 + edge_rows(3, EDGE_KEYS[:3], 4)) + "\n", False),
    # rows with no timestamp, whose value ends 15 bytes after the window's
    # first byte: _decimals reads 16 bytes before a value's end
    "value near the front": (",v,valve.open,1\n" * 3, False),
}


@pytest.mark.parametrize("window", [1, 2, 3, 7, 16, 40, 150, 400, 4000])
@pytest.mark.parametrize("case", EDGES)
def test_edges_of_the_buffer(case, window):
    text, alone = EDGES[case]
    assert compare(",".join(STATES_COLUMNS) + "\n" + text, window, EDGE_NETWORK) == alone


@st.composite
def histories(draw):
    """Histories over NETWORK in which every frame gives the same columns,
    but none whose id holds a newline: the template reader reads no row
    that spans lines."""
    columns = ingest.history_columns(NETWORK)
    frames = draw(st.integers(1, 12))
    gaps = draw(st.lists(st.integers(1, 900), min_size=frames, max_size=frames))
    stamps = ingest.microseconds(START + timedelta(seconds=int(s)) for s in np.cumsum(gaps))
    given_at = [np.array(draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids))))
                & np.array(["\n" not in key for key in ids], dtype=bool) for ids in columns]
    if not any(mask.any() for mask in given_at):
        given_at[0][0] = True
    bounds = [(0.5e5, 99e5), (-50.0, 50.0), None, (0.51, 1.3)]
    arrays = []
    for ids, mask, bound in zip(columns, given_at, bounds):
        if bound is None:
            values = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=frames * len(ids),
                                            max_size=frames * len(ids))))
        else:
            values = np.array(draw(st.lists(st.floats(*bound), min_size=frames * len(ids),
                                            max_size=frames * len(ids))))
        values = values.reshape(frames, len(ids))
        values[:, ~mask] = np.nan
        arrays.append(values)
    return History(stamps, *columns, *arrays)


@settings(max_examples=100, deadline=None)
@given(histories(), st.integers(40, 400))
def test_serialized_histories_never_reach_the_row_loop(history, window):
    def row_loop(*args):
        raise AssertionError("the row loop read the file")

    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "states.csv")
        serialize_states(history, path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_WINDOW", window)
            patch.setattr(ingest, "_row_step", row_loop)
            parsed = parse_states(path, NETWORK)
        want = parse_states_rows(path, NETWORK)
    assert_same_history(parsed, want)


def test_one_broken_frame_sends_one_window_to_the_row_loop(tmp_path):
    # 2,000 frames of 14 rows, about 1.4 MB: several windows of the
    # default size; no row holds a newline, which the template reader
    # leaves to the row loop
    columns = ingest.history_columns(NETWORK)
    values = np.random.default_rng(7).uniform(0.6, 1.2, (2000, sum(map(len, columns))))
    values[:, ["\n" in key for ids in columns for key in ids]] = np.nan
    arrays = np.split(values, np.cumsum([len(ids) for ids in columns])[:-1], axis=1)
    arrays[0] *= 50e5
    history = History(ingest.microseconds(START + timedelta(minutes=3 * k) for k in range(2000)),
                      *columns, *arrays)
    path = str(tmp_path / "states.csv")
    serialize_states(history, path)
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\r\n")
    assert os.path.getsize(path) > 5 * ingest._WINDOW
    size = (len(lines) - 2) // len(history)
    # after the header line, the file is read in windows up to the short
    # read that ends it
    windows = (os.path.getsize(path) - len(lines[0]) - 2) // ingest._WINDOW + 1
    # with every other frame broken, each window holds a frame unlike the
    # one before, so the row loop reads every window, one after the other
    for frames, row_steps in (([len(history) // 2], 1), ([len(history) - 1], 1),
                              (range(0, len(history), 2), windows)):
        broken = list(lines)
        for frame in frames:
            # two rows of the frame swapped: it breaks the template
            at = 1 + frame * size
            broken[at], broken[at + 1] = broken[at + 1], broken[at]
        with open(path, "wb") as handle:
            handle.write(b"\r\n".join(broken))
        sha, framed, row_step = hashlib.sha256(), [], ingest._row_step
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_row_step", lambda *args: framed.append(args)
                          or row_step(*args))
            parsed = parse_states(path, NETWORK, sha)
        assert len(framed) == row_steps, frames
        assert_same_history(parsed, parse_states_rows(path, NETWORK))
        assert sha.hexdigest() == file_sha256(path)


def fixed_decimal_states(path, network, frames, seed):
    """A states.csv as perfbench/workloads.py writes them: every frame gives
    every node's pressure, every element's flow and every pipe's density,
    in fixed decimals, with \\n line ends; the ids need no quoting."""
    columns = ingest.history_columns(network)
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(STATES_COLUMNS) + "\n")
        for k in range(frames):
            when = (START + timedelta(minutes=3 * k)).strftime("%Y-%m-%dT%H:%M:%SZ")
            handle.writelines(
                [f"{when},{node},{QUANTITY_PRESSURE},{rng.uniform(40, 70):.5f}\n"
                 for node in columns[0]]
                + [f"{when},{arc},{QUANTITY_FLOW},{rng.uniform(-500, 500):.4f}\n"
                   for arc in columns[1]]
                + [f"{when},{pipe},{QUANTITY_RHO},{rng.uniform(0.8, 0.9):.4f}\n"
                   for pipe in columns[3]])


def chain_network(pipes):
    """pipes pipes in a row, each between two nodes."""
    return Network.build([Node(f"n{k}") for k in range(pipes + 1)], [
        Element(f"p{k}", ElementKind.PIPE, f"n{k}", f"n{k + 1}", PipeGeometry(1e3, 0.5, 1e-5))
        for k in range(pipes)])


def parse_by_template(path, network):
    """parse_states with a row loop that fails the test, the mask of the
    values that took a fast path, and the texts of the others, each of which
    float() reads alone."""
    def row_loop(*args):
        raise AssertionError("the row loop read the file")

    fast, declined, decimals = [], [], ingest._decimals

    def counting(raw, start, end):
        values, taken = decimals(raw, start, end)
        fast.append(taken)
        declined.extend(raw[a:b].tobytes() for a, b in zip(start[~taken], end[~taken]))
        return values, taken

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_row_step", row_loop)
        patch.setattr(ingest, "_decimals", counting)
        history = parse_states(path, network)
    return history, np.concatenate(fast), declined


def test_fixed_decimal_files_take_the_fast_path(tmp_path):
    # 400 frames of 319 rows, about 5 MB: many windows of the default size
    network = chain_network(106)
    path = str(tmp_path / "states.csv")
    fixed_decimal_states(path, network, 400, seed=3)
    assert os.path.getsize(path) > 10 * ingest._WINDOW
    history, fast, _ = parse_by_template(path, network)
    assert fast.all() and len(fast) == 400 * 319
    assert_same_history(history, parse_states_rows(path, network))


def test_frame_larger_than_the_window(tmp_path):
    # three frames of 20,001 rows, each about four default windows
    network = chain_network(6667)
    path = str(tmp_path / "states.csv")
    fixed_decimal_states(path, network, 3, seed=4)
    assert os.path.getsize(path) > 3 * 3 * ingest._WINDOW
    history, fast, _ = parse_by_template(path, network)
    assert len(history) == 3 and fast.all()
    assert_same_history(history, parse_states_rows(path, network))


def test_long_value_first_in_a_window(tmp_path):
    # the shortest row before a value: a 12-byte timestamp, a one-byte id and
    # the shortest quantity; windows of one row put each row first in its
    # window, where the 24 bytes read before a value's end reach furthest
    # toward the window's start
    network = Network.build([Node("a"), Node("b")], [Element("v", ElementKind.VALVE, "a", "b")])
    values = ["1.234567890123456789", "-0.1234567890123456789", "1234567890123456789",
              "0.0000000000000000001"]
    rows = [f"20260101T{hour:02d}Z,v,{QUANTITY_VALVE},{values[hour % 4]}\n" for hour in range(24)]
    path = str(tmp_path / "states.csv")
    with open(path, "w", newline="") as handle:
        handle.writelines([",".join(STATES_COLUMNS) + "\n"] + rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_WINDOW", max(map(len, rows)))
        history, fast, _ = parse_by_template(path, network)
    assert fast.all() and len(fast) == 24
    assert_same_history(history, parse_states_rows(path, network))


def test_synth_files_leave_only_exponents_to_float(tmp_path):
    (tmp_path / "noisy.scn").write_text("fixture = funnel50\nframes = 40\nnoise = 0.002\n"
                                        "seed = 1\n")
    scenario = parse_scenario(str(tmp_path / "noisy.scn"))
    path = str(tmp_path / "states.csv")
    serialize_states(simulate(scenario), path)
    history, fast, declined = parse_by_template(path, scenario.network)
    # synth spells values by repr, most of them in 16 or 17 digits, which
    # Clinger's path declines
    with open(path, "rb") as handle:
        lengths = [len(line.rsplit(b",", 1)[1]) for line in handle.read().splitlines()[1:]]
    assert len(fast) == len(lengths) and sum(length > 15 for length in lengths) > len(fast) / 2
    assert all(b"e" in text for text in declined), declined
    assert_same_history(history, parse_states_rows(path, scenario.network))
