"""Parser fuzzing: one always-invalid edit to one line of a valid file.

Each input format starts from a small valid file.  A single mutation is
applied to a single line: a cell dropped or added, a non-number in a
numeric cell, ``nan`` as a state value, a timestamp without offset, a
changed header, or (for key = value files) a misspelled key or a
non-finite number.  The parser
must raise ``ParseError`` naming that file and that line; any other
exception fails the test, and so does parsing without an error.

A second property makes edits that are valid cell by cell but contradict
another line, of the same file or of another one (terms.csv is read by
the components stage, against topology.csv and states.csv), and requires
the same.
"""

import os
import tempfile

from hypothesis import given, note, settings, strategies as st
import pytest

from gasinertia.cli import build_parser, load_config_file
from gasinertia.components import read_components
from gasinertia.ingest import (
    ParseError,
    parse_exclusions,
    parse_states,
    parse_topology,
)
from gasinertia.synth import parse_scenario

T = ["2026-01-01T00:00:00Z", "2026-01-01T00:03:00Z",
     "2026-01-01T00:06:00Z", "2026-01-01T00:09:00Z"]

TOPOLOGY = [
    "element_id,kind,from_node,to_node,length_m,diameter_m,roughness_m,slope",
    "p1,pipe,n0,n1,10000.0,0.5,1e-05,0.0",
    "v1,valve,n1,n2,,,,",
    "r1,resistor,n2,n3,,,,",
    "p2,pipe,n3,n4,5000.0,0.4,0.0,0.001",
]

STATES = [
    "timestamp_iso8601,entity_id,quantity,value",
    f"{T[0]},n0,node.pressure_bar,60.0",
    f"{T[0]},n1,node.pressure_bar,59.5",
    f"{T[0]},p1,arc.flow_kNm3h,120.0",
    f"{T[0]},v1,valve.open,1",
    f"{T[0]},p1,pipe.rho_n_kgNm3,0.85",
    "",
    f"{T[1]},n0,node.pressure_bar,60.0",
    f"{T[1]},p2,arc.flow_kNm3h,-12.5",
    f"{T[1]},v1,valve.open,0",
    f"{T[2]},n0,node.pressure_bar,60.0",
    f"{T[3]},n0,node.pressure_bar,60.0",
    f"{T[3]},p1,arc.flow_kNm3h,121.0",
]

EXCLUSIONS = [
    "pipe_id,start_iso8601,end_iso8601",
    f"p1,{T[0]},{T[1]}",
    f"p2,{T[1]},{T[3]}",
]

TERMS = [
    "t0,t1,pipe_id,flow_t0_kNm3h,flow_t1_kNm3h,dflow_kNm3h,alpha_bar,beta_bar,"
    "alpha_per_10km_bar,ratio,relevant",
    f"{T[0]},{T[1]},p1,100.0,107.3,7.3,0.21,0.777,0.17,0.27,1",
    f"{T[0]},{T[1]},p2,50.0,40.0,-10.0,-0.002,0.1,-0.004,0.02,0",
    f"{T[1]},{T[2]},p1,107.3,100.0,-7.3,-0.2,0.7,-0.16,0.28,1",
    f"{T[1]},{T[2]},p2,40.0,30.0,-10.0,0.3,0.2,0.6,1.5,1",
]

COMPONENTS = [
    "t0,t1,component_id,n_pipes,longest_path_bar,cycle_correction_bar,class,"
    "max_abs_flow_change",
    f"{T[0]},{T[1]},0,2,0.61,0.0,high,36.0",
    f"{T[0]},{T[1]},1,1,0.11,0.0,small,4.0",
    f"{T[2]},{T[3]},2,1,0.02,0.0,none,2.5",
]

MEMBERS = [
    "component_id,pipe_id",
    "0,pa",
    "0,pb",
    "1,pc",
    "2,pa",
]

CONFIG = [
    "# thresholds",
    "abs_small_bar = 0.1",
    "ratio_min = 0.5  # trailing comment",
    "",
    "temperature_K = 288.15",
]

SCENARIO = [
    "# every key the scenario parser knows",
    "fixture = funnel50",
    "frames = 12",
    "tau_s = 180",
    "temperature_K = 283.15",
    "rho_n_kgNm3 = 0.85",
    "",
    "noise = 0.001",
    "seed = 3",
    "start = 2026-01-01T00:00:00Z",
    "pressure = a0 61",
    "closed_valve = ev",
    "event = b1 5 -30  # offtake step",
]


def csv_cells(numeric, timestamps, nan=()):
    """Per-line cell roles of a CSV file: header on line 1, then rows."""
    return {"numeric": numeric, "timestamps": timestamps, "nan": nan}


def topology_numeric(row):
    return [4, 5, 6, 7] if row[1] == "pipe" else []


# file name -> (lines, kind, roles); settings roles map a key to the
# positions of its numeric tokens and whether its value is a timestamp
FILES = {
    "topology.csv": (TOPOLOGY, "csv", csv_cells(topology_numeric, lambda row: [])),
    "states.csv": (STATES, "csv", csv_cells(lambda row: [3], lambda row: [0],
                                            nan=[3])),
    "exclusions.csv": (EXCLUSIONS, "csv", csv_cells(lambda row: [], lambda row: [1, 2])),
    "terms.csv": (TERMS, "csv", csv_cells(lambda row: list(range(3, 11)),
                                          lambda row: [0, 1])),
    "components.csv": (COMPONENTS, "csv", csv_cells(lambda row: [3, 4, 5, 7],
                                                    lambda row: [0, 1])),
    "components_pipes.csv": (MEMBERS, "csv", csv_cells(lambda row: [0], lambda row: [])),
    "config.txt": (CONFIG, "settings", {
        "abs_small_bar": [0], "ratio_min": [0], "temperature_K": [0]}),
    "case.scn": (SCENARIO, "settings", {
        "frames": [0], "tau_s": [0], "temperature_K": [0], "rho_n_kgNm3": [0],
        "noise": [0], "seed": [0], "pressure": [1], "event": [1, 2],
        "fixture": [], "closed_valve": [], "start": "timestamp"}),
}


def parse(name, paths):
    if name == "topology.csv":
        parse_topology(paths[name])
    elif name == "states.csv":
        parse_states(paths[name], parse_topology(paths["topology.csv"]))
    elif name == "exclusions.csv":
        parse_exclusions(paths[name], parse_topology(paths["topology.csv"]))
    elif name == "terms.csv":
        # components reads the terms and checks them against the other files
        args = build_parser().parse_args([
            "components", "--topology", paths["topology.csv"], "--states", paths["states.csv"],
            "--terms", paths[name], "--out", os.path.join(os.path.dirname(paths[name]), "out")])
        args.func(args)
    elif name in ("components.csv", "components_pipes.csv"):
        read_components(paths["components.csv"], paths["components_pipes.csv"])
    elif name == "config.txt":
        load_config_file(paths[name])
    else:
        parse_scenario(paths[name])


def is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# ASCII only: int() and float() accept other scripts' digits
non_numbers = st.text(alphabet="abcxyz.+-_e", max_size=5).filter(lambda t: not is_number(t))


def drop_offset(stamp):
    return stamp[:-1] if stamp.endswith("Z") else stamp


def csv_mutations(line_no, row, roles):
    if line_no == 1:
        yield "drop", lambda draw: row[:-1]
        yield "add", lambda draw: row + ["extra"]
        yield "rename", lambda draw: row[:-1] + [row[-1] + "x"]
        return
    yield "drop", lambda draw: row[:-1]
    yield "add", lambda draw: row + ["7"]

    def replace(columns, text):
        def apply(draw):
            column = draw(st.sampled_from(columns))
            value = text(draw, row[column])
            return row[:column] + [value] + row[column + 1:]
        return apply

    numeric = roles["numeric"](row)
    if numeric:
        yield "non-number", replace(numeric, lambda draw, old: draw(non_numbers))
    if roles["nan"]:
        yield "nan", replace(roles["nan"], lambda draw, old: "nan")
    stamps = roles["timestamps"](row)
    if stamps:
        yield "naive timestamp", replace(stamps, lambda draw, old: drop_offset(old))


def settings_mutations(text, roles):
    key, value = (part.strip() for part in text.split("#", 1)[0].split("=", 1))
    tokens = value.split()

    def line(new_key, new_tokens):
        return f"{new_key} = {' '.join(new_tokens)}"

    yield "drop", lambda draw: line(key, tokens[:-1])
    yield "add", lambda draw: line(key, tokens + ["7"])
    yield "misspell key", lambda draw: line(key + "x", tokens)
    role = roles[key]
    if role == "timestamp":
        yield "naive timestamp", lambda draw: line(key, [drop_offset(tokens[0])])
    elif role:
        def replace(texts):
            def apply(draw):
                position = draw(st.sampled_from(role))
                return line(key, tokens[:position] + [draw(texts)] + tokens[position + 1:])
            return apply

        yield "non-number", replace(non_numbers)
        yield "non-finite", replace(st.sampled_from(["nan", "inf", "-inf"]))


def write_files(root, name, mutated):
    """Every file into root, the one named name with the mutated lines."""
    paths = {}
    for other, (other_lines, _kind, _roles) in FILES.items():
        paths[other] = os.path.join(root, other)
        with open(paths[other], "w") as handle:
            handle.write("\n".join(mutated if other == name else other_lines) + "\n")
    return paths


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_one_bad_line_is_reported_at_that_line(data):
    name = data.draw(st.sampled_from(sorted(FILES)), label="file")
    lines, kind, roles = FILES[name]
    candidates = [k for k, text in enumerate(lines)
                  if text.split("#", 1)[0].strip()]
    index = data.draw(st.sampled_from(candidates), label="line index")
    if kind == "csv":
        options = dict(csv_mutations(index + 1, lines[index].split(","), roles))
    else:
        options = dict(settings_mutations(lines[index], roles))
    label = data.draw(st.sampled_from(list(options)), label="mutation")
    new = options[label](data.draw)
    mutated = list(lines)
    mutated[index] = ",".join(new) if kind == "csv" else new
    note(f"{name}:{index + 1}: {label}: {mutated[index]!r}")

    with tempfile.TemporaryDirectory() as root:
        paths = write_files(root, name, mutated)
        with pytest.raises(ParseError) as info:
            parse(name, paths)
    assert (info.value.path, info.value.line) == (paths[name], index + 1), str(info.value)


def cross_line_edits(name, lines):
    """(label, edit) for edits that keep every cell valid but contradict
    another line of the same or another file.  An edit takes draw and
    returns the new lines and the line number that must be reported.
    Lines are split into cells at commas; a settings line is one cell."""
    rows = [text.split(",") for text in lines]

    def at(candidates, change):
        def edit(draw):
            k = draw(st.sampled_from(candidates))
            new = list(lines)
            new[k] = ",".join(change(draw, rows[k]))
            return new, k + 1
        return edit

    if name == "terms.csv":
        # every row, relevant or not (line 3 is not)
        data_rows = range(1, len(rows))
        next_frame = dict(zip(T, T[1:]))

        def repeat(draw):
            return lines + [lines[draw(st.sampled_from(data_rows))]], len(lines) + 1

        yield "not a pipe", at(data_rows, lambda draw, row: row[:2] + [
            draw(st.sampled_from(["v1", "p9"]))] + row[3:])
        yield "repeated row", repeat
        yield "skipped frame", at(data_rows, lambda draw, row: [row[0], next_frame[row[1]]]
                                  + row[2:])
        yield "reversed pair", at(data_rows, lambda draw, row: row[1::-1] + row[2:])
    elif name == "states.csv":
        # a row after the first of a later frame, stamped with the first instant
        later = [k for k, row in enumerate(rows) if k and row[1:] and row[0] != T[0]]
        yield "earlier instant", at(later[1:], lambda draw, row: [T[0]] + row[1:])
    elif name == "topology.csv":
        yield "duplicate id", at(range(2, len(rows)), lambda draw, row: [rows[1][0]] + row[1:])
    elif name == "exclusions.csv":
        yield "reversed window", at(range(1, len(rows)), lambda draw, row: [row[0], row[2],
                                                                            row[1]])
        yield "not a pipe", at(range(1, len(rows)), lambda draw, row: ["v1"] + row[1:])
    elif name == "components.csv":
        yield "duplicate id", at(range(2, len(rows)), lambda draw, row: row[:2] + [rows[1][2]]
                                 + row[3:])
        yield "reversed pair", at(range(1, len(rows)), lambda draw, row: row[1::-1] + row[2:])
        # the row of the last pair moved in front of an earlier pair's rows
        yield "pair out of order", lambda draw: (
            [lines[0], lines[-1]] + lines[1:-1], 3)
    elif name == "components_pipes.csv":
        yield "no such component", at(range(1, len(rows)), lambda draw, row: ["9", row[1]])
    elif name == "config.txt":
        small = next(k for k, text in enumerate(lines) if text.startswith("abs_small_bar"))

        def high_under_small(draw):
            k = draw(st.integers(0, len(lines)))
            high = draw(st.sampled_from(["0.01", "0.05", "0.1"]))
            # the rule reads both keys and is reported at the later line
            later = max(k, small + (k <= small))
            return lines[:k] + [f"abs_high_bar = {high}"] + lines[k:], later + 1

        yield "abs_high under abs_small", high_under_small
    elif name == "case.scn":
        event = next(k for k, text in enumerate(lines) if text.startswith("event"))
        pressure = next(k for k, text in enumerate(lines) if text.startswith("pressure"))
        yield "event at a reference", at([event], lambda draw, cells: [
            f"event = {draw(st.sampled_from(['a0', 'g0']))} 5 -30"])
        yield "event after the last frame", at([event], lambda draw, cells: ["event = b1 12 -30"])
        yield "pressure at an inflow node", at([pressure], lambda draw, cells: [
            "pressure = a15 61"])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_line_contradicting_another_is_reported_at_that_line(data):
    name = data.draw(st.sampled_from([name for name in sorted(FILES)
                                      if any(cross_line_edits(name, FILES[name][0]))]),
                     label="file")
    options = dict(cross_line_edits(name, FILES[name][0]))
    label = data.draw(st.sampled_from(sorted(options)), label="mutation")
    mutated, line = options[label](data.draw)
    note(f"{name}:{line}: {label}: {mutated[line - 1]!r}")

    with tempfile.TemporaryDirectory() as root:
        paths = write_files(root, name, mutated)
        with pytest.raises(ParseError) as info:
            parse(name, paths)
    assert (info.value.path, info.value.line) == (paths[name], line), str(info.value)


def test_unmutated_files_parse():
    with tempfile.TemporaryDirectory() as root:
        paths = write_files(root, None, None)
        for name in FILES:
            parse(name, paths)
