import csv
import dataclasses
from datetime import datetime, timedelta, timezone
import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from gasinertia import cli, ingest

from gasinertia.ingest import (
    EXCLUSIONS_COLUMNS,
    HISTORY_SIDECAR,
    ExclusionWindow,
    exclusion_mask,
    file_sha256,
    load_saved,
    narrow_history,
    save_history,
    ParseError,
    STATES_COLUMNS,
    TERMS_COLUMNS,
    TOPOLOGY_COLUMNS,
    History,
    Terms,
    format_timestamp,
    parse_exclusions,
    parse_states,
    parse_timestamp,
    parse_topology,
    read_terms,
    serialize_states,
    serialize_topology,
    write_table,
    write_terms,
)
from gasinertia.model import (
    BAR,
    Element,
    ElementKind,
    KNM3H,
    ModelError,
    Network,
    Node,
    PipeGeometry,
    StateFrame,
)
from gasinertia.physics import term_ratio

from conftest import BASE_TS, feed_fifo, run_cli, stamp
from oracles import write_terms_rows

TOPOLOGY_CSV = """element_id,kind,from_node,to_node,length_m,diameter_m,roughness_m,slope
p1,pipe,n0,n1,10000.0,0.5,1e-05,0.0
v1,valve,n1,n2,,,,
r1,resistor,n2,n3,,,,
g1,regulator,n3,n4,,,,
"""


def sample_network() -> Network:
    nodes = [Node(f"n{i}") for i in range(5)]
    elements = [
        Element("p1", ElementKind.PIPE, "n0", "n1", PipeGeometry(10_000.0, 0.5, 1e-5)),
        Element("v1", ElementKind.VALVE, "n1", "n2"),
        Element("r1", ElementKind.RESISTOR, "n2", "n3"),
        Element("g1", ElementKind.REGULATOR, "n3", "n4"),
    ]
    return Network.build(nodes, elements)


class TestTimestamps:
    def test_z_suffix(self):
        stamp = parse_timestamp("2026-01-01T00:00:00Z")
        assert stamp.tzinfo is not None
        assert format_timestamp(stamp) == "2026-01-01T00:00:00Z"

    def test_offset_normalized_to_utc(self):
        stamp = parse_timestamp("2026-01-01T01:00:00+01:00")
        assert format_timestamp(stamp) == "2026-01-01T00:00:00Z"

    def test_naive_rejected(self):
        with pytest.raises(ParseError):
            parse_timestamp("2026-01-01T00:00:00")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_timestamp("not a time")

    @given(st.datetimes(timezones=st.just(timezone.utc)))
    def test_round_trip(self, value):
        assert parse_timestamp(format_timestamp(value)) == value


class TestTopology:
    def test_parse(self, tmp_path):
        path = tmp_path / "topology.csv"
        path.write_text(TOPOLOGY_CSV)
        net = parse_topology(str(path))
        assert sorted(net.elements) == ["g1", "p1", "r1", "v1"]
        assert net.elements["p1"].geometry.roughness_m == 1e-5
        assert sorted(net.nodes) == ["n0", "n1", "n2", "n3", "n4"]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "topology.csv"
        serialize_topology(sample_network(), str(path))
        net = parse_topology(str(path))
        assert net == sample_network()

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_sha_gets_the_bytes_of_the_file(self, tmp_path, ending):
        # quoted ids, one with a line break inside its quotes, and non-ASCII
        # ids, without a final line ending
        path = tmp_path / "topology.csv"
        text = TOPOLOGY_CSV.replace("n1", '"n,ö1"').replace("v1", '"v@1"')
        path.write_bytes(ending.join(text.splitlines()).replace("@", "\n").encode())
        sha = hashlib.sha256()
        net = parse_topology(str(path), sha)
        assert sha.hexdigest() == file_sha256(str(path))
        assert sorted(net.elements) == ["g1", "p1", "r1", "v\n1"]
        assert "n,ö1" in net.nodes

    def test_bad_header(self, tmp_path):
        path = tmp_path / "topology.csv"
        path.write_text("a,b\n")
        with pytest.raises(ParseError, match="expected header"):
            parse_topology(str(path))

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "topology.csv"
        path.write_text(TOPOLOGY_CSV + "p1,pipe,n0,n1,1.0,1.0,0.0,0.0\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_topology(str(path))

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "topology.csv"
        path.write_text(",".join(TOPOLOGY_COLUMNS) + "\nx,pump,a,b,,,,\n")
        with pytest.raises(ParseError, match="unknown element kind"):
            parse_topology(str(path))

    def test_non_pipe_geometry_rejected(self, tmp_path):
        path = tmp_path / "topology.csv"
        path.write_text(",".join(TOPOLOGY_COLUMNS) + "\nv,valve,a,b,5.0,,,\n")
        with pytest.raises(ParseError, match="geometry columns empty"):
            parse_topology(str(path))

    def test_pipe_geometry_validated(self, tmp_path):
        path = tmp_path / "topology.csv"
        path.write_text(",".join(TOPOLOGY_COLUMNS) + "\np,pipe,a,b,-5.0,1.0,0.0,0.0\n")
        with pytest.raises(ParseError):
            parse_topology(str(path))

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "topology.csv"
        path.write_text(TOPOLOGY_CSV + "x,pump,a,b,,,,\n")
        with pytest.raises(ParseError) as info:
            parse_topology(str(path))
        assert info.value.line == 6


class TestStates:
    def make_states_csv(self) -> str:
        t0, t1 = format_timestamp(stamp(0)), format_timestamp(stamp(1))
        return "\n".join([
            ",".join(STATES_COLUMNS),
            f"{t0},n0,node.pressure_bar,60.0",
            f"{t0},n1,node.pressure_bar,59.5",
            f"{t0},p1,arc.flow_kNm3h,120.0",
            f"{t0},v1,valve.open,1",
            f"{t0},p1,pipe.rho_n_kgNm3,0.85",
            f"{t1},n0,node.pressure_bar,60.0",
            f"{t1},p1,arc.flow_kNm3h,125.0",
            f"{t1},v1,valve.open,0",
            "",
        ])

    def test_parse(self, tmp_path):
        path = tmp_path / "states.csv"
        path.write_text(self.make_states_csv())
        history = parse_states(str(path), sample_network())
        assert len(history) == 2
        first = history[0]
        assert first.timestamp == BASE_TS
        assert first.node_pressure_pa["n0"] == 60.0 * BAR
        assert first.arc_flow_m3s["p1"] == pytest.approx(120.0 * KNM3H)
        assert first.valve_open["v1"] is True
        assert first.pipe_rho_n_kgm3["p1"] == 0.85
        assert history[1].valve_open["v1"] is False
        # values the file does not give are absent from the frame
        assert history[1].node_pressure_pa == {"n0": 60.0 * BAR}
        assert history[1].pipe_rho_n_kgm3 == {}

    def test_columns_and_missing(self, tmp_path):
        path = tmp_path / "states.csv"
        path.write_text(self.make_states_csv())
        history = parse_states(str(path), sample_network())
        assert history.node_ids == ("n0", "n1", "n2", "n3", "n4")
        assert history.arc_ids == ("g1", "p1", "r1", "v1")
        assert history.valve_ids == ("v1",)
        assert history.pipe_ids == ("p1",)
        assert history.pressure_pa.shape == (2, 5)
        assert history.pressure_pa[0, 1] == 59.5 * BAR
        assert np.isnan(history.pressure_pa[1, 1])
        assert history.flow_m3s[1, 1] == 125.0 * KNM3H
        assert np.isnan(history.flow_m3s[:, 0]).all()
        assert history.valve_open.tolist() == [[1.0], [0.0]]
        assert history.rho_n[0, 0] == 0.85 and np.isnan(history.rho_n[1, 0])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "states.csv"
        path.write_text(self.make_states_csv())
        net = sample_network()
        history = parse_states(str(path), net)
        out = tmp_path / "out.csv"
        serialize_states(history, str(out))
        assert_same_history(parse_states(str(out), net), history)

    def test_repeated_row_keeps_last_value(self, tmp_path):
        t0 = format_timestamp(stamp(0))
        path = tmp_path / "states.csv"
        path.write_text(",".join(STATES_COLUMNS) + f"\n{t0},n0,node.pressure_bar,60.0"
                        + f"\n{t0},p1,arc.flow_kNm3h,1.0"
                        + f"\n{t0},n0,node.pressure_bar,61.0\n")
        history = parse_states(str(path), sample_network())
        assert history[0].node_pressure_pa == {"n0": 61.0 * BAR}

    def test_spellings_of_one_instant_share_a_frame(self, tmp_path):
        z = "2026-01-01T00:00:00Z"
        path = tmp_path / "states.csv"
        path.write_text(",".join(STATES_COLUMNS)
                        + f"\n{z},n0,node.pressure_bar,60.0"
                        + "\n2026-01-01T00:00:00+00:00,n1,node.pressure_bar,59.0"
                        + "\n2026-01-01T01:00:00+01:00,p1,arc.flow_kNm3h,1.0"
                        + f"\n{z},n2,node.pressure_bar,58.0"
                        + "\n2026-01-01T00:03:00Z,n0,node.pressure_bar,60.0\n")
        history = parse_states(str(path), sample_network())
        assert history.timestamps.tolist() == ingest.microseconds([stamp(0), stamp(1)]).tolist()
        assert sorted(history[0].node_pressure_pa) == ["n0", "n1", "n2"]
        assert history[0].arc_flow_m3s == {"p1": KNM3H}

    def test_each_timestamp_text_parsed_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(text, *args):
            calls.append(text)
            return parse_timestamp(text, *args)

        monkeypatch.setattr(ingest, "parse_timestamp", counting)
        path = tmp_path / "states.csv"
        path.write_text(self.make_states_csv())
        parse_states(str(path), sample_network())
        assert calls == [format_timestamp(stamp(0)), format_timestamp(stamp(1))]

    @pytest.mark.parametrize("first, second, message", [
        ("n0,node.pressure_bar,-1.0", "nx,node.pressure_bar,60.0", "pressure must be positive"),
        ("p1,valve.open,1", "p1,arc.flow_kNm3h,abc", "not a valve"),
        ("p1,pipe.rho_n_kgNm3,2.0", "n0,node.temp_K,1.0", "outside accepted range"),
    ])
    def test_first_of_two_defects_reported(self, tmp_path, first, second, message):
        t0, t1 = format_timestamp(stamp(0)), format_timestamp(stamp(1))
        path = tmp_path / "states.csv"
        # line 3 carries a defect found late in a row's checks, line 5 one
        # found early, and line 6 a timestamp going backwards
        path.write_text(",".join(STATES_COLUMNS)
                        + f"\n{t0},n1,node.pressure_bar,60.0"
                        + f"\n{t0},{first}"
                        + f"\n{t1},n1,node.pressure_bar,60.0"
                        + f"\n{t1},{second}"
                        + f"\n{t0},n1,node.pressure_bar,60.0\n")
        with pytest.raises(ParseError, match=message) as info:
            parse_states(str(path), sample_network())
        assert info.value.line == 3

    def test_non_increasing_rejected(self, tmp_path):
        t0, t1 = format_timestamp(stamp(1)), format_timestamp(stamp(0))
        path = tmp_path / "states.csv"
        path.write_text(",".join(STATES_COLUMNS)
                        + f"\n{t0},n0,node.pressure_bar,60.0"
                        + f"\n{t1},n0,node.pressure_bar,60.0\n")
        with pytest.raises(ParseError, match="strictly increasing"):
            parse_states(str(path), sample_network())

    def test_unknown_entity_rejected(self, tmp_path):
        t0 = format_timestamp(stamp(0))
        path = tmp_path / "states.csv"
        path.write_text(",".join(STATES_COLUMNS) + f"\n{t0},nx,node.pressure_bar,60.0\n")
        with pytest.raises(ParseError, match="unknown node"):
            parse_states(str(path), sample_network())

    @pytest.mark.parametrize("entity, quantity, message", [
        ("p1", "node.pressure_bar", "unknown node 'p1'"),
        ("n0", "arc.flow_kNm3h", "unknown element 'n0'"),
        ("p1", "valve.open", "'p1' is not a valve"),
        ("v1", "pipe.rho_n_kgNm3", "'v1' is not a pipe")],
        ids=["p1 as node", "n0 as element", "p1 as valve", "v1 as pipe"])
    def test_quantity_entity_kind_checked(self, tmp_path, entity, quantity, message):
        # each id is one the network knows under another quantity
        t0 = format_timestamp(stamp(0))
        path = tmp_path / "states.csv"
        path.write_text(",".join(STATES_COLUMNS) + f"\n{t0},n1,node.pressure_bar,60.0"
                        + f"\n{t0},{entity},{quantity},1\n")
        with pytest.raises(ParseError) as info:
            parse_states(str(path), sample_network())
        assert str(info.value) == f"{path}:3: {message}"
        assert info.value.line == 3

    def test_nonpositive_pressure_rejected(self, tmp_path):
        t0 = format_timestamp(stamp(0))
        path = tmp_path / "states.csv"
        path.write_text(",".join(STATES_COLUMNS) + f"\n{t0},n0,node.pressure_bar,0.0\n")
        with pytest.raises(ParseError, match="positive"):
            parse_states(str(path), sample_network())

    @pytest.mark.parametrize("entity, quantity, text", [
        ("p1", "arc.flow_kNm3h", "nan"), ("p1", "arc.flow_kNm3h", "-inf"),
        ("n0", "node.pressure_bar", "NaN"), ("n0", "node.pressure_bar", "inf")])
    def test_non_finite_value_rejected_with_line(self, tmp_path, entity, quantity, text):
        t0 = format_timestamp(stamp(0))
        path = tmp_path / "states.csv"
        path.write_text(",".join(STATES_COLUMNS) + f"\n{t0},n1,node.pressure_bar,60.0"
                        + f"\n{t0},{entity},{quantity},{text}\n")
        with pytest.raises(ParseError, match="non-finite") as info:
            parse_states(str(path), sample_network())
        assert info.value.line == 3

    def test_density_band_checked(self, tmp_path):
        t0 = format_timestamp(stamp(0))
        path = tmp_path / "states.csv"
        path.write_text(",".join(STATES_COLUMNS) + f"\n{t0},p1,pipe.rho_n_kgNm3,2.0\n")
        with pytest.raises(ParseError, match="outside accepted range"):
            parse_states(str(path), sample_network())

    def test_unknown_quantity_rejected(self, tmp_path):
        t0 = format_timestamp(stamp(0))
        path = tmp_path / "states.csv"
        path.write_text(",".join(STATES_COLUMNS) + f"\n{t0},n0,node.temp_K,283.0\n")
        with pytest.raises(ParseError, match="unknown quantity"):
            parse_states(str(path), sample_network())


def window(pipe_id: str, start: datetime, end: datetime) -> ExclusionWindow:
    """The exclusion window of pipe_id from start to end, as instants."""
    return ExclusionWindow(pipe_id, *ingest.microseconds([start, end]).tolist())


class TestExclusions:
    def test_round_trip(self, tmp_path):
        windows = [window("p1", stamp(0), stamp(5))]
        path = tmp_path / "exclusions.csv"
        path.write_text(",".join(EXCLUSIONS_COLUMNS)
                        + f"\np1,{format_timestamp(stamp(0))},{format_timestamp(stamp(5))}\n")
        assert parse_exclusions(str(path), sample_network()) == windows

    def test_non_pipe_rejected(self, tmp_path):
        path = tmp_path / "exclusions.csv"
        path.write_text(",".join(EXCLUSIONS_COLUMNS)
                        + f"\nv1,{format_timestamp(stamp(0))},{format_timestamp(stamp(1))}\n")
        with pytest.raises(ParseError, match="not a pipe"):
            parse_exclusions(str(path), sample_network())

    def test_empty_window_rejected(self):
        with pytest.raises(ModelError):
            window("p1", stamp(1), stamp(1))

    def test_half_open_coverage_uses_t1(self):
        # a pair is covered when its t1 falls inside [start, end): t1 ==
        # start (pair 0) is inside, t1 == end (pair 2) is outside
        mask = exclusion_mask([window("p1", stamp(1), stamp(3))],
                              empty_history(5).timestamps[1:], ("p1",))
        assert mask[:, 0].tolist() == [True, True, False, False]

    def test_mask_follows_each_window(self):
        windows = [window("p1", stamp(1), stamp(3)), window("p2", stamp(0), stamp(9)),
                   window("p1", stamp(4), stamp(4) + timedelta(seconds=1))]
        t1 = empty_history(6).timestamps[1:]
        mask = exclusion_mask(windows, t1, ("p0", "p1", "p2"))
        expected = [[any(w.pipe_id == pipe_id and w.start <= us < w.end
                         for w in windows)
                     for pipe_id in ("p0", "p1", "p2")] for us in t1.tolist()]
        assert mask.tolist() == expected
        assert mask[:, 1].tolist() == [True, True, False, True, False]


def make_pairs(count: int) -> np.ndarray:
    """Terms.pairs of the grid steps 0 -> 1 to count - 1 -> count."""
    stamps = ingest.microseconds(stamp(k) for k in range(count + 1))
    return np.stack([stamps[:-1], stamps[1:]], axis=1)


def row_pipes(pipe_ids) -> tuple[tuple[str, ...], np.ndarray]:
    """Terms.pipes and pipe_index of rows that name pipe_ids, in order."""
    pipes, pipe_index = np.unique(np.array(pipe_ids, dtype=str), return_inverse=True)
    return tuple(pipes.tolist()), pipe_index


def make_terms(pair_index=(0, 1), relevant=(True, False)):
    """Terms of points p0, p1, ... over the pairs that pair_index gives."""
    n = len(pair_index)
    alpha = np.array([0.21, -0.034] * n)[:n]
    beta = 3.7 * alpha
    dflow = 7.3 * (np.array(pair_index) + 1)
    return Terms(make_pairs(2), np.array(pair_index, dtype=int),
                 *row_pipes([f"p{i}" for i in range(n)]),
                 np.array([np.full(n, 100.0), 100.0 + dflow, dflow, alpha, beta,
                           alpha / 1.2345, term_ratio(alpha, beta)]),
                 np.array(relevant, dtype=bool))


def assert_terms_equal(a, b):
    """a and b hold the same terms: pairs and pair indices as int64,
    numbers bit for bit, and each row's pipe id, from sorted pipes."""
    for name in ("pairs", "pair_index"):
        assert getattr(a, name).dtype == getattr(b, name).dtype == np.int64, name
        assert getattr(a, name).tolist() == getattr(b, name).tolist(), name
    assert a.numbers.view(np.uint64).tolist() == b.numbers.view(np.uint64).tolist()
    for t in (a, b):
        assert t.pipe_index.dtype == np.int64
        assert list(t.pipes) == sorted(set(t.pipes))
    assert np.array(a.pipes)[a.pipe_index].tolist() == np.array(b.pipes)[b.pipe_index].tolist()
    assert a.relevant.dtype == b.relevant.dtype == bool
    assert a.relevant.tolist() == b.relevant.tolist()


class TestTerms:
    def test_round_trip_exact(self, tmp_path):
        terms = make_terms()
        path = tmp_path / "terms.csv"
        write_terms(terms, str(path))
        assert_terms_equal(read_terms(str(path)), terms)

    def test_infinite_ratio_survives(self, tmp_path):
        terms = Terms(make_pairs(1), np.array([0, 0]), *row_pipes(["p", "q"]),
                      np.array([[0.0, 1.0], [1.0, -2.5], [1.0, -3.5], [5.0, 0.0], [0.0, 0.0],
                                [5e-4, 0.0], [math.inf, 0.0]]),
                      np.array([True, False]))
        path = tmp_path / "terms.csv"
        write_terms(terms, str(path))
        back = read_terms(str(path))
        assert back.numbers[6].tolist() == [math.inf, 0.0]
        assert_terms_equal(back, terms)

    def test_empty_round_trip(self, tmp_path):
        terms = make_terms(pair_index=(), relevant=())
        path = tmp_path / "terms.csv"
        write_terms(terms, str(path))
        back = read_terms(str(path))
        assert back.pairs.shape == (0, 2) and back.numbers.shape == (7, 0)

    def test_each_pair_formatted_and_parsed_once(self, tmp_path, monkeypatch):
        terms = make_terms(pair_index=(0, 0, 1, 1, 1), relevant=(True,) * 5)
        formatted, parsed = [], []

        def counting_format(value):
            formatted.append(value)
            return format_timestamp(value)

        def counting_parse(text, *args):
            parsed.append(text)
            return parse_timestamp(text, *args)

        monkeypatch.setattr(ingest, "format_timestamp", counting_format)
        monkeypatch.setattr(ingest, "parse_timestamp", counting_parse)
        path = tmp_path / "terms.csv"
        write_terms(terms, str(path))
        assert formatted == [stamp(0), stamp(1), stamp(1), stamp(2)]
        back = read_terms(str(path))
        assert_terms_equal(back, terms)
        # pairs 0 and 1 share stamp(1), which each pair parses
        assert parsed == [format_timestamp(stamp(k)) for k in (0, 1, 1, 2)]

    def test_spellings_of_one_pair_share_its_index(self, tmp_path):
        path = tmp_path / "terms.csv"
        write_terms(make_terms(pair_index=(0, 0), relevant=(True, True)), str(path))
        text = path.read_text().splitlines()
        text[2] = text[2].replace("Z,", "+00:00,")
        path.write_text("\n".join(text) + "\n")
        back = read_terms(str(path))
        assert back.pairs.tolist() == make_pairs(1).tolist()
        assert back.pair_index.tolist() == [0, 0]

    def test_bad_flow_change_reported_at_its_line(self, tmp_path):
        path = tmp_path / "terms.csv"
        write_terms(make_terms(), str(path))
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[5] = "n/a"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="column dflow_kNm3h") as info:
            read_terms(str(path))
        assert info.value.line == 3

    def test_reversed_pair_reported_at_its_line(self, tmp_path):
        path = tmp_path / "terms.csv"
        write_terms(make_terms(), str(path))
        lines = path.read_text().splitlines()
        t0, t1, rest = lines[2].split(",", 2)
        lines[2] = ",".join([t1, t0, rest])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="t1 > t0") as info:
            read_terms(str(path))
        assert info.value.line == 3

    @pytest.mark.parametrize("hours", [0, 1], ids=["same text", "+01:00"])
    def test_pair_of_one_instant_reported_at_its_line(self, tmp_path, hours):
        """A row whose t1 is its t0, in the same text or another offset's,
        after a row of the pair as written."""
        path = tmp_path / "terms.csv"
        write_terms(make_terms(pair_index=(0, 0), relevant=(True, True)), str(path))
        lines = path.read_text().splitlines()
        t0, _, rest = lines[2].split(",", 2)
        t1 = parse_timestamp(t0).astimezone(timezone(timedelta(hours=hours)))
        lines[2] = ",".join([t0, t1.isoformat() if hours else t0, rest])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            read_terms(str(path))
        assert str(info.value) == (f"{path}:3: time pair requires t1 > t0, got "
                                   f"{parse_timestamp(t0)} .. {t1}")

    def test_bad_timestamp_reported_at_its_line(self, tmp_path):
        path = tmp_path / "terms.csv"
        write_terms(make_terms(pair_index=(0, 1, 0, 1), relevant=(True,) * 4), str(path))
        lines = path.read_text().splitlines()
        lines[4] = "yesterday" + lines[4][lines[4].index(","):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="invalid ISO 8601") as info:
            read_terms(str(path))
        assert info.value.line == 5

    def test_repeated_row_reported_at_the_repeat(self, tmp_path):
        path = tmp_path / "terms.csv"
        write_terms(make_terms(), str(path))
        lines = path.read_text().splitlines()
        # the row of p1, which is not relevant, with its pair spelled anew
        lines.append(lines[2].replace("Z,", "+00:00,"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="repeated row for pipe 'p1'") as info:
            read_terms(str(path))
        assert (info.value.path, info.value.line) == (str(path), 4)

    @pytest.mark.parametrize("stamps, pipe_ids, message", [
        ((stamp(0), stamp(1), stamp(2)), ("p0", "p1"), None),
        ((stamp(0), stamp(1), stamp(2)), ("p0",), "'p1' is not a pipe of the topology"),
        ((stamp(0), stamp(1)), ("p0", "p1"), "has no matching states"),
        ((stamp(0), stamp(1), stamp(1) + timedelta(seconds=60), stamp(2)), ("p0", "p1"),
         "spans frames 1 to 3, not consecutive frames")],
        ids=["valid", "not a pipe", "no states", "not consecutive"])
    def test_rows_checked_against_history(self, tmp_path, stamps, pipe_ids, message):
        # line 3 holds p1 over pair 1 and is not relevant
        path = tmp_path / "terms.csv"
        write_terms(make_terms(), str(path))
        n = len(stamps)
        history = History(ingest.microseconds(stamps), (), (), (), pipe_ids,
                          *(np.empty((n, 0)) for _ in range(3)), np.full((n, len(pipe_ids)), 0.85))
        if message is None:
            assert_terms_equal(read_terms(str(path), history, pipe_ids), make_terms())
            return
        with pytest.raises(ParseError, match=message) as info:
            read_terms(str(path), history, pipe_ids)
        assert (info.value.path, info.value.line) == (str(path), 3)

    @pytest.mark.parametrize("flag", ["yes", "true", "", "2", " 1"])
    def test_relevant_flag_must_be_zero_or_one(self, tmp_path, flag):
        path = tmp_path / "terms.csv"
        write_terms(make_terms(), str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:lines[2].rindex(",") + 1] + flag
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="relevant must be 0 or 1") as info:
            read_terms(str(path))
        assert (info.value.path, info.value.line) == (str(path), 3)

    def test_quoted_pipe_ids_written_as_csv_writer_would(self, tmp_path):
        pipe_ids = ["a,b", 'say "x"', "plain", "", "two\nlines"]
        pipes, pipe_index = row_pipes(pipe_ids)
        terms = dataclasses.replace(make_terms(pair_index=(0, 1, 0, 1, 0),
                                               relevant=(True, False, True, False, True)),
                                    pipes=pipes, pipe_index=pipe_index)
        path = tmp_path / "terms.csv"
        write_terms(terms, str(path))
        expected = tmp_path / "expected.csv"
        write_table(str(expected), TERMS_COLUMNS, [
            [format_timestamp(ingest.instant(t0)), format_timestamp(ingest.instant(t1)), pipe_id,
             *map(repr, terms.numbers[:, i].tolist()), str(int(flag))]
            for i, ((t0, t1), pipe_id, flag) in enumerate(zip(
                terms.pairs[terms.pair_index].tolist(), pipe_ids, terms.relevant.tolist()))])
        assert path.read_bytes() == expected.read_bytes()
        assert b'"a,b"' in path.read_bytes() and b'"say ""x"""' in path.read_bytes()
        assert_terms_equal(read_terms(str(path)), terms)

    def test_pipes_no_row_names(self, tmp_path):
        """Terms whose pipes are every pipe of a topology, the odd ids among
        them, of which the rows name a few, as scan's are: the terms file
        and the sidecar give the same rows, and a topology without a pipe
        a row names is refused at the row."""
        topology = tuple(sorted(ODD_PIPE_IDS + [f"p{k}" for k in range(10)]))
        named = ["a,b", "管道-7", "two\nlines", "p3"]
        terms = dataclasses.replace(
            make_terms(pair_index=(0,) * 4 + (1,) * 4, relevant=(True, False) * 4),
            pipes=topology, pipe_index=np.array([topology.index(p) for p in named + named[::-1]]))
        path = str(tmp_path / "terms.csv")
        digest = write_terms(terms, path)
        history = History(ingest.microseconds(stamp(k) for k in range(3)), (), (), (), topology,
                          *(np.empty((3, 0)) for _ in range(3)), np.full((3, len(topology)), 0.85))
        for back in (read_terms(path), read_terms(path, history, topology)):
            assert_terms_equal(back, terms)
            assert back.pipes == tuple(sorted(named))
        save_history(history, terms, path, digest, "", "", 0)
        loaded, _ = load_saved(path)
        assert (loaded.pipes, loaded.pipe_index.tolist()) == (topology, terms.pipe_index.tolist())
        assert_terms_equal(loaded, terms)
        without = tuple(p for p in topology if p != "管道-7")
        with pytest.raises(ParseError) as info:
            read_terms(path, history, without)
        assert str(info.value) == f"{path}:3: '管道-7' is not a pipe of the topology"

    def test_header_pinned(self):
        assert TERMS_COLUMNS == ["t0", "t1", "pipe_id", "flow_t0_kNm3h",
                                 "flow_t1_kNm3h", "dflow_kNm3h", "alpha_bar",
                                 "beta_bar", "alpha_per_10km_bar", "ratio", "relevant"]


# floats where repr or the kernel changes course: signed zeros, the least
# subnormal, a large power of ten, infinities, NaN, and 1e-4 and 1e16 with
# their neighbours, where repr switches between positional and exponent form
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan,
               *(float(np.nextafter(edge, towards)) for edge in (1e-4, 1e16)
                 for towards in (0.0, math.inf)), 1e-4, 1e16, -1e-4, -1e16]
# pipe ids csv.writer quotes, and ids that are not ASCII
ODD_PIPE_IDS = ["a,b", 'say "x"', "two\nlines", "cr\rhere", "", " p ", "é", "管道-7"]


@st.composite
def terms_of_any_numbers(draw):
    """Terms over one to three pairs whose number columns hold any floats."""
    n = draw(st.integers(0, 40))
    pairs = draw(st.integers(1, 3))
    column = st.lists(st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)), min_size=n,
                      max_size=n)
    return Terms(make_pairs(pairs),
                 np.array(draw(st.lists(st.integers(0, pairs - 1), min_size=n, max_size=n)),
                          dtype=int),
                 *row_pipes(draw(st.lists(st.one_of(st.sampled_from(ODD_PIPE_IDS),
                                                    st.text(max_size=6)),
                                          min_size=n, max_size=n))),
                 np.array([draw(column) for _ in range(7)], dtype=float).reshape(7, n),
                 np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool))


def assert_written_as_oracle(terms: Terms, root: str) -> None:
    """write_terms gives the bytes of the csv.writer oracle and their digest."""
    path, expected = f"{root}/terms.csv", f"{root}/expected.csv"
    with np.errstate(invalid="ignore", over="ignore"):
        digest = write_terms(terms, path)
        write_terms_rows(terms, expected)
    with open(path, "rb") as got, open(expected, "rb") as want:
        data = got.read()
        assert data == want.read()
    assert digest == hashlib.sha256(data).hexdigest()


class TestTermsWriter:
    """write_terms against write_terms_rows, the csv.writer and repr writer
    it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(terms=terms_of_any_numbers())
    def test_bytes_and_digest_match_the_oracle(self, terms):
        with tempfile.TemporaryDirectory() as root:
            assert_written_as_oracle(terms, root)

    def test_empty_terms(self, tmp_path):
        assert_written_as_oracle(make_terms(pair_index=(), relevant=()), str(tmp_path))

    def test_edge_numbers_in_every_column(self, tmp_path):
        n = len(EDGE_FLOATS)
        values = np.array(EDGE_FLOATS)
        terms = Terms(make_pairs(1), np.zeros(n, dtype=int), *row_pipes((ODD_PIPE_IDS * n)[:n]),
                      np.array([values, values[::-1], values, np.roll(values, 1), values,
                                np.roll(values, 2), np.roll(values, 3)]),
                      np.arange(n) % 2 == 0)
        assert_written_as_oracle(terms, str(tmp_path))

    def test_many_chunks(self, tmp_path):
        # rows past several chunks, with numbers of any bit pattern, over
        # pipes of which the rows name only the first half
        n = 3 * ingest._TERMS_CHUNK + 77
        rng = np.random.default_rng(7)
        numbers = rng.integers(0, 2 ** 64, size=(7, n), dtype=np.uint64).view(np.float64)
        terms = Terms(make_pairs(40), np.sort(rng.integers(0, 40, size=n)),
                      tuple(sorted(ODD_PIPE_IDS + [f"p{k}" for k in range(300)])),
                      rng.integers(0, 308, size=n) // 2, numbers, rng.random(n) < 0.5)
        assert_written_as_oracle(terms, str(tmp_path))


def spell(values: list[float]) -> tuple[list[bytes], list[float]]:
    """The bytes _repr_cells gives each value, and the values it leaves to repr."""
    declined = []

    def recording_repr(value):
        declined.append(value)
        return repr(value)

    with mock.patch.object(ingest, "repr", recording_repr, create=True):
        cells, mask = ingest._repr_cells(np.array(values, dtype=float))
    # a comma ends each cell, and no spelling holds one
    return cells.T[mask.T].tobytes().split(b",")[:-1], declined


def repr_digits(value: float) -> tuple[int, int]:
    """The digits of repr(value) as a 17-digit integer with zeros appended,
    and the point before them: value = 0.ddd 10^point."""
    mantissa, _, exponent = repr(abs(value)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).lstrip("0")
    point = len(whole) + int(exponent or 0) - (len(whole + fraction) - len(digits))
    return int(digits.rstrip("0").ljust(17, "0")), point


def assert_spelled_as_repr(values: list[float]) -> None:
    """_repr_cells gives repr's bytes for every value, leaves exactly the
    zero, non-finite and exponent-form ones to repr, and _shortest gives
    repr's digits for every finite nonzero value."""
    spelled, declined = spell(values)
    assert spelled == [repr(value).encode() for value in values]
    assert list(map(repr, declined)) == [
        repr(value) for value in values
        if value == 0.0 or not math.isfinite(value) or "e" in repr(value)]
    finite = [abs(value) for value in values if value != 0.0 and math.isfinite(value)]
    number, point = ingest._shortest(np.array(finite, dtype=float))
    assert list(zip(number.tolist(), point.tolist())) == list(map(repr_digits, finite))


class TestReprCells:
    """The shortest round-trip digits, laid out as repr lays them out."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=60))
    def test_any_floats(self, values):
        assert_spelled_as_repr(values)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20261019).integers(0, 2 ** 64, size=200_000,
                                                         dtype=np.uint64)
        for values in np.split(bits.view(np.float64), 10):
            assert_spelled_as_repr(values.tolist())

    def test_powers_of_two_and_ten(self):
        powers = ([2.0 ** e for e in range(-1074, 1024)]
                  + [float(f"1e{e}") for e in range(-323, 309)])
        assert_spelled_as_repr(powers + [-power for power in powers])

    def test_ties_go_to_the_even_digit(self):
        # n + 1/4 and n + 3/4 lie halfway between two 16-digit decimals
        ties = [n + quarter for n in range(2 ** 49, 2 ** 49 + 200) for quarter in (0.25, 0.75)]
        assert repr(ties[0]) == "562949953421312.2" and repr(ties[1]) == "562949953421312.8"
        assert_spelled_as_repr(ties + [-tie for tie in ties])

    def test_edge_floats(self):
        assert_spelled_as_repr(EDGE_FLOATS)

    def test_table_is_built_on_first_use(self):
        # not at import, which every stage pays
        code = ("import gasinertia.cli, gasinertia.ingest as ingest; "
                "print(ingest._schubfach_table.cache_info().currsize)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
                              check=True)
        assert done.stdout.split() == ["0"]
        assert ingest._schubfach_table().shape == (4, 617)


def assert_decimals_read_as_float(texts):
    """ingest._decimals takes a fast path exactly for the texts of at most
    24 characters of the form [-]digits[.digits] with at most 19 digits from
    the first nonzero one and at most 19 after the point, and reads each of
    those bit for bit as float() does."""
    buffer, starts, ends = bytearray(24), [], []
    for text in texts:
        starts.append(len(buffer))
        buffer += text.encode()
        ends.append(len(buffer))
        buffer += b"\n"
    values, fast = ingest._decimals(np.frombuffer(bytes(buffer), np.uint8), np.array(starts),
                                    np.array(ends))
    shaped = []
    for text in texts:
        match = re.fullmatch(r"-?([0-9]*)\.?([0-9]*)", text)
        digits = match and match[1] + match[2]
        shaped.append(bool(digits) and len(text) <= 24 and len(match[2]) <= 19
                      and len(digits.lstrip("0")) <= 19)
    assert fast.tolist() == shaped, texts
    want = np.array([float(text) for text, ok in zip(texts, shaped) if ok], dtype=float)
    # bit for bit: the sign of zero counts
    assert values[fast].tobytes() == want.tobytes(), texts


def edited(draw, text):
    """text with its sign or leading zeros changed, or its leading or
    trailing zero dropped."""
    edit = draw(st.sampled_from(["none", "sign", "zeros", "no leading 0", "no trailing 0"]))
    sign, digits = ("-", text[1:]) if text.startswith("-") else ("", text)
    if edit == "sign":
        sign = "" if sign else "-"
    elif edit == "zeros":
        digits = "0" * draw(st.integers(1, 14)) + digits
    elif edit == "no leading 0" and digits.startswith("0."):
        digits = digits[1:]
    elif edit == "no trailing 0" and "." in digits and digits.endswith("0"):
        digits = digits[:-1]
    return sign + digits


@st.composite
def decimal_texts(draw):
    """A finite float64 spelled by repr or with 0 to 15 decimals, edited."""
    value = draw(st.floats(allow_nan=False, allow_infinity=False))
    texts = [repr(value)] + [f"{value:.{k}f}" for k in range(16)]
    return edited(draw, draw(st.sampled_from(texts)))


@st.composite
def long_decimal_texts(draw):
    """A float64 below 1e19 in magnitude spelled by repr or with the
    decimals that give it 16 to 19 significant digits, edited."""
    value = draw(st.floats(-1e19, 1e19))
    digits = draw(st.integers(16, 19))
    # at most 25 decimals, which the tiniest values would exceed
    decimals = min(max(digits - 1 - math.floor(math.log10(abs(value))), 0), 25) if value else digits
    return edited(draw, draw(st.sampled_from([repr(value), f"{value:.{decimals}f}"])))


class TestDecimals:
    """The fast paths of the states.csv reader, Clinger's and Eisel-Lemire's,
    against float()."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(decimal_texts(), min_size=1, max_size=40))
    def test_spellings_of_any_float(self, texts):
        assert_decimals_read_as_float(texts)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(long_decimal_texts(), min_size=1, max_size=40))
    def test_spellings_of_16_to_19_digits(self, texts):
        assert_decimals_read_as_float(texts)

    def test_edge_texts(self):
        assert_decimals_read_as_float([
            "5.", ".5", "-.5", "-0.0", "-0", "0", "0.0", "-5.", "000000000000001", "0.1",
            "0.30000000000000004", "999999999999999", "-99999999999999", "99999999999999.9",
            ".00000000000001", "1234567890123456", "-123456789012345", "9007199254740993",
            "1e5", "1E5", "+1", " 1", "1 ", "1_0", "inf", "nan", ".", "-", "-.", "", "1.2.3",
            "--1", "1-", "0x10", "١", "1,5", '"1"'])

    def test_edge_texts_of_16_to_20_digits(self):
        # halfway between two floats: 2^53 + 1 and 2^53 + 3 round to even,
        # 2^52 + 1/2 and 2^52 + 3/2 too; the least and the signed zero with
        # 19 decimals; 20 digits, of which 2^64 - 1 still fits a word, 20
        # decimals and 25 characters go to float()
        assert_decimals_read_as_float([
            "9007199254740993", "9007199254740995", "4503599627370496.5", "4503599627370497.5",
            "-0.0000000000000000000", "0.0000000000000000001", "18446744073709551615",
            "99999999999999999999", ".00000000000000000001", "1e-05", "9999999999999999999",
            ".1234567890123456789", "-1234567890123456789.", "-0000000000000000000001",
            "000000000000000000000001", "-000000000000000000000001", "1234.00000000000000000000"])

    def test_every_fixed_spelling_of_15_and_16_characters(self):
        rng = np.random.default_rng(20261019)
        texts = [f"{value:.{k}f}" for value in rng.uniform(-1e6, 1e6, 2000).tolist()
                 for k in range(16)]
        assert_decimals_read_as_float([text for text in texts if len(text) in (15, 16)])


class TestSidecar:
    """history.npz next to terms.csv: the terms load for the terms file
    they were written to; the history, narrowed to the columns components
    reads, loads with them only when the states and topology are unchanged
    too.  Given a history, read_terms always parses."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        """The path of every terms file parsed from here on."""
        parsed, read_table = [], ingest.read_table

        def counting(path, columns, *sha):
            if columns == TERMS_COLUMNS:
                parsed.append(path)
            return read_table(path, columns, *sha)

        monkeypatch.setattr(ingest, "read_table", counting)
        return parsed

    def save(self, root):
        """Save the sample history, with a pressure at one end of resistor
        r1, and terms of p1 over its one pair, as scan does; their paths
        and the history."""
        states, topology, terms_path = (str(root / name) for name in (
            "states.csv", "topology.csv", "terms.csv"))
        end_pressure = f"{format_timestamp(stamp(1))},n3,node.pressure_bar,58.0\n"
        (root / "states.csv").write_text(TestStates().make_states_csv() + end_pressure)
        (root / "topology.csv").write_text(TOPOLOGY_CSV)
        topology_sha256 = hashlib.sha256()
        network = parse_topology(topology, topology_sha256)
        history = parse_states(states, network)
        terms = dataclasses.replace(make_terms(pair_index=(0,), relevant=(True,)),
                                    pairs=make_pairs(1), pipes=("p1",), pipe_index=np.array([0]))
        save_history(narrow_history([history], network), terms, terms_path,
                     write_terms(terms, terms_path),
                     file_sha256(states), topology_sha256.hexdigest(), os.path.getsize(states))
        return states, topology, terms_path, history

    def test_round_trip(self, tmp_path, parsed):
        states, topology, terms_path, history = self.save(tmp_path)
        terms, loaded = load_saved(terms_path, None, states, file_sha256(topology))
        assert loaded.timestamps.tobytes() == history.timestamps.tobytes()
        # the valve and the ends of resistor r1, and no other column
        assert (loaded.node_ids, loaded.arc_ids, loaded.valve_ids, loaded.pipe_ids) == (
            ("n2", "n3"), (), ("v1",), ())
        np.testing.assert_array_equal(loaded.pressure_pa, history.pressure_pa[:, 2:4])
        np.testing.assert_array_equal(loaded.valve_open, history.valve_open)
        assert loaded.flow_m3s.shape == loaded.rho_n.shape == (2, 0)
        assert loaded[0] == StateFrame(stamp(0), {}, {}, {"v1": True}, {})
        assert loaded[1] == StateFrame(stamp(1), {"n3": 58.0 * BAR}, {}, {"v1": False}, {})
        assert_terms_equal(terms, read_terms(terms_path))
        assert load_saved(terms_path)[1] is None
        # the states unchanged, but another topology
        assert load_saved(terms_path, None, states, file_sha256(states)) is None
        assert parsed == []
        assert (terms.pipes, terms.pipe_index.tolist()) == (("p1",), [0])

    def test_saved_keys(self, tmp_path):
        self.save(tmp_path)
        with np.load(tmp_path / HISTORY_SIDECAR) as saved:
            assert sorted(saved.files) == sorted([
                "states_sha256", "topology_sha256", "terms_sha256", "states_size", "terms_size",
                "timestamps_us", "valve_ids", "valve_open", "node_ids", "pressure_pa",
                "terms_pairs", "terms_pair_index", "terms_pipes", "terms_pipe_index",
                "terms_numbers", "terms_relevant"])
            # one pressure column per resistor end, one row per frame
            assert saved["node_ids"].tolist() == ["n2", "n3"]
            assert saved["pressure_pa"].shape == (2, 2)

    @pytest.mark.parametrize("pipe, size, buffer", [(True, 3 << 19, 1 << 20),
                                                    (False, 3 << 19, 1 << 20),
                                                    (False, 1000, 1000)],
                             ids=["pipe", "large file", "small file"])
    def test_file_hashed_a_buffer_at_a_time(self, tmp_path, monkeypatch, pipe, size, buffer):
        """file_sha256 reads a FIFO, whose size is 0, into a buffer of 1 MiB,
        not a byte at a time, and a regular file into one no larger than it."""
        data, path, sizes = np.random.default_rng(5).bytes(size), tmp_path / "states.csv", []
        feeder = feed_fifo(path, data, chunk=1 << 12) if pipe else path.write_bytes(data)
        monkeypatch.setattr(ingest, "bytearray", lambda n: sizes.append(n) or bytearray(n),
                            raising=False)
        digest = file_sha256(str(path))
        if pipe:
            feeder.join(10)
            assert not feeder.is_alive()
        assert digest == hashlib.sha256(data).hexdigest()
        assert sizes == [buffer]

    def test_other_contents_not_loaded(self, tmp_path, parsed):
        states, topology, terms_path, history = self.save(tmp_path)
        with open(states, "a") as handle:
            handle.write(f"{format_timestamp(stamp(1))},n1,node.pressure_bar,59.0\n")
        assert load_saved(terms_path, None, states, file_sha256(topology)) is None
        assert load_saved(terms_path, None, topology, file_sha256(topology)) is None
        assert load_saved(terms_path, None, states, file_sha256(states)) is None
        # the terms alone still load for the unchanged terms file
        assert_terms_equal(read_terms(terms_path), load_saved(terms_path)[0])
        assert parsed == []
        # given a history, they are parsed and checked against it
        read_terms(terms_path, parse_states(states, parse_topology(topology)),
                   parse_topology(topology).pipes())
        assert parsed == [terms_path]
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "terms.csv").write_bytes((tmp_path / "terms.csv").read_bytes())
        assert load_saved(str(elsewhere / "terms.csv"), None, states,
                          file_sha256(topology)) is None
        read_terms(str(elsewhere / "terms.csv"))
        assert parsed == [terms_path, str(elsewhere / "terms.csv")]

    def test_unreadable_sidecar_not_loaded(self, tmp_path, parsed):
        states, topology, terms_path, history = self.save(tmp_path)
        (tmp_path / HISTORY_SIDECAR).write_bytes(b"not a zip archive")
        assert load_saved(terms_path, None, states, file_sha256(topology)) is None
        assert load_saved(terms_path) is None
        read_terms(terms_path)
        read_terms(terms_path, history, parse_topology(topology).pipes())
        assert parsed == [terms_path] * 2

    def test_saved_terms_equal_parsed_terms(self, pipeline, tmp_path, parsed, monkeypatch):
        """The terms scan writes, those load_saved gives and those read_terms
        parses, alone and against the history, are one form: UTC instants
        and pair indices as int64, numbers bit for bit."""
        data = tmp_path / "data"
        data.mkdir()
        (data / "topology.csv").write_bytes((pipeline["data"] / "topology.csv").read_bytes())
        # every instant of states.csv spelled at +01:00
        with open(pipeline["data"] / "states.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        for row in rows[1:]:
            row[0] = parse_timestamp(row[0]).astimezone(timezone(timedelta(hours=1))).isoformat()
        assert rows[1][0].endswith("+01:00")
        with open(data / "states.csv", "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        written, write = [], cli.write_terms
        monkeypatch.setattr(cli, "write_terms",
                            lambda terms, path: written.append(terms) or write(terms, path))
        code, _, err = run_cli(["scan", "--topology", data / "topology.csv",
                                "--states", data / "states.csv", "--out", tmp_path / "out"])
        assert code == 0, err
        terms = str(tmp_path / "out" / "terms.csv")
        assert (tmp_path / "out" / "terms.csv").read_bytes() == (
            pipeline["out"] / "terms.csv").read_bytes()
        copy = tmp_path / "terms.csv"
        copy.write_bytes((pipeline["out"] / "terms.csv").read_bytes())
        network = parse_topology(str(data / "topology.csv"))
        saved = load_saved(terms)[0]
        assert parsed == []
        alone = read_terms(str(copy))
        checked = read_terms(terms, parse_states(str(data / "states.csv"), network),
                             network.pipes())
        assert parsed == [str(copy), terms]
        assert len(written[0].relevant) == 6
        for got in (saved, alone, checked):
            assert_terms_equal(got, written[0])
        # terms.csv spells the pairs' instants in UTC
        with open(terms, newline="") as handle:
            first = list(csv.reader(handle))[1]
        assert [format_timestamp(ingest.instant(us)) for us in written[0].pairs[0].tolist()] == (
            first[:2])

    @pytest.mark.parametrize("edit", ["blank row", "number"])
    def test_edited_terms_file_not_loaded(self, pipeline, tmp_path, parsed, edit):
        for name in ("terms.csv", HISTORY_SIDECAR):
            (tmp_path / name).write_bytes((pipeline["out"] / name).read_bytes())
        terms = str(tmp_path / "terms.csv")
        saved = read_terms(terms)
        assert parsed == []
        with open(terms, newline="") as handle:
            rows = list(csv.reader(handle))
        if edit == "blank row":
            rows.append([])
        else:
            rows[-1][3] = repr(float(rows[-1][3]) + 1.0)
        with open(terms, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        edited = read_terms(terms)
        assert parsed == [terms]
        assert edited.numbers[0, -1] == saved.numbers[0, -1] + (edit == "number")

    @pytest.mark.parametrize("change, message", [
        ("same instants", None),
        ("extra pipe", None),
        ("missing pipe", "'p1' is not a pipe of the topology"),
        ("missing frame", "has no matching states"),
        ("extra frame", "spans frames 0 to 2, not consecutive frames")],
        ids=["same instants", "extra pipe", "missing pipe", "missing frame", "extra frame"])
    def test_terms_refused_for_a_history_they_do_not_fit(self, tmp_path, parsed, change,
                                                         message):
        _, _, terms_path, history = self.save(tmp_path)
        stamps, pipe_ids = [ingest.instant(us) for us in history.timestamps], history.pipe_ids
        if change == "same instants":
            stamps = [t.astimezone(timezone(timedelta(hours=1))) for t in stamps]
        elif change.endswith("pipe"):
            pipe_ids = ("p0", "p1") if change == "extra pipe" else ("p0",)
        else:
            stamps = stamps[:1] if change == "missing frame" else (
                stamps[0], stamps[0] + timedelta(seconds=60), stamps[1])
        n = len(stamps)
        other = History(ingest.microseconds(stamps), (), (), (), pipe_ids,
                        *(np.empty((n, 0)) for _ in range(3)), np.full((n, len(pipe_ids)), 0.85))
        # given a history, the terms file is parsed even next to its sidecar
        if message is None:
            assert_terms_equal(read_terms(terms_path, other, pipe_ids), read_terms(terms_path))
            assert parsed == [terms_path]
            return
        with pytest.raises(ParseError, match=message) as info:
            read_terms(terms_path, other, pipe_ids)
        assert (info.value.path, info.value.line) == (terms_path, 2)
        assert parsed == [terms_path]


class TestHistorySequence:
    def history(self, tmp_path):
        path = tmp_path / "states.csv"
        path.write_text(TestStates().make_states_csv())
        return parse_states(str(path), sample_network())

    def test_len_index_and_iteration(self, tmp_path):
        history = self.history(tmp_path)
        assert len(history) == 2
        frames = list(history)
        assert [frame.timestamp for frame in frames] == [stamp(0), stamp(1)]
        assert frames == [history[0], history[1]]
        assert history[-1] == history[1] and history[-2] == history[0]
        assert history[-1].valve_open == {"v1": False}

    def test_index_out_of_range(self, tmp_path):
        history = self.history(tmp_path)
        with pytest.raises(IndexError):
            history[2]
        with pytest.raises(IndexError):
            history[-3]


class TestFraming:
    def test_read_table_skips_blank_rows_and_counts_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n\n3,4\n")
        assert list(ingest.read_table(str(path), ["a", "b"])) == [(2, ["1", "2"]),
                                                                  (4, ["3", "4"])]

    @pytest.mark.parametrize("text, line, message", [
        ("", 1, "expected header a,b, got <empty>"),
        ("a,c\n", 1, "expected header a,b, got a,c"),
        ("a,b\n1,2\n\n3\n", 4, "expected 2 columns, got 1"),
    ])
    def test_read_table_errors(self, tmp_path, text, line, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message) as info:
            list(ingest.read_table(str(path), ["a", "b"]))
        assert info.value.line == line

    @pytest.mark.parametrize("read, data, line", [
        # rows count, not lines: a quoted field spans two, a blank row one
        (lambda path: ingest.read_table(path, ["a", "b"]), b'a,b\n"x\ny",1\n\n2,\xff\n', 4),
        (lambda path: ingest.read_table(path, ["a", "b"]), b"a,\xff\n1,2\n", 1),
        # a lone \r ends a line too
        (ingest.read_settings, b"a = 1\r\nb = 2\r\xff = 3\n", 3),
    ], ids=["table", "header", "settings"])
    def test_undecodable_byte_reported_at_its_line(self, tmp_path, read, data, line):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="cannot decode byte 0xff") as info:
            list(read(str(path)))
        assert info.value.line == line

    def test_write_table_round_trips(self, tmp_path):
        path = str(tmp_path / "t.csv")
        ingest.write_table(path, ["a", "b"], iter([["1", "x,y"], ("2", "")]))
        assert list(ingest.read_table(path, ["a", "b"])) == [(2, ["1", "x,y"]),
                                                             (3, ["2", ""])]

    def test_read_settings(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# head\n\n a = 1 # note\nb=x = y\n")
        assert list(ingest.read_settings(str(path))) == [(3, "a", "1"), (4, "b", "x = y")]
        path.write_text("a = 1\nno equals sign\n")
        with pytest.raises(ParseError, match="expected key = value") as info:
            list(ingest.read_settings(str(path)))
        assert info.value.line == 2


def empty_history(frames: int) -> History:
    return History(ingest.microseconds(stamp(k) for k in range(frames)), (), (), (), (),
                   *(np.empty((frames, 0)) for _ in range(4)))


def assert_same_history(actual: History, expected: History) -> None:
    assert actual.timestamps.dtype == expected.timestamps.dtype == np.int64
    assert actual.timestamps.tolist() == expected.timestamps.tolist()
    for name in ("node_ids", "arc_ids", "valve_ids", "pipe_ids"):
        assert getattr(actual, name) == getattr(expected, name)
    for name in ("pressure_pa", "flow_m3s", "valve_open", "rho_n"):
        np.testing.assert_array_equal(getattr(actual, name), getattr(expected, name))


def test_row_pairs_number_pairs_chronologically():
    stamps = empty_history(5).timestamps
    pairs, pair_index = ingest.row_pairs(stamps, np.array([1, 1, 3, 3, 3]))
    assert pairs.dtype == pair_index.dtype == np.int64
    assert pairs.tolist() == stamps[[[1, 2], [3, 4]]].tolist()
    assert pair_index.tolist() == [0, 0, 1, 1, 1]
    assert ingest.row_pairs(stamps, np.array([], dtype=int))[0].shape == (0, 2)
