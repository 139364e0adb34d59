from datetime import timedelta, timezone
import math

from hypothesis import given, strategies as st
import pytest

from gasinertia.ingest import (
    EXCLUSIONS_COLUMNS,
    ExclusionWindow,
    ParseError,
    STATES_COLUMNS,
    TERMS_COLUMNS,
    TOPOLOGY_COLUMNS,
    format_timestamp,
    frame_pairs,
    parse_exclusions,
    parse_states,
    parse_timestamp,
    parse_topology,
    read_terms,
    serialize_states,
    serialize_topology,
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
from gasinertia.physics import TermRecord, term_ratio

from conftest import BASE_TS, make_pair, stamp

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
        frames = parse_states(str(path), sample_network())
        assert len(frames) == 2
        first = frames[0]
        assert first.timestamp == BASE_TS
        assert first.node_pressure_pa["n0"] == 60.0 * BAR
        assert first.arc_flow_m3s["p1"] == pytest.approx(120.0 * KNM3H)
        assert first.valve_open["v1"] is True
        assert first.pipe_rho_n_kgm3["p1"] == 0.85
        assert frames[1].valve_open["v1"] is False

    def test_round_trip(self, tmp_path):
        path = tmp_path / "states.csv"
        path.write_text(self.make_states_csv())
        net = sample_network()
        frames = parse_states(str(path), net)
        out = tmp_path / "out.csv"
        serialize_states(frames, str(out))
        assert parse_states(str(out), net) == frames

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

    def test_quantity_entity_kind_checked(self, tmp_path):
        t0 = format_timestamp(stamp(0))
        path = tmp_path / "states.csv"
        path.write_text(",".join(STATES_COLUMNS) + f"\n{t0},p1,valve.open,1\n")
        with pytest.raises(ParseError, match="not a valve"):
            parse_states(str(path), sample_network())

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


class TestExclusions:
    def test_round_trip(self, tmp_path):
        windows = [ExclusionWindow("p1", stamp(0), stamp(5))]
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
            ExclusionWindow("p1", stamp(1), stamp(1))

    def test_half_open_coverage_uses_t1(self):
        window = ExclusionWindow("p1", stamp(1), stamp(3))
        # a pair is covered when its t1 falls inside [start, end)
        assert window.covers(make_pair(0))       # t1 == start is inside
        assert window.covers(make_pair(1))
        assert not window.covers(make_pair(2))   # t1 == end is outside
        assert not window.covers(make_pair(3))


class TestTerms:
    def make_records(self):
        out = []
        for k, alpha in enumerate([0.21 * BAR, -0.034 * BAR]):
            beta = 3.7 * alpha
            out.append((TermRecord(
                pipe_id=f"p{k}",
                pair=make_pair(k),
                flow_t0_m3s=100.0 * KNM3H,
                flow_t1_m3s=(100.0 + 7.3 * (k + 1)) * KNM3H,
                alpha_pa=alpha,
                beta_pa=beta,
                alpha_per_length_pam=alpha / 12_345.0,
                ratio=term_ratio(alpha, beta),
            ), k == 0))
        return out

    def test_round_trip_exact(self, tmp_path):
        rows = self.make_records()
        path = tmp_path / "terms.csv"
        write_terms(rows, str(path))
        back = read_terms(str(path))
        assert back == rows

    def test_infinite_ratio_survives(self, tmp_path):
        record = TermRecord("p", make_pair(0), 0.0, 1.0, 5.0, 0.0, 5e-4, math.inf)
        path = tmp_path / "terms.csv"
        write_terms([(record, True)], str(path))
        assert read_terms(str(path))[0][0].ratio == math.inf

    def test_header_pinned(self):
        assert TERMS_COLUMNS == ["t0", "t1", "pipe_id", "flow_t0_kNm3h",
                                 "flow_t1_kNm3h", "dflow_kNm3h", "alpha_bar",
                                 "beta_bar", "alpha_per_10km_bar", "ratio", "relevant"]


def test_frame_pairs_orders_chronologically():
    frames = [StateFrame(stamp(k), {}, {}) for k in range(3)]
    pairs = frame_pairs(frames)
    assert [(p.t0, p.t1) for p, _, _ in pairs] == [
        (stamp(0), stamp(1)), (stamp(1), stamp(2))]
    assert pairs[0][1] is frames[0]
    assert pairs[0][2] is frames[1]
