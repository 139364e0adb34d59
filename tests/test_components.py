from datetime import timedelta, timezone
import math
import random

from hypothesis import example, given, settings, strategies as st
import pytest

from gasinertia.components import (
    COMPONENTS_COLUMNS,
    Component,
    DirectedArc,
    build_pair_components,
    longest_path_value,
    read_components,
    write_components,
)
from gasinertia.ingest import ParseError, format_timestamp, parse_timestamp
from gasinertia.model import (
    BAR,
    Diagnostics,
    Element,
    ElementKind,
    Network,
    Node,
    PipeGeometry,
    StateFrame,
)
from gasinertia.physics import TermRecord, term_ratio
from gasinertia.thresholds import RelevanceClass, ThresholdConfig

from conftest import make_component, make_pair, make_stream, stamp
from oracles import (bfs_groups, closure_strong_components, enumerate_longest_path,
                     longest_path_all_sources, object_components, object_longest_path)

GEOM = PipeGeometry(10_000.0, 0.5)


def build_network(extra: list[Element] = ()) -> Network:
    nodes = [Node(f"n{i}") for i in range(8)]
    elements = [
        Element("pa", ElementKind.PIPE, "n0", "n1", GEOM),
        Element("pb", ElementKind.PIPE, "n1", "n2", GEOM),
        Element("pc", ElementKind.PIPE, "n3", "n4", GEOM),
        Element("pd", ElementKind.PIPE, "n5", "n6", GEOM),
        *extra,
    ]
    return Network.build(nodes, elements)


def record(pipe_id: str, alpha_pa: float, dflow_m3s: float = 1.0) -> TermRecord:
    return TermRecord(
        pipe_id=pipe_id,
        pair=make_pair(0),
        flow_t0_m3s=0.0,
        flow_t1_m3s=dflow_m3s,
        alpha_pa=alpha_pa,
        beta_pa=alpha_pa / 10.0,
        alpha_per_length_pam=alpha_pa / GEOM.length_m,
        ratio=term_ratio(alpha_pa, alpha_pa / 10.0),
    )


def frame(index: int, pressures=None, valves=None) -> StateFrame:
    return StateFrame(stamp(index), dict(pressures or {}), {}, dict(valves or {}), {})


def build(net: Network, records: list[TermRecord], frame_t0: StateFrame | None = None,
          frame_t1: StateFrame | None = None, diag: Diagnostics | None = None):
    return build_pair_components(net, records, frame_t0 or frame(0), frame_t1 or frame(1),
                                 ThresholdConfig(), diag)


def membership(comps) -> list[tuple[str, ...]]:
    return [comp.pipe_ids for comp in comps]


class TestGrouping:
    def test_shared_node_merges(self):
        net = build_network()
        assert membership(build(net, [record("pa", 1.0), record("pb", 2.0)])) == [("pa", "pb")]

    def test_disjoint_pipes_stay_apart(self):
        net = build_network()
        comps = build(net, [record("pc", 1.0), record("pa", 2.0)])
        assert membership(comps) == [("pa",), ("pc",)]

    def test_open_valve_bridges(self):
        net = build_network([Element("v", ElementKind.VALVE, "n1", "n3")])
        recs = [record("pa", 1.0), record("pc", 2.0)]
        [comp] = build(net, recs, frame_t1=frame(1, valves={"v": True}))
        # n0 -pa-> n1 -v-> n3 -pc-> n4: the path runs through the valve
        assert (comp.pipe_ids, comp.longest_path_pa) == (("pa", "pc"), 3.0)

    def test_closed_valve_does_not_bridge(self):
        net = build_network([Element("v", ElementKind.VALVE, "n1", "n3")])
        recs = [record("pa", 1.0), record("pc", 2.0)]
        assert len(build(net, recs, frame_t1=frame(1, valves={"v": False}))) == 2

    def test_missing_valve_state_counts_as_closed(self):
        net = build_network([Element("v", ElementKind.VALVE, "n1", "n3")])
        diag = Diagnostics()
        assert len(build(net, [record("pa", 1.0), record("pc", 2.0)], diag=diag)) == 2
        assert diag.missing_valve_state == 1

    def test_resistor_always_bridges(self):
        net = build_network([Element("r", ElementKind.RESISTOR, "n1", "n3")])
        assert len(build(net, [record("pa", 1.0), record("pc", 2.0)])) == 1

    def test_active_elements_never_bridge(self):
        for kind in (ElementKind.REGULATOR, ElementKind.COMPRESSOR):
            net = build_network([Element("x", kind, "n1", "n3")])
            comps = build(net, [record("pa", 1.0), record("pc", 2.0)],
                          frame_t1=frame(1, valves={"x": True}))
            assert len(comps) == 2

    def test_irrelevant_pipe_does_not_bridge(self):
        # pb carries no record, so pa and a pipe beyond it stay apart
        net = build_network([Element("pe", ElementKind.PIPE, "n2", "n3", GEOM)])
        assert len(build(net, [record("pa", 1.0), record("pc", 2.0)])) == 2

    def test_group_order_is_by_smallest_pipe_id(self):
        net = build_network()
        comps = build(net, [record("pd", 1.0), record("pa", 2.0), record("pc", 3.0)])
        assert [comp.pipe_ids[0] for comp in comps] == ["pa", "pc", "pd"]

    def test_bridges_in_series_and_dead_ends_belong_to_the_group(self):
        # n1 -v- n7 -r- n3 joins pa and pc; w hangs off n0 and leads nowhere
        net = build_network([Element("r", ElementKind.RESISTOR, "n7", "n3"),
                             Element("v", ElementKind.VALVE, "n1", "n7"),
                             Element("w", ElementKind.RESISTOR, "n0", "n2")])
        diag = Diagnostics()
        [comp] = build(net, [record("pc", 1.0), record("pa", 2.0)],
                       frame_t1=frame(1, valves={"v": True}), diag=diag)
        assert (comp.pipe_ids, comp.longest_path_pa) == (("pa", "pc"), 3.0)
        # no pressures given: each resistor of the group is oriented once
        assert diag.missing_resistor_pressure == 2


@st.composite
def small_networks(draw, kinds=tuple(ElementKind), nodes=6, elements=12):
    """At most elements elements of kinds (a kind given twice is drawn
    twice as often) between at most nodes nodes, relevant pipes and valve
    states.

    Few nodes make parallel, series and dead-end bridges common; a valve
    state is open, closed or missing.
    """
    n = draw(st.integers(2, nodes))
    node = st.integers(0, n - 1)
    links, relevant, valves = [], [], {}
    for k in range(draw(st.integers(1, elements))):
        kind = draw(st.sampled_from(kinds))
        u = draw(node)
        v = draw(node.filter(lambda v: v != u))
        element_id = f"e{k:02d}"
        links.append(Element(element_id, kind, f"n{u}", f"n{v}",
                             GEOM if kind is ElementKind.PIPE else None))
        if kind is ElementKind.PIPE and draw(st.booleans()):
            relevant.append(element_id)
        if kind is ElementKind.VALVE:
            state = draw(st.sampled_from([True, False, None]))
            if state is not None:
                valves[element_id] = state
    order = draw(st.permutations(relevant))
    return Network.build([Node(f"n{i}") for i in range(n)], links), order, valves


@settings(max_examples=300, deadline=None)
@given(small_networks())
def test_grouping_matches_breadth_first_oracle(case):
    net, relevant, valves = case
    diag = Diagnostics()
    comps = build(net, [record(pipe_id, 1.0) for pipe_id in relevant],
                  frame_t1=frame(1, valves=valves), diag=diag)
    expected, missing = bfs_groups(
        [(el.element_id, el.kind.value, el.from_node, el.to_node)
         for el in net.elements.values()], set(relevant), valves)
    assert membership(comps) == [tuple(pipes) for pipes, _ in expected]
    assert diag.missing_valve_state == missing
    # without pressures, each resistor of a group is counted once
    assert diag.missing_resistor_pressure == sum(
        net.elements[bridge].kind is ElementKind.RESISTOR
        for _, bridges in expected for bridge in bridges)


ALPHAS = st.one_of(st.sampled_from([0.0, -0.0]), st.integers(-4, 4).map(float),
                   st.floats(-1e6, 1e6, allow_nan=False))
PRESSURES = st.sampled_from([None, 50.0 * BAR, 55.0 * BAR, 60.0 * BAR])


@st.composite
def pair_cases(draw):
    """A network of every element kind between few nodes, so that parallel
    pipes, cycles and bridges in series are common, with the records of
    its relevant pipes and the frames of one pair: valves open, closed or
    without a state, and end pressures drawn from three values or
    missing, so that resistor drops rise, fall, hold or are unknown."""
    net, relevant, valves = draw(small_networks((ElementKind.PIPE,) * 3 + tuple(ElementKind),
                                                nodes=7, elements=24))
    records = [TermRecord(pipe_id, make_pair(0), 0.0, draw(ALPHAS), draw(ALPHAS), 1.0, 1.0,
                          1.0) for pipe_id in relevant]
    frames = []
    for index in (0, 1):
        pressures = {node_id: draw(PRESSURES) for node_id in net.nodes}
        frames.append(frame(index, {k: p for k, p in pressures.items() if p is not None},
                            valves))
    return net, records, frames


def pinned_case(links, alphas, bar_t0, bar_t1, valves):
    """A pair case of links (element id, kind, from, to) between nodes
    n0 .. n6, with the alphas of its relevant pipes and its pressures in
    bar at t0 and t1."""
    net = Network.build([Node(f"n{i}") for i in range(7)], [
        Element(element_id, ElementKind(kind), u, v, GEOM if kind == "pipe" else None)
        for element_id, kind, u, v in links])
    records = [TermRecord(pipe_id, make_pair(0), 0.0, 1.0, alpha, 1.0, 1.0, 1.0)
               for pipe_id, alpha in alphas.items()]
    return net, records, [frame(k, {node_id: p * BAR for node_id, p in bar.items()}, valves)
                          for k, bar in enumerate((bar_t0, bar_t1))]


# two pairs whose cycle correction moves by an ulp when their arcs come in
# another order, pipes reversed and bridges first: their cycles, cancelled
# one by one, are summed in that order
ARC_ORDER_CASES = [
    pinned_case([("e00", "resistor", "n6", "n1"), ("e01", "resistor", "n5", "n6"),
                 ("e04", "pipe", "n2", "n0"), ("e05", "valve", "n0", "n1"),
                 ("e06", "pipe", "n1", "n2"), ("e11", "pipe", "n0", "n1"),
                 ("e15", "pipe", "n5", "n2"), ("e16", "pipe", "n3", "n6"),
                 ("e17", "resistor", "n2", "n0"), ("e18", "pipe", "n3", "n5")],
                {"e06": -326385.4911782994, "e18": 0.0, "e11": 187184.8141960234,
                 "e16": -3.0, "e04": 614548.0806058056, "e15": -667769.6950981105},
                {"n0": 50.0, "n1": 50.0, "n2": 60.0, "n3": 55.0, "n5": 55.0},
                {"n0": 50.0, "n1": 50.0, "n2": 50.0, "n3": 55.0, "n4": 50.0, "n5": 55.0,
                 "n6": 60.0}, {"e05": True}),
    pinned_case([("e00", "pipe", "n3", "n4"), ("e06", "pipe", "n4", "n3"),
                 ("e07", "resistor", "n3", "n1"), ("e08", "pipe", "n4", "n3"),
                 ("e14", "valve", "n5", "n1"), ("e15", "pipe", "n5", "n4")],
                {"e15": 1e-07, "e06": 1.7281323419886223e-12, "e00": 0.0, "e08": 3.0},
                {"n0": 50.0, "n1": 60.0, "n2": 50.0, "n3": 55.0, "n4": 50.0, "n5": 55.0},
                {"n0": 50.0, "n1": 55.0, "n2": 50.0, "n4": 50.0, "n5": 55.0}, {"e14": True}),
]


def bits(comp: Component) -> tuple:
    return (comp.pipe_ids, comp.longest_path_pa.hex(),
            comp.cycle_correction_pa.hex(), comp.relevance, comp.max_abs_dflow_m3s.hex())


@settings(max_examples=400, deadline=None)
@given(pair_cases())
@example(ARC_ORDER_CASES[0])
@example(ARC_ORDER_CASES[1])
def test_index_components_match_the_object_oracle(case):
    """The components over index tables are those of the object code kept
    in oracles.py, bit for bit, with the same diagnostics."""
    net, records, (frame_t0, frame_t1) = case
    cfg = ThresholdConfig(abs_small_pa=1.0, abs_high_pa=3.0)
    diag, expected_diag = Diagnostics(), Diagnostics()
    comps = build_pair_components(net, records, frame_t0, frame_t1, cfg, diag)
    expected = object_components(net, records, frame_t0, frame_t1, cfg, expected_diag)
    assert [bits(comp) for comp in comps] == [bits(comp) for comp in expected]
    assert diag == expected_diag


def arc_values(net: Network, alphas: dict[str, float], frame_t0: StateFrame,
               frame_t1: StateFrame, diag: Diagnostics | None = None) -> list[float]:
    """The longest path value of each component of pipes with alphas."""
    comps = build(net, [record(pipe_id, alpha) for pipe_id, alpha in alphas.items()],
                  frame_t0, frame_t1, diag)
    return [comp.longest_path_pa for comp in comps]


class TestOrientation:
    # pa runs n0 -> n1, pb n1 -> n2 and pc n3 -> n4; a bridge joins n1 and n3

    def test_pipe_follows_alpha_sign(self):
        net = build_network()
        assert arc_values(net, {"pa": 5.0, "pb": 3.0}, frame(0), frame(1)) == [8.0]
        # pa now points n1 -> n0, away from pb's start
        assert arc_values(net, {"pa": -5.0, "pb": 3.0}, frame(0), frame(1)) == [5.0]
        assert arc_values(net, {"pa": -5.0, "pb": -3.0}, frame(0), frame(1)) == [8.0]

    def test_open_valve_both_directions(self):
        net = build_network([Element("v", ElementKind.VALVE, "n1", "n3")])
        open_at_t1 = frame(1, valves={"v": True})
        assert arc_values(net, {"pa": 1.0, "pc": 2.0}, frame(0), open_at_t1) == [3.0]
        assert arc_values(net, {"pa": -1.0, "pc": -2.0}, frame(0), open_at_t1) == [3.0]

    def test_resistor_oriented_by_drop_change(self):
        net = build_network([Element("r", ElementKind.RESISTOR, "n1", "n3")])
        rising = frame(1, pressures={"n1": 60.0 * BAR, "n3": 50.0 * BAR})
        flat = frame(0, pressures={"n1": 55.0 * BAR, "n3": 50.0 * BAR})
        # a rising drop points n1 -> n3 only, a falling one n3 -> n1 only
        assert arc_values(net, {"pa": 1.0, "pc": 2.0}, flat, rising) == [3.0]
        assert arc_values(net, {"pa": -1.0, "pc": -2.0}, flat, rising) == [2.0]
        assert arc_values(net, {"pa": 1.0, "pc": 2.0}, rising, flat) == [2.0]
        assert arc_values(net, {"pa": -1.0, "pc": -2.0}, rising, flat) == [3.0]

    def test_resistor_unchanged_drop_gets_both(self):
        net = build_network([Element("r", ElementKind.RESISTOR, "n1", "n3")])
        state = {"n1": 60.0 * BAR, "n3": 50.0 * BAR}
        for alphas in ({"pa": 1.0, "pc": 2.0}, {"pa": -1.0, "pc": -2.0}):
            assert arc_values(net, alphas, frame(0, state), frame(1, state)) == [3.0]

    def test_resistor_missing_pressure_gets_both_and_diag(self):
        net = build_network([Element("r", ElementKind.RESISTOR, "n1", "n3")])
        half = frame(1, pressures={"n1": 60.0 * BAR})
        for alphas in ({"pa": 1.0, "pc": 2.0}, {"pa": -1.0, "pc": -2.0}):
            diag = Diagnostics()
            assert arc_values(net, alphas, frame(0), half, diag) == [3.0]
            assert diag.missing_resistor_pressure == 1

    def test_bridge_outside_group_ignored(self):
        net = build_network([Element("r", ElementKind.RESISTOR, "n6", "n7")])
        diag = Diagnostics()
        assert arc_values(net, {"pa": 1.0}, frame(0), frame(1), diag) == [1.0]
        assert diag.missing_resistor_pressure == 0


class TestLongestPath:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            longest_path_value([])

    def test_single_arc(self):
        value, corr = longest_path_value([DirectedArc("a", "b", 7.0, "p")])
        assert value == 7.0
        assert corr == 0.0

    def test_chain_sums(self):
        arcs = [DirectedArc("a", "b", 3.0, "x"), DirectedArc("b", "c", 4.0, "y")]
        assert longest_path_value(arcs)[0] == 7.0

    def test_head_to_head_takes_maximum(self):
        arcs = [DirectedArc("a", "b", 3.0, "x"), DirectedArc("c", "b", 4.0, "y")]
        assert longest_path_value(arcs)[0] == 4.0

    def test_parallel_arcs_take_maximum(self):
        arcs = [DirectedArc("a", "b", 3.0, "x"), DirectedArc("a", "b", 4.0, "y")]
        assert longest_path_value(arcs)[0] == 4.0

    def test_zero_weight_bridge_joins(self):
        arcs = [DirectedArc("a", "b", 3.0, "x"),
                DirectedArc("b", "c", 0.0, "v"),
                DirectedArc("c", "d", 4.0, "y")]
        assert longest_path_value(arcs)[0] == 7.0

    def test_two_cycle_corrected(self):
        arcs = [DirectedArc("a", "b", 3.0, "x"), DirectedArc("b", "a", 4.0, "y")]
        value, corr = longest_path_value(arcs)
        assert corr == 7.0
        assert value >= enumerate_longest_path([("a", "b", 3.0), ("b", "a", 4.0)])

    def test_two_weighted_sccs_joined_by_a_one_way_arc(self):
        arcs = [DirectedArc("a", "b", 3.0, "p1"), DirectedArc("b", "a", 4.0, "p2"),
                DirectedArc("b", "c", 2.0, "p3"),
                DirectedArc("c", "d", 5.0, "p4"), DirectedArc("d", "c", 6.0, "p5")]
        # each SCC's cycle is cancelled once; only the joining arc is left
        assert longest_path_value(arcs) == (2.0 + 18.0, 18.0)
        assert enumerate_longest_path(
            [(a.from_node, a.to_node, a.weight_pa) for a in arcs]) == 10.0

    def test_weighted_self_loop(self):
        assert longest_path_value([DirectedArc("a", "a", 5.0, "p1")]) == (5.0, 5.0)
        arcs = [DirectedArc("a", "a", 5.0, "p1"), DirectedArc("a", "b", 3.0, "p2")]
        assert longest_path_value(arcs) == (8.0, 5.0)

    def test_two_way_valve_in_a_chain_is_exact(self):
        arcs = [DirectedArc("a", "b", 3.0, "x"),
                DirectedArc("b", "c", 0.0, "v"), DirectedArc("c", "b", 0.0, "v"),
                DirectedArc("c", "d", 4.0, "y")]
        assert longest_path_value(arcs) == (7.0, 0.0)

    def test_matches_enumeration_on_random_dags(self):
        rng = random.Random(20260814)
        for _ in range(200):
            n = rng.randint(2, 7)
            arcs = []
            for _ in range(rng.randint(1, 10)):
                u, v = sorted(rng.sample(range(n), 2))
                arcs.append(DirectedArc(f"n{u}", f"n{v}", rng.uniform(0.0, 10.0),
                                        f"e{len(arcs)}"))
            expected = enumerate_longest_path(
                [(a.from_node, a.to_node, a.weight_pa) for a in arcs])
            value, corr = longest_path_value(arcs)
            assert corr == 0.0
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_never_underestimates_with_cycles(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(2, 6)
            arcs = []
            for _ in range(rng.randint(2, 9)):
                u, v = rng.sample(range(n), 2)
                arcs.append(DirectedArc(f"n{u}", f"n{v}", rng.uniform(0.0, 10.0),
                                        f"e{len(arcs)}"))
            expected = enumerate_longest_path(
                [(a.from_node, a.to_node, a.weight_pa) for a in arcs])
            value, _ = longest_path_value(arcs)
            assert value >= expected - 1e-9


ARC_WEIGHTS = st.one_of(st.just(0.0), st.integers(0, 4).map(float),
                        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))


@st.composite
def multigraphs(draw):
    """Arcs between few nodes, so cycles, parallel arcs and self-loops are common."""
    n = draw(st.integers(1, 7))
    node = st.integers(0, n - 1)
    triples = draw(st.lists(st.tuples(node, node, ARC_WEIGHTS), min_size=1, max_size=16))
    return [DirectedArc(f"n{u}", f"n{v}", w, f"e{k}") for k, (u, v, w) in enumerate(triples)]


@st.composite
def grids(draw):
    """k x k grids with each link one way, the other way, or a zero-weight pair."""
    k = draw(st.integers(2, 4))
    arcs = []
    for i in range(k):
        for j in range(k):
            for di, dj in ((0, 1), (1, 0)):
                if i + di >= k or j + dj >= k:
                    continue
                a, b = f"n{i}_{j}", f"n{i + di}_{j + dj}"
                kind = draw(st.sampled_from(["forward", "backward", "bridge"]))
                if kind == "bridge":
                    arcs += [DirectedArc(a, b, 0.0, "v"), DirectedArc(b, a, 0.0, "v")]
                else:
                    u, v = (a, b) if kind == "forward" else (b, a)
                    arcs.append(DirectedArc(u, v, draw(ARC_WEIGHTS), f"p{len(arcs)}"))
    return arcs


@settings(max_examples=400, deadline=None)
@given(st.one_of(multigraphs(), grids()))
def test_longest_path_bounds_and_cancels_only_in_weighted_sccs(arcs):
    triples = [(a.from_node, a.to_node, a.weight_pa) for a in arcs]
    part = {node: scc for scc in closure_strong_components(triples) for node in scc}
    weighted_scc = any(w > 0.0 and v in part[u] for u, v, w in triples)
    value, correction = longest_path_value(arcs)
    assert (correction > 0.0) == weighted_scc
    if not weighted_scc:
        assert (value, correction) == longest_path_all_sources(triples)
    expected = enumerate_longest_path(triples)
    # the value and the path sums round once per arc added, in other orders
    slack = len(arcs) * math.ulp(expected + correction)
    assert expected - slack <= value <= expected + correction + slack


@settings(max_examples=400, deadline=None)
@given(st.one_of(multigraphs(), grids()))
def test_longest_path_matches_the_object_oracle(arcs):
    """Value and correction bits of the object code kept in oracles.py,
    whose cancellation rounds find the same cycles in the same order."""
    value, correction = longest_path_value(arcs)
    expected_value, expected_correction = object_longest_path(arcs)
    assert (value.hex(), correction.hex()) == (expected_value.hex(), expected_correction.hex())


class TestArcValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            DirectedArc("a", "b", -1.0, "p")


class TestBuildComponents:
    def test_fields(self):
        net = build_network()
        cfg = ThresholdConfig()
        recs = [record("pa", 0.2 * BAR, dflow_m3s=2.0),
                record("pb", 0.4 * BAR, dflow_m3s=1.0)]
        comps = build_pair_components(net, recs, frame(0), frame(1), cfg)
        assert len(comps) == 1
        comp = comps[0]
        assert comp.pipe_ids == ("pa", "pb")
        assert comp.longest_path_pa == pytest.approx(0.6 * BAR)
        assert comp.relevance is RelevanceClass.HIGH
        assert comp.max_abs_dflow_m3s == 2.0
        assert comp.cycle_correction_pa == 0.0

    def test_opposed_arcs_do_not_add(self):
        net = build_network()
        cfg = ThresholdConfig()
        recs = [record("pa", 0.2 * BAR), record("pb", -0.3 * BAR)]
        comps = build_pair_components(net, recs, frame(0), frame(1), cfg)
        # both point at n1's side: pa n0->n1, pb n2->n1
        assert comps[0].longest_path_pa == pytest.approx(0.3 * BAR)
        assert comps[0].relevance is RelevanceClass.SMALL

    @pytest.mark.parametrize("kinds", [(ElementKind.VALVE, ElementKind.VALVE),
                                       (ElementKind.VALVE, ElementKind.RESISTOR),
                                       (ElementKind.RESISTOR, ElementKind.RESISTOR)],
                             ids=["valve+valve", "valve+resistor", "resistor+resistor"])
    def test_bridges_in_series_carry_the_path(self, kinds):
        # n0 -pa-> n1 -b1- n7 -b2- n3 -pc-> n4; no relevant pipe touches n7
        net = build_network([Element("b1", kinds[0], "n1", "n7"),
                             Element("b2", kinds[1], "n7", "n3")])
        recs = [record("pa", 0.30 * BAR), record("pc", 0.25 * BAR)]
        comps = build_pair_components(net, recs, frame(0),
                                      frame(1, valves={"b1": True, "b2": True}),
                                      ThresholdConfig())
        assert [comp.pipe_ids for comp in comps] == [("pa", "pc")]
        assert comps[0].longest_path_pa == pytest.approx(0.55 * BAR)
        assert comps[0].cycle_correction_pa == 0.0
        assert comps[0].relevance is RelevanceClass.HIGH


class TestSerialization:
    def sample_stream(self):
        return make_stream([
            (0, [make_component(("pa", "pb"), value_bar=0.61,
                                relevance=RelevanceClass.HIGH, dflow_knm3h=36.0),
                 make_component(("pc",), value_bar=0.11,
                                relevance=RelevanceClass.SMALL, dflow_knm3h=4.0)]),
            (2, [make_component(("pa",), value_bar=0.02,
                                relevance=RelevanceClass.NONE, dflow_knm3h=2.5)]),
        ])

    def test_round_trip(self, tmp_path):
        stream = self.sample_stream()
        comp_path = tmp_path / "components.csv"
        members_path = tmp_path / "members.csv"
        write_components(stream, str(comp_path), str(members_path))
        back = read_components(str(comp_path), str(members_path))
        assert len(back) == len(stream)
        for (pair_a, comps_a), (pair_b, comps_b) in zip(stream, back):
            assert pair_a == pair_b
            for ca, cb in zip(comps_a, comps_b):
                assert ca.pipe_ids == cb.pipe_ids
                assert ca.longest_path_pa == cb.longest_path_pa
                assert ca.relevance is cb.relevance
                assert ca.max_abs_dflow_m3s == cb.max_abs_dflow_m3s

    def test_header_checked(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        members_path = tmp_path / "members.csv"
        members_path.write_text("component_id,pipe_id\n")
        with pytest.raises(ParseError):
            read_components(str(bad), str(members_path))

    def written(self, tmp_path):
        comp_path = tmp_path / "components.csv"
        members_path = tmp_path / "members.csv"
        write_components(self.sample_stream(), str(comp_path), str(members_path))
        return comp_path, members_path

    @pytest.mark.parametrize("cells", ["0", "0,pa,pb"])
    def test_member_row_width_reported_at_its_line(self, tmp_path, cells):
        comp_path, members_path = self.written(tmp_path)
        lines = members_path.read_text().splitlines()
        lines[2] = cells
        members_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="expected 2 columns") as info:
            read_components(str(comp_path), str(members_path))
        assert (info.value.path, info.value.line) == (str(members_path), 3)

    def test_non_integer_n_pipes_reported_at_its_line(self, tmp_path):
        comp_path, members_path = self.written(tmp_path)
        lines = comp_path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[3] = "one"
        lines[2] = ",".join(cells)
        comp_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="bad component row") as info:
            read_components(str(comp_path), str(members_path))
        assert (info.value.path, info.value.line) == (str(comp_path), 3)

    def test_member_of_no_component_reported_at_its_line(self, tmp_path):
        comp_path, members_path = self.written(tmp_path)
        lines = members_path.read_text().splitlines()
        lines.insert(2, "99,bogus")
        members_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="'99' names no component") as info:
            read_components(str(comp_path), str(members_path))
        assert (info.value.path, info.value.line) == (str(members_path), 3)

    def test_reversed_pair_reported_at_its_line(self, tmp_path):
        comp_path, members_path = self.written(tmp_path)
        lines = comp_path.read_text().splitlines()
        t0, t1, rest = lines[3].split(",", 2)
        lines[3] = ",".join([t1, t0, rest])
        comp_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="t1 > t0") as info:
            read_components(str(comp_path), str(members_path))
        assert (info.value.path, info.value.line) == (str(comp_path), 4)

    @pytest.mark.parametrize("hours", [0, 1], ids=["same text", "+01:00"])
    def test_pair_of_one_instant_reported_at_its_line(self, tmp_path, hours):
        """A row whose t1 is its t0, in the same text or another offset's,
        after a row of the pair as written."""
        comp_path, members_path = self.written(tmp_path)
        lines = comp_path.read_text().splitlines()
        t0, _, rest = lines[2].split(",", 2)
        t1 = parse_timestamp(t0).astimezone(timezone(timedelta(hours=hours)))
        lines[2] = ",".join([t0, t1.isoformat() if hours else t0, rest])
        comp_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            read_components(str(comp_path), str(members_path))
        assert str(info.value) == (f"{comp_path}:3: time pair requires t1 > t0, got "
                                   f"{parse_timestamp(t0)} .. {t1}")

    @pytest.mark.parametrize("order, line", [((3, 1, 2), 3), ((1, 3, 2), 4)],
                             ids=["last row first", "pair split"])
    def test_pair_starting_before_the_previous_ends_reported_at_its_line(
            self, tmp_path, order, line):
        comp_path, members_path = self.written(tmp_path)
        lines = comp_path.read_text().splitlines()
        comp_path.write_text("\n".join([lines[0]] + [lines[k] for k in order]) + "\n")
        # the pair of line `line` starts before the pair 2 row above it ends
        with pytest.raises(ParseError, match="starts before the previous row's pair ends "
                                             f"at {format_timestamp(stamp(3))}") as info:
            read_components(str(comp_path), str(members_path))
        assert (info.value.path, info.value.line) == (str(comp_path), line)

    def test_duplicate_component_id_reported_at_its_line(self, tmp_path):
        comp_path, members_path = self.written(tmp_path)
        lines = comp_path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = "0"
        lines[3] = ",".join(cells)
        comp_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="duplicate component id '0'") as info:
            read_components(str(comp_path), str(members_path))
        assert (info.value.path, info.value.line) == (str(comp_path), 4)

    def test_member_count_mismatch_detected(self, tmp_path):
        stream = self.sample_stream()
        comp_path = tmp_path / "components.csv"
        members_path = tmp_path / "members.csv"
        write_components(stream, str(comp_path), str(members_path))
        lines = members_path.read_text().splitlines()
        members_path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ParseError):
            read_components(str(comp_path), str(members_path))

    def test_columns_pinned(self):
        assert COMPONENTS_COLUMNS == ["t0", "t1", "component_id", "n_pipes",
                                      "longest_path_bar", "cycle_correction_bar",
                                      "class", "max_abs_flow_change"]
