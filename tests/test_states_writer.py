"""serialize_states against the csv.writer version it replaced
(oracles.serialize_states_rows).

The writer joins rows from cells quoted once per column; every history,
whatever its ids and values, must give the oracle's bytes, and a valid
one must parse back to the history those bytes spell.
"""

from datetime import datetime, timedelta, timezone
import os
import tempfile

from hypothesis import given, settings, strategies as st
import numpy as np

from gasinertia.ingest import (History, history_columns, microseconds, parse_states,
                               serialize_states)
from gasinertia.model import BAR, KNM3H, Element, ElementKind, Network, Node, PipeGeometry

from oracles import serialize_states_rows

START = datetime(2026, 1, 1, tzinfo=timezone.utc)
GEOMETRY = PipeGeometry(10_000.0, 0.5, 1e-5)

# ids that need quoting, hold spaces or are not ASCII
IDS = st.text(alphabet='ab,"  ö€', min_size=1, max_size=4)
# values that repr spells at its limits, in every column that accepts them
EDGES = [-0.0, 5e-324, 1e300]


def column_values(draw, frames, ids, values):
    """[frames x ids]: values drawn per entry, NaN (not given) in some."""
    array = np.array(draw(st.lists(values, min_size=frames * len(ids),
                                   max_size=frames * len(ids))), dtype=float)
    return array.reshape(frames, len(ids))


@st.composite
def networks_and_histories(draw):
    """(network, history over it); the history is valid, so that it parses
    back, unless a pressure takes one of the edge values."""
    ids = draw(st.lists(IDS, min_size=3, max_size=10, unique=True))
    split = draw(st.integers(2, len(ids) - 1))
    nodes, element_ids = ids[:split], ids[split:]
    kinds = draw(st.lists(st.sampled_from(list(ElementKind)[:3]),
                          min_size=len(element_ids), max_size=len(element_ids)))
    # PIPE, VALVE, RESISTOR
    elements = [Element(element_id, kind, nodes[k % split], nodes[(k + 1) % split],
                        GEOMETRY if kind is ElementKind.PIPE else None)
                for k, (element_id, kind) in enumerate(zip(element_ids, kinds))]
    network = Network.build([Node(node_id) for node_id in nodes], elements)
    node_ids, arc_ids, valve_ids, pipe_ids = columns = history_columns(network)
    frames = draw(st.integers(1, 6))
    gaps = draw(st.lists(st.integers(1, 10**9), min_size=frames, max_size=frames))
    stamps = microseconds(START + timedelta(microseconds=int(us)) for us in np.cumsum(gaps))
    nan = st.just(np.nan)
    # pressures at or below zero, and so not parsed back, in some histories
    pressures = st.floats(0.5e5, 99e5) | st.sampled_from(
        [1e300, *EDGES] if draw(st.booleans()) else [1e300])
    flows = st.floats(-1e3, 1e3, allow_nan=False) | st.sampled_from(EDGES)
    states = st.sampled_from([0.0, 1.0, -0.0, 2.5, 5e-324])
    densities = st.floats(0.51, 1.3)
    arrays = [column_values(draw, frames, ids, values | nan) for ids, values in (
        (node_ids, pressures), (arc_ids, flows), (valve_ids, states), (pipe_ids, densities))]
    return network, History(stamps, *columns, *arrays)


def spelled(history: History) -> History:
    """history as a states file spells it: values through file units,
    valve states 1.0 or 0.0; NaN stays."""
    valve = history.valve_open
    return History(history.timestamps, history.node_ids, history.arc_ids, history.valve_ids,
                   history.pipe_ids, history.pressure_pa / BAR * BAR,
                   history.flow_m3s / KNM3H * KNM3H,
                   np.where(np.isnan(valve), np.nan, (valve != 0.0).astype(float)),
                   history.rho_n)


@settings(max_examples=300, deadline=None)
@given(networks_and_histories())
def test_bytes_equal_the_csv_writer_and_parse_back(case):
    network, history = case
    with tempfile.TemporaryDirectory() as root:
        path, want = os.path.join(root, "states.csv"), os.path.join(root, "want.csv")
        serialize_states(history, path)
        serialize_states_rows(history, want)
        with open(path, "rb") as got_file, open(want, "rb") as want_file:
            assert got_file.read() == want_file.read()
        pressure = history.pressure_pa[~np.isnan(history.pressure_pa)] / BAR
        if not (pressure > 0.0).all():
            return
        parsed, expected = parse_states(path, network), spelled(history)
    # a frame that gives no value is not in the file
    given_at = [k for k in range(len(history))
                if any(not np.isnan(getattr(history, name)[k]).all() for name in (
                    "pressure_pa", "flow_m3s", "valve_open", "rho_n"))]
    assert parsed.timestamps.tolist() == expected.timestamps[given_at].tolist()
    assert (parsed.node_ids, parsed.arc_ids, parsed.valve_ids, parsed.pipe_ids) == (
        expected.node_ids, expected.arc_ids, expected.valve_ids, expected.pipe_ids)
    for name in ("pressure_pa", "flow_m3s", "valve_open", "rho_n"):
        # bit for bit: NaN positions and the sign of zero count
        assert getattr(parsed, name).tobytes() == getattr(expected, name)[given_at].tobytes()
