"""scan reads states.csv block by block, and its outputs do not depend on
where the blocks end.

With ingest._WINDOW shrunk to a few dozen bytes and cli._SCAN_POINTS to 1,
scan classifies and evaluates every block of the reader on its own, a
frame or a few each, so that pairs straddle blocks; at the defaults a
small file is one block.  Both must give the same terms.csv bytes, the
same history.npz arrays and the same stdout, time gaps and exclusions
across block ends included.  A file whose frames all repeat one template
is read by the template reader alone.  A file that breaks the template
only in its last frame has the last window read by the row loop after
blocks have gone out; a bad row there stops scan before it writes.
"""

from datetime import datetime, timedelta, timezone
import gc
import os
from pathlib import Path
import tracemalloc

from hypothesis import given, note, settings, strategies as st
import numpy as np
import pytest

from gasinertia import cli, ingest
from gasinertia.ingest import History, history_columns, serialize_states, serialize_topology
from gasinertia.model import Element, ElementKind, Network, Node, PipeGeometry

from conftest import run_cli

START = datetime(2026, 1, 1, tzinfo=timezone.utc)

NETWORK = Network.build([Node(f"n{k}") for k in range(6)], [
    Element("p1", ElementKind.PIPE, "n0", "n1", PipeGeometry(20_000.0, 0.5, 1e-5)),
    Element("p2", ElementKind.PIPE, "n1", "n2", PipeGeometry(10_000.0, 0.3, 1e-5)),
    Element("p3", ElementKind.PIPE, "n2", "n3", PipeGeometry(5_000.0, 0.4, 1e-5)),
    Element("p4", ElementKind.PIPE, "n4", "n5", PipeGeometry(8_000.0, 0.3, 1e-5)),
    Element("v1", ElementKind.VALVE, "n1", "n3"),
    Element("r1", ElementKind.RESISTOR, "n3", "n4"),
])
COLUMNS = history_columns(NETWORK)
FULL = History(ingest.microseconds(START + timedelta(minutes=3 * k) for k in range(8)), *COLUMNS,
               *(np.full((8, len(ids)), value)
                 for ids, value in zip(COLUMNS, (50e5, 30.0, 1.0, 0.8))))
# flows in kNm3/h: some steps stay under the 0.5 kNm3/h prefilter
FLOWS_KNM3H = [0.0, 0.25, 100.0, 100.5, 99.75, -100.0, 400.0]


@st.composite
def histories(draw):
    """A history over NETWORK whose every frame gives the same columns, so
    that states.csv repeats one template, with gaps of one or two steps."""
    frames = draw(st.integers(1, 10))
    steps = np.cumsum(draw(st.lists(st.sampled_from([1, 1, 2]), min_size=frames,
                                    max_size=frames)))
    stamps = ingest.microseconds(START + timedelta(minutes=3 * int(step)) for step in steps)
    pools = [[40e5, 55.5e5, 70e5],
             [value * ingest.KNM3H for value in FLOWS_KNM3H],
             [0.0, 1.0],
             [0.8, 0.85]]
    arrays = []
    for ids, pool in zip(COLUMNS, pools):
        values = np.array(draw(st.lists(st.sampled_from(pool), min_size=frames * len(ids),
                                        max_size=frames * len(ids)))).reshape(frames, len(ids))
        # a column the history does not give, in every frame alike
        values[:, draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))] = np.nan
        arrays.append(values)
    # every frame gives at least one row
    arrays[2][:, 0] = draw(st.sampled_from(pools[2]))
    return History(stamps, *COLUMNS, *arrays)


# offsets an exclusion edge may be spelled with
OFFSETS = [timezone(timedelta(hours=hours)) for hours in (1, -5.5, 14)]


def instants(history):
    return [ingest.instant(us) for us in history.timestamps]


@st.composite
def exclusions(draw, history):
    """Exclusion windows with edges on frame instants and one second after,
    each edge in UTC or, spelled with an offset, in another zone."""
    stamps = instants(history)
    edges = sorted(stamps + [instant + timedelta(seconds=1) for instant in stamps])
    zones = st.sampled_from([timezone.utc, *OFFSETS])
    windows = []
    for pipe_id, a, b, zone_a, zone_b in draw(st.lists(st.tuples(
            st.sampled_from(COLUMNS[3]), st.integers(0, len(edges) - 1),
            st.integers(0, len(edges) - 1), zones, zones), max_size=3)):
        if a != b:
            windows.append((pipe_id, edges[min(a, b)].astimezone(zone_a),
                            edges[max(a, b)].astimezone(zone_b)))
    return windows


def in_utc(windows):
    return [(pipe_id, a.astimezone(timezone.utc), b.astimezone(timezone.utc))
            for pipe_id, a, b in windows]


def write_inputs(root, history, windows):
    """topology.csv, states.csv and exclusions.csv in root, each window's
    edges spelled in their zones, UTC as Z."""
    serialize_topology(NETWORK, os.path.join(root, "topology.csv"))
    serialize_states(history, os.path.join(root, "states.csv"))
    with open(os.path.join(root, "exclusions.csv"), "w") as handle:
        handle.write("pipe_id,start_iso8601,end_iso8601\n" + "".join(
            f"{pipe_id},{a.isoformat().replace('+00:00', 'Z')},"
            f"{b.isoformat().replace('+00:00', 'Z')}\n" for pipe_id, a, b in windows))


def scan(root, window=None):
    """Run scan on the inputs in root into root/<window>, each block on its
    own if window is given; return its exit code, stdout and stderr, the
    output directory and how the blocks came, in order: "block" for each
    History states_blocks gave, "row loop" for each window ingest._row_step
    read."""
    out = os.path.join(root, str(window))
    given, blocks, row_step = [], ingest.states_blocks, ingest._row_step

    def recording(*args):
        for block in blocks(*args):
            given.append("block")
            yield block

    def row_loop(*args):
        given.append("row loop")
        return row_step(*args)

    with pytest.MonkeyPatch.context() as patch:
        if window is not None:
            patch.setattr(ingest, "_WINDOW", window)
            patch.setattr(cli, "_SCAN_POINTS", 1)
        patch.setattr(cli, "states_blocks", recording)
        patch.setattr(ingest, "_row_step", row_loop)
        result = run_cli(["scan", "--topology", os.path.join(root, "topology.csv"),
                          "--states", os.path.join(root, "states.csv"),
                          "--exclusions", os.path.join(root, "exclusions.csv"), "--out", out])
    return result, out, given


def outputs(out):
    """terms.csv bytes and history.npz arrays, or None for each one absent."""
    terms = os.path.join(out, "terms.csv")
    sidecar = os.path.join(out, ingest.HISTORY_SIDECAR)
    arrays = None
    if os.path.exists(sidecar):
        with np.load(sidecar) as saved:
            arrays = {name: saved[name] for name in saved.files}
    return (Path(terms).read_bytes() if os.path.exists(terms) else None), arrays


def assert_same_outputs(a, b):
    (terms_a, arrays_a), (terms_b, arrays_b) = outputs(a), outputs(b)
    assert terms_a == terms_b
    assert (arrays_a is None) == (arrays_b is None)
    if arrays_a is not None:
        assert sorted(arrays_a) == sorted(arrays_b)
        for name, array in arrays_a.items():
            other = arrays_b[name]
            assert array.dtype == other.dtype and array.shape == other.shape, name
            assert array.tobytes() == other.tobytes(), name


@settings(max_examples=60, deadline=None)
@given(st.data(), histories(), st.integers(40, 400))
def test_blocks_give_the_outputs_of_one_block(tmp_path_factory, data, history, window):
    windows = data.draw(exclusions(history))
    root = str(tmp_path_factory.mktemp("scan"))
    # edges spelled with offsets at small blocks, the same edges as Z at one block
    write_inputs(root, history, windows)
    small, small_out, given_small = scan(root, window)
    write_inputs(root, history, in_utc(windows))
    whole, whole_out, given_whole = scan(root)
    note(f"blocks at {window} bytes: {given_small}")
    assert small == whole
    assert small[0] == 0, small[2]
    # every frame repeats one template, so no window needs the row loop
    assert "row loop" not in given_small + given_whole
    assert_same_outputs(small_out, whole_out)


def test_small_windows_give_a_block_per_frame(tmp_path):
    history = History(ingest.microseconds(START + timedelta(minutes=3 * k) for k in (0, 1, 3, 4)),
                      *COLUMNS, *(array[:4] for array in FULL.arrays()))
    stamps = instants(history)
    write_inputs(str(tmp_path), history, [("p2", stamps[1], stamps[3])])
    (code, out, err), _, given = scan(str(tmp_path), 40)
    assert code == 0, err
    assert given == ["block"] * 4
    # the pair 00:03 .. 00:09 is twice as long as the others, and the
    # window excludes p2 at the t1 of pairs 0 and 1
    assert "frames: 4, pairs: 3, pipes: 4" in out
    assert "data points: 12, excluded: 2, missing: 0, below prefilter: 10, evaluated: 0" in out
    assert "'time_gaps': 1" in out


def cut_last_window(history, edit):
    """Inputs whose states.csv breaks the template only in its last frame."""
    def write(root):
        stamps = instants(history)
        write_inputs(root, history, [("p1", stamps[0], stamps[-1])])
        path = os.path.join(root, "states.csv")
        with open(path, newline="") as handle:
            lines = handle.read().split("\r\n")[:-1]
        if edit == "drop":
            # the last frame loses its last row
            lines.pop()
        else:
            lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan"
        with open(path, "w", newline="") as handle:
            handle.write("\r\n".join(lines) + "\r\n")
        return len(lines)
    return write


def rows_per_frame(history):
    return sum(int(np.count_nonzero(~np.isnan(array[0]))) for array in history.arrays())


@settings(max_examples=30, deadline=None)
@given(histories().filter(lambda history: len(history) >= 3 and rows_per_frame(history) >= 2),
       st.integers(40, 400))
def test_row_loop_at_the_last_window_counts_no_pair_twice(tmp_path_factory, history, window):
    root = str(tmp_path_factory.mktemp("row_loop"))
    cut_last_window(history, "drop")(root)
    small, small_out, given_small = scan(root, window)
    whole, whole_out, given_whole = scan(root)
    note(f"blocks at {window} bytes: {given_small}")
    assert small == whole
    assert small[0] == 0, small[2]
    # the row loop reads the last window alone and gives its frames
    for given in (given_small, given_whole):
        assert given.count("row loop") == 1 and given[-2:] == ["row loop", "block"]
    assert f"frames: {len(history)}, pairs: {len(history) - 1}," in small[1]
    assert_same_outputs(small_out, whole_out)


@pytest.mark.parametrize("window", [40, 400])
def test_row_loop_after_blocks_went_out(tmp_path, window):
    root = str(tmp_path)
    cut_last_window(FULL, "drop")(root)
    small, small_out, given = scan(root, window)
    whole, whole_out, _ = scan(root)
    assert small == whole and small[0] == 0
    # blocks went out before the row loop read the last window
    assert given == ["block"] * 7 + ["row loop", "block"]
    assert "frames: 8, pairs: 7, pipes: 4" in small[1]
    assert_same_outputs(small_out, whole_out)


@pytest.mark.parametrize("window", [40, 400, None])
def test_bad_row_in_the_last_window_writes_nothing(tmp_path, window):
    line = cut_last_window(FULL, "nan")(str(tmp_path))
    (code, stdout, err), out, given = scan(str(tmp_path), window)
    states = os.path.join(str(tmp_path), "states.csv")
    assert code == 1 and stdout == ""
    assert err == f"error: {states}:{line}: non-finite value 'nan' for 'p4'\n"
    # the row loop raised at the last window, after any blocks before it
    assert given.count("row loop") == 1 and given[-1] == "row loop"
    assert not os.path.exists(out)


def test_states_error_reported_before_an_exclusions_error(tmp_path):
    line = cut_last_window(FULL, "nan")(str(tmp_path))
    with open(tmp_path / "exclusions.csv", "a") as handle:
        handle.write("p9,2026-01-01T00:00:00Z,2026-01-01T00:03:00Z\n")
    (code, stdout, err), out, _ = scan(str(tmp_path), 40)
    assert code == 1 and stdout == ""
    assert err == f"error: {tmp_path / 'states.csv'}:{line}: non-finite value 'nan' for 'p4'\n"
    assert not os.path.exists(out)


def test_scan_terms_hold_only_the_pairs_with_rows(tmp_path, monkeypatch):
    # a time gap at pair 2, and flow changes at pairs 1 and 3 alone
    stamps = ingest.microseconds(START + timedelta(minutes=m) for m in (0, 3, 6, 12, 15, 18))
    arrays = [array[:6].copy() for array in FULL.arrays()]
    arrays[1][:] = np.array([[100.0], [100.0], [500.0], [500.0], [100.0], [100.0]]) * ingest.KNM3H
    history = History(stamps, *COLUMNS, *arrays)
    root = str(tmp_path)
    write_inputs(root, history, [])
    written, write_terms = [], ingest.write_terms
    monkeypatch.setattr(cli, "write_terms",
                        lambda terms, path: written.append(terms) or write_terms(terms, path))
    (code, _, err), out, _ = scan(root)
    assert code == 0, err
    terms_path = os.path.join(out, "terms.csv")
    saved = ingest.load_saved(terms_path)[0]
    parsed = ingest.read_terms(terms_path, ingest.parse_states(
        os.path.join(root, "states.csv"), NETWORK), NETWORK.pipes())
    assert written[0].pairs.tolist() == stamps[[[1, 2], [3, 4]]].tolist()
    assert written[0].relevant.any()
    assert written[0].pair_index.tolist() == [0] * 4 + [1] * 4
    for terms in (saved, parsed):
        assert terms.pairs.tolist() == written[0].pairs.tolist()
        assert terms.pair_index.tolist() == written[0].pair_index.tolist()


def test_narrow_history_grows_by_its_arrays_alone(tmp_path):
    """Per frame, the narrow history holds an instant and a value per valve
    and per resistor end: 8 bytes each, and nothing else."""
    def held(frames):
        history = History(ingest.microseconds(START + timedelta(minutes=3 * k)
                                              for k in range(frames)),
                          *COLUMNS, *(np.full((frames, len(ids)), value)
                                      for ids, value in zip(COLUMNS, (50e5, 30.0, 1.0, 0.8))))
        path = str(tmp_path / f"{frames}.csv")
        serialize_states(history, path)
        del history
        gc.collect()
        tracemalloc.start()
        try:
            narrow = ingest.narrow_history(ingest.states_blocks(path, NETWORK), NETWORK)
            gc.collect()
            assert len(narrow) == frames
            return tracemalloc.get_traced_memory()[0], narrow
        finally:
            tracemalloc.stop()

    held(10)
    small, _ = held(1000)
    large, narrow = held(2000)
    per_frame = 8 * (1 + len(narrow.valve_ids) + len(narrow.node_ids))
    assert per_frame == 32
    assert large - small <= 1000 * per_frame + 4096, (small, large)
