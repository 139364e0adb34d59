import builtins
import csv
import gc
import math
from datetime import datetime, timedelta, timezone
import os
import re
import tempfile

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from gasinertia import cli
from gasinertia.cli import (
    CHAINS_COLUMNS,
    EVENTS_COLUMNS,
    RUNS_COLUMNS,
    load_config_file,
    parse_length,
)
from gasinertia import ingest
from gasinertia.ingest import TERMS_COLUMNS, ParseError, read_table, states_blocks
from gasinertia.components import DirectedArc, NetworkIndex
from gasinertia.model import BAR, KNM3H, GasParams, StateFrame
from gasinertia.physics import TermRecord

from conftest import feed_fifo, run_cli, stamp
from gasinertia.ingest import format_timestamp
from oracles import classify_scan_points, friction_beta, inertia_alpha


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def record_opened(monkeypatch):
    """The (file name, mode) of every file opened from here on."""
    opened, builtin_open = [], open

    def recording(file, mode="r", *args, **kwargs):
        opened.append((os.path.basename(file), mode))
        return builtin_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording)
    return opened


def record_terms_parsed(monkeypatch, parsed):
    """Append to parsed the path of every terms file parsed from here on."""
    def counting(path, columns, *sha):
        if columns == TERMS_COLUMNS:
            parsed.append(path)
        return read_table(path, columns, *sha)

    monkeypatch.setattr(ingest, "read_table", counting)


class TestPipeline:
    def test_all_stages_succeed(self, pipeline):
        for stage, (code, _out, err) in pipeline["results"].items():
            assert code == 0, (stage, err)
            assert err == ""

    def test_synth_outputs(self, pipeline):
        _, out, _ = pipeline["results"]["synth"]
        assert "scenario line3: 8 frames, 3 pipes, 3 elements" in out
        assert os.path.exists(pipeline["data"] / "topology.csv")
        assert os.path.exists(pipeline["data"] / "states.csv")

    def test_scan_accounting(self, pipeline):
        _, out, _ = pipeline["results"]["scan"]
        assert "frames: 8, pairs: 7, pipes: 3" in out
        assert ("data points: 21, excluded: 0, missing: 0, below prefilter: 15, "
                "evaluated: 6, relevant: 6") in out

    def test_scan_counts_time_gaps_in_the_pair_grid(self, pipeline, tmp_path):
        _, out, _ = pipeline["results"]["scan"]
        assert "'time_gaps': 0" in out
        rows = read_csv(pipeline["data"] / "states.csv")
        states = tmp_path / "states.csv"
        with open(states, "w", newline="") as handle:
            csv.writer(handle).writerows(
                row for row in rows if row[0] != format_timestamp(stamp(4)))
        code, out, err = run_cli(["scan", "--topology", pipeline["data"] / "topology.csv",
                                  "--states", states, "--out", tmp_path])
        assert code == 0, err
        assert "frames: 7, pairs: 6, pipes: 3" in out
        assert "'time_gaps': 1" in out

    def test_scan_time_gaps_ignore_jittered_steps(self, pipeline, tmp_path):
        """Steps of 179, 180 and 181 s are no gaps; the pair across the one
        missing frame, 359 s, is more than 1.5 times the shortest."""
        offsets = [0, 180, 359, 540, 720, 899, 1080, 1260]
        respelled = {format_timestamp(stamp(k)): format_timestamp(stamp(0) + timedelta(
            seconds=offset)) for k, offset in enumerate(offsets)}
        rows = read_csv(pipeline["data"] / "states.csv")
        states = tmp_path / "states.csv"
        with open(states, "w", newline="") as handle:
            csv.writer(handle).writerows(
                [rows[0]] + [[respelled[row[0]], *row[1:]] for row in rows[1:]
                             if row[0] != format_timestamp(stamp(4))])
        code, out, err = run_cli(["scan", "--topology", pipeline["data"] / "topology.csv",
                                  "--states", states, "--out", tmp_path])
        assert code == 0, err
        assert "frames: 7, pairs: 6, pipes: 3" in out
        assert "'time_gaps': 1" in out

    def test_terms_file(self, pipeline):
        rows = read_csv(pipeline["out"] / "terms.csv")
        assert len(rows) == 7   # header + 6 records
        by_pipe = {(r[2], r[0]): r for r in rows[1:]}
        first = by_pipe[("np0", format_timestamp(stamp(2)))]
        assert float(first[6]) == pytest.approx(0.1937367578871714, rel=1e-12)
        assert first[10] == "1"
        # the collapse pair carries the same alpha with opposite sign
        second = by_pipe[("np0", format_timestamp(stamp(3)))]
        assert float(second[6]) == pytest.approx(-0.1937367578871714, rel=1e-12)

    def test_components_output(self, pipeline):
        _, out, _ = pipeline["results"]["components"]
        assert "pairs with relevant pipes: 2, components: 2" in out
        assert "classes: none: 0, small: 0, high: 2" in out
        rows = read_csv(pipeline["out"] / "components.csv")
        assert len(rows) == 3
        for row in rows[1:]:
            assert row[3] == "3"
            assert float(row[4]) == pytest.approx(0.5812102736615142, rel=1e-12)
            assert row[6] == "high"
            assert float(row[7]) == pytest.approx(290.0, rel=1e-12)
        members = read_csv(pipeline["out"] / "components_pipes.csv")
        assert members[0] == ["component_id", "pipe_id"]
        assert [r[1] for r in members[1:]] == ["np0", "np1", "np2"] * 2

    def test_persistence_outputs(self, pipeline):
        _, out, _ = pipeline["results"]["persistence"]
        assert "relevant component instances: 2 (high: 2)" in out
        assert "high run lengths: {2: 3} (realistic: {2: 3})" in out
        assert "chains found: 1" in out
        assert "events: 1 (1 realistic, 1 realistic high)" in out

        runs = read_csv(pipeline["out"] / "runs_high.csv")
        assert runs[0] == RUNS_COLUMNS
        assert runs[1] == ["2", "3", "1.0"]
        chains = read_csv(pipeline["out"] / "chains.csv")
        assert chains[0] == CHAINS_COLUMNS
        assert chains[1][3:] == ["2", "high"]
        events = read_csv(pipeline["out"] / "events.csv")
        assert events[0] == EVENTS_COLUMNS
        assert events[1][3:] == ["2", "high", "1"]

    def test_report_outputs(self, pipeline):
        _, out, _ = pipeline["results"]["report"]
        assert "threshold 0.10 bar: 2 components, 6 pipe points, every 50 days" in out
        assert "threshold 0.60 bar: 0 components, 0 pipe points, never" in out
        assert "hexbin: 6 points in 2 bins" in out
        sweep = read_csv(pipeline["out"] / "sweep.csv")
        assert len(sweep) == 11
        assert sweep[1] == ["0.1", "2", "6", "50 days", "4320000.0"]
        assert sweep[6] == ["0.6", "0", "0", "never", "inf"]
        hexes = read_csv(pipeline["out"] / "hexbin.csv")
        assert sum(int(r[2]) for r in hexes[1:]) == 6

    @pytest.mark.parametrize("horizon", [["--horizon-days", "100"], []],
                             ids=["horizon given", "component span"])
    def test_components_at_another_offset_give_the_same_outputs(self, pipeline, tmp_path,
                                                               horizon):
        """Every instant of components.csv respelled at +01:00 with fractional
        seconds: persistence and report write the same files and lines."""
        out = pipeline["out"]
        respelled = tmp_path / "components.csv"
        rows = read_csv(out / "components.csv")
        plus_one = timezone(timedelta(hours=1))
        for row in rows[1:]:
            row[:2] = [ingest.parse_timestamp(text).astimezone(plus_one)
                       .isoformat(timespec="microseconds") for text in row[:2]]
        with open(respelled, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        assert "+01:00" in respelled.read_text() and len(rows) > 2
        outputs = {}
        for case, components in (("as written", out / "components.csv"),
                                 ("respelled", respelled)):
            inputs = ["--components", components, "--members", out / "components_pipes.csv",
                      "--out", tmp_path / case]
            printed = [run_cli(["persistence", *inputs]),
                       run_cli(["report", *inputs, "--terms", out / "terms.csv", *horizon])]
            outputs[case] = printed, {name: (tmp_path / case / name).read_bytes() for name in (
                "chains.csv", "events.csv", "runs_high.csv", "sweep.csv", "hexbin.csv")}
        assert outputs["respelled"] == outputs["as written"]
        assert [code for code, _, _ in outputs["as written"][0]] == [0, 0]
        if horizon:
            assert outputs["as written"][1]["sweep.csv"] == (out / "sweep.csv").read_bytes()

    def test_threads_do_not_change_results(self, pipeline, tmp_path):
        data = pipeline["data"]
        code, _, err = run_cli([
            "scan", "--topology", data / "topology.csv",
            "--states", data / "states.csv", "--out", tmp_path, "--threads", "4"])
        assert code == 0, err
        single = (pipeline["out"] / "terms.csv").read_bytes()
        assert (tmp_path / "terms.csv").read_bytes() == single


# pair, pipes, class and flow change (kNm3/h) of each planted component: a
# high component splits in two that merge again, then shrinks to a small
# one beside an implausible small one; a small one at pair 0 stands apart
SPLIT_AND_MERGE = [
    (0, ("p1", "p2"), "high", 10.0), (0, ("p9",), "small", 10.0),
    (1, ("p1",), "high", 10.0), (1, ("p2",), "high", 10.0),
    (2, ("p1", "p2"), "high", 10.0),
    (3, ("p1",), "small", 10.0), (3, ("p7",), "small", 2500.0),
]


def write_planted_components(root, planted):
    """components.csv and components_pipes.csv of (pair, pipes, class,
    flow change) rows, listed in pair order."""
    comps, members = root / "components.csv", root / "components_pipes.csv"
    with open(comps, "w", newline="") as c_handle, open(members, "w", newline="") as m_handle:
        c_rows, m_rows = csv.writer(c_handle), csv.writer(m_handle)
        c_rows.writerow(["t0", "t1", "component_id", "n_pipes", "longest_path_bar",
                         "cycle_correction_bar", "class", "max_abs_flow_change"])
        m_rows.writerow(["component_id", "pipe_id"])
        for component_id, (k, pipes, label, dflow) in enumerate(planted):
            c_rows.writerow([format_timestamp(stamp(k)), format_timestamp(stamp(k + 1)),
                             component_id, len(pipes), 1.0, 0.0, label, dflow])
            m_rows.writerows([component_id, pipe_id] for pipe_id in pipes)
    return comps, members


class TestPersistenceEvents:
    def test_split_and_merge_is_one_event(self, tmp_path):
        comps, members = write_planted_components(tmp_path, SPLIT_AND_MERGE)
        code, out, err = run_cli(["persistence", "--components", comps,
                                  "--members", members, "--out", tmp_path])
        assert code == 0, err
        assert "chains found: 1" in out
        assert "events: 3 (2 realistic, 1 realistic high)" in out
        t = [format_timestamp(stamp(k)) for k in range(5)]
        assert read_csv(tmp_path / "chains.csv")[1:] == [["0", t[0], t[3], "4", "high"]]
        assert read_csv(tmp_path / "events.csv")[1:] == [
            ["0", t[0], t[4], "5", "high", "1"],
            ["1", t[0], t[1], "1", "small", "1"],
            ["2", t[3], t[4], "1", "small", "0"],
        ]


class TestExclusions:
    def test_excluded_pipe_splits_component(self, pipeline, tmp_path):
        data = pipeline["data"]
        exclusions = tmp_path / "exclusions.csv"
        exclusions.write_text(
            "pipe_id,start_iso8601,end_iso8601\n"
            f"np1,{format_timestamp(stamp(3))},{format_timestamp(stamp(4))}\n")
        code, out, err = run_cli([
            "scan", "--topology", data / "topology.csv",
            "--states", data / "states.csv", "--exclusions", exclusions,
            "--out", tmp_path])
        assert code == 0, err
        assert "excluded: 1" in out
        assert "relevant: 5" in out
        code, out, err = run_cli([
            "components", "--topology", data / "topology.csv",
            "--states", data / "states.csv", "--terms", tmp_path / "terms.csv",
            "--out", tmp_path])
        assert code == 0, err
        # the first pair now splits into two single-pipe components
        assert "pairs with relevant pipes: 2, components: 3" in out
        rows = read_csv(tmp_path / "components.csv")
        assert [r[3] for r in rows[1:]] == ["1", "1", "3"]


class TestHistorySidecar:
    """report loads the terms saved in scan's history.npz when --terms has
    the contents scan wrote.  components loads them and the saved history
    only when --states and --topology are unchanged as well, and otherwise
    parses both CSV files."""

    @pytest.fixture
    def scanned(self, pipeline, tmp_path, monkeypatch):
        for name in ("topology.csv", "states.csv"):
            (tmp_path / name).write_bytes((pipeline["data"] / name).read_bytes())
        code, _, err = run_cli(["scan", "--topology", tmp_path / "topology.csv",
                                "--states", tmp_path / "states.csv", "--out", tmp_path])
        assert code == 0, err
        # the states and terms files parsed, in order
        parsed = []

        def counting(path, network, *sha):
            parsed.append(path)
            return states_blocks(path, network, *sha)

        monkeypatch.setattr(cli, "states_blocks", counting)
        record_terms_parsed(monkeypatch, parsed)
        return tmp_path, parsed

    def run_components(self, root, topology, out):
        return run_cli(["components", "--topology", topology, "--states", root / "states.csv",
                        "--terms", root / "terms.csv", "--out", out])

    def run_report(self, root, components, out):
        return run_cli(["report", "--components", components / "components.csv",
                        "--members", components / "components_pipes.csv",
                        "--terms", root / "terms.csv", "--horizon-days", "100", "--out", out])

    def assert_components_unchanged(self, pipeline, root, topology):
        out = root / "components"
        code, stdout, err = self.run_components(root, topology, out)
        assert code == 0, err
        assert stdout == pipeline["results"]["components"][1]
        for name in ("components.csv", "components_pipes.csv"):
            assert (out / name).read_bytes() == (pipeline["out"] / name).read_bytes()

    def test_present_sidecar_replaces_parsing(self, pipeline, scanned):
        root, parsed = scanned
        assert (root / "history.npz").is_file()
        self.assert_components_unchanged(pipeline, root, root / "topology.csv")
        assert parsed == []

    def test_deleted_sidecar(self, pipeline, scanned):
        root, parsed = scanned
        (root / "history.npz").unlink()
        self.assert_components_unchanged(pipeline, root, root / "topology.csv")
        assert parsed == [str(root / "states.csv"), str(root / "terms.csv")]

    def test_deleted_sidecar_gives_the_saved_history(self, scanned, monkeypatch):
        """Without history.npz, components builds its components from a
        history of the columns and frames scan saved there."""
        root, _ = scanned
        histories, frames = {}, {}
        load_saved, read_terms = cli.load_saved, cli.read_terms
        build = NetworkIndex.pair_components

        def loading(*args):
            saved = load_saved(*args)
            if saved is not None:
                histories[case] = saved[1]
            return saved

        def reading(path, history=None, *args):
            histories[case] = history
            return read_terms(path, history, *args)

        def building(index, *args):
            # the valve states at t1 and the pressures at t0 and t1; repr
            # spells NaN alike
            frames.setdefault(case, []).append(repr(args[3:6]))
            return build(index, *args)

        monkeypatch.setattr(cli, "load_saved", loading)
        monkeypatch.setattr(cli, "read_terms", reading)
        monkeypatch.setattr(NetworkIndex, "pair_components", building)
        for case in ("present", "deleted"):
            if case == "deleted":
                (root / "history.npz").unlink()
            code, _, err = self.run_components(root, root / "topology.csv", root / case)
            assert code == 0, err
        hit, miss = histories["present"], histories["deleted"]
        assert ((miss.node_ids, miss.arc_ids, miss.valve_ids, miss.pipe_ids)
                == (hit.node_ids, hit.arc_ids, hit.valve_ids, hit.pipe_ids))
        assert miss.timestamps.dtype == hit.timestamps.dtype == np.int64
        assert miss.timestamps.tobytes() == hit.timestamps.tobytes()
        assert frames["deleted"] == frames["present"] and frames["present"]
        assert ((root / "deleted" / "components.csv").read_bytes()
                == (root / "present" / "components.csv").read_bytes())

    def test_pairs_built_without_record_objects(self, pipeline, scanned, monkeypatch):
        """components builds each pair once from index tables and arrays,
        with history.npz and without: no TermRecord, StateFrame or
        DirectedArc is made, and it writes the same files."""
        root, _ = scanned
        build = NetworkIndex.pair_components
        built = []

        def live_records() -> set[int]:
            gc.collect()
            return {id(o) for o in gc.get_objects()
                    if isinstance(o, (TermRecord, StateFrame, DirectedArc))}

        def building(index, *args):
            assert live_records() <= before
            built.append(case)
            return build(index, *args)

        monkeypatch.setattr(NetworkIndex, "pair_components", building)
        for case in ("present", "deleted"):
            if case == "deleted":
                (root / "history.npz").unlink()
            before = live_records()
            out = root / case
            code, stdout, err = self.run_components(root, root / "topology.csv", out)
            assert code == 0, err
            assert stdout == pipeline["results"]["components"][1]
            for name in ("components.csv", "components_pipes.csv"):
                assert (out / name).read_bytes() == (pipeline["out"] / name).read_bytes()
        # once per pair that has relevant pipes, in each case
        pairs = int(re.search(r"pairs with relevant pipes: (\d+)", stdout)[1])
        assert built.count("present") == built.count("deleted") == pairs > 1

    def test_outputs_same_with_and_without_sidecar(self, pipeline, scanned):
        root, parsed = scanned
        states, terms = root / "states.csv", root / "terms.csv"
        outputs = {}
        for case in ("present", "stale", "edited terms", "deleted"):
            out = root / case
            if case == "stale":
                # the same instants, spelled differently
                states.write_text(states.read_text().replace("Z,", "+00:00,"))
            elif case == "edited terms":
                with open(terms, "a", newline="") as handle:
                    handle.write("\r\n")
            elif case == "deleted":
                (root / "history.npz").unlink()
            for stage in (self.run_components(root, root / "topology.csv", out),
                          self.run_report(root, out, out)):
                code, _, err = stage
                assert code == 0, err
            outputs[case] = {name: (out / name).read_bytes() for name in (
                "components.csv", "components_pipes.csv", "sweep.csv", "hexbin.csv")}
        assert all(outputs[case] == outputs["present"] for case in outputs)
        assert outputs["present"]["hexbin.csv"] == (pipeline["out"] / "hexbin.csv").read_bytes()
        assert parsed == [str(states), str(terms)] + [str(states), str(terms), str(terms)] * 2

    def test_sidecar_of_the_old_form_parsed_again(self, pipeline, scanned):
        """A history.npz that holds each terms row's first frame and pipe id,
        terms_frame and terms_pipe_ids, as scan once saved them, is not
        loaded: components and report parse the CSV files and write the
        same outputs and lines."""
        root, parsed = scanned
        sidecar, outputs = root / "history.npz", {}
        for case in ("present", "old form"):
            if case == "old form":
                with np.load(sidecar) as saved:
                    members = dict(saved)
                pairs, pair_index, pipes, pipe_index = (members.pop(f"terms_{name}") for name in (
                    "pairs", "pair_index", "pipes", "pipe_index"))
                np.savez(sidecar, **members, terms_pipe_ids=pipes[pipe_index],
                         terms_frame=members["timestamps_us"].searchsorted(pairs[:, 0])[pair_index])
            out = root / case
            printed = [self.run_components(root, root / "topology.csv", out),
                       self.run_report(root, out, out)]
            assert all(code == 0 for code, _, _ in printed), printed
            files = ("components.csv", "components_pipes.csv", "sweep.csv", "hexbin.csv")
            outputs[case] = ([stdout for _, stdout, _ in printed],
                             {name: (out / name).read_bytes() for name in files})
        assert outputs["old form"] == outputs["present"]
        terms = str(root / "terms.csv")
        assert parsed == [str(root / "states.csv"), terms, terms]

    def test_edited_terms_parsed_again(self, pipeline, scanned):
        root, parsed = scanned
        terms = root / "terms.csv"
        rows = read_csv(terms)
        with open(terms, "a", newline="") as handle:
            csv.writer(handle).writerow(rows[-1])
        message = f"{terms}:8: repeated row for pipe '{rows[-1][2]}'"
        code, stdout, err = self.run_components(root, root / "topology.csv", root / "out")
        assert code == 1 and stdout == "" and message in err
        code, stdout, err = self.run_report(root, pipeline["out"], root / "out")
        assert code == 1 and stdout == "" and message in err
        assert parsed == [str(root / "states.csv"), str(terms), str(terms)]
        assert not (root / "out").exists()

    def test_stale_sidecar_after_states_edit(self, pipeline, scanned):
        root, parsed = scanned
        states = root / "states.csv"
        # the same instants, spelled differently
        states.write_text(states.read_text().replace("Z,", "+00:00,"))
        self.assert_components_unchanged(pipeline, root, root / "topology.csv")
        # any edit of states.csv costs a parse of both files
        assert parsed == [str(states), str(root / "terms.csv")]
        lines = states.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + ",1.0.0"
        states.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli([
            "components", "--topology", root / "topology.csv", "--states", states,
            "--terms", root / "terms.csv", "--out", root / "components"])
        assert code == 1
        assert f"{states}:6: invalid number" in err

    def test_stale_sidecar_of_another_size_read_once(self, pipeline, scanned, monkeypatch):
        root, parsed = scanned
        states = root / "states.csv"
        # the same instants, spelled in more bytes
        states.write_text(states.read_text().replace("Z,", "+00:00,"))
        opened = record_opened(monkeypatch)
        self.assert_components_unchanged(pipeline, root, root / "topology.csv")
        monkeypatch.undo()
        assert parsed == [str(states), str(root / "terms.csv")]
        # the sizes prove the sidecar stale before either file is hashed
        for name in ("states.csv", "terms.csv"):
            assert [opened_name for opened_name, _ in opened].count(name) == 1, opened

    def test_other_topology_file(self, pipeline, scanned):
        root, parsed = scanned
        header, *rows = (root / "topology.csv").read_text().splitlines()
        other = root / "other_topology.csv"
        other.write_text("\n".join([header] + rows[::-1]) + "\n")
        self.assert_components_unchanged(pipeline, root, other)
        assert parsed == [str(root / "states.csv"), str(root / "terms.csv")]

    def assert_same_error_without_sidecar(self, root, topology, message):
        """components fails with message, and as without the sidecar."""
        results = []
        for _ in ("present", "deleted"):
            results.append(self.run_components(root, topology, root / "out"))
            (root / "history.npz").unlink(missing_ok=True)
        code, stdout, err = results[0]
        assert code == 1 and stdout == "" and message in err, err
        assert results[1] == results[0]
        assert not (root / "out").exists()

    @pytest.mark.parametrize("change, message", [
        ("missing frame", "terms.csv:2: pair 2026-01-01T00:06:00Z .. 2026-01-01T00:09:00Z "
                          "has no matching states"),
        ("extra frame", "terms.csv:2: pair 2026-01-01T00:06:00Z .. 2026-01-01T00:09:00Z "
                        "spans frames 2 to 4, not consecutive frames")],
        ids=["missing frame", "extra frame"])
    def test_saved_terms_refused_for_other_frames(self, scanned, change, message):
        root, parsed = scanned
        states = root / "states.csv"
        header, *rows = states.read_text().splitlines()
        if change == "missing frame":
            rows = [row for row in rows if not row.startswith("2026-01-01T00:09:00Z")]
        else:
            at = [row.startswith("2026-01-01T00:09:00Z") for row in rows].index(True)
            rows[at:at] = [row.replace("T00:06:00Z", "T00:07:30Z") for row in rows
                           if row.startswith("2026-01-01T00:06:00Z")]
        states.write_text("\n".join([header] + rows) + "\n")
        self.assert_same_error_without_sidecar(root, root / "topology.csv", message)
        assert parsed == [str(states), str(root / "terms.csv")] * 2

    def test_saved_terms_refused_for_a_topology_without_a_pipe(self, scanned):
        root, parsed = scanned
        # np2 is the last pipe, from n2 to n3, and no other element ends at n3
        header, *rows = (root / "topology.csv").read_text().splitlines()
        other = root / "other_topology.csv"
        other.write_text("\n".join([header] + [row for row in rows if row.split(",")[0] != "np2"])
                         + "\n")
        states = root / "states.csv"
        header, *rows = states.read_text().splitlines()
        states.write_text("\n".join([header] + [row for row in rows
                                                if row.split(",")[1] not in ("np2", "n3")]) + "\n")
        self.assert_same_error_without_sidecar(
            root, other, "terms.csv:4: 'np2' is not a pipe of the topology")

    def test_present_sidecar_opened_once_and_each_file_read_once(self, pipeline, scanned,
                                                                 monkeypatch):
        root, parsed = scanned
        opened = record_opened(monkeypatch)
        self.assert_components_unchanged(pipeline, root, root / "topology.csv")
        monkeypatch.undo()
        assert parsed == []
        assert [name for name, _ in opened].count("history.npz") == 1
        for name in ("states.csv", "terms.csv"):
            assert [mode for opened_name, mode in opened if opened_name == name] == ["rb"]
        # parsed, and hashed as it is parsed
        assert [mode for name, mode in opened if name == "topology.csv"] == ["r"]

    def test_scan_hashes_terms_as_it_writes_them(self, pipeline, tmp_path, monkeypatch):
        opened = record_opened(monkeypatch)
        code, _, err = run_cli(["scan", "--topology", pipeline["data"] / "topology.csv",
                                "--states", pipeline["data"] / "states.csv", "--out", tmp_path])
        monkeypatch.undo()
        assert code == 0, err
        assert [mode for name, mode in opened if name == "terms.csv"] == ["w"]
        terms = tmp_path / "terms.csv"
        with np.load(tmp_path / "history.npz") as saved:
            assert str(saved["terms_sha256"]) == ingest.file_sha256(str(terms))
        assert terms.read_bytes() == (pipeline["out"] / "terms.csv").read_bytes()

    def test_scan_hashes_states_as_it_parses_them(self, pipeline, tmp_path, monkeypatch):
        states = pipeline["data"] / "states.csv"
        opened = record_opened(monkeypatch)
        code, _, err = run_cli(["scan", "--topology", pipeline["data"] / "topology.csv",
                                "--states", states, "--out", tmp_path])
        monkeypatch.undo()
        assert code == 0, err
        assert [mode for name, mode in opened if name == "states.csv"] == ["rb"]
        with np.load(tmp_path / "history.npz") as saved:
            assert str(saved["states_sha256"]) == ingest.file_sha256(str(states))

    def test_scan_reads_states_through_a_pipe(self, pipeline, tmp_path, monkeypatch):
        """scan's reader reads states.csv once, front to back, and never
        seeks or stats it: from a FIFO fed in short writes, in windows of a
        few rows, scan writes the terms and the sidecar a scan of the file
        writes, but for the size of the states file, which a pipe gives as 0."""
        data = pipeline["data"]
        feeder = feed_fifo(tmp_path / "states.csv", (data / "states.csv").read_bytes())
        monkeypatch.setattr(ingest, "_WINDOW", 256)
        code, out, err = run_cli(["scan", "--topology", data / "topology.csv",
                                  "--states", tmp_path / "states.csv", "--out", tmp_path / "out"])
        feeder.join(10)
        assert code == 0 and not feeder.is_alive(), err
        assert out == pipeline["results"]["scan"][1]
        piped, filed = tmp_path / "out", pipeline["out"]
        assert (piped / "terms.csv").read_bytes() == (filed / "terms.csv").read_bytes()
        with np.load(piped / "history.npz") as got, np.load(filed / "history.npz") as want:
            assert got.files == want.files
            for name in want.files:
                expected = np.array(0) if name == "states_size" else want[name]
                assert got[name].dtype == expected.dtype and got[name].shape == expected.shape
                assert got[name].tobytes() == expected.tobytes(), name
            assert int(want["states_size"]) == os.path.getsize(data / "states.csv")

    def test_scan_hashes_topology_as_it_parses_it(self, pipeline, tmp_path, monkeypatch):
        topology = pipeline["data"] / "topology.csv"
        opened = record_opened(monkeypatch)
        code, _, err = run_cli(["scan", "--topology", topology,
                                "--states", pipeline["data"] / "states.csv", "--out", tmp_path])
        monkeypatch.undo()
        assert code == 0, err
        assert [mode for name, mode in opened if name == "topology.csv"] == ["r"]
        with np.load(tmp_path / "history.npz") as saved:
            assert str(saved["topology_sha256"]) == ingest.file_sha256(str(topology))


class TestDeriveThreshold:
    def test_default_output(self):
        code, out, err = run_cli(["derive-threshold"])
        assert code == 0 and err == ""
        assert ("minimal relevant flow change: 0.636 kNm3/h "
                "(0.17671458676442586 m3/s)") in out
        assert "safe screening threshold: 0.5 kNm3/h" in out

    def test_parameters_change_result(self):
        code, out, _ = run_cli(["derive-threshold", "--Lmax", "100km",
                                "--Dmin", "300mm", "--tau-min", "60"])
        assert code == 0
        assert "0.636" not in out

    def test_tiny_threshold_not_rounded_to_zero(self):
        code, out, _ = run_cli(["derive-threshold", "--abs-small", "0.001"])
        assert code == 0
        assert "too small to round down" in out

    @pytest.mark.parametrize("option, text, message", [
        ("--tau-min", "inf", "'inf' is not a finite number > 0"),
        ("--tau-min", "0", "'0' is not a finite number > 0"),
        ("--rho-max", "-0.9", "'-0.9' is not a finite number > 0"),
        ("--abs-small", "nan", "'nan' is not a finite number >= 0"),
        ("--abs-small", "-0.1", "'-0.1' is not a finite number >= 0"),
        ("--Lmax", "1e400km", "'1e400km' is not a finite length > 0"),
        ("--Lmax", "1e306km", "'1e306km' is not a finite length > 0"),
        ("--Dmin", "0mm", "'0mm' is not a finite length > 0"),
        ("--Dmin", "abc", "invalid parse_length value: 'abc'")],
        ids=["inf tau", "zero tau", "negative rho", "nan abs-small", "negative abs-small",
             "inf length", "length overflows in meters", "zero diameter",
             "diameter not a number"])
    def test_bad_option_exits_two_naming_it(self, capsys, option, text, message):
        with pytest.raises(SystemExit) as info:
            cli.main(["derive-threshold", option, text])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument {option}: {message}" in captured.err

    def test_result_that_overflows_exits_one(self):
        code, out, err = run_cli(["derive-threshold", "--tau-min", "1e308"])
        assert code == 1 and out == ""
        assert "error: the minimal flow change overflows" in err


class TestParseLength:
    def test_units(self):
        assert parse_length("200km") == 200e3
        assert parse_length("150mm") == pytest.approx(0.15)
        assert parse_length("5m") == 5.0
        assert parse_length("12.5") == 12.5

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_length("wide")


class TestConfig:
    def test_load_and_build(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("abs_small_bar = 0.2\n# comment\nratio_min = 0.05\n"
                        "realistic_flow_change_kNm3h = 1500\n")
        cfg, gas = load_config_file(str(path))
        assert cfg.abs_small_pa == pytest.approx(0.2 * BAR)
        assert cfg.ratio_min == 0.05
        assert cfg.realistic_flow_change_m3s == pytest.approx(1500 * KNM3H)
        assert cfg.abs_high_pa == 0.5 * BAR   # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("abs_small = 0.2\n")
        with pytest.raises(ParseError):
            load_config_file(str(path))

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "+Infinity"])
    @pytest.mark.parametrize("key", ["min_flow_change_kNm3h", "temperature_K", "abs_high_bar"])
    def test_non_finite_number_rejected_at_its_line(self, tmp_path, key, text):
        path = tmp_path / "cfg"
        path.write_text(f"ratio_min = 0.05\n{key} = {text}\n")
        with pytest.raises(ParseError, match=re.escape(f"non-finite number '{text}'")) as info:
            load_config_file(str(path))
        assert (info.value.path, info.value.line) == (str(path), 2)

    @pytest.mark.parametrize("text, line, message", [
        ("abs_small_bar = 0.6\n", 1, "need 0 < abs_small < abs_high, got 60000.0, 50000.0"),
        ("abs_small_bar = 0.3\nratio_min = 1\nabs_high_bar = 0.2\n", 3,
         "need 0 < abs_small < abs_high"),
        ("abs_high_bar = 0.05\nratio_min = 1\nabs_small_bar = 0.2\n", 3,
         "need 0 < abs_small < abs_high"),
        ("ratio_min = 0\n", 1, "ratio_min must be positive"),
        ("ratio_min = 1\nreference_length_km = -2\n", 2, "reference_length_m must be positive"),
        ("min_flow_change_kNm3h = -1\n", 1, "min_flow_change_m3s must be >= 0"),
        ("realistic_flow_change_kNm3h = 0\nratio_min = 1\n", 1,
         "realistic_flow_change_m3s must be positive"),
        ("ratio_min = 1\ntemperature_K = -5\n", 2, "temperature_k must be positive")],
        ids=["small over default high", "high under small", "small over high", "ratio",
             "reference length", "prefilter", "realistic", "temperature"])
    def test_range_error_reported_at_the_later_line_of_its_rule(self, tmp_path, text, line,
                                                                message):
        path = tmp_path / "cfg"
        path.write_text(text)
        with pytest.raises(ParseError, match=message) as info:
            load_config_file(str(path))
        assert (info.value.path, info.value.line) == (str(path), line)

    def test_range_error_stops_scan_with_file_and_line(self, pipeline, tmp_path):
        config = tmp_path / "cfg"
        config.write_text("ratio_min = 0.5\nabs_small_bar = 0.6\n")
        data = pipeline["data"]
        code, stdout, err = run_cli(["scan", "--topology", data / "topology.csv",
                                     "--states", data / "states.csv", "--config", config,
                                     "--out", tmp_path / "out"])
        assert code == 1 and stdout == ""
        assert f"error: {config}:2: need 0 < abs_small < abs_high" in err
        assert not (tmp_path / "out").exists()

    def test_config_changes_scan(self, pipeline, tmp_path):
        config = tmp_path / "cfg"
        config.write_text("min_flow_change_kNm3h = 300\n")
        data = pipeline["data"]
        code, out, err = run_cli([
            "scan", "--topology", data / "topology.csv",
            "--states", data / "states.csv", "--config", config,
            "--out", tmp_path])
        assert code == 0, err
        assert "below prefilter: 21, evaluated: 0, relevant: 0" in out

    def components_with(self, pipeline, config, terms, out):
        data = pipeline["data"]
        return run_cli(["components", "--topology", data / "topology.csv",
                        "--states", data / "states.csv", "--terms", terms,
                        "--config", config, "--out", out])

    def test_components_rejects_thresholds_scan_did_not_use(self, pipeline, tmp_path):
        # scan flagged every row relevant under the default thresholds
        config = tmp_path / "cfg"
        config.write_text("ratio_min = 1000\nreference_length_km = 0.001\n")
        terms = pipeline["out"] / "terms.csv"
        code, stdout, err = self.components_with(pipeline, config, terms, tmp_path)
        assert code == 1 and stdout == ""
        assert f"{terms}:2: relevant is 1, but the thresholds of this config" in err
        assert "run scan with the same config" in err
        assert not (tmp_path / "components.csv").exists()

    @pytest.mark.parametrize("sidecar", [True, False], ids=["saved terms", "parsed terms"])
    def test_thresholds_checked_with_or_without_sidecar(self, pipeline, tmp_path, monkeypatch,
                                                        sidecar):
        scan = tmp_path / "scan"
        scan.mkdir()
        names = ("terms.csv", "history.npz") if sidecar else ("terms.csv",)
        for name in names:
            (scan / name).write_bytes((pipeline["out"] / name).read_bytes())
        parsed = []
        record_terms_parsed(monkeypatch, parsed)
        config = tmp_path / "cfg"
        config.write_text("ratio_min = 1000\nreference_length_km = 0.001\n")
        terms = scan / "terms.csv"
        code, stdout, err = self.components_with(pipeline, config, terms, tmp_path / "out")
        assert code == 1 and stdout == ""
        assert f"{terms}:2: relevant is 1, but the thresholds of this config" in err
        assert parsed == ([] if sidecar else [str(terms)])

    def test_scan_and_components_share_a_config(self, pipeline, tmp_path):
        config = tmp_path / "cfg"
        config.write_text("ratio_min = 1\n")
        data = pipeline["data"]
        code, out, err = run_cli(["scan", "--topology", data / "topology.csv",
                                  "--states", data / "states.csv", "--config", config,
                                  "--out", tmp_path])
        assert code == 0, err
        assert "evaluated: 6, relevant: 3" in out
        code, out, err = self.components_with(pipeline, config, tmp_path / "terms.csv", tmp_path)
        assert code == 0, err
        assert "pairs with relevant pipes: 1, components: 1" in out

    @staticmethod
    def crossing_point(root, monkeypatch):
        """A one-pipe history whose one evaluated point has an alpha per
        length a that terms.csv cannot give exactly, and a config whose
        per-length floor lies between a and the value read back from the
        file.  Returns the data directory, the config and whether the point
        is relevant by the value read back."""
        (root / "topology.csv").write_text(
            "element_id,kind,from_node,to_node,length_m,diameter_m,roughness_m,slope\n"
            "p1,pipe,n0,n1,10000.0,0.5,1e-05,0.0\n")
        alphas, inertia = [], cli.inertia_term_alpha
        monkeypatch.setattr(cli, "inertia_term_alpha", lambda table, *args: alphas.append(
            (inertia(table, *args), table.length_m)) or alphas[-1][0])
        for dq in np.arange(300.0, 400.0, 0.25).tolist():
            rows = [f"{format_timestamp(stamp(k))},{entity},{quantity},{value}"
                    for k, flow in ((0, 100.0), (1, 100.0 + dq))
                    for entity, quantity, value in (
                        ("n0", "node.pressure_bar", 60.0), ("n1", "node.pressure_bar", 59.5),
                        ("p1", "arc.flow_kNm3h", flow), ("p1", "pipe.rho_n_kgNm3", 0.8))]
            (root / "states.csv").write_text(
                "timestamp_iso8601,entity_id,quantity,value\n" + "\n".join(rows) + "\n")
            alphas.clear()
            code, _, err = run_cli(["scan", "--topology", root / "topology.csv",
                                    "--states", root / "states.csv", "--out", root / "probe"])
            assert code == 0, err
            alpha, length = alphas[0]
            a = abs(float(alpha[0] / length[0]))
            back = abs(float(alpha[0] / length[0] / ingest.PER_10KM * ingest.PER_10KM))
            if a == back:
                continue
            floor = max(a, back)
            # abs_small_bar / reference 1 km gives the floor exactly for
            # one of the numbers next to floor / 100
            guess = floor * 1e3 / BAR
            for _ in range(20):
                if guess * BAR / 1e3 == floor:
                    config = root / "cfg"
                    config.write_text(f"abs_small_bar = {guess!r}\nreference_length_km = 1\n")
                    monkeypatch.undo()
                    return root, config, back >= floor
                guess = np.nextafter(guess, np.inf if guess * BAR / 1e3 < floor else -np.inf)
        raise AssertionError("no point crosses the floor")

    @pytest.mark.parametrize("sidecar", [True, False], ids=["saved terms", "parsed terms"])
    def test_relevant_decided_on_the_value_the_file_gives(self, tmp_path, monkeypatch, sidecar):
        data, config, relevant = self.crossing_point(tmp_path, monkeypatch)
        code, _, err = run_cli(["scan", "--topology", data / "topology.csv",
                                "--states", data / "states.csv", "--config", config,
                                "--out", tmp_path / "out"])
        assert code == 0, err
        assert read_csv(tmp_path / "out" / "terms.csv")[1][10] == str(int(relevant))
        if not sidecar:
            os.remove(tmp_path / "out" / "history.npz")
        code, _, err = run_cli(["components", "--topology", data / "topology.csv",
                                "--states", data / "states.csv",
                                "--terms", tmp_path / "out" / "terms.csv", "--config", config,
                                "--out", tmp_path / "out"])
        assert code == 0, err


class TestErrors:
    def test_missing_file_exits_one(self, tmp_path):
        code, _, err = run_cli(["scan", "--topology", tmp_path / "nope.csv",
                                "--states", tmp_path / "nope.csv",
                                "--out", tmp_path])
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_config_exits_one(self, pipeline, tmp_path):
        config = tmp_path / "cfg"
        config.write_text("nonsense\n")
        data = pipeline["data"]
        code, _, err = run_cli([
            "scan", "--topology", data / "topology.csv",
            "--states", data / "states.csv", "--config", config,
            "--out", tmp_path])
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("name, line, broken", [
        ("states.csv", 66, False), ("states.csv", 66, True), ("topology.csv", 3, False),
        ("exclusions.csv", 2, False), ("config", 2, False)],
        ids=["states", "states after the row loop", "topology", "exclusions", "config"])
    def test_undecodable_byte_reported_at_its_line(self, pipeline, tmp_path, monkeypatch,
                                                   name, line, broken):
        data = pipeline["data"]
        inputs = {"topology.csv": (data / "topology.csv").read_bytes(),
                  "states.csv": (data / "states.csv").read_bytes(),
                  "exclusions.csv": b"pipe_id,start_iso8601,end_iso8601\n"
                                    b"np1,2026-01-01T00:03:00Z,2026-01-01T00:09:00Z\n",
                  "config": b"abs_small_bar = 0.1\n# a comment\nratio_min = 0.5\n"}
        rows = inputs[name].split(b"\n")
        # a byte UTF-8 cannot read, in the row's first cell
        rows[line - 1] = rows[line - 1][:1] + b"\xff" + rows[line - 1][1:]
        inputs[name] = b"\n".join(rows)
        if broken:
            # frame 1 of ten rows (lines 12 to 21) breaks frame 0's template
            rows = inputs["states.csv"].split(b"\r\n")
            rows[11], rows[12] = rows[12], rows[11]
            inputs["states.csv"] = b"\r\n".join(rows)
        for file_name, content in inputs.items():
            (tmp_path / file_name).write_bytes(content)
        steps, row_step = [], ingest._row_step
        monkeypatch.setattr(ingest, "_row_step", lambda *args: steps.append(args)
                            or row_step(*args))
        # windows of about four rows
        monkeypatch.setattr(ingest, "_WINDOW", 200)
        code, stdout, err = run_cli([
            "scan", "--topology", tmp_path / "topology.csv", "--states", tmp_path / "states.csv",
            "--exclusions", tmp_path / "exclusions.csv", "--config", tmp_path / "config",
            "--out", tmp_path / "out"])
        assert code == 1 and stdout == ""
        assert err.startswith(f"error: {tmp_path / name}:{line}: cannot decode byte 0xff"), err
        assert not os.path.exists(tmp_path / "out")
        if name == "states.csv":
            # the row loop read frame 1's window, then the byte's
            assert len(steps) == 1 + broken

    def test_member_of_no_component_stops_persistence(self, pipeline, tmp_path):
        out = pipeline["out"]
        members = tmp_path / "components_pipes.csv"
        members.write_text((out / "components_pipes.csv").read_text() + "99,bogus\n")
        line = len(members.read_text().splitlines())
        code, stdout, err = run_cli(["persistence", "--components", out / "components.csv",
                                     "--members", members, "--out", tmp_path])
        assert code == 1 and stdout == ""
        assert f"{members}:{line}: component id '99' names no component" in err

    def test_pipe_in_two_components_of_a_pair_stops_persistence(self, tmp_path):
        comps, members = write_planted_components(
            tmp_path, [(0, ("p1", "p2"), "high", 10.0), (0, ("p2",), "small", 10.0)])
        code, stdout, err = run_cli(["persistence", "--components", comps,
                                     "--members", members, "--out", tmp_path])
        assert code == 1 and stdout == ""
        assert f"{members}:4: pipe 'p2' is in two components of pair" in err

    def test_pair_without_states_reported_at_its_first_row(self, pipeline, tmp_path):
        data, out = pipeline["data"], pipeline["out"]
        rows = read_csv(out / "terms.csv")
        rows[2][10] = "0"
        # lines 3, 4 and 6 form a pair that no frame of states.csv holds;
        # line 3 is not relevant, and is checked all the same
        for k in (2, 3, 5):
            rows[k][:2] = ["2030-01-01T00:00:00Z", "2030-01-01T00:03:00Z"]
        terms = tmp_path / "terms_moved.csv"
        with open(terms, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        code, _, err = run_cli([
            "components", "--topology", data / "topology.csv",
            "--states", data / "states.csv", "--terms", terms, "--out", tmp_path])
        assert code == 1
        assert (f"{terms}:3: pair 2030-01-01T00:00:00Z .. 2030-01-01T00:03:00Z "
                "has no matching states") in err

    def run_components_on(self, pipeline, tmp_path, rows):
        data = pipeline["data"]
        terms = tmp_path / "terms_edited.csv"
        with open(terms, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        code, stdout, err = run_cli([
            "components", "--topology", data / "topology.csv",
            "--states", data / "states.csv", "--terms", terms, "--out", tmp_path])
        assert code == 1 and stdout == ""
        return terms, err

    def test_unknown_pipe_reported_at_its_line(self, pipeline, tmp_path):
        rows = read_csv(pipeline["out"] / "terms.csv")
        rows[3][2] = "np9"
        terms, err = self.run_components_on(pipeline, tmp_path, rows)
        assert f"{terms}:4: 'np9' is not a pipe of the topology" in err

    def test_repeated_relevant_row_reported_at_the_repeat(self, pipeline, tmp_path):
        rows = read_csv(pipeline["out"] / "terms.csv")
        # the same pair and pipe, with another timestamp spelling and alpha
        repeat = [rows[2][0].replace("Z", "+00:00")] + rows[2][1:6] + ["2.0"] + rows[2][7:]
        terms, err = self.run_components_on(pipeline, tmp_path, rows + [repeat])
        assert f"{terms}:8: repeated row for pipe '{rows[2][2]}' and pair {repeat[0]} .. " in err

    @pytest.mark.parametrize("edit", ["not a pipe", "repeated row"])
    def test_row_that_is_not_relevant_is_checked(self, pipeline, tmp_path, edit):
        rows = read_csv(pipeline["out"] / "terms.csv")
        rows[3][10] = "0"
        if edit == "not a pipe":
            rows[3][2] = "np9"
            line, message = 4, "'np9' is not a pipe of the topology"
        else:
            rows.append(list(rows[3]))
            line, message = 8, f"repeated row for pipe '{rows[3][2]}'"
        terms, err = self.run_components_on(pipeline, tmp_path, rows)
        assert f"{terms}:{line}: {message}" in err

    def test_repeated_row_stops_report(self, pipeline, tmp_path):
        out = pipeline["out"]
        rows = read_csv(out / "terms.csv")
        terms = tmp_path / "terms_repeated.csv"
        with open(terms, "w", newline="") as handle:
            csv.writer(handle).writerows(rows + [rows[-1]])
        code, stdout, err = run_cli(["report", "--components", out / "components.csv",
                                     "--members", out / "components_pipes.csv", "--terms", terms,
                                     "--horizon-days", "100", "--out", tmp_path])
        assert code == 1
        assert f"{terms}:8: repeated row for pipe '{rows[-1][2]}'" in err
        assert stdout == ""
        assert not (tmp_path / "sweep.csv").exists()
        assert not (tmp_path / "hexbin.csv").exists()

    def test_pair_of_frames_not_consecutive(self, pipeline, tmp_path):
        rows = read_csv(pipeline["out"] / "terms.csv")
        assert [row[0] for row in rows[4:]] == [format_timestamp(stamp(3))] * 3
        for row in rows[4:]:
            row[1] = format_timestamp(stamp(5))
        terms, err = self.run_components_on(pipeline, tmp_path, rows)
        assert (f"{terms}:5: pair {format_timestamp(stamp(3))} .. {format_timestamp(stamp(5))} "
                "spans frames 3 to 5, not consecutive frames") in err

    @pytest.mark.parametrize("option, text, message", [
        ("--thresholds", "nan", "argument --thresholds: 'nan' is not a finite number >= 0"),
        ("--thresholds", "0.1,abc", "argument --thresholds: invalid number 'abc'"),
        ("--thresholds", "0.1,-0.2", "argument --thresholds: '-0.2' is not a finite number >= 0"),
        ("--horizon-days", "inf", "argument --horizon-days: 'inf' is not a finite number > 0"),
        ("--horizon-days", "0", "argument --horizon-days: '0' is not a finite number > 0"),
        ("--horizon-days", "soon", "argument --horizon-days: invalid number 'soon'"),
        ("--min-count", "0", "argument --min-count: '0' is not a finite number > 0"),
        ("--min-count", "1.5", "argument --min-count: invalid number '1.5'")],
        ids=["nan threshold", "threshold not a number", "negative threshold", "inf horizon",
             "zero horizon", "horizon not a number", "zero min-count",
             "min-count not an integer"])
    def test_report_option_checked_before_anything_is_written(self, pipeline, tmp_path, capsys,
                                                              option, text, message):
        out = pipeline["out"]
        with pytest.raises(SystemExit) as info:
            cli.main(["report", "--components", str(out / "components.csv"),
                      "--members", str(out / "components_pipes.csv"),
                      "--terms", str(out / "terms.csv"), "--horizon-days", "100",
                      "--out", str(tmp_path / "out"), option, text])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert not (tmp_path / "out").exists()

    def test_report_accepts_a_zero_threshold(self, pipeline, tmp_path):
        out = pipeline["out"]
        code, stdout, err = run_cli(["report", "--components", out / "components.csv",
                                     "--members", out / "components_pipes.csv",
                                     "--thresholds", "0,0.1", "--horizon-days", "0.5",
                                     "--out", tmp_path])
        assert code == 0, err
        assert [row[0] for row in read_csv(tmp_path / "sweep.csv")[1:]] == ["0.0", "0.1"]

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit):
            run_cli(["persistence", "--components", "x.csv", "--out", "y"])

    def test_report_takes_no_config(self, pipeline, tmp_path):
        # report reads no threshold, so a config file would be ignored
        out = pipeline["out"]
        with pytest.raises(SystemExit):
            run_cli(["report", "--components", out / "components.csv",
                     "--members", out / "components_pipes.csv",
                     "--config", tmp_path / "cfg", "--out", tmp_path])

    def test_report_empty_stream_without_horizon(self, tmp_path):
        comp = tmp_path / "components.csv"
        comp.write_text("t0,t1,component_id,n_pipes,longest_path_bar,"
                        "cycle_correction_bar,class,max_abs_flow_change\n")
        members = tmp_path / "members.csv"
        members.write_text("component_id,pipe_id\n")
        code, _, err = run_cli(["report", "--components", comp,
                                "--members", members, "--out", tmp_path])
        assert code == 1
        assert "empty component stream" in err


# ---------------------------------------------------------------------------
# scan classification against the per-point oracle

ORACLE_TOPOLOGY = """element_id,kind,from_node,to_node,length_m,diameter_m,roughness_m,slope
pa,pipe,a,b,20000.0,0.5,1e-05,0.0
pb,pipe,b,c,10000.0,0.3,1e-05,0.0
pc,pipe,c,d,5000.0,0.4,1e-05,0.0
vb,valve,b,d,,,,
"""
ORACLE_PIPES = {"pa": ("a", "b"), "pb": ("b", "c"), "pc": ("c", "d")}
# length, diameter and roughness of each pipe of ORACLE_TOPOLOGY
ORACLE_GEOMETRY = {row[0]: tuple(map(float, row[4:7]))
                   for row in csv.reader(ORACLE_TOPOLOGY.splitlines()[1:]) if row[1] == "pipe"}
FILE_QUANTITY = {"pressure": "node.pressure_bar", "flow": "arc.flow_kNm3h",
                 "rho": "pipe.rho_n_kgNm3", "valve": "valve.open"}
KNM3H_SI = 1000.0 / 3600.0
UTC = timezone.utc


def spellings(instant: datetime) -> list[str]:
    text = instant.strftime("%Y-%m-%dT%H:%M:%S")
    shifted = (instant + timedelta(hours=1)).strftime("%Y-%m-%dT%H:%M:%S")
    return [text + "Z", text + "+00:00", shifted + "+01:00"]


DECOY = {"pressure": 61.0, "flow": 7.0, "rho": 1.25, "valve": 1.0}


@st.composite
def scan_histories(draw):
    """A small history as states.csv rows, the frames they mean, and windows."""
    minutes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=5))
    stamps = [datetime(2026, 1, 1, tzinfo=UTC) + timedelta(minutes=sum(minutes[:k]))
              for k in range(len(minutes) + 1)][:draw(st.integers(0, len(minutes) + 1))]
    frames, rows = [], []
    for instant in stamps:
        values = {("pressure", node): draw(st.sampled_from([None, 40.0, 55.5, 70.0]))
                  for node in "abcd"}
        for pipe_id in ORACLE_PIPES:
            values["flow", pipe_id] = draw(st.sampled_from(
                [None, 0.0, 0.25, 0.5, 100.0, 100.5, 99.75, -100.0]))
            values["rho", pipe_id] = draw(st.sampled_from([None, 0.8, 0.85]))
        # a frame exists only through its rows; the valve row keeps one
        values["valve", "vb"] = draw(st.sampled_from([0.0, 1.0]))
        given = [(key, value) for key, value in values.items() if value is not None]
        # rows repeated earlier in the frame with another value must lose
        decoys = draw(st.lists(st.sampled_from(given), max_size=3))
        frame_rows = ([(key, DECOY[key[0]]) for key, _ in decoys]
                      + draw(st.permutations(given)))
        for (quantity, entity), value in frame_rows:
            rows.append(f"{draw(st.sampled_from(spellings(instant)))},{entity},"
                        f"{FILE_QUANTITY[quantity]},{value!r}")
        frames.append({key: value * KNM3H_SI if key[0] == "flow" else value
                       for key, value in given})
    # window edges on the frame instants and one second after them
    edges = sorted(stamps + [instant + timedelta(seconds=1) for instant in stamps])
    windows = []
    if edges:
        index = st.integers(0, len(edges) - 1)
        for pipe_id, a, b in draw(st.lists(st.tuples(st.sampled_from(sorted(ORACLE_PIPES)),
                                                      index, index), max_size=3)):
            if a != b:
                windows.append((pipe_id, edges[min(a, b)], edges[max(a, b)]))
    return stamps, frames, rows, windows


class TestScanOracle:
    @settings(max_examples=80, deadline=None)
    @given(scan_histories())
    def test_masked_scan_matches_per_point_oracle(self, history):
        stamps, frames, rows, windows = history
        with tempfile.TemporaryDirectory() as root:
            topology = os.path.join(root, "topology.csv")
            states = os.path.join(root, "states.csv")
            exclusions = os.path.join(root, "exclusions.csv")
            with open(topology, "w") as handle:
                handle.write(ORACLE_TOPOLOGY)
            with open(states, "w") as handle:
                handle.write("\n".join(["timestamp_iso8601,entity_id,quantity,value"] + rows)
                             + "\n")
            with open(exclusions, "w") as handle:
                handle.write("pipe_id,start_iso8601,end_iso8601\n" + "".join(
                    f"{p},{spellings(a)[0]},{spellings(b)[1]}\n" for p, a, b in windows))
            code, out, err = run_cli(["scan", "--topology", topology, "--states", states,
                                      "--exclusions", exclusions, "--out", root])
            assert code == 0, err
            terms = read_csv(os.path.join(root, "terms.csv"))[1:]
        expected, survivors = classify_scan_points(stamps, frames, ORACLE_PIPES, windows,
                                                   0.5 * KNM3H_SI)
        line = next(text for text in out.splitlines() if text.startswith("data points:"))
        counts = {key.strip(): int(value) for key, value in
                  (part.rsplit(":", 1) for part in line.split(","))}
        assert counts["data points"] == expected["total"]
        for key in ("excluded", "missing", "evaluated"):
            assert counts[key] == expected[key], key
        assert counts["below prefilter"] == expected["below_prefilter"]
        assert [(row[0], row[2]) for row in terms] == [
            (spellings(stamps[k])[0], pipe_id) for k, pipe_id in survivors]
        # each row's numbers, in file units, from the per-point formulas
        gas = GasParams()
        for row, (k, pipe_id) in zip(terms, survivors):
            length, diameter, roughness = ORACLE_GEOMETRY[pipe_id]
            q0, q1 = frames[k]["flow", pipe_id], frames[k + 1]["flow", pipe_id]
            rho = frames[k + 1]["rho", pipe_id]
            left, right = (frames[k + 1]["pressure", node] * BAR
                           for node in ORACLE_PIPES[pipe_id])
            tau = (stamps[k + 1] - stamps[k]).total_seconds()
            alpha = inertia_alpha(length, diameter, rho, tau, q0, q1)
            beta, _, _ = friction_beta(length, diameter, roughness, rho, q1, left, right,
                                       gas.temperature_k, gas.pseudo_critical_pressure_pa,
                                       gas.pseudo_critical_temperature_k, gas.dynamic_viscosity_pas)
            ratio = (0.0 if alpha == beta == 0.0 else math.inf if beta == 0.0
                     else abs(alpha) / abs(beta))
            numbers = [float(cell) for cell in row[3:10]]
            assert numbers[:3] == [q0 / KNM3H, q1 / KNM3H, (q1 - q0) / KNM3H], row
            for got, want in zip(numbers[3:], (alpha / BAR, beta / BAR,
                                               alpha / length / ingest.PER_10KM, ratio)):
                assert (got == want if math.isinf(want)
                        else math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)), (row, want)
