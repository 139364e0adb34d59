import dataclasses
import importlib.util
from pathlib import Path
import sys

import numpy as np
import pytest

from gasinertia.ingest import (
    ParseError,
    instant,
    parse_states,
    parse_topology,
    serialize_states,
    serialize_topology,
)
from gasinertia.model import (
    BAR,
    Element,
    ElementKind,
    GasParams,
    KNM3H,
    Network,
    Node,
    PipeGeometry,
)
from gasinertia import synth
from gasinertia.synth import (
    FIXTURES,
    BoundaryEvent,
    Scenario,
    fixture_funnel50,
    fixture_line3,
    fixture_single50,
    _solve_frame,
    _System,
    NEWTON_TOL,
    parse_scenario,
    simulate,
)

from oracles import FrozenSystem, dense_fd_jacobian, friction_beta, newton_frame

BALANCE_TOL = 1e-8   # m^3/s, normal volumetric


def scenario_text(**overrides) -> str:
    lines = {"fixture": "line3", "frames": "6", "tau_s": "180"}
    lines.update(overrides)
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


def write_scenario(tmp_path, text):
    path = tmp_path / "case.scn"
    path.write_text(text)
    return str(path)


def node_balances(scenario: Scenario, frame, frame_index: int) -> dict[str, float]:
    """Net volumetric balance at every non-reference hydraulic node."""
    balances = {node: scenario.inflow_at(node, frame_index)
                for node in frame.node_pressure_pa
                if node not in scenario.reference_pressure_pa}
    for arc_id, q in frame.arc_flow_m3s.items():
        element = scenario.network.elements[arc_id]
        if element.from_node in balances:
            balances[element.from_node] -= q
        if element.to_node in balances:
            balances[element.to_node] += q
    return balances


class TestFixtures:
    def test_single50(self):
        net, refs, inflow = fixture_single50()
        assert len(net.pipes()) == 1
        assert refs == {"s0": 60.0 * BAR}
        assert inflow == {"s1": -20.0 * KNM3H}

    def test_line3(self):
        net, refs, inflow = fixture_line3()
        assert len(net.pipes()) == 3
        assert list(refs) == ["n0"]

    def test_funnel50_shape(self):
        net, refs, inflow = fixture_funnel50()
        assert len(net.pipes()) == 50
        assert len(net.of_kind(ElementKind.VALVE)) == 1
        assert len(net.of_kind(ElementKind.RESISTOR)) == 1
        assert len(net.of_kind(ElementKind.REGULATOR)) == 4
        assert len(net.of_kind(ElementKind.COMPRESSOR)) == 2
        assert len(refs) == 7

    def test_registry(self):
        assert set(FIXTURES) == {"single50", "line3", "funnel50"}


class TestParseScenario:
    def test_defaults(self, tmp_path):
        path = write_scenario(tmp_path, "fixture = single50\n")
        scenario = parse_scenario(path)
        assert scenario.name == "single50"
        assert scenario.frames == 10
        assert scenario.tau_s == 180.0
        assert scenario.rho_n_kgm3 == 0.85
        assert scenario.temperature_k == 283.15
        assert scenario.noise == 0.0
        assert scenario.events == ()

    def test_full(self, tmp_path):
        text = scenario_text(frames="8", tau_s="60", temperature_K="288.15",
                             rho_n_kgNm3="0.8", noise="0.01", seed="7",
                             start="2026-03-01T00:00:00Z")
        text += "event = n3 4 -12.5\n"
        scenario = parse_scenario(write_scenario(tmp_path, text))
        assert scenario.frames == 8
        assert scenario.tau_s == 60.0
        assert scenario.temperature_k == 288.15
        assert scenario.seed == 7
        assert scenario.events == (BoundaryEvent("n3", 4, -12.5 * KNM3H),)

    def test_comments_and_blanks(self, tmp_path):
        text = "# comment\n\nfixture = line3  # trailing\n"
        assert parse_scenario(write_scenario(tmp_path, text)).name == "line3"

    def test_missing_fixture(self, tmp_path):
        with pytest.raises(ParseError, match="requires a fixture") as info:
            parse_scenario(write_scenario(tmp_path, "frames = 3\n"))
        assert info.value.line == 0

    def test_unknown_fixture(self, tmp_path):
        with pytest.raises(ParseError, match="unknown fixture") as info:
            parse_scenario(write_scenario(tmp_path, "# mesh\nfixture = mesh99\n"))
        assert info.value.line == 2

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ParseError, match="unknown key 'cadence'") as info:
            parse_scenario(write_scenario(tmp_path, scenario_text(cadence="9")))
        assert info.value.line == 4

    def test_event_node_checked(self, tmp_path):
        text = scenario_text() + "event = zz 1 -5\n"
        with pytest.raises(ParseError, match="unknown node") as info:
            parse_scenario(write_scenario(tmp_path, text))
        assert info.value.line == 4

    @pytest.mark.parametrize("text, line", [
        (scenario_text() + "event = n0 2 -50\n", 4),
        (scenario_text() + "pressure = n1 59\nevent = n1 2 -50\n", 5)],
        ids=["fixture reference", "scenario reference"])
    def test_event_at_pressure_reference_rejected(self, tmp_path, text, line):
        with pytest.raises(ParseError, match="event node '(n0|n1)' is a pressure reference") \
                as info:
            parse_scenario(write_scenario(tmp_path, text))
        assert info.value.line == line

    def test_event_frame_checked(self, tmp_path):
        # the range is checked against the frames key, whichever line it is on
        text = "fixture = line3\nevent = n3 6 -5\nframes = 6\n"
        with pytest.raises(ParseError, match="outside") as info:
            parse_scenario(write_scenario(tmp_path, text))
        assert info.value.line == 2

    def test_closed_valve_checked(self, tmp_path):
        text = scenario_text() + "closed_valve = np0\n"
        with pytest.raises(ParseError, match="not a valve") as info:
            parse_scenario(write_scenario(tmp_path, text))
        assert info.value.line == 4

    @pytest.mark.parametrize("line, message", [
        ("frames = five", "bad frames 'five'"),
        ("seed = 1.5", "bad seed '1.5'"),
        ("noise = low", "bad noise 'low'"),
        ("temperature_K = warm", "bad temperature_K 'warm'"),
        ("start = 2026-01-01T00:00:00", "lacks a timezone"),
        ("start = noon", "invalid ISO 8601"),
        ("frames = 0", "frames must be positive"),
        ("temperature_K = -5", "temperature_K must be positive"),
        ("tau_s = inf", "tau_s must be positive and finite"),
        ("noise = -0.1", "noise must be non-negative"),
        ("noise = nan", "noise must be non-negative"),
        ("seed = -1", "seed must be non-negative"),
        ("pressure = zz 60", "pressure references unknown node 'zz'"),
        ("pressure = n3 60", "pressure node 'n3' has an inflow setpoint"),
        ("pressure = n0", "bad pressure 'n0', expected: node bar"),
        ("event = n3 2", "bad event 'n3 2', expected: node frame inflow_kNm3h"),
        ("event = n3 2 nan", "event inflow must be finite, got nan"),
        ("event = n1 2 -inf", "event inflow must be finite, got -inf"),
        ("pressure = n0 inf", "pressure must be positive and finite, got inf"),
    ])
    def test_bad_value_reported_at_its_line(self, tmp_path, line, message):
        path = write_scenario(tmp_path, f"fixture = line3\n{line}\ntau_s = 60\n")
        with pytest.raises(ParseError, match=message) as info:
            parse_scenario(path)
        assert (info.value.path, info.value.line) == (path, 2)

    @pytest.mark.parametrize("line, message", [
        ("rho_n_kgNm3 = 3.0", "outside accepted range"),
        ("rho_n_kgNm3 = 0.5", "outside accepted range"),
        ("rho_n_kgNm3 = dense", "bad rho_n_kgNm3"),
        ("pressure = n0 -5", "pressure must be positive"),
        ("pressure = n0 0", "pressure must be positive"),
        ("pressure = n0 nan", "pressure must be positive"),
        ("tau_s = 0", "tau_s must be positive"),
        ("tau_s = -180", "tau_s must be positive"),
    ])
    def test_scalar_range_checked_with_line(self, tmp_path, line, message):
        text = "# case\nfixture = line3\nframes = 4\n" + line + "\nnoise = 0\n"
        path = write_scenario(tmp_path, text)
        with pytest.raises(ParseError, match=message) as info:
            parse_scenario(path)
        assert info.value.path == path
        assert info.value.line == 4

    def test_zero_noise_and_seed_accepted(self, tmp_path):
        scenario = parse_scenario(write_scenario(tmp_path, scenario_text(noise="0", seed="0")))
        assert (scenario.noise, scenario.seed) == (0.0, 0)

    def test_inflow_at_applies_events_in_order(self, tmp_path):
        text = scenario_text(frames="10") + "event = n3 3 -12\nevent = n3 5 -14\n"
        scenario = parse_scenario(write_scenario(tmp_path, text))
        assert scenario.inflow_at("n3", 0) == -10.0 * KNM3H
        assert scenario.inflow_at("n3", 3) == -12.0 * KNM3H
        assert scenario.inflow_at("n3", 7) == -14.0 * KNM3H


def make_scenario(tmp_path, text) -> Scenario:
    return parse_scenario(write_scenario(tmp_path, text))


class TestSimulate:
    def test_timestamps_and_length(self, tmp_path):
        scenario = make_scenario(tmp_path, scenario_text(frames="4"))
        history = simulate(scenario)
        assert len(history) == 4
        assert instant(history.timestamps[0]) == scenario.start
        assert (np.diff(history.timestamps) / 1e6).tolist() == [180.0] * 3

    def test_reference_pressure_pinned(self, tmp_path):
        scenario = make_scenario(tmp_path, scenario_text())
        for frame in simulate(scenario):
            assert frame.node_pressure_pa["n0"] == 60.0 * BAR

    def test_steady_state_flows(self, tmp_path):
        scenario = make_scenario(tmp_path, "fixture = single50\nframes = 5\n")
        frames = simulate(scenario)
        for frame in frames:
            assert frame.arc_flow_m3s["sp0"] == pytest.approx(20.0 * KNM3H, rel=1e-9)
        # steady: all frames identical apart from the clock
        assert all(f.node_pressure_pa == frames[0].node_pressure_pa for f in frames)

    def test_pressure_falls_toward_offtake(self, tmp_path):
        scenario = make_scenario(tmp_path, scenario_text())
        frame = simulate(scenario)[-1]
        p = frame.node_pressure_pa
        assert p["n0"] > p["n1"] > p["n2"] > p["n3"]

    def test_mass_balance(self, tmp_path):
        scenario = make_scenario(tmp_path, scenario_text(frames="3"))
        for k, frame in enumerate(simulate(scenario)):
            for node, balance in node_balances(scenario, frame, k).items():
                assert abs(balance) < BALANCE_TOL, node

    def test_event_shifts_flow(self, tmp_path):
        text = scenario_text(frames="8") + "event = n3 5 -16\n"
        scenario = make_scenario(tmp_path, text)
        frames = simulate(scenario)
        assert frames[4].arc_flow_m3s["np0"] == pytest.approx(10.0 * KNM3H, rel=1e-9)
        assert frames[5].arc_flow_m3s["np0"] == pytest.approx(16.0 * KNM3H, rel=1e-6)
        assert frames[7].arc_flow_m3s["np0"] == pytest.approx(16.0 * KNM3H, rel=1e-9)

    def test_event_on_node_without_inflow(self, tmp_path):
        # n1 has no base inflow; the event makes it an offtake from frame 2
        base = simulate(make_scenario(tmp_path, scenario_text()))
        scenario = make_scenario(tmp_path, scenario_text() + "event = n1 2 -50\n")
        history = simulate(scenario)
        assert np.array_equal(history.flow_m3s[:2], base.flow_m3s[:2])
        assert (history.flow_m3s[2:] != base.flow_m3s[2:]).any(axis=1).all()
        assert history[5].arc_flow_m3s["np0"] == pytest.approx(60.0 * KNM3H, rel=1e-6)
        for k, frame in enumerate(history):
            for node, balance in node_balances(scenario, frame, k).items():
                assert abs(balance) < BALANCE_TOL, (k, node)

    def test_deterministic(self, tmp_path):
        text = scenario_text(frames="5", noise="0.05", seed="3")
        a = simulate(make_scenario(tmp_path, text))
        b = simulate(make_scenario(tmp_path, text))
        assert a.timestamps.tobytes() == b.timestamps.tobytes()
        for name in ("pressure_pa", "flow_m3s", "valve_open", "rho_n"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_seed_matters_with_noise(self, tmp_path):
        base = scenario_text(frames="5", noise="0.05")
        a = simulate(make_scenario(tmp_path, base + "seed = 1\n"))
        b = simulate(make_scenario(tmp_path, base + "seed = 2\n"))
        assert not np.array_equal(a.flow_m3s, b.flow_m3s, equal_nan=True)

    def test_history_columns(self, tmp_path):
        scenario = make_scenario(tmp_path, "fixture = funnel50\nframes = 2\n")
        history = simulate(scenario)
        network = scenario.network
        assert history.node_ids == tuple(sorted(network.nodes))
        assert history.arc_ids == tuple(sorted(network.elements))
        # actively controlled elements transfer nothing and carry no flow
        given = {arc_id for arc_id, value in zip(history.arc_ids, history.flow_m3s[1])
                 if not np.isnan(value)}
        assert given == {arc_id for arc_id, element in network.elements.items()
                         if element.kind in (ElementKind.PIPE, ElementKind.VALVE,
                                             ElementKind.RESISTOR)}
        assert np.all(history.valve_open == 1.0)
        assert np.all(history.rho_n == scenario.rho_n_kgm3)

    def test_states_file_parses_to_the_same_history(self, tmp_path):
        text = "fixture = funnel50\nframes = 3\nnoise = 0.01\nclosed_valve = ev\n" \
               "pressure = e2 60\n"
        scenario = make_scenario(tmp_path, text)
        history = simulate(scenario)
        serialize_topology(scenario.network, str(tmp_path / "topology.csv"))
        states = tmp_path / "states.csv"
        serialize_states(history, str(states))
        parsed = parse_states(str(states), parse_topology(str(tmp_path / "topology.csv")))
        assert parsed.timestamps.tobytes() == history.timestamps.tobytes()
        for name in ("node_ids", "arc_ids", "valve_ids", "pipe_ids"):
            assert getattr(parsed, name) == getattr(history, name)
        for name in ("pressure_pa", "flow_m3s", "valve_open", "rho_n"):
            # NaN where the scenario gives nothing, in both; SI values pass
            # through file units, which may move the last bit
            np.testing.assert_allclose(getattr(parsed, name), getattr(history, name),
                                       rtol=1e-15, atol=0.0, equal_nan=True)
        assert np.all(parsed.valve_open == 0.0)
        again = tmp_path / "again.csv"
        serialize_states(parsed, str(again))
        assert again.read_bytes() == states.read_bytes()

    def test_funnel_smoke(self, tmp_path):
        scenario = make_scenario(tmp_path, "fixture = funnel50\nframes = 3\n")
        frames = simulate(scenario)
        assert len(frames) == 3
        frame = frames[-1]
        assert len([e for e in frame.arc_flow_m3s
                    if scenario.network.elements[e].kind is ElementKind.PIPE]) == 50
        assert frame.valve_open == {"ev": True}
        for node, balance in node_balances(scenario, frame, 2).items():
            assert abs(balance) < BALANCE_TOL, node
        # ring f carries the g-island draw nowhere: the regulator is inert,
        # so f8's offtake is fed from f0 both ways around the ring
        assert frame.arc_flow_m3s["fp0"] > 0.0
        assert frame.arc_flow_m3s["fp15"] < 0.0

    def test_closed_valve(self, tmp_path):
        text = ("fixture = funnel50\nframes = 3\nclosed_valve = ev\n"
                "pressure = e2 60\n")
        scenario = make_scenario(tmp_path, text)
        frames = simulate(scenario)
        for frame in frames:
            assert frame.valve_open == {"ev": False}
            assert frame.arc_flow_m3s["ev"] == pytest.approx(0.0, abs=1e-12)
        for node, balance in node_balances(scenario, frames[-1], 2).items():
            assert abs(balance) < BALANCE_TOL, node

    def test_nonpositive_trial_pressure_is_rejected(self, tmp_path, monkeypatch):
        scenario = make_scenario(tmp_path, "fixture = single50\nframes = 1\n")
        system = _System(scenario)
        inflow = np.array([scenario.inflow_at("s1", 0)])
        # s1 entered 5 bar above the reference, with a Jacobian scaled so
        # that the full Newton step takes s1 to minus its pressure
        x = np.array([65.0 * BAR, 5.0])
        r = system.residual(x, None, scenario.tau_s, inflow)
        jac = system.jacobian(x, r, None, scenario.tau_s, inflow)
        scaled = jac * -np.linalg.solve(jac, -r)[0] / (2.0 * x[0])
        trial = x + np.linalg.solve(scaled, -r)
        assert trial[0] == pytest.approx(-x[0])
        with pytest.raises(ValueError, match="positive"):
            system.residual(trial, None, scenario.tau_s, inflow)

        jacobians = [scaled]
        fresh, residual = system.jacobian, system.residual
        evaluated = []

        def scaled_once(*args):
            return jacobians.pop() if jacobians else fresh(*args)

        def logged(x_trial, *args):
            # a trial point comes as the first row of a batch with its
            # stepped copies
            evaluated.append(np.atleast_2d(x_trial)[0, 0])
            return residual(x_trial, *args)

        monkeypatch.setattr(system, "jacobian", scaled_once)
        monkeypatch.setattr(system, "residual", logged)
        solved, stepped = _solve_frame(system, x, None, scenario.tau_s, inflow, 0, False)
        assert stepped
        # the entry residual, then the full step, which the line search
        # rejects before it damps the step into one that is accepted
        assert evaluated[1] == pytest.approx(-x[0])
        assert not jacobians
        assert np.max(np.abs(residual(solved, None, scenario.tau_s, inflow))) < NEWTON_TOL

    def test_resistor_carries_drop(self, tmp_path):
        scenario = make_scenario(tmp_path, "fixture = funnel50\nframes = 2\n")
        frame = simulate(scenario)[-1]
        q = frame.arc_flow_m3s["er"]
        drop = frame.node_pressure_pa["e3"] - frame.node_pressure_pa["e4"]
        assert drop == pytest.approx(1.0e3 * abs(q) * q, rel=1e-9)


def fixture_scenario(name: str, closed_valves: frozenset[str] = frozenset()) -> Scenario:
    network, references, inflow = FIXTURES[name]()
    return Scenario(name, network, references, inflow, closed_valves=closed_valves)


def star_scenario(arms: int) -> Scenario:
    """arms 10 km pipes from hub h to leaves l0.., l0 the reference and the
    other leaves offtakes, so that the balance row of h sums arms flows."""
    geometry = PipeGeometry(length_m=10e3, diameter_m=0.5, roughness_m=1e-5)
    network = Network.build([Node("h")] + [Node(f"l{i}") for i in range(arms)],
                            [Element(f"s{i}", ElementKind.PIPE, "h", f"l{i}", geometry)
                             for i in range(arms)])
    return Scenario(f"star{arms}", network, {"l0": 60.0 * BAR},
                    {f"l{i}": -5.0 * KNM3H for i in range(1, arms)})


class TestJacobian:
    @pytest.mark.parametrize("scenario", [
        fixture_scenario("single50"), fixture_scenario("line3"),
        fixture_scenario("funnel50"), fixture_scenario("funnel50", frozenset({"ev"}))],
        ids=["single50", "line3", "funnel50", "funnel50 closed ev"])
    @pytest.mark.parametrize("transient", [False, True], ids=["steady", "transient"])
    def test_equals_dense_oracle(self, scenario, transient):
        system = _System(scenario)
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = np.concatenate([rng.uniform(30.0, 70.0, system.n_free) * BAR,
                                rng.normal(0.0, 5.0, system.n_unknowns - system.n_free)])
            # a pressure under the 1 bar step floor, flows on both sides of
            # the unit step floor, and at rest
            x[0] = 0.5 * BAR
            x[system.n_free::7] = 0.0
            x[system.n_free + 1::5] *= 1e-3
            q_prev = rng.normal(0.0, 5.0, system.n_pipe) if transient else None
            inflow = rng.normal(0.0, 5.0, system.n_free)
            r = system.residual(x, q_prev, 180.0, inflow)
            assert np.array_equal(system.jacobian(x, r, q_prev, 180.0, inflow),
                                  dense_fd_jacobian(system, x, r, q_prev, 180.0, inflow))

    @pytest.mark.parametrize("scenario", [
        fixture_scenario("single50"), fixture_scenario("line3"),
        fixture_scenario("funnel50"), fixture_scenario("funnel50", frozenset({"ev"})),
        star_scenario(12)],
        ids=["single50", "line3", "funnel50", "funnel50 closed ev", "star12"])
    @pytest.mark.parametrize("transient", [False, True], ids=["steady", "transient"])
    def test_batch_rows_equal_single_calls(self, scenario, transient):
        system = _System(scenario)
        rng = np.random.default_rng(11)
        q_prev = rng.normal(0.0, 5.0, system.n_pipe) if transient else None
        inflow = rng.normal(0.0, 5.0, system.n_free)
        for rows in (1, 6):
            batch = np.concatenate(
                [rng.uniform(30.0, 70.0, (rows, system.n_free)) * BAR,
                 rng.normal(0.0, 5.0, (rows, system.n_unknowns - system.n_free))], axis=1)
            batch[:, system.n_free::7] = 0.0
            got = system.residual(batch, q_prev, 180.0, inflow)
            assert got.shape == (rows, system.n_unknowns)
            for x, row in zip(batch, got):
                assert np.array_equal(row, system.residual(x, q_prev, 180.0, inflow))
            # a pressure at or below zero in one row fails the whole batch
            # as that row fails alone
            for pressure in (0.0, -BAR):
                bad = batch.copy()
                bad[-1, 0] = pressure
                with pytest.raises(ValueError) as alone:
                    system.residual(bad[-1], q_prev, 180.0, inflow)
                with pytest.raises(ValueError) as batched:
                    system.residual(bad, q_prev, 180.0, inflow)
                assert str(batched.value).split(", got")[0] \
                    == str(alone.value).split(", got")[0] \
                    == "endpoint pressures must be positive"

    def test_funnel50_groups(self):
        system = _System(fixture_scenario("funnel50"))
        assert system.n_unknowns == 103
        assert len(system.groups) == 4
        assert sorted(i for group in system.groups for i in group) == \
            list(range(system.n_unknowns))
        for group in system.groups:
            assert system.pattern[:, group].sum(axis=1).max() <= 1


ORACLE_SCENARIOS = [
    fixture_scenario("single50"), fixture_scenario("line3"), fixture_scenario("funnel50"),
    fixture_scenario("funnel50", frozenset({"ev"})), star_scenario(12)]
ORACLE_IDS = ["single50", "line3", "funnel50", "funnel50 closed ev", "star12"]


def raised(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


class TestFrozenSystem:
    """The residual and the Jacobian equal the frozen ones of the oracle
    bit for bit, and so does a history simulated on the oracle."""

    @pytest.mark.parametrize("scenario", ORACLE_SCENARIOS, ids=ORACLE_IDS)
    @pytest.mark.parametrize("transient", [False, True], ids=["steady", "transient"])
    def test_residual_and_jacobian_equal_oracle(self, scenario, transient):
        system, oracle = _System(scenario), FrozenSystem(scenario)
        rng = np.random.default_rng(5)
        q_prev = rng.normal(0.0, 5.0, system.n_pipe) if transient else None
        for rows in (1, 4):
            batch = np.concatenate(
                [rng.uniform(30.0, 70.0, (rows, system.n_free)) * BAR,
                 rng.normal(0.0, 5.0, (rows, system.n_unknowns - system.n_free))], axis=1)
            # a pressure under the 1 bar step floor, and flows at rest
            batch[:, 0] = 0.5 * BAR
            batch[:, system.n_free::7] = 0.0
            inflow = rng.normal(0.0, 5.0, system.n_free)
            args = (q_prev, 180.0, inflow)
            assert np.array_equal(system.residual(batch, *args), oracle.residual(batch, *args))
            for x in batch:
                r = system.residual(x, *args)
                assert np.array_equal(r, oracle.residual(x, *args))
                assert np.array_equal(system.jacobian(x, r, *args),
                                      oracle.jacobian(x, r, *args))

    @pytest.mark.parametrize("scenario", ORACLE_SCENARIOS, ids=ORACLE_IDS)
    def test_checks_fail_alike(self, scenario):
        system, oracle = _System(scenario), FrozenSystem(scenario)
        x = np.concatenate([np.full(system.n_free, 50.0 * BAR),
                            np.ones(system.n_unknowns - system.n_free)])
        inflow, q_prev = np.zeros(system.n_free), np.zeros(system.n_pipe)
        for pressure in (0.0, -BAR, np.nan):
            bad = np.array([x, x])
            bad[1, 0] = pressure
            for trial in (bad[1], bad):
                message = raised(lambda: system.residual(trial, None, 180.0, inflow))
                assert message.startswith("endpoint pressures must be positive")
                assert message == raised(lambda: oracle.residual(trial, None, 180.0, inflow))
        message = raised(lambda: system.residual(x, q_prev, 0.0, inflow))
        assert message == raised(lambda: oracle.residual(x, q_prev, 0.0, inflow)) \
            == "tau must be positive, got 0.0"
        # a density that no scenario file passes fails R_s T
        thin = dataclasses.replace(scenario, rho_n_kgm3=0.0)
        message = raised(lambda: _System(thin).residual(x, None, 180.0, inflow))
        assert message == raised(lambda: FrozenSystem(thin).residual(x, None, 180.0, inflow)) \
            == "normal density must be positive, got 0.0"

    @pytest.mark.parametrize("source", ["funnel-noisy", "funnel50.scn"])
    def test_simulate_equals_oracle_driven(self, source, tmp_path, monkeypatch):
        scenario = source_scenario(source, tmp_path, monkeypatch)
        history = simulate(scenario)
        monkeypatch.setattr(synth, "_System", FrozenSystem)
        assert_same_history(history, simulate(scenario))


def source_scenario(source: str, tmp_path, monkeypatch) -> Scenario:
    """The benchmark's funnel workload at seed 1, a checked-in scenario
    file, or the meshed scenario "grid" or "ladder" at the noise after it."""
    if source == "funnel-noisy":
        path = str(tmp_path / "funnel.scn")
        spec = importlib.util.spec_from_file_location(
            "workloads", SCENARIO_DIR.parent / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        workloads.write_funnel_scenario(1, path)
        return parse_scenario(path)
    if source.endswith(".scn"):
        return parse_scenario(str(SCENARIO_DIR / source))
    shape, noise = source.split()
    return meshed_scenario(*{"grid": (10, 10), "ladder": (2, 41)}[shape], noise=float(noise))


def assert_same_history(history, other) -> None:
    assert history.timestamps.tobytes() == other.timestamps.tobytes()
    for name in ("pressure_pa", "flow_m3s", "valve_open", "rho_n"):
        assert getattr(history, name).tobytes() == getattr(other, name).tobytes(), name


class TestNewtonLoop:
    """Batching each trial point with its stepped copies changes no bit of
    the Newton iteration that evaluates them apart."""

    @pytest.mark.parametrize("source", [
        "funnel-noisy", "funnel50.scn", "steady50.scn", "grid 0", "grid 0.002",
        "ladder 0", "ladder 0.002"])
    def test_simulate_equals_oracle_loop(self, source, tmp_path, monkeypatch):
        scenario = source_scenario(source, tmp_path, monkeypatch)
        history = simulate(scenario)
        monkeypatch.setattr(synth, "_solve_frame", newton_frame)
        assert_same_history(history, simulate(scenario))

    def test_one_residual_call_per_iteration(self, tmp_path, monkeypatch):
        scenario = source_scenario("funnel-noisy", tmp_path, monkeypatch)
        calls = {"residual": 0, "jacobian": 0}
        for name in calls:
            def counted(self, *args, name=name, original=getattr(_System, name)):
                calls[name] += 1
                return original(self, *args)
            monkeypatch.setattr(_System, name, counted)
        simulate(scenario)
        batched = dict(calls)
        calls.update(residual=0, jacobian=0)
        monkeypatch.setattr(synth, "_solve_frame", newton_frame)
        simulate(scenario)
        # every frame takes a solve, so each batch of a trial point gives the
        # next Jacobian; the two loops try the same points, and the oracle's
        # Jacobians each call residual once more
        assert batched["jacobian"] == 0
        assert batched["residual"] == calls["residual"] - calls["jacobian"]

    def test_first_residual_batched_after_a_solve(self, monkeypatch):
        scenario = parse_scenario(str(SCENARIO_DIR / "funnel50.scn"))
        frames, single = [], []
        solve, residual = synth._solve_frame, _System.residual

        def logged_solve(*args):
            x, solved = solve(*args)
            frames.append((args[-1], solved))
            return x, solved

        def logged_residual(self, x, *args):
            single.append(x.ndim == 1)
            return residual(self, x, *args)

        monkeypatch.setattr(synth, "_solve_frame", logged_solve)
        monkeypatch.setattr(_System, "residual", logged_residual)
        simulate(scenario)
        batched, solved = zip(*frames)
        assert batched == (True,) + solved[:-1]
        # the quiet stretches between the events cost one point per frame
        assert 0 < solved.count(True) < 50
        assert sum(single) == batched.count(False)

    @pytest.mark.parametrize("scenario", ORACLE_SCENARIOS, ids=ORACLE_IDS)
    def test_batch_fails_as_its_point_alone(self, scenario):
        system = _System(scenario)
        inflow, q_prev = np.zeros(system.n_free), np.zeros(system.n_pipe)
        x = np.concatenate([np.full(system.n_free, 50.0 * BAR),
                            np.ones(system.n_unknowns - system.n_free)])
        # pressures under zero by less than their step, at zero, NaN, and
        # positive but far under their step
        for pressure in (-1e-3, -BAR, -0.0, 0.0, np.nan, 1e-200, 1e-3):
            for at in (0, system.n_free - 1):
                point = x.copy()
                point[at] = pressure
                batch, _ = system.perturbed(point)
                assert np.array_equal(batch[0], point, equal_nan=True)
                for previous in (None, q_prev):
                    try:
                        system.residual(point, previous, 180.0, inflow)
                    except ValueError:
                        with pytest.raises(ValueError, match="must be positive"):
                            system.residual(batch, previous, 180.0, inflow)
                    else:
                        system.residual(batch, previous, 180.0, inflow)


def meshed_scenario(rows: int, cols: int, noise: float) -> Scenario:
    """A rows x cols grid of 10 km, 0.5 m pipes fed at corner g0_0; the far
    corners draw 50 and 30 kNm3/h, and the first rises to 120 at frame 5."""
    geometry = PipeGeometry(length_m=10e3, diameter_m=0.5, roughness_m=1e-5)
    nodes = [Node(f"g{i}_{j}") for i in range(rows) for j in range(cols)]
    elements = [Element(f"h{i}_{j}", ElementKind.PIPE, f"g{i}_{j}", f"g{i}_{j + 1}", geometry)
                for i in range(rows) for j in range(cols - 1)]
    elements += [Element(f"v{i}_{j}", ElementKind.PIPE, f"g{i}_{j}", f"g{i + 1}_{j}", geometry)
                 for i in range(rows - 1) for j in range(cols)]
    far, side = f"g{rows - 1}_{cols - 1}", f"g0_{cols - 1}"
    return Scenario(f"grid{rows}x{cols}", Network.build(nodes, elements),
                    {"g0_0": 60.0 * BAR}, {far: -50.0 * KNM3H, side: -30.0 * KNM3H},
                    events=(BoundaryEvent(far, 5, -120.0 * KNM3H),),
                    frames=8, noise=noise, seed=1)


class TestMeshed:
    @pytest.mark.parametrize("rows, cols", [(10, 10), (2, 41)], ids=["grid", "ladder"])
    def test_nodes_balance(self, rows, cols):
        scenario = meshed_scenario(rows, cols, noise=0.0)
        history = simulate(scenario)
        for k, frame in enumerate(history):
            for node, balance in node_balances(scenario, frame, k).items():
                assert abs(balance) < BALANCE_TOL, (k, node)

    @pytest.mark.parametrize("rows, cols", [(10, 10), (2, 41)], ids=["grid", "ladder"])
    def test_noisy_solve_converges(self, rows, cols):
        history = simulate(meshed_scenario(rows, cols, noise=0.002))
        assert len(history) == 8
        assert np.isfinite(history.flow_m3s[:, ~np.isnan(history.flow_m3s[0])]).all()


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


class TestCheckedInScenarios:
    def test_funnel50_scenario_parses(self):
        scenario = parse_scenario(str(SCENARIO_DIR / "funnel50.scn"))
        assert scenario.name == "funnel50"
        assert scenario.frames == 1000
        assert len(scenario.events) == 5

    def test_steady50_scenario_runs(self):
        scenario = parse_scenario(str(SCENARIO_DIR / "steady50.scn"))
        frames = simulate(scenario)
        assert len(frames) == scenario.frames

    def test_steady50_matches_oracle_friction(self):
        # independent of the physics module that the simulator itself solves
        scenario = parse_scenario(str(SCENARIO_DIR / "steady50.scn"))
        geometry = scenario.network.elements["sp0"].geometry
        gas = GasParams(temperature_k=scenario.temperature_k)
        for frame in simulate(scenario):
            p_left, p_right = frame.node_pressure_pa["s0"], frame.node_pressure_pa["s1"]
            beta, _, _ = friction_beta(
                geometry.length_m, geometry.diameter_m, geometry.roughness_m,
                scenario.rho_n_kgm3, frame.arc_flow_m3s["sp0"], p_left, p_right,
                gas.temperature_k, gas.pseudo_critical_pressure_pa,
                gas.pseudo_critical_temperature_k, gas.dynamic_viscosity_pas)
            # the rest of the drop is the sub-ppm kinetic remainder
            assert p_left - p_right == pytest.approx(beta, rel=1e-6)
