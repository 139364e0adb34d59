import math

import pytest
from hypothesis import given, settings, strategies as st

from gasinertia.ingest import format_timestamp
from gasinertia.model import SECONDS_PER_DAY
from gasinertia.temporal import (
    component_chains,
    chain_relevance,
    datapoint_share,
    format_share_percent,
    humanize_interval,
    occurrence_rate,
    pipe_run_lengths,
    realism_filter,
    round_sig,
)
from gasinertia.thresholds import RelevanceClass, ThresholdConfig

from conftest import make_component, make_stream, stamp
from oracles import brute_runs, space_time_events

HIGH = RelevanceClass.HIGH
SMALL = RelevanceClass.SMALL
NONE = RelevanceClass.NONE


def c(pipes, relevance=HIGH, dflow=10.0):
    return make_component(pipes, relevance=relevance, dflow_knm3h=dflow)


# pair 2 ends at stamp(3), after pair 0 starts
OUT_OF_ORDER = (f"component stream out of order at {format_timestamp(stamp(3))} "
                f"vs {format_timestamp(stamp(0))}")


class TestRunLengths:
    def test_single_run(self):
        stream = make_stream([(k, [c(("p1",))]) for k in range(3)])
        result = pipe_run_lengths(stream)
        assert result.histogram == {3: 1}
        assert result.total_points == 3
        assert result.share_by_length == {3: 1.0}

    def test_absence_breaks_run(self):
        stream = make_stream([
            (0, [c(("p1",))]),
            (1, []),
            (2, [c(("p1",))]),
        ])
        result = pipe_run_lengths(stream)
        assert result.histogram == {1: 2}

    def test_time_gap_breaks_run(self):
        stream = make_stream([(0, [c(("p1",))]), (2, [c(("p1",))])])
        result = pipe_run_lengths(stream)
        assert result.histogram == {1: 2}

    def test_min_class_filters(self):
        stream = make_stream([
            (0, [c(("p1",), relevance=SMALL)]),
            (1, [c(("p1",), relevance=HIGH)]),
        ])
        assert pipe_run_lengths(stream, min_class=HIGH).histogram == {1: 1}
        assert pipe_run_lengths(stream, min_class=SMALL).histogram == {2: 1}

    def test_component_hops_still_count(self):
        # the pipe stays graded even though its component changes shape
        stream = make_stream([
            (0, [c(("p1", "p2"))]),
            (1, [c(("p1",)), c(("p2",))]),
        ])
        result = pipe_run_lengths(stream)
        assert result.histogram == {2: 2}
        assert result.total_points == 4

    def test_shares(self):
        stream = make_stream([
            (0, [c(("p1", "p2"))]),
            (1, [c(("p1",))]),
        ])
        result = pipe_run_lengths(stream)
        assert result.histogram == {1: 1, 2: 1}
        assert result.share_by_length[1] == pytest.approx(1.0 / 3.0)
        assert result.share_by_length[2] == pytest.approx(2.0 / 3.0)


    def test_out_of_order_rejected(self):
        stream = make_stream([(2, [c(("p1",))]), (0, [c(("p1",))])])
        with pytest.raises(ValueError, match=OUT_OF_ORDER):
            pipe_run_lengths(stream)

    def test_matches_brute_scan(self):
        # membership pattern with holes and a stream gap after index 3
        entries = []
        membership = {
            "p1": [0, 1, 2, 3, 4, 6],
            "p2": [1, 3, 4, 5],
            "p3": [6],
        }
        indices = [0, 1, 2, 3, 4, 5, 6]
        for k in indices:
            comps = [c((pid,)) for pid, ks in sorted(membership.items()) if k in ks]
            entries.append((k if k <= 3 else k + 1, comps))
        stream = make_stream(entries)
        consecutive = [True, True, True, False, True, True]
        # remap membership to positional indices used by the oracle
        result = pipe_run_lengths(stream)
        assert result.histogram == brute_runs(membership, consecutive)


class TestChains:
    def test_simple_chain(self):
        stream = make_stream([(k, [c(("p1", "p2"))]) for k in range(3)])
        assert component_chains(stream) == [((0, 0), (1, 0), (2, 0))]

    def test_no_shared_pipe_no_chain(self):
        stream = make_stream([(0, [c(("p1",))]), (1, [c(("p2",))])])
        assert component_chains(stream) == []

    def test_gap_blocks_chaining(self):
        stream = make_stream([(0, [c(("p1",))]), (2, [c(("p1",))])])
        assert component_chains(stream) == []
        assert component_chains(stream, min_length=1) == [((0, 0),), ((1, 0),)]

    def test_min_length_one_keeps_singletons(self):
        stream = make_stream([(0, [c(("p1",))]), (1, [c(("p2",))])])
        assert component_chains(stream, min_length=1) == [((0, 0),), ((1, 0),)]

    def test_min_class(self):
        stream = make_stream([
            (0, [c(("p1",), relevance=SMALL)]),
            (1, [c(("p1",), relevance=SMALL)]),
        ])
        assert component_chains(stream, min_class=HIGH) == []
        assert len(component_chains(stream, min_class=SMALL)) == 1

    def test_each_component_used_once(self):
        # two components merge into one: all three are one event, which
        # lists the members in stream order
        stream = make_stream([
            (0, [c(("p2", "p9")), c(("p1", "p8"))]),
            (1, [c(("p8", "p9"))]),
        ])
        assert component_chains(stream) == [((0, 0), (0, 1), (1, 0))]

    def test_split_joins_both_branches(self):
        stream = make_stream([
            (0, [c(("p1", "p2"))]),
            (1, [c(("p1",)), c(("p2",))]),
        ])
        assert component_chains(stream) == [((0, 0), (1, 0), (1, 1))]

    def test_dense_overlap_is_one_event(self):
        stream = make_stream([
            (0, [c(("p1",)), c(("p2",))]),
            (1, [c(("p1", "p2"))]),
            (2, [c(("p1",)), c(("p2",))]),
        ])
        assert component_chains(stream) == [((0, 0), (0, 1), (1, 0), (2, 0), (2, 1))]

    def test_out_of_order_rejected(self):
        stream = make_stream([(2, [c(("p1",))]), (0, [c(("p1",))])])
        with pytest.raises(ValueError, match=OUT_OF_ORDER):
            component_chains(stream)

    def test_chain_relevance_is_max(self):
        stream = make_stream([
            (0, [c(("p1",), relevance=SMALL)]),
            (1, [c(("p1",), relevance=HIGH)]),
        ])
        events = component_chains(stream, min_class=SMALL)
        assert chain_relevance(stream, events[0]) is HIGH


PIPES = [f"p{n}" for n in range(6)]


@st.composite
def component_streams(draw):
    """Up to 6 pairs, gaps between some, each with up to 4 components over
    disjoint pipe sets of 6 pipe ids, of random class."""
    entries, index = [], 0
    for _ in range(draw(st.integers(0, 6))):
        index += draw(st.sampled_from([1, 1, 1, 2]))
        # each pipe is absent (-1) or in one of 4 components
        slots = draw(st.lists(st.integers(-1, 3), min_size=len(PIPES), max_size=len(PIPES)))
        groups = [tuple(p for p, slot in zip(PIPES, slots) if slot == g) for g in range(4)]
        comps = [c(pipes, relevance=draw(st.sampled_from([NONE, SMALL, HIGH])))
                 for pipes in groups if pipes]
        entries.append((index, comps))
    return make_stream(entries)


@settings(max_examples=200, deadline=None)
@given(component_streams(), st.sampled_from([SMALL, HIGH]), st.sampled_from([1, 2]),
       st.randoms(use_true_random=False))
def test_events_match_oracle_in_any_component_order(stream, min_class, min_length, rng):
    events = component_chains(stream, min_class, min_length)
    assert events == space_time_events(stream, min_class, min_length)

    # shuffled components give the same events once indices are mapped back
    orders = [rng.sample(range(len(comps)), len(comps)) for _pair, comps in stream]
    shuffled = [(pair, [comps[i] for i in order])
                for (pair, comps), order in zip(stream, orders)]
    mapped = [tuple(sorted((k, orders[k][ci]) for k, ci in event))
              for event in component_chains(shuffled, min_class, min_length)]
    assert sorted(mapped) == events


class TestRealismFilter:
    def test_drops_implausible(self):
        cfg = ThresholdConfig()
        stream = make_stream([
            (0, [c(("p1",), dflow=100.0), c(("p2",), dflow=2500.0)]),
        ])
        filtered, dropped = realism_filter(stream, cfg)
        assert dropped == 1
        assert [comp.pipe_ids for comp in filtered[0][1]] == [("p1",)]

    def test_boundary_inclusive(self):
        cfg = ThresholdConfig()
        stream = make_stream([(0, [c(("p1",), dflow=2000.0)])])
        filtered, dropped = realism_filter(stream, cfg)
        assert dropped == 0
        assert len(filtered[0][1]) == 1

    def test_idempotent(self):
        cfg = ThresholdConfig()
        stream = make_stream([
            (0, [c(("p1",), dflow=100.0), c(("p2",), dflow=2500.0)]),
        ])
        once, _ = realism_filter(stream, cfg)
        twice, dropped = realism_filter(once, cfg)
        assert dropped == 0
        assert twice == once


class TestOccurrenceRate:
    def test_zero_events(self):
        rate = occurrence_rate(0, 1250.0 * SECONDS_PER_DAY)
        assert math.isinf(rate.seconds)
        assert rate.text == "never"

    def test_mean_spacing(self):
        rate = occurrence_rate(125, 1250.0 * SECONDS_PER_DAY)
        assert rate.seconds == pytest.approx(10.0 * SECONDS_PER_DAY)
        assert rate.text == "10 days"

    def test_validation(self):
        with pytest.raises(ValueError):
            occurrence_rate(-1, 100.0)
        with pytest.raises(ValueError):
            occurrence_rate(1, 0.0)


class TestHumanize:
    def test_unit_selection(self):
        assert humanize_interval(45.0) == "45 seconds"
        assert humanize_interval(62.0) == "62 seconds"
        # 63 s sits right at the 1.05x pickup point for minutes
        assert humanize_interval(63.0) == "1.1 minutes"
        assert humanize_interval(22.0 * 60.0) == "22 minutes"
        assert humanize_interval(4.0 * 3600.0) == "4.0 hours"
        assert humanize_interval(25.0 * 3600.0) == "25 hours"
        assert humanize_interval(1.344 * SECONDS_PER_DAY) == "1.3 days"
        assert humanize_interval(4.386 * SECONDS_PER_DAY) == "4.4 days"

    def test_two_significant_digits(self):
        assert humanize_interval(22.78 * 60.0) == "23 minutes"
        assert humanize_interval(1.579 * 3600.0) == "1.6 hours"
        assert humanize_interval(2.155 * SECONDS_PER_DAY) == "2.2 days"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            humanize_interval(0.0)

    def test_round_sig(self):
        assert round_sig(22.78, 2) == 23.0
        assert round_sig(0.0, 2) == 0.0
        assert round_sig(math.inf, 2) == math.inf
        assert round_sig(0.0361111, 2) == 0.036


class TestShares:
    def test_fraction(self):
        assert datapoint_share(1, 4) == 0.25
        assert datapoint_share(0, 0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            datapoint_share(5, 4)
        with pytest.raises(ValueError):
            datapoint_share(-1, 4)

    def test_percent_formatting(self):
        assert format_share_percent(datapoint_share(1_300_000, 3_600_000_000)) == "0.036%"
        assert format_share_percent(datapoint_share(51_000, 3_600_000_000)) == "0.0014%"
        assert format_share_percent(0.92) == "92%"
