import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from gasinertia.model import BAR, SECONDS_PER_DAY
from gasinertia.report import (
    DEFAULT_THRESHOLDS_PA,
    HexBin,
    hex_center,
    hexbin,
    hexbin_rows,
    sweep_rows,
    sweep_table,
)
from gasinertia.thresholds import RelevanceClass

from conftest import make_component
from oracles import brute_hex_center

HORIZON_S = 100.0 * SECONDS_PER_DAY


def comps(values_bar):
    return [make_component((f"p{k}", f"q{k}")[:1 + k % 2], value_bar=v)
            for k, v in enumerate(values_bar)]


class TestSweep:
    def test_counts_inclusive(self):
        components = comps([0.1, 0.25, 0.5, 1.2])
        rows = sweep_table(components, [0.1 * BAR, 0.5 * BAR, 2.0 * BAR], HORIZON_S)
        assert [r.n_components for r in rows] == [4, 2, 0]

    def test_datapoints_sum_member_pipes(self):
        components = comps([0.3, 0.3])   # sizes 1 and 2
        rows = sweep_table(components, [0.1 * BAR], HORIZON_S)
        assert rows[0].n_pipe_datapoints == 3

    def test_interval(self):
        components = comps([1.0] * 10)
        row = sweep_table(components, [0.5 * BAR], HORIZON_S)[0]
        assert row.interval.seconds == pytest.approx(10.0 * SECONDS_PER_DAY)
        assert row.interval.text == "10 days"

    def test_empty_selection_never_occurs(self):
        row = sweep_table([], [0.1 * BAR], HORIZON_S)[0]
        assert row.n_components == 0
        assert math.isinf(row.interval.seconds)
        assert row.interval.text == "never"

    def test_negative_values_counted_by_magnitude(self):
        components = comps([0.3])
        flipped = [make_component(("p0",), value_bar=-0.3)]
        assert (sweep_table(flipped, [0.2 * BAR], HORIZON_S)[0].n_components
                == sweep_table(components[:1], [0.2 * BAR], HORIZON_S)[0].n_components)

    def test_default_ladder(self):
        assert len(DEFAULT_THRESHOLDS_PA) == 10
        assert DEFAULT_THRESHOLDS_PA[0] == pytest.approx(0.1 * BAR)
        assert DEFAULT_THRESHOLDS_PA[-1] == pytest.approx(1.0 * BAR)

    def test_rows_formatting(self):
        components = comps([1.0] * 10)
        rows = sweep_table(components, [0.5 * BAR], HORIZON_S)
        text = sweep_rows(rows)
        assert text[0][0] == "0.5"
        assert text[0][1] == "10"
        assert text[0][2] == "15"
        assert text[0][3] == "10 days"
        empty = sweep_rows(sweep_table([], [0.5 * BAR], HORIZON_S))
        assert empty[0][4] == "inf"


def centers(x, y, resolution):
    """hex_center over lists, as a list of (cx, cy) reprs."""
    cx, cy = hex_center(np.array(x, dtype=float), np.array(y, dtype=float), resolution)
    return [(repr(a), repr(b)) for a, b in zip(cx.tolist(), cy.tolist())]


def brute_hex_center_repr(x, y, resolution):
    return tuple(repr(value) for value in brute_hex_center(x, y, resolution))


@st.composite
def lattice_points(draw):
    """Points drawn at random, at hexagon centres, at midpoints between
    adjacent centres and at hexagon vertices, where distances tie."""
    resolution = draw(st.sampled_from([0.05, 0.1, 0.25]))
    kind = draw(st.sampled_from(["free", "center", "midpoint", "vertex"]))
    if kind == "free":
        return (draw(st.floats(min_value=-8.0, max_value=8.0)),
                draw(st.floats(min_value=-8.0, max_value=8.0)), resolution)
    dx, dy = math.sqrt(3.0) * resolution, 1.5 * resolution
    i, j = draw(st.integers(-30, 30)), draw(st.integers(-30, 30))
    cx, cy = (i + 0.5 * (j & 1)) * dx, j * dy
    if kind == "center":
        return cx, cy, resolution
    if kind == "midpoint":
        # one of the six neighbours; rows shift by half a column
        di, dj = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (-1, -1)]))
        if dj:
            di += j & 1
        nx, ny = (i + di + 0.5 * ((j + dj) & 1)) * dx, (j + dj) * dy
        return 0.5 * (cx + nx), 0.5 * (cy + ny), resolution
    ox, oy = draw(st.sampled_from([(0.0, 1.0), (0.0, -1.0), (0.5, 0.5), (0.5, -0.5),
                                   (-0.5, 0.5), (-0.5, -0.5)]))
    return cx + ox * dx, cy + oy * resolution, resolution


class TestHexCenter:
    def test_origin(self):
        assert centers([0.0], [0.0], 0.1) == [("0.0", "0.0")]

    def test_odd_row_offset(self):
        dx = math.sqrt(3.0) * 0.1
        cx, cy = hex_center(np.array([0.5 * dx]), np.array([0.15]), 0.1)
        assert cy[0] == pytest.approx(0.15)
        assert cx[0] == pytest.approx(0.5 * dx)

    def test_no_negative_zero(self):
        # np.rint(-0.2) is -0.0, which would print as a different centre
        assert centers([-0.02, 0.02, -0.02], [-0.02, -0.02, 0.02], 0.1) == [("0.0", "0.0")] * 3

    @settings(max_examples=300)
    @given(st.lists(lattice_points(), min_size=1, max_size=20))
    def test_matches_brute_search(self, points):
        for resolution in {r for _, _, r in points}:
            xs = [x for x, _, r in points if r == resolution]
            ys = [y for _, y, r in points if r == resolution]
            assert centers(xs, ys, resolution) == [brute_hex_center_repr(x, y, resolution)
                                                   for x, y in zip(xs, ys)]

    @given(st.lists(st.tuples(st.floats(min_value=-8.0, max_value=8.0),
                              st.floats(min_value=-8.0, max_value=8.0)), min_size=1))
    def test_within_circumradius(self, points):
        x, y = np.array(points).T
        cx, cy = hex_center(x, y, 0.1)
        assert (np.hypot(x - cx, y - cy) <= 0.1 * (1.0 + 1e-9)).all()


def bin_points(points, **kwargs):
    """hexbin over (alpha per 10 km, ratio) tuples."""
    alpha, ratio = np.array(points, dtype=float).reshape(len(points), 2).T
    return hexbin(alpha, ratio, **kwargs)


class TestHexbin:
    def test_basic_binning(self):
        # both points sit in the unit-log hexagon at (log10 1, log10 1)
        result = bin_points([(1.0, 1.0), (1.01, 0.99)], resolution=0.1)
        assert result.bins == [HexBin(0.0, 0.0, 2)]
        assert result.total_points == 2
        assert result.sentinel_points == 0
        assert result.suppressed_points == 0

    def test_sign_of_alpha_ignored(self):
        result = bin_points([(-1.0, 1.0)], resolution=0.1)
        assert result.bins == [HexBin(0.0, 0.0, 1)]

    def test_sentinels(self):
        points = [(0.0, 1.0), (1.0, 0.0), (1.0, math.inf), (math.nan, 1.0)]
        result = bin_points(points)
        assert result.bins == []
        assert result.sentinel_points == 4

    def test_min_count_suppression_conserves(self):
        points = [(1.0, 1.0), (1.0, 1.0), (100.0, 100.0)]
        result = bin_points(points, min_count=2)
        assert [b.count for b in result.bins] == [2]
        assert result.suppressed_points == 1
        binned = sum(b.count for b in result.bins)
        assert binned + result.suppressed_points + result.sentinel_points \
            == result.total_points

    @given(st.lists(st.tuples(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False)), max_size=60))
    def test_conservation_property(self, points):
        result = bin_points(points, resolution=0.2, min_count=2)
        binned = sum(b.count for b in result.bins)
        assert binned + result.suppressed_points + result.sentinel_points \
            == result.total_points

    def test_validation(self):
        with pytest.raises(ValueError):
            bin_points([], resolution=0.0)
        with pytest.raises(ValueError):
            bin_points([], min_count=0)

    def test_rows_sorted_and_formatted(self):
        result = bin_points([(100.0, 100.0), (1.0, 1.0), (0.5, 3.0)], resolution=0.1)
        rows = hexbin_rows(result)
        assert len(rows) == 3
        assert [r[2] for r in rows] == ["1", "1", "1"]
        assert rows == sorted(rows, key=lambda r: (float(r[0]), float(r[1])))

    @settings(max_examples=300)
    @given(st.lists(lattice_points(), max_size=30), st.data())
    def test_runs_match_unique_rows(self, points, data):
        # each point up to three times, in any order, at one resolution
        resolution = points[0][2] if points else 0.1
        finite = [(10.0 ** x, 10.0 ** y) for x, y, r in points if r == resolution
                  for _ in range(data.draw(st.integers(1, 3)))]
        min_count = data.draw(st.integers(1, 4))
        result = bin_points(data.draw(st.permutations(finite + [(0.0, 1.0)])),
                            resolution=resolution, min_count=min_count)
        # hexbin before the run split: np.unique over the rows of centers
        x, y = (np.array([math.log10(v) for v in values], dtype=float)
                for values in np.array(finite, dtype=float).reshape(-1, 2).T)
        centers, counts = np.unique(np.stack(hex_center(x, y, resolution), axis=1), axis=0,
                                    return_counts=True)
        kept = counts >= min_count
        assert [(b.cx, b.cy, b.count) for b in result.bins] == [
            (cx, cy, count) for (cx, cy), count in zip(centers[kept].tolist(),
                                                       counts[kept].tolist())]
        assert result.suppressed_points == int(counts[~kept].sum())

    @given(st.lists(st.tuples(st.floats(min_value=1e-6, max_value=1e6),
                              st.floats(min_value=1e-6, max_value=1e6)), max_size=40))
    def test_counts_match_point_by_point_binning(self, points):
        result = bin_points(points, resolution=0.25)
        expected = {}
        for alpha, ratio in points:
            key = brute_hex_center(math.log10(alpha), math.log10(ratio), 0.25)
            expected[key] = expected.get(key, 0) + 1
        assert [(b.cx, b.cy, b.count) for b in result.bins] == [
            (cx, cy, count) for (cx, cy), count in sorted(expected.items())]
