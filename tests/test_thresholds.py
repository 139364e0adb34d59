import math

from hypothesis import given, strategies as st
import numpy as np
import pytest

from gasinertia.model import BAR, KNM3H, GasParams, PipeGeometry
from gasinertia.physics import term_ratio
from gasinertia.thresholds import (
    RelevanceClass,
    ThresholdConfig,
    check_inversion,
    classify_absolute,
    derive_min_flow_change,
    pipe_relevant,
    prefilter,
)


def relevance(alpha_pa, beta_pa, cfg, length_m: float = 10_000.0) -> list[bool]:
    """pipe_relevant over arrays of alpha and beta on pipes of one length."""
    alpha, beta = np.array(alpha_pa, dtype=float), np.array(beta_pa, dtype=float)
    return pipe_relevant(alpha / length_m, term_ratio(alpha, beta), cfg).tolist()


class TestConfig:
    def test_defaults(self):
        cfg = ThresholdConfig()
        assert cfg.abs_small_pa == 0.1 * BAR
        assert cfg.abs_high_pa == 0.5 * BAR
        assert cfg.ratio_min == 0.01
        assert cfg.min_flow_change_m3s == 0.5 * KNM3H
        assert cfg.realistic_flow_change_m3s == 2000.0 * KNM3H
        # 0.1 bar over 200 km
        assert cfg.per_length_min_pam == pytest.approx(0.05, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdConfig(abs_small_pa=1.0, abs_high_pa=0.5)
        with pytest.raises(ValueError):
            ThresholdConfig(ratio_min=0.0)
        with pytest.raises(ValueError):
            ThresholdConfig(min_flow_change_m3s=-1.0)


class TestDerivedFlowChange:
    def test_reference_value(self):
        # 200 km, DN150, tau 180 s, rho 0.9, threshold 0.1 bar
        dq = derive_min_flow_change(200e3, 180.0, 0.15, 0.9, 0.1 * BAR)
        assert dq == pytest.approx(0.17671458676442586, rel=1e-14)
        assert dq / KNM3H == pytest.approx(0.6361725123519331, rel=1e-14)

    def test_monotonicity(self):
        base = derive_min_flow_change(200e3, 180.0, 0.15, 0.9, 0.1 * BAR)
        assert derive_min_flow_change(400e3, 180.0, 0.15, 0.9, 0.1 * BAR) < base
        assert derive_min_flow_change(200e3, 90.0, 0.15, 0.9, 0.1 * BAR) < base
        assert derive_min_flow_change(200e3, 180.0, 0.30, 0.9, 0.1 * BAR) > base
        assert derive_min_flow_change(200e3, 180.0, 0.15, 0.45, 0.1 * BAR) > base

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            derive_min_flow_change(0.0, 180.0, 0.15, 0.9, 0.1 * BAR)

    @pytest.mark.parametrize("position", range(5))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, position, value):
        args = [200e3, 180.0, 0.15, 0.9, 0.1 * BAR]
        args[position] = value
        with pytest.raises(ValueError, match="must be finite"):
            derive_min_flow_change(*args)

    def test_rejects_a_result_that_overflows(self):
        with pytest.raises(ValueError, match="overflows"):
            derive_min_flow_change(200e3, 1e308, 0.15, 0.9, 0.1 * BAR)
        assert derive_min_flow_change(200e3, 180.0, 0.15, 0.9, 0.0) == 0.0

    @given(st.floats(min_value=1e3, max_value=1e6),
           st.floats(min_value=1.0, max_value=3600.0),
           st.floats(min_value=0.05, max_value=1.5),
           st.floats(min_value=0.55, max_value=1.3),
           st.floats(min_value=1.0, max_value=1e6))
    def test_inversion_property(self, l_max, tau, d_min, rho, abs_small):
        geom = PipeGeometry(length_m=l_max, diameter_m=d_min)
        alpha = check_inversion(geom, rho, tau, abs_small)
        assert alpha == pytest.approx(abs_small, rel=1e-12)


class TestClassification:
    def test_grades(self):
        cfg = ThresholdConfig()
        assert classify_absolute(0.0, cfg) is RelevanceClass.NONE
        assert classify_absolute(0.09 * BAR, cfg) is RelevanceClass.NONE
        assert classify_absolute(0.1 * BAR, cfg) is RelevanceClass.SMALL
        assert classify_absolute(-0.3 * BAR, cfg) is RelevanceClass.SMALL
        assert classify_absolute(0.5 * BAR, cfg) is RelevanceClass.HIGH
        assert classify_absolute(-2.0 * BAR, cfg) is RelevanceClass.HIGH

    def test_boundaries_inclusive(self):
        cfg = ThresholdConfig()
        assert classify_absolute(cfg.abs_small_pa, cfg) is RelevanceClass.SMALL
        assert classify_absolute(cfg.abs_high_pa, cfg) is RelevanceClass.HIGH

    def test_labels_round_trip(self):
        for cls in RelevanceClass:
            assert RelevanceClass.from_label(cls.label) is cls
        assert RelevanceClass.SMALL.label == "small"

    def test_ordering(self):
        assert RelevanceClass.NONE < RelevanceClass.SMALL < RelevanceClass.HIGH


class TestPrefilter:
    def test_inclusive_boundary(self):
        cfg = ThresholdConfig()
        assert prefilter(0.0, cfg.min_flow_change_m3s, cfg)
        assert prefilter(0.0, -cfg.min_flow_change_m3s, cfg)
        assert not prefilter(0.0, 0.999 * cfg.min_flow_change_m3s, cfg)

    def test_only_change_matters(self):
        cfg = ThresholdConfig()
        assert not prefilter(500.0, 500.0, cfg)


class TestPipeRelevance:
    def test_both_conditions_required(self):
        cfg = ThresholdConfig()
        # per-length passes (0.5 Pa/m) and ratio passes; ratio too small;
        # per-length too small: 10 Pa over 10 km
        assert relevance([5000.0, 5000.0, 10.0], [1000.0, 1e7, 1.0], cfg) == [True, False, False]

    def test_sign_ignored(self):
        cfg = ThresholdConfig()
        assert relevance([-5000.0, 5000.0], [1000.0, -1000.0], cfg) == [True, True]

    def test_zero_friction_sentinel_is_relevant(self):
        cfg = ThresholdConfig()
        assert relevance([5000.0, 0.0], [0.0, 0.0], cfg) == [True, False]

    def test_boundary_inclusive(self):
        cfg = ThresholdConfig()
        size, ratio = cfg.per_length_min_pam, cfg.ratio_min
        assert pipe_relevant(np.array([size, -size, np.nextafter(size, 0.0), size]),
                             np.array([ratio, ratio, ratio, np.nextafter(ratio, 0.0)]),
                             cfg).tolist() == [True, True, False, False]
