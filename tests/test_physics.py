import math
import sys

from hypothesis import example, given, strategies as st
import numpy as np
import pytest

from gasinertia.model import BAR, KNM3H, Diagnostics, GasParams, PipeGeometry
from gasinertia.physics import (
    PipeTable,
    RE_LAMINAR_LIMIT,
    Z_FLOOR,
    compressibility,
    friction_and_remainder,
    friction_factor,
    friction_term_beta,
    inertia_term_alpha,
    remaining_terms_gamma,
    reynolds_number,
    specific_gas_constant,
    term_ratio,
)

from oracles import (chen_lambda, colebrook_friction, friction_beta, friction_factor_two_branch,
                     inertia_alpha, papay_z)

GAS = GasParams()
# Shared reference pipe: 100 km, DN900, slightly rough, mild climb.
GEOM = PipeGeometry(length_m=100_000.0, diameter_m=0.9, roughness_m=1e-5, slope=0.002)
RHO_N = 0.8


class TestGasConstant:
    def test_value(self):
        # 101325 / (0.9 * 273.15), checked by hand
        assert specific_gas_constant(0.9) == pytest.approx(412.1666971749344, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            specific_gas_constant(0.0)


class TestCompressibility:
    def test_vacuum_limit_is_exact(self):
        assert compressibility(0.0, GAS) == 1.0

    def test_reference_values(self):
        assert compressibility(50.0 * BAR, GAS) == pytest.approx(0.8845734682633022, rel=1e-14)
        assert compressibility(10.0 * BAR, GAS) == pytest.approx(0.9737233794824941, rel=1e-14)
        assert compressibility(60.0 * BAR, GAS) == pytest.approx(0.8662751331712123, rel=1e-14)

    def test_monotone_down_in_operating_band(self):
        zs = [compressibility(p * BAR, GAS) for p in (1.0, 10.0, 30.0, 60.0, 84.0)]
        assert all(a > b for a, b in zip(zs, zs[1:]))

    def test_clamp_counts_diagnostic(self):
        cold = GasParams(temperature_k=172.8)
        diag = Diagnostics()
        z = compressibility(211.0 * BAR, cold, diag)
        assert z == Z_FLOOR
        assert diag.z_clamped == 1

    def test_rejects_negative_pressure(self):
        with pytest.raises(ValueError):
            compressibility(-1.0, GAS)

    @given(st.floats(min_value=0.0, max_value=100.0 * BAR))
    def test_bounded_in_operating_band(self, p):
        z = compressibility(p, GAS)
        assert Z_FLOOR <= z <= 1.0


class TestFriction:
    def test_zero_flow_short_circuits(self):
        assert friction_factor(0.0, GEOM, GAS) == 0.0

    def test_laminar_fallback(self):
        area = GEOM.area_m2
        # pick the mass flow giving Re = 1000
        mf = 1000.0 * area * GAS.dynamic_viscosity_pas / GEOM.diameter_m
        assert reynolds_number(mf, GEOM, GAS) == pytest.approx(1000.0, rel=1e-12)
        assert friction_factor(mf, GEOM, GAS) == pytest.approx(0.064, rel=1e-12)

    def test_reference_value(self):
        geom = PipeGeometry(1000.0, 1.0, roughness_m=1e-4)
        mf = 1e7 * geom.area_m2 * GAS.dynamic_viscosity_pas / geom.diameter_m
        lam = friction_factor(mf, geom, GAS)
        assert lam == pytest.approx(0.01217387064205198, rel=1e-14)
        assert lam == pytest.approx(colebrook_friction(1e7, 1e-4), rel=0.01)

    def test_nan_flow_is_not_hidden(self):
        assert math.isnan(friction_factor(math.nan, GEOM, GAS))

    def test_sign_invariant(self):
        assert friction_factor(50.0, GEOM, GAS) == friction_factor(-50.0, GEOM, GAS)

    def test_out_of_validity_diagnostic(self):
        rough = PipeGeometry(1000.0, 0.1, roughness_m=0.006)
        diag = Diagnostics()
        lam = friction_factor(100.0, rough, GAS, diag)
        assert lam > 0.0
        assert diag.friction_out_of_validity == 1

    @given(st.floats(min_value=1e4, max_value=1e8),
           st.floats(min_value=1e-6, max_value=0.049))
    def test_chen_tracks_colebrook(self, re, rr):
        geom = PipeGeometry(1000.0, 1.0, roughness_m=rr)
        mf = re * geom.area_m2 * GAS.dynamic_viscosity_pas / geom.diameter_m
        lam = friction_factor(mf, geom, GAS)
        assert lam == pytest.approx(colebrook_friction(re, rr), rel=0.01)

    # mass flows in kg/s: 1e-3 is laminar, 100 turbulent on every pipe below
    @pytest.mark.parametrize("flows", [
        [100.0, -250.0, 3e4], [100.0, 1e-3, -100.0, 0.0], [0.0, 0.0, 0.0],
        [100.0, math.nan, 200.0], [math.nan], 100.0, -1e-3, 0.0, math.nan],
        ids=["all turbulent", "mixed", "zero", "nan among turbulent", "nan", "scalar turbulent",
             "scalar laminar", "scalar zero", "scalar nan"])
    def test_one_branch_matches_two_branches_bit_for_bit(self, flows):
        """The laminar branch is skipped only when every entry is turbulent,
        and the result is the two-branch select's, bits, type and shape."""
        geoms = [GEOM, PipeGeometry(1000.0, 0.1, roughness_m=0.006), PipeGeometry(50.0, 0.2)]
        cases = [(flows, GEOM)] if np.ndim(flows) == 0 else [
            (np.array(flows), PipeTable.of([geoms[k % 3] for k in range(len(flows))])),
            (np.array(flows)[:1], PipeTable.of(geoms))]
        for flow, pipes in cases:
            table = pipes if isinstance(pipes, PipeTable) else PipeTable.of(pipes)
            lam = friction_factor(flow, pipes, GAS)
            expected = friction_factor_two_branch(flow, table, GAS)
            assert type(lam) is type(expected)
            assert np.shape(lam) == np.shape(expected)
            assert np.asarray(lam).tobytes() == np.asarray(expected).tobytes()


class TestTerms:
    """Frozen reference: Q0 1000 -> 1100 kNm3/h over tau=180 s at 60/50 bar."""

    FLOW_T0 = 1000.0 * KNM3H
    FLOW_T1 = 1100.0 * KNM3H
    P_L = 60.0 * BAR
    P_R = 50.0 * BAR

    def test_alpha(self):
        alpha = inertia_term_alpha(GEOM, RHO_N, 180.0, self.FLOW_T0, self.FLOW_T1)
        assert alpha == pytest.approx(19406.181142130197, rel=1e-13)

    def test_alpha_zero_when_steady(self):
        assert inertia_term_alpha(GEOM, RHO_N, 180.0, self.FLOW_T0, self.FLOW_T0) == 0.0

    def test_alpha_antisymmetric(self):
        up = inertia_term_alpha(GEOM, RHO_N, 180.0, self.FLOW_T0, self.FLOW_T1)
        down = inertia_term_alpha(GEOM, RHO_N, 180.0, self.FLOW_T1, self.FLOW_T0)
        assert up == -down

    def test_alpha_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            inertia_term_alpha(GEOM, RHO_N, 0.0, 0.0, 1.0)

    def test_beta(self):
        # uses Q0(t1) only; checked against a scalar hand computation
        beta = friction_term_beta(GEOM, GAS, RHO_N, 1000.0 * KNM3H, self.P_L, self.P_R)
        assert beta == pytest.approx(1214824.2253744912, rel=1e-13)

    def test_beta_odd_in_flow(self):
        fwd = friction_term_beta(GEOM, GAS, RHO_N, self.FLOW_T1, self.P_L, self.P_R)
        rev = friction_term_beta(GEOM, GAS, RHO_N, -self.FLOW_T1, self.P_L, self.P_R)
        assert fwd == -rev
        assert fwd > 0.0

    def test_gamma(self):
        gamma = remaining_terms_gamma(GEOM, GAS, RHO_N, 1000.0 * KNM3H, self.P_L, self.P_R)
        assert gamma == pytest.approx(94396.61072344787, rel=1e-13)

    def test_gamma_gravity_only_at_rest(self):
        gamma = remaining_terms_gamma(GEOM, GAS, RHO_N, 0.0, self.P_L, self.P_R)
        assert gamma == pytest.approx(93875.38635987548, rel=1e-13)

    def test_pressures_must_be_positive(self):
        with pytest.raises(ValueError):
            friction_term_beta(GEOM, GAS, RHO_N, 1.0, 0.0, self.P_R)
        with pytest.raises(ValueError):
            remaining_terms_gamma(GEOM, GAS, RHO_N, 1.0, self.P_L, -1.0)


class TestTermRatio:
    def test_plain(self):
        assert term_ratio(2.0, -4.0) == 0.5

    def test_sentinels(self):
        assert term_ratio(1.0, 0.0) == math.inf
        assert term_ratio(0.0, 0.0) == 0.0

    def test_elementwise(self):
        ratios = term_ratio(np.array([2.0, 1.0, 0.0, -3.0]), np.array([-4.0, 0.0, 0.0, 1.5]))
        assert ratios.tolist() == [0.5, math.inf, 0.0, 2.0]

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32),
           st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_nonnegative(self, a, b):
        assert term_ratio(a, b) >= 0.0


class TestArrayKernel:
    """The array kernel against the plain-math oracle, element by element."""

    # (length, diameter, relative roughness, rho_n, Re with sign, dQ, p_l, p_r, tau)
    @staticmethod
    def check(points, gas):
        geoms = [PipeGeometry(p[0], p[1], roughness_m=p[2] * p[1]) for p in points]
        table = PipeTable.of(geoms)
        rho = np.array([p[3] for p in points])
        # flows realizing the drawn Reynolds numbers
        q1 = np.array([p[4] * g.area_m2 * gas.dynamic_viscosity_pas / (g.diameter_m * p[3])
                       for g, p in zip(geoms, points)])
        q0 = q1 - np.array([p[5] for p in points])
        p_l = np.array([p[6] for p in points])
        p_r = np.array([p[7] for p in points])
        tau = np.array([p[8] for p in points])
        diag = Diagnostics()
        z = compressibility(0.5 * (p_l + p_r), gas)
        lam = friction_factor(rho * q1, table, gas)
        alpha = inertia_term_alpha(table, rho, tau, q0, q1)
        beta = friction_term_beta(table, gas, rho, q1, p_l, p_r, diag)
        clamps = breaches = 0
        for i, (geo, point) in enumerate(zip(geoms, points)):
            args = (gas.temperature_k, gas.pseudo_critical_pressure_pa,
                    gas.pseudo_critical_temperature_k)
            ref_z, _ = papay_z(0.5 * (p_l[i] + p_r[i]), *args)
            re = abs(rho[i] * q1[i]) * geo.diameter_m / (geo.area_m2 * gas.dynamic_viscosity_pas)
            ref_lam, _ = chen_lambda(re, point[2])
            ref_alpha = inertia_alpha(geo.length_m, geo.diameter_m, rho[i], tau[i], q0[i], q1[i])
            ref_beta, clamped, invalid = friction_beta(
                geo.length_m, geo.diameter_m, geo.roughness_m, rho[i], q1[i], p_l[i], p_r[i],
                *args, gas.dynamic_viscosity_pas)
            clamps += clamped
            breaches += invalid
            for got, want in ((z[i], ref_z), (lam[i], ref_lam), (alpha[i], ref_alpha),
                              (beta[i], ref_beta)):
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (i, got, want)
        assert diag.z_clamped == clamps
        assert diag.friction_out_of_validity == breaches
        return clamps, breaches, lam

    # Re stays clear of 2320, where rounding of Re alone picks the branch
    point = st.tuples(
        st.floats(1e3, 2e5), st.floats(0.1, 1.5), st.floats(0.0, 0.08),
        st.floats(0.55, 1.3),
        st.one_of(st.just(0.0), st.floats(1.0, 2300.0), st.floats(2340.0, 1e8),
                  st.floats(-1e8, -2340.0)),
        # a subnormal dQ carries too few significant bits for a relative
        # comparison: at 5e-324 the kernel's alpha is 5.114e-321, the
        # oracle's 5.11e-321
        st.floats(-10.0, 10.0, allow_subnormal=False), st.floats(1e5, 250e5),
        st.floats(1e5, 250e5), st.floats(1.0, 3600.0))

    @given(st.lists(point, min_size=1, max_size=8), st.sampled_from([172.8, 283.15]))
    # the smallest normal dQ, on the zero-flow branch
    @example([(1000.0, 1.0, 0.0, 0.8125, 0.0, sys.float_info.min, 1e5, 1e5, 1.0)], 172.8)
    def test_matches_oracle(self, points, temperature_k):
        self.check(points, GasParams(temperature_k=temperature_k))

    def test_every_regime_at_once(self):
        base = (50e3, 0.5, 1e-4, 0.8)
        points = [base + (0.0, 1.0, 50e5, 45e5, 180.0),          # zero flow
                  base + (1000.0, 0.01, 50e5, 45e5, 180.0),      # laminar
                  base + (-5e6, -3.0, 50e5, 45e5, 180.0),        # turbulent
                  (50e3, 0.5, 0.06, 0.8, 5e6, 3.0, 50e5, 45e5, 180.0),  # beyond rr ceiling
                  base + (5e6, 0.0, 215e5, 207e5, 180.0)]        # clamped z at 172.8 K
        clamps, breaches, lam = self.check(points, GasParams(temperature_k=172.8))
        assert (clamps, breaches) == (1, 1)
        assert lam[0] == 0.0
        assert lam[1] == pytest.approx(0.064, rel=1e-12)

    def test_scalar_input_gives_float(self):
        assert type(friction_factor(50.0, GEOM, GAS)) is float
        assert type(term_ratio(1.0, 0.0)) is float


class TestFrictionAndRemainder:
    """The shared evaluation gives friction_term_beta's and
    remaining_terms_gamma's floats bit for bit, and fails as they do."""

    # at rest, laminar and turbulent; near-zero flows overflow beta's
    # 64 / Re in both
    flow = st.one_of(st.just(0.0), st.floats(1e-6, 50.0), st.floats(-50.0, -1e-6))

    @given(st.lists(st.tuples(flow, st.floats(1e5, 250e5),
                              st.floats(1e5, 250e5), st.floats(0.55, 1.3)),
                    min_size=1, max_size=8),
           st.sampled_from([172.8, 283.15]))
    def test_bits_equal_the_separate_terms(self, points, temperature_k):
        gas = GasParams(temperature_k=temperature_k)
        q, p_l, p_r, rho = (np.array(column) for column in zip(*points))
        n = len(points)
        table = PipeTable.of([GEOM] * n)
        # each pipe between nodes of its own, and a ring of pipes i from
        # node i to node i + 1, which share their nodes
        for nodes, ends in ((np.concatenate([p_l, p_r]), np.arange(2 * n)),
                            (p_l, np.r_[np.arange(n), (np.arange(n) + 1) % n])):
            left, right = nodes[ends[:n]], nodes[ends[n:]]
            for rho_n in (RHO_N, float(rho[0])):
                beta, gamma = friction_and_remainder(table, gas, rho_n, q, nodes, ends)
                assert beta.tobytes() == \
                    friction_term_beta(table, gas, rho_n, q, left, right).tobytes()
                assert gamma.tobytes() == \
                    remaining_terms_gamma(table, gas, rho_n, q, left, right).tobytes()
                # a batch of node pressures, one set per row
                rows = friction_and_remainder(table, gas, rho_n, q, np.array([nodes, nodes]),
                                              ends)
                assert rows[0].tobytes() == np.array([beta, beta]).tobytes()
                assert rows[1].tobytes() == np.array([gamma, gamma]).tobytes()

    def test_fails_as_the_separate_terms(self):
        table = PipeTable.of(GEOM)
        ends = np.array([0, 1])
        for rho_n, q, p_l, p_r in ((RHO_N, 1.0, 0.0, 50e5), (RHO_N, 1.0, 50e5, np.nan),
                                   (0.0, 1.0, 50e5, 45e5)):
            with pytest.raises(ValueError) as shared:
                friction_and_remainder(table, GAS, rho_n, q, np.array([p_l, p_r]), ends)
            for term in (friction_term_beta, remaining_terms_gamma):
                with pytest.raises(ValueError) as alone:
                    term(table, GAS, rho_n, q, np.array([p_l]), np.array([p_r]))
                assert str(shared.value) == str(alone.value)
