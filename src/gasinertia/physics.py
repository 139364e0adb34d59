"""Term kernels of the discretized isothermal momentum equation.

For one pipe between nodes l (from) and r (to) and two consecutive
timestamps t0, t1 with spacing tau, the discretized momentum balance is

    p_l(t1) - p_r(t1) = alpha + beta + gamma

with

    alpha = L rho_n / (A tau) * (Q0(t1) - Q0(t0))               inertia
    beta  = lam R_s T L rho_n^2 / (2 A^2 D) * |Q0|Q0 * z(p_m)/p_m   friction
    gamma = kinetic + gravity                                    remainder

where Q0 is volumetric flow at normal conditions, q = rho_n Q0 the mass
flow, p_m = (p_l + p_r)/2, z the Papay compressibility factor and lam the
Chen explicit friction factor.  The kinetic and gravity parts of gamma use
the same average-flow substitution q_l = q_r = rho_n Q0(t1).

These functions are the only implementation of the terms: the scan
evaluates them for its surviving data points and the synthetic simulator
solves the balance they define, with beta and gamma from one call of
friction_and_remainder, built from the same private pieces.  That one
takes the pressures of the nodes and the positions of the pipes' ends
among them, so that z/p is evaluated once per node.  Every other function
takes scalars or numpy arrays (elementwise, broadcasting) and returns a
float for scalar input.
The geometry argument is one PipeGeometry or a PipeTable of many pipes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
import math
from typing import Sequence

import numpy as np

from .model import (
    GRAVITY_MS2,
    NORMAL_PRESSURE_PA,
    NORMAL_TEMPERATURE_K,
    Diagnostics,
    GasParams,
    PipeGeometry,
)

# Below this Reynolds number the laminar fallback 64/Re applies.
RE_LAMINAR_LIMIT = 2320.0

# Chen correlation validity ceiling for relative roughness.
RELATIVE_ROUGHNESS_LIMIT = 0.05

# Compressibility is clamped here to keep beta finite at extreme states.
Z_FLOOR = 0.1


@dataclass(frozen=True)
class PipeTable:
    """Per-pipe constants of the term kernels.

    Each field holds one entry per pipe (floats for a single pipe).  Build
    the table once per network so repeated kernel calls do no geometry work.
    """

    length_m: np.ndarray
    inertia: np.ndarray        # L / A
    friction: np.ndarray       # L / (2 A^2 D)
    kinetic: np.ndarray        # 1 / A^2
    climb_m: np.ndarray        # slope L
    reynolds: np.ndarray       # D / A
    chen_rough: np.ndarray     # rr^1.1098 / 2.8257
    chen_offset: np.ndarray    # rr / 3.7065
    rough_invalid: np.ndarray  # rr at or beyond the Chen validity ceiling

    @classmethod
    def of(cls, geometry: PipeGeometry | Sequence[PipeGeometry]) -> "PipeTable":
        if isinstance(geometry, PipeGeometry):
            columns = (geometry.length_m, geometry.diameter_m, geometry.area_m2,
                       geometry.roughness_m, geometry.slope)
        else:
            columns = np.array([(g.length_m, g.diameter_m, g.area_m2, g.roughness_m, g.slope)
                                for g in geometry], dtype=float).reshape(-1, 5).T
        length, diameter, area, roughness, slope = columns
        rr = roughness / diameter
        return cls(length, length / area, length / (2.0 * area * area * diameter),
                   1.0 / (area * area), slope * length, diameter / area,
                   rr ** 1.1098 / 2.8257, rr / 3.7065, rr >= RELATIVE_ROUGHNESS_LIMIT)

    def take(self, index: np.ndarray) -> "PipeTable":
        """Table with one row per entry of index (pipe positions may repeat)."""
        # fields, not astuple, which deep-copies every column first
        return PipeTable(*(np.take(getattr(self, field.name), index) for field in fields(self)))


def _table(geometry: PipeGeometry | PipeTable) -> PipeTable:
    return geometry if isinstance(geometry, PipeTable) else PipeTable.of(geometry)


def _plain(value):
    """A float for scalar evaluations, the array itself otherwise."""
    return value if isinstance(value, np.ndarray) and value.ndim else float(value)


def _require_positive(what: str, value) -> None:
    # NaN fails the comparison and is rejected with the non-positive values
    if not np.asarray(value).min(initial=math.inf) > 0.0:
        raise ValueError(f"{what} must be positive, got {value}")


def specific_gas_constant(rho_n_kgm3):
    """R_s in J/(kg K) from the normal density of the mixture."""
    _require_positive("normal density", rho_n_kgm3)
    return _plain(NORMAL_PRESSURE_PA / (rho_n_kgm3 * NORMAL_TEMPERATURE_K))


def _papay(pressure_pa, gas: GasParams, diag: Diagnostics | None):
    t_r = gas.temperature_k / gas.pseudo_critical_temperature_k
    p_r = pressure_pa / gas.pseudo_critical_pressure_pa
    z = 1.0 + p_r * (0.274 * math.exp(-1.878 * t_r) * p_r - 3.52 * math.exp(-2.26 * t_r))
    if diag is not None:
        diag.z_clamped += int(np.count_nonzero(z < Z_FLOOR))
    return np.maximum(z, Z_FLOOR)


def compressibility(pressure_pa, gas: GasParams, diag: Diagnostics | None = None):
    """Papay compressibility factor z(p, T).

    z = 1 - 3.52 p_r exp(-2.26 T_r) + 0.274 p_r^2 exp(-1.878 T_r) with the
    reduced coordinates p_r = p / p_pc and T_r = T / T_pc.  Values below
    Z_FLOOR are clamped and each clamped element is counted in the
    diagnostics tally.
    """
    if not np.asarray(pressure_pa).min(initial=math.inf) >= 0.0:
        raise ValueError(f"pressure must be >= 0, got {pressure_pa}")
    return _plain(_papay(pressure_pa, gas, diag))


def reynolds_number(mass_flow_kgs, geometry: PipeGeometry | PipeTable, gas: GasParams):
    return _plain(np.abs(mass_flow_kgs) * _table(geometry).reynolds
                  / gas.dynamic_viscosity_pas)


def friction_factor(mass_flow_kgs, geometry: PipeGeometry | PipeTable, gas: GasParams,
                    diag: Diagnostics | None = None):
    """Darcy friction factor lambda for a circular pipe.

    Uses the explicit Chen correlation

        1/sqrt(lam) = -2 log10( rr/3.7065
                                - (5.0452/Re) log10( rr^1.1098/2.8257
                                                     + 5.8506/Re^0.8981 ) )

    with rr = k/D.  Re < 2320 falls back to laminar 64/Re, zero flow
    returns 0 (beta vanishes with the flow anyway), and rr beyond the
    validity ceiling is still evaluated but each such turbulent element is
    counted as a diagnostic.
    """
    pipes = _table(geometry)
    re = reynolds_number(mass_flow_kgs, pipes, gas)
    turbulent = re >= RE_LAMINAR_LIMIT
    if diag is not None:
        diag.friction_out_of_validity += int(np.count_nonzero(turbulent & pipes.rough_invalid))
    # Chen is evaluated everywhere on Re clipped into its range, so the
    # laminar entries it does not apply to stay finite
    re_t = np.maximum(re, RE_LAMINAR_LIMIT)
    inner = pipes.chen_rough + 5.8506 / re_t ** 0.8981
    chen = (-2.0 * np.log10(pipes.chen_offset - 5.0452 / re_t * np.log10(inner))) ** -2.0
    if np.all(turbulent):
        # a NaN flow is not turbulent, so it takes the laminar branch below
        return _plain(chen)
    # 64 / inf gives the zero-flow factor 0 without a division by zero;
    # a NaN flow stays NaN
    laminar = 64.0 / np.where(re == 0.0, math.inf, re)
    return _plain(np.where(turbulent, chen, laminar))


def inertia_term_alpha(geometry: PipeGeometry | PipeTable, rho_n_kgm3, tau_s,
                       flow_t0_m3s, flow_t1_m3s):
    """alpha = L rho_n / (A tau) * (Q0(t1) - Q0(t0)) in Pa."""
    _require_positive("tau", tau_s)
    return _plain(_table(geometry).inertia * rho_n_kgm3 / tau_s * (flow_t1_m3s - flow_t0_m3s))


def friction_term_beta(geometry: PipeGeometry | PipeTable, gas: GasParams, rho_n_kgm3,
                       flow_t1_m3s, p_left_pa, p_right_pa,
                       diag: Diagnostics | None = None):
    """Friction pressure drop beta in Pa, evaluated at the t1 state."""
    _require_positive_pressures(p_left_pa, p_right_pa)
    pipes = _table(geometry)
    p_m = 0.5 * (p_left_pa + p_right_pa)
    lam = friction_factor(rho_n_kgm3 * flow_t1_m3s, pipes, gas, diag)
    rt = specific_gas_constant(rho_n_kgm3) * gas.temperature_k
    return _plain(_beta(pipes, rho_n_kgm3, flow_t1_m3s, lam, rt, p_m, _papay(p_m, gas, diag)))


def remaining_terms_gamma(geometry: PipeGeometry | PipeTable, gas: GasParams, rho_n_kgm3,
                          flow_t1_m3s, p_left_pa, p_right_pa,
                          diag: Diagnostics | None = None):
    """Kinetic plus gravity remainder gamma in Pa, at the t1 state."""
    _require_positive_pressures(p_left_pa, p_right_pa)
    pipes = _table(geometry)
    rt = specific_gas_constant(rho_n_kgm3) * gas.temperature_k
    p_m = 0.5 * (p_left_pa + p_right_pa)
    z_over_p = (_papay(p_right_pa, gas, diag) / p_right_pa
                - _papay(p_left_pa, gas, diag) / p_left_pa)
    return _plain(_gamma(pipes, rho_n_kgm3 * flow_t1_m3s, rt, z_over_p, p_m,
                         _papay(p_m, gas, diag)))


def friction_and_remainder(pipes: PipeTable, gas: GasParams, rho_n_kgm3, flow_t1_m3s,
                           p_node_pa: np.ndarray, ends: np.ndarray):
    """(beta, gamma) as friction_term_beta and remaining_terms_gamma give
    them, bit for bit, of the pipes from the nodes at ends[:n] of p_node_pa's
    last axis to those at ends[n:]: the pressure check, R_s T, p_m and
    z(p_m) once for both, and z/p once per node in z(p_m)'s _papay call."""
    p_ends = p_node_pa.take(ends, axis=-1)
    n = ends.size // 2
    p_left, p_right = p_ends[..., :n], p_ends[..., n:]
    _require_positive_pressures(p_left, p_right)
    q = rho_n_kgm3 * flow_t1_m3s
    p_m = 0.5 * (p_left + p_right)
    lam = friction_factor(q, pipes, gas)
    rt = specific_gas_constant(rho_n_kgm3) * gas.temperature_k
    z = _papay(np.concatenate([p_m, p_node_pa], axis=-1), gas, None)
    z_m = z[..., :n]
    z_over_p = (z[..., n:] / p_node_pa).take(ends, axis=-1)
    return (_beta(pipes, rho_n_kgm3, flow_t1_m3s, lam, rt, p_m, z_m),
            _gamma(pipes, q, rt, z_over_p[..., n:] - z_over_p[..., :n], p_m, z_m))


def _beta(pipes: PipeTable, rho_n_kgm3, flow_t1_m3s, lam, rt, p_m, z_m):
    """beta from the friction factor lam, R_s T, p_m and z(p_m)."""
    return (rt * rho_n_kgm3 * rho_n_kgm3 * pipes.friction * lam
            * np.abs(flow_t1_m3s) * flow_t1_m3s * z_m / p_m)


def _gamma(pipes: PipeTable, q, rt, z_over_p, p_m, z_m):
    """gamma from the mass flow q, R_s T, z/p at the to end less z/p at the
    from end, p_m and z(p_m)."""
    return rt * pipes.kinetic * q * q * z_over_p + GRAVITY_MS2 / rt * pipes.climb_m * p_m / z_m


def _require_positive_pressures(p_left_pa, p_right_pa) -> None:
    if not np.asarray(np.minimum(p_left_pa, p_right_pa)).min(initial=math.inf) > 0.0:
        raise ValueError(
            f"endpoint pressures must be positive, got {p_left_pa}, {p_right_pa}")


def term_ratio(alpha_pa, beta_pa):
    """|alpha| / |beta| with an infinite sentinel when beta vanishes.

    Zero over zero is 0: a point without inertia and friction is not
    relevant.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(alpha_pa) / np.abs(beta_pa)
    both_zero = np.logical_and(np.equal(alpha_pa, 0.0), np.equal(beta_pa, 0.0))
    return _plain(np.where(both_zero, 0.0, ratio))


@dataclass(frozen=True)
class TermRecord:
    """Evaluated terms for one pipe over one time pair."""

    pipe_id: str
    pair: tuple[int, int]       # t0 and t1, instants as a History holds them
    flow_t0_m3s: float
    flow_t1_m3s: float
    alpha_pa: float
    beta_pa: float
    alpha_per_length_pam: float
    ratio: float

    @property
    def dflow_m3s(self) -> float:
        return self.flow_t1_m3s - self.flow_t0_m3s
