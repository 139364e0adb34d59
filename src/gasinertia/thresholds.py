"""Relevance thresholds for the inertia term.

A pipe data point is worth keeping when the inertia term is large both
per unit length and relative to friction; a connected structure of such
pipes is graded by the absolute pressure difference it can explain.
All comparisons are inclusive on the relevant side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
import math

from .model import BAR, KNM3H, ModelError, PipeGeometry, derived_area
from .physics import inertia_term_alpha


class RelevanceClass(IntEnum):
    """Ordered grading of inertia relevance."""

    NONE = 0
    SMALL = 1
    HIGH = 2

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "RelevanceClass":
        return cls[label.upper()]


@dataclass(frozen=True)
class ThresholdConfig:
    """Threshold set; defaults reflect transport-grid screening practice."""

    abs_small_pa: float = 0.1 * BAR
    abs_high_pa: float = 0.5 * BAR
    ratio_min: float = 0.01
    reference_length_m: float = 200e3
    min_flow_change_m3s: float = 0.5 * KNM3H
    realistic_flow_change_m3s: float = 2000.0 * KNM3H

    def __post_init__(self) -> None:
        if not 0.0 < self.abs_small_pa < self.abs_high_pa:
            raise ModelError(
                f"need 0 < abs_small < abs_high, got {self.abs_small_pa}, {self.abs_high_pa}",
                "abs_small_pa", "abs_high_pa")
        for name in ("ratio_min", "reference_length_m", "realistic_flow_change_m3s"):
            if not getattr(self, name) > 0.0:
                raise ModelError(f"{name} must be positive, got {getattr(self, name)}", name)
        if not self.min_flow_change_m3s >= 0.0:
            raise ModelError(f"min_flow_change_m3s must be >= 0, got {self.min_flow_change_m3s}",
                             "min_flow_change_m3s")

    @property
    def per_length_min_pam(self) -> float:
        # Derived, never stored: absolute threshold spread over the
        # reference length.
        return self.abs_small_pa / self.reference_length_m


def derive_min_flow_change(l_max_m: float, tau_min_s: float, d_min_m: float,
                           rho_max_kgm3: float, abs_small_pa: float) -> float:
    """Smallest flow change that can matter, in m^3/s.

    Inverts the inertia term for the most sensitive admissible pipe: the
    longest, narrowest pipe at the highest density and the shortest time
    step.  Flow changes below the result cannot push alpha above the
    absolute threshold anywhere in the network class described.
    """
    for name, value in (("l_max_m", l_max_m), ("tau_min_s", tau_min_s),
                        ("d_min_m", d_min_m), ("rho_max_kgm3", rho_max_kgm3),
                        ("abs_small_pa", abs_small_pa)):
        if not (0.0 < value < math.inf or name == "abs_small_pa" and value == 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    area = derived_area(PipeGeometry(length_m=l_max_m, diameter_m=d_min_m))
    dq = abs_small_pa * area * tau_min_s / (l_max_m * rho_max_kgm3)
    if not math.isfinite(dq):
        raise ValueError(f"the minimal flow change overflows for these parameters, got {dq}")
    return dq


def prefilter(flow_t0_m3s: float, flow_t1_m3s: float, cfg: ThresholdConfig) -> bool:
    """Keep a data point only when the flow change is measurable at all."""
    return abs(flow_t1_m3s - flow_t0_m3s) >= cfg.min_flow_change_m3s


def classify_absolute(alpha_pa: float, cfg: ThresholdConfig) -> RelevanceClass:
    """Grade |alpha| against the absolute pressure thresholds."""
    magnitude = abs(alpha_pa)
    if magnitude >= cfg.abs_high_pa:
        return RelevanceClass.HIGH
    if magnitude >= cfg.abs_small_pa:
        return RelevanceClass.SMALL
    return RelevanceClass.NONE


def pipe_relevant(alpha_per_length_pam, ratio, cfg: ThresholdConfig):
    """Per-pipe relevance, elementwise: length-normalized size and friction
    ratio."""
    return (abs(alpha_per_length_pam) >= cfg.per_length_min_pam) & (ratio >= cfg.ratio_min)


def check_inversion(geometry: PipeGeometry, rho_n_kgm3: float, tau_s: float,
                    abs_small_pa: float) -> float:
    """Round-trip helper: alpha at the derived minimal flow change.

    Feeding derive_min_flow_change back through the inertia term must
    reproduce the absolute threshold; used as a self check.
    """
    dq = derive_min_flow_change(geometry.length_m, tau_s, geometry.diameter_m,
                                rho_n_kgm3, abs_small_pa)
    return inertia_term_alpha(geometry, rho_n_kgm3, tau_s, 0.0, dq)
