"""Network topology, gas parameters and state history containers.

All quantities are SI internally: pressures in Pa, volumetric flows at
normal conditions in m^3/s, lengths in m, temperatures in K.  Conversion
from the file units (bar, 1000 Nm^3/h) happens once, at the I/O boundary.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from datetime import datetime
from enum import Enum
from functools import cached_property
import math

# Exact unit factors used at the I/O boundary.
BAR = 1.0e5                    # Pa per bar
KNM3H = 1000.0 / 3600.0        # (m^3/s) per 1000 Nm^3/h

# Normal (reference) conditions for volumetric flow and density.
NORMAL_PRESSURE_PA = 101325.0
NORMAL_TEMPERATURE_K = 273.15

GRAVITY_MS2 = 9.80665

# Accepted normal density band for natural gas mixtures.
RHO_N_MIN_KGM3 = 0.5
RHO_N_MAX_KGM3 = 1.3

SECONDS_PER_DAY = 86400.0


class ModelError(ValueError):
    """Raised when a value violates an invariant; fields names the ones it reads."""

    def __init__(self, message: str, *fields: str) -> None:
        super().__init__(message)
        self.fields = fields


class ElementKind(str, Enum):
    PIPE = "pipe"
    VALVE = "valve"
    RESISTOR = "resistor"
    REGULATOR = "regulator"
    COMPRESSOR = "compressor"


@dataclass(frozen=True)
class PipeGeometry:
    """Static geometry of one pipe segment."""

    length_m: float
    diameter_m: float
    roughness_m: float = 0.0
    slope: float = 0.0          # elevation gain per unit length, dimensionless

    def __post_init__(self) -> None:
        if not self.length_m > 0.0:
            raise ModelError(f"pipe length must be positive, got {self.length_m}")
        if not self.diameter_m > 0.0:
            raise ModelError(f"pipe diameter must be positive, got {self.diameter_m}")
        if not self.roughness_m >= 0.0:
            raise ModelError(f"pipe roughness must be >= 0, got {self.roughness_m}")
        if not abs(self.slope) < 1.0:
            raise ModelError(f"pipe slope must satisfy |s| < 1, got {self.slope}")

    @property
    def area_m2(self) -> float:
        return derived_area(self)


def derived_area(geometry: PipeGeometry) -> float:
    """Cross sectional area A = pi D^2 / 4 in m^2."""
    d = geometry.diameter_m
    return math.pi * d * d / 4.0


@dataclass(frozen=True)
class Node:
    node_id: str

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ModelError("node id must be non-empty")


@dataclass(frozen=True)
class Element:
    """One network arc: a pipe or a non-pipe facility between two nodes."""

    element_id: str
    kind: ElementKind
    from_node: str
    to_node: str
    geometry: PipeGeometry | None = None

    def __post_init__(self) -> None:
        if not self.element_id:
            raise ModelError("element id must be non-empty")
        if self.from_node == self.to_node:
            raise ModelError(f"element {self.element_id}: from_node == to_node")
        if self.kind is ElementKind.PIPE:
            if self.geometry is None:
                raise ModelError(f"pipe {self.element_id} requires geometry")
        elif self.geometry is not None:
            raise ModelError(f"{self.kind.value} {self.element_id} must not carry pipe geometry")


@dataclass(frozen=True)
class Network:
    """Validated topology: unique ids, resolved endpoints."""

    nodes: dict[str, Node]
    elements: dict[str, Element]

    def __post_init__(self) -> None:
        for key, node in self.nodes.items():
            if key != node.node_id:
                raise ModelError(f"node key {key!r} does not match id {node.node_id!r}")
        for key, el in self.elements.items():
            if key != el.element_id:
                raise ModelError(f"element key {key!r} does not match id {el.element_id!r}")
            for end in (el.from_node, el.to_node):
                if end not in self.nodes:
                    raise ModelError(f"element {el.element_id} references unknown node {end!r}")

    @classmethod
    def build(cls, nodes: list[Node], elements: list[Element]) -> "Network":
        node_map: dict[str, Node] = {}
        for node in nodes:
            if node.node_id in node_map:
                raise ModelError(f"duplicate node id {node.node_id!r}")
            node_map[node.node_id] = node
        element_map: dict[str, Element] = {}
        for el in elements:
            if el.element_id in element_map:
                raise ModelError(f"duplicate element id {el.element_id!r}")
            element_map[el.element_id] = el
        return cls(node_map, element_map)

    def pipes(self) -> dict[str, Element]:
        return {k: e for k, e in self.elements.items() if e.kind is ElementKind.PIPE}

    def of_kind(self, kind: ElementKind) -> dict[str, Element]:
        return {k: e for k, e in self.elements.items() if e.kind is kind}

    @cached_property
    def valves_and_resistors(self) -> tuple[Element, ...]:
        """Valves and resistors by id: the elements that can bridge pipe groups."""
        return tuple(self.elements[k] for k in sorted(self.elements)
                     if self.elements[k].kind in (ElementKind.VALVE, ElementKind.RESISTOR))


@dataclass(frozen=True)
class GasParams:
    """Gas mixture parameters shared by all term evaluations of a run."""

    temperature_k: float = 283.15
    pseudo_critical_pressure_pa: float = 46.4 * BAR
    pseudo_critical_temperature_k: float = 192.0
    dynamic_viscosity_pas: float = 1.1e-5

    def __post_init__(self) -> None:
        for name in ("temperature_k", "pseudo_critical_pressure_pa",
                     "pseudo_critical_temperature_k", "dynamic_viscosity_pas"):
            if not getattr(self, name) > 0.0:
                raise ModelError(f"{name} must be positive, got {getattr(self, name)}", name)


def validate_normal_density(rho_n_kgm3: float) -> float:
    """Check a per-pipe normal density against the accepted band."""
    if not (RHO_N_MIN_KGM3 < rho_n_kgm3 <= RHO_N_MAX_KGM3):
        raise ModelError(
            f"normal density {rho_n_kgm3} kg/m^3 outside accepted range "
            f"({RHO_N_MIN_KGM3}, {RHO_N_MAX_KGM3}]")
    return rho_n_kgm3


@dataclass(frozen=True)
class StateFrame:
    """Measured or simulated network state at one timestamp.

    Mappings are keyed by node or element id and treated as read-only.
    Missing entries are allowed; analysis steps count them as skipped
    data points rather than failing.
    """

    timestamp: datetime
    node_pressure_pa: dict[str, float]
    arc_flow_m3s: dict[str, float]
    valve_open: dict[str, bool] = field(default_factory=dict)
    pipe_rho_n_kgm3: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.timestamp.tzinfo is None:
            raise ModelError(f"frame timestamp {self.timestamp} must be timezone aware")
        for node_id, p in self.node_pressure_pa.items():
            if not p > 0.0:
                raise ModelError(f"pressure at {node_id!r} must be positive, got {p}")


@dataclass
class Diagnostics:
    """Tally of data points skipped or flagged while scanning a history."""

    missing_data: int = 0
    missing_valve_state: int = 0
    missing_resistor_pressure: int = 0
    z_clamped: int = 0
    friction_out_of_validity: int = 0
    time_gaps: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)
