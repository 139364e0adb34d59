"""Batch screening of the momentum-equation inertia term in gas networks."""

from .model import (
    BAR,
    KNM3H,
    Diagnostics,
    Element,
    ElementKind,
    GasParams,
    Network,
    Node,
    PipeGeometry,
    StateFrame,
    derived_area,
)
from .physics import (
    PipeTable,
    TermRecord,
    compressibility,
    friction_factor,
    friction_term_beta,
    inertia_term_alpha,
    remaining_terms_gamma,
    specific_gas_constant,
    term_ratio,
)
from .thresholds import (
    RelevanceClass,
    ThresholdConfig,
    classify_absolute,
    derive_min_flow_change,
    pipe_relevant,
    prefilter,
)
from .components import (
    Component,
    DirectedArc,
    NetworkIndex,
    build_pair_components,
    longest_path_value,
)
from .temporal import (
    OccurrenceRate,
    component_chains,
    datapoint_share,
    humanize_interval,
    occurrence_rate,
    pipe_run_lengths,
    realism_filter,
)
from .ingest import (
    ExclusionWindow,
    History,
    ParseError,
    parse_exclusions,
    parse_states,
    parse_topology,
    serialize_states,
    serialize_topology,
)
from .synth import BoundaryEvent, Scenario, SimulationError, parse_scenario, simulate
from .report import HexBin, HexBinResult, SweepRow, hex_center, hexbin, sweep_table

__version__ = "0.1.0"
