"""Shared builders for the test suite."""

from datetime import datetime, timedelta, timezone

from gasinertia.components import Component
from gasinertia.model import BAR, KNM3H, TimePair
from gasinertia.thresholds import RelevanceClass

BASE_TS = datetime(2026, 1, 1, tzinfo=timezone.utc)
TAU_S = 180.0


def stamp(index: int) -> datetime:
    return BASE_TS + timedelta(seconds=TAU_S * index)


def make_pair(index: int) -> TimePair:
    """Time pair covering grid step index -> index + 1."""
    return TimePair(stamp(index), stamp(index + 1))


def make_component(pair_index: int, pipe_ids: tuple[str, ...],
                   value_bar: float = 1.0,
                   relevance: RelevanceClass = RelevanceClass.HIGH,
                   dflow_knm3h: float = 10.0) -> Component:
    return Component(
        pair=make_pair(pair_index),
        pipe_ids=pipe_ids,
        longest_path_pa=value_bar * BAR,
        cycle_correction_pa=0.0,
        relevance=relevance,
        max_abs_dflow_m3s=dflow_knm3h * KNM3H,
    )


def make_stream(entries: list[tuple[int, list[Component]]]) -> list:
    """Stream from (pair index, components) entries; skipped indices gap."""
    return [(make_pair(index), comps) for index, comps in entries]
