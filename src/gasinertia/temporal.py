"""Persistence of relevant components across consecutive time pairs.

A component stream (components.Stream) is a chronological list of (time
pair, components) entries, each pair its t0 and t1 as int64 microseconds
since 1970 UTC.  Two adjacent entries are consecutive when the first ends
where the second begins, compared as integers; gaps break every
persistence notion rather than being silently bridged.  Scan counts them
as time_gaps: only the pair grid shows a gap, since the stream holds just
the pairs with components.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .model import SECONDS_PER_DAY
from .components import Stream
from .ingest import format_timestamp, instant
from .thresholds import RelevanceClass, ThresholdConfig

Event = tuple[tuple[int, int], ...]   # (pair index, component index) members


@dataclass
class RunLengthResult:
    histogram: dict[int, int]
    share_by_length: dict[int, float]
    total_points: int


def _validate_stream(stream: Stream) -> list[bool]:
    """Chronology check; returns per-boundary consecutiveness flags."""
    consecutive: list[bool] = []
    for k in range(len(stream) - 1):
        (_, end), (start, _) = stream[k][0], stream[k + 1][0]
        if start < end:
            raise ValueError(f"component stream out of order at {format_timestamp(instant(end))}"
                             f" vs {format_timestamp(instant(start))}")
        consecutive.append(start == end)
    return consecutive


def pipe_run_lengths(stream: Stream,
                     min_class: RelevanceClass = RelevanceClass.HIGH) -> RunLengthResult:
    """Per-pipe maximal runs of membership in graded components.

    A run of length k means a pipe sat in a component of at least
    min_class for k consecutive pairs.  The histogram counts runs per
    length; share_by_length spreads the graded data points over the
    lengths (length * count / total graded points).
    """
    consecutive = _validate_stream(stream)
    membership: dict[str, list[int]] = {}
    for k, (_pair, comps) in enumerate(stream):
        for comp in comps:
            if comp.relevance >= min_class:
                for pipe_id in comp.pipe_ids:
                    membership.setdefault(pipe_id, []).append(k)

    # a run ends where the pipe misses a pair or the stream has a gap
    histogram: dict[int, int] = {}
    for indices in membership.values():
        length = 1
        for prev, cur in zip(indices, indices[1:]):
            if cur == prev + 1 and consecutive[prev]:
                length += 1
            else:
                histogram[length] = histogram.get(length, 0) + 1
                length = 1
        histogram[length] = histogram.get(length, 0) + 1
    total = sum(length * count for length, count in histogram.items())
    shares = {length: datapoint_share(length * count, total)
              for length, count in sorted(histogram.items())}
    return RunLengthResult(dict(sorted(histogram.items())), shares, total)


def component_chains(stream: Stream,
                     min_class: RelevanceClass = RelevanceClass.HIGH,
                     min_length: int = 2) -> list[Event]:
    """Events: the connected components of a stream's space-time graph.

    Its vertices are the (pair index, component index) pairs of every
    component of at least min_class; an edge joins two components of
    consecutive pairs that share a pipe, so a gap breaks an event.  They
    are found by union-find, and no visiting order decides them.  Members
    of one pair join only through another pair, so two or more members
    span two or more pairs.  Events of at least min_length members are
    returned, each in stream order, sorted by first member.
    """
    consecutive = _validate_stream(stream)
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(vertex: tuple[int, int]) -> tuple[int, int]:
        while parent[vertex] != vertex:
            parent[vertex] = vertex = parent[parent[vertex]]
        return vertex

    # a pipe sits in at most one component of a pair (read_components
    # checks it), so this map names every edge into the pair
    previous: dict[str, tuple[int, int]] = {}
    for k, (_pair, comps) in enumerate(stream):
        current: dict[str, tuple[int, int]] = {}
        for ci, comp in enumerate(comps):
            if comp.relevance >= min_class:
                vertex = parent[(k, ci)] = (k, ci)
                current.update(dict.fromkeys(comp.pipe_ids, vertex))
                for other in {previous[p] for p in previous.keys() & comp.pipe_ids}:
                    parent[find(other)] = find(vertex)
        previous = current if k < len(consecutive) and consecutive[k] else {}

    # parent holds the vertices in stream order, so events come by first member
    events: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for vertex in parent:
        events.setdefault(find(vertex), []).append(vertex)
    return [tuple(members) for members in events.values() if len(members) >= min_length]


def chain_relevance(stream: Stream, event: Event) -> RelevanceClass:
    return max(stream[k][1][ci].relevance for k, ci in event)


def realism_filter(stream: Stream, cfg: ThresholdConfig) -> tuple[Stream, int]:
    """Drop components whose largest flow change is physically implausible.

    A component moved by a flow change beyond the realistic limit is
    treated as a data artifact.  Filtering is idempotent and only ever
    removes components; pairs are kept even when they become empty.
    """
    dropped = 0
    filtered: Stream = []
    for pair, comps in stream:
        kept = [c for c in comps if c.max_abs_dflow_m3s <= cfg.realistic_flow_change_m3s]
        dropped += len(comps) - len(kept)
        filtered.append((pair, kept))
    return filtered, dropped


@dataclass(frozen=True)
class OccurrenceRate:
    seconds: float
    text: str


def occurrence_rate(event_count: int, horizon_s: float) -> OccurrenceRate:
    """Mean spacing of events over a horizon, with a humanized rendering."""
    if event_count < 0:
        raise ValueError(f"event count must be >= 0, got {event_count}")
    if not horizon_s > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon_s}")
    if event_count == 0:
        return OccurrenceRate(math.inf, "never")
    seconds = horizon_s / event_count
    return OccurrenceRate(seconds, humanize_interval(seconds))


_INTERVAL_UNITS = (
    ("days", SECONDS_PER_DAY),
    ("hours", 3600.0),
    ("minutes", 60.0),
    ("seconds", 1.0),
)

# A unit is chosen once the value reaches this multiple of it, so that
# e.g. 25 hours stays in hours but 31 hours becomes 1.3 days.
_UNIT_PICKUP = 1.05


def humanize_interval(seconds: float) -> str:
    """Render a duration with its natural unit and two significant digits."""
    if not seconds > 0.0:
        raise ValueError(f"interval must be positive, got {seconds}")
    for name, size in _INTERVAL_UNITS:
        value = seconds / size
        if value >= _UNIT_PICKUP or name == "seconds":
            rounded = round_sig(value, 2)
            if rounded >= 10.0:
                return f"{rounded:.0f} {name}"
            return f"{rounded:.1f} {name}"
    raise AssertionError("unreachable")


def round_sig(value: float, digits: int) -> float:
    if value == 0.0 or not math.isfinite(value):
        return value
    return float(f"{value:.{digits}g}")


def datapoint_share(contained: int, total: int) -> float:
    """Fraction of data points contained in some selection."""
    if contained < 0 or total < 0 or contained > total:
        raise ValueError(f"invalid share arguments {contained}/{total}")
    if total == 0:
        return 0.0
    return contained / total


def format_share_percent(fraction: float) -> str:
    """Two-significant-digit percentage, e.g. 0.00036 -> '0.036%'."""
    pct = round_sig(100.0 * fraction, 2)
    return f"{pct:g}%"
