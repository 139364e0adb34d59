"""Aggregations for reporting: threshold sweep and hexagonal binning.

The sweep grades component longest-path values against a ladder of
absolute thresholds and attaches a mean occurrence interval.  The hexbin
summarizes per-pipe data points on the log10 plane spanned by the
length-normalized inertia term and the inertia/friction ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .model import BAR
from .components import Component
from .temporal import OccurrenceRate, occurrence_rate


@dataclass(frozen=True)
class SweepRow:
    threshold_pa: float
    n_components: int
    n_pipe_datapoints: int
    interval: OccurrenceRate


def sweep_table(components: list[Component], thresholds_pa: list[float],
                horizon_s: float) -> list[SweepRow]:
    """Component counts above each threshold with mean spacing in time."""
    rows = []
    for threshold in thresholds_pa:
        selected = [c for c in components if abs(c.longest_path_pa) >= threshold]
        count = len(selected)
        rows.append(SweepRow(
            threshold_pa=threshold,
            n_components=count,
            n_pipe_datapoints=sum(len(c.pipe_ids) for c in selected),
            interval=occurrence_rate(count, horizon_s),
        ))
    return rows


DEFAULT_THRESHOLDS_PA = [i / 10 * BAR for i in range(1, 11)]


@dataclass(frozen=True)
class HexBin:
    cx: float
    cy: float
    count: int


@dataclass
class HexBinResult:
    bins: list[HexBin]
    suppressed_points: int     # points in bins below min_count
    sentinel_points: int       # points without finite log coordinates
    total_points: int


def hex_center(x: np.ndarray, y: np.ndarray, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """Centers of the pointy-top hexagons of circumradius r containing the
    points (x, y), elementwise.

    Row pitch is 1.5 r and column pitch sqrt(3) r with odd rows shifted
    half a column.  The nearest of the 3x3 candidate lattice neighborhood
    wins; exact distance ties go to the lexicographically smallest center.
    Rounding is half to even.
    """
    dy = 1.5 * resolution
    dx = math.sqrt(3.0) * resolution
    # + 0.0 turns a row -0.0 into 0.0, which prints as such
    j0 = np.rint(y / dy) + 0.0
    i0 = np.rint(x / dx - 0.5 * (j0 % 2))
    best = (np.full(x.shape, np.inf), np.zeros(x.shape), np.zeros(x.shape))
    for j in (j0 - 1, j0, j0 + 1):
        cy = j * dy
        for i in (i0 - 1, i0, i0 + 1):
            cx = (i + 0.5 * (j % 2)) * dx
            d = np.square(x - cx) + np.square(y - cy)
            closer = (d < best[0]) | ((d == best[0])
                                      & ((cx < best[1]) | ((cx == best[1]) & (cy < best[2]))))
            best = tuple(np.where(closer, new, old) for new, old in zip((d, cx, cy), best))
    return best[1], best[2]


def hexbin(alpha_per_10km: np.ndarray, ratio: np.ndarray, resolution: float = 0.1,
           min_count: int = 1) -> HexBinResult:
    """Bin points given as alpha per 10 km [bar] and ratio in log10-log10
    space.

    Points whose coordinates have no finite logarithm (zero or infinite
    ratio, zero alpha) are tallied under sentinel_points instead of being
    dropped silently, and bins with fewer than min_count points are
    suppressed but stay accounted for, so that

        binned + suppressed + sentinel == total
    """
    if not resolution > 0.0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    magnitude = np.abs(alpha_per_10km)
    finite = (magnitude > 0.0) & (ratio > 0.0) & np.isfinite(magnitude) & np.isfinite(ratio)
    # math.log10 is the C library's; numpy's can differ in the last bit
    # with the CPU's vector extensions, and so move a point across an edge
    x, y = (np.array([math.log10(v) for v in values[finite].tolist()], dtype=float)
            for values in (magnitude, ratio))
    cx, cy = hex_center(x, y, resolution)
    # sorted by (cx, cy), the points of one hexagon form a run
    order = np.lexsort((cy, cx))
    cx, cy = cx[order], cy[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])
    first = np.flatnonzero(first)
    counts = np.diff(np.append(first, len(order)))
    kept = counts >= min_count
    bins = [HexBin(*values) for values in zip(cx[first[kept]].tolist(), cy[first[kept]].tolist(),
                                              counts[kept].tolist())]
    return HexBinResult(bins, int(counts[~kept].sum()), int(np.count_nonzero(~finite)),
                        len(alpha_per_10km))


SWEEP_COLUMNS = ["threshold_bar", "n_components", "n_pipe_datapoints",
                 "avg_interval_human", "avg_interval_seconds"]
HEXBIN_COLUMNS = ["cx", "cy", "count"]


def sweep_rows(rows: list[SweepRow]) -> list[list[str]]:
    out = []
    for row in rows:
        seconds = row.interval.seconds
        out.append([repr(row.threshold_pa / BAR), str(row.n_components),
                    str(row.n_pipe_datapoints), row.interval.text,
                    repr(seconds) if math.isfinite(seconds) else "inf"])
    return out


def hexbin_rows(result: HexBinResult) -> list[list[str]]:
    return [[repr(b.cx), repr(b.cy), str(b.count)] for b in result.bins]
