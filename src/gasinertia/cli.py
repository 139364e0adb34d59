"""Command line pipeline: derive-threshold, scan, components, persistence,
report and synth.

Stages communicate through CSV files, so any stage can be rerun or
replaced.  Scan reads states.csv once, a block of whole frames per window
(ingest.states_blocks), and keeps of each block only counts, the
survivors' terms and the few history columns components reads
(ingest.narrow_history), so its memory grows with those, not with the
whole history.  The one binary file, scan's history.npz next to
terms.csv, caches the terms and that narrow history, and ingest.load_saved
alone decides when it stands in for parsing: report loads the terms when
terms.csv is unchanged, components loads both only when states.csv and
topology.csv are unchanged too, and otherwise narrows states.csv as scan
does.  Terms are held in the form both files give them, ingest.Terms;
components alone takes SI numbers from them, as lists per pair for
components.NetworkIndex.  Outputs are deterministic: rows follow sorted
ids and chronological pairs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .model import (
    BAR,
    KNM3H,
    SECONDS_PER_DAY,
    Diagnostics,
    GasParams,
    ModelError,
    Network,
)
from .physics import (
    PipeTable,
    friction_term_beta,
    inertia_term_alpha,
    term_ratio,
)
from .thresholds import ThresholdConfig, derive_min_flow_change, pipe_relevant, prefilter
from .components import (
    NetworkIndex,
    read_components,
    write_components,
)
from .temporal import (
    RelevanceClass,
    chain_relevance,
    component_chains,
    format_share_percent,
    pipe_run_lengths,
    realism_filter,
)
from .ingest import (
    PER_10KM,
    History,
    ParseError,
    Terms,
    exclusion_mask,
    format_timestamp,
    history_columns,
    instant,
    join_histories,
    load_saved,
    narrow_history,
    parse_exclusions,
    parse_topology,
    read_settings,
    read_terms,
    row_pairs,
    save_history,
    states_blocks,
    write_table,
    write_terms,
)
from .report import (
    DEFAULT_THRESHOLDS_PA,
    HEXBIN_COLUMNS,
    SWEEP_COLUMNS,
    hexbin,
    hexbin_rows,
    sweep_rows,
    sweep_table,
)
from . import synth as synth_mod

RUNS_COLUMNS = ["length", "series_count", "datapoint_share"]
CHAINS_COLUMNS = ["chain_id", "start_t0", "end_t1", "n_components", "class"]
EVENTS_COLUMNS = ["event_id", "start_t0", "end_t1", "n_components", "class", "realistic"]

# config keys: ThresholdConfig or GasParams field and factor to SI
CONFIG_KEYS = {
    "abs_small_bar": ("abs_small_pa", BAR),
    "abs_high_bar": ("abs_high_pa", BAR),
    "ratio_min": ("ratio_min", 1.0),
    "reference_length_km": ("reference_length_m", 1e3),
    "min_flow_change_kNm3h": ("min_flow_change_m3s", KNM3H),
    "realistic_flow_change_kNm3h": ("realistic_flow_change_m3s", KNM3H),
    "temperature_K": ("temperature_k", 1.0),
}


def load_config_file(path: str) -> tuple[ThresholdConfig, GasParams]:
    """The thresholds and gas of a key = value config file; the keys it
    omits keep their defaults.  A value that breaks a rule is reported at
    its line, and for a rule between two keys at the later of theirs."""
    fields, lines = {}, {}   # SI value and line of each field the file gives
    for line, key, value in read_settings(path):
        if key not in CONFIG_KEYS:
            raise ParseError(path, line, f"unknown config key {key!r}")
        try:
            number = float(value)
        except ValueError:
            raise ParseError(path, line, f"invalid number {value!r}") from None
        if not math.isfinite(number):
            raise ParseError(path, line, f"non-finite number {value!r}")
        field, factor = CONFIG_KEYS[key]
        fields[field], lines[field] = number * factor, line
    gas = {name: fields.pop(name) for name in ["temperature_k"] if name in fields}
    try:
        return ThresholdConfig(**fields), GasParams(**gas)
    except ModelError as exc:
        line = max(lines[field] for field in exc.fields if field in lines)
        raise ParseError(path, line, str(exc)) from None


def _configs_from_args(args: argparse.Namespace) -> tuple[ThresholdConfig, GasParams]:
    return load_config_file(args.config) if args.config else (ThresholdConfig(), GasParams())


def parse_length(text: str) -> float:
    """Length with optional km/m/mm suffix, in meters, finite and > 0 (an
    argparse type; text that is no number raises ValueError)."""
    number, factor = text.strip(), 1.0
    for suffix, scale in (("km", 1e3), ("mm", 1e-3), ("m", 1.0)):
        if number.endswith(suffix):
            number, factor = number[: -len(suffix)], scale
            break
    value = float(number) * factor
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite length > 0")
    return value


def _finite(text: str, positive: bool, kind: type = float) -> float:
    """text as a finite number of kind, > 0 if positive else >= 0 (argparse type)."""
    try:
        value = kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not (0.0 < value < math.inf or value == 0.0 and not positive):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite number {'> 0' if positive else '>= 0'}")
    return value


def _out_path(args: argparse.Namespace, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


# ---------------------------------------------------------------------------
# derive-threshold

def cmd_derive_threshold(args: argparse.Namespace) -> int:
    dq_m3s = derive_min_flow_change(args.Lmax, args.tau_min, args.Dmin, args.rho_max,
                                    args.abs_small * BAR)
    dq_knm3h = dq_m3s / KNM3H
    safe = math.floor(dq_knm3h * 2.0) / 2.0
    print(f"minimal relevant flow change: {dq_knm3h:.3f} kNm3/h ({dq_m3s!r} m3/s)")
    if safe > 0.0:
        print(f"safe screening threshold: {safe:g} kNm3/h")
    else:
        print(f"safe screening threshold: {dq_knm3h:.3f} kNm3/h (too small to round down)")
    return 0


# ---------------------------------------------------------------------------
# scan

# scan classifies and evaluates the reader's blocks joined into blocks of
# at least this many data points: the numpy calls on a block cost more
# than their arithmetic on a few frames, and larger blocks raise peak memory
_SCAN_POINTS = 1 << 13


class _BlockScan:
    """Scan's classes and terms of the data points of a history given block
    by block, each block with the last frame of the one before.

    It keeps only what outlives a block: the count of pairs, the count of
    each class of data point, and the survivors' terms with their pair's
    index.
    """

    def __init__(self, network: Network, windows: list, cfg: ThresholdConfig,
                 gas: GasParams) -> None:
        self.columns = history_columns(network)
        node_ids, arc_ids, _, self.pipe_ids = self.columns
        arc_col = {arc_id: k for k, arc_id in enumerate(arc_ids)}
        node_col = {node_id: k for k, node_id in enumerate(node_ids)}
        elements = [network.elements[pipe_id] for pipe_id in self.pipe_ids]
        # column indices and pipe ids as arrays once, not as lists numpy converts per block
        self.flow_cols, self.left, self.right = (
            np.array(cols, dtype=np.intp) for cols in (
                [arc_col[pipe_id] for pipe_id in self.pipe_ids],
                [node_col[el.from_node] for el in elements],
                [node_col[el.to_node] for el in elements]))
        self.pipe_array = np.array(self.pipe_ids)
        self.table = PipeTable.of([element.geometry for element in elements])
        self.windows, self.cfg, self.gas = windows, cfg, gas
        self.held: list[History] = []
        self.last_stamp = np.empty(0, np.int64)
        self.last_flow = np.empty((0, len(self.pipe_ids)))
        self.pair_count = 0
        # excluded, missing, below prefilter, evaluated
        self.counts = np.zeros(4, dtype=int)
        self.diag = Diagnostics()
        self.kept: list[tuple[np.ndarray, ...]] = []

    def add(self, block: History) -> History:
        """Take in block, and give it back for the next reader of the blocks."""
        self.held.append(block)
        if sum(map(len, self.held)) * max(len(self.pipe_ids), 1) >= _SCAN_POINTS:
            self.flush()
        return block

    def flush(self) -> None:
        """Scan the held blocks as one, after letting them go."""
        block, self.held = join_histories(self.held, self.columns), []
        self.scan(block)

    def scan(self, block: History) -> None:
        stamps = np.concatenate([self.last_stamp, block.timestamps])
        flow = np.concatenate([self.last_flow, block.flow_m3s[:, self.flow_cols]])
        self.last_stamp, self.last_flow = stamps[-1:], flow[-1:]
        # the block's frames are the t1 frames of its pairs, but for the
        # first frame of the history
        t1 = slice(len(block) + 1 - len(stamps), None)

        # [pairs x pipes] arrays; each data point falls in exactly one class
        flow_t0, flow_t1, rho = flow[:-1], flow[1:], block.rho_n[t1]
        p_left = block.pressure_pa[t1][:, self.left]
        p_right = block.pressure_pa[t1][:, self.right]
        excluded = exclusion_mask(self.windows, stamps[1:], self.pipe_array)
        lacks_flow = np.isnan(flow)
        # not excluded, and flows and density given
        candidate = ~(excluded | lacks_flow[:-1] | lacks_flow[1:] | np.isnan(rho))
        passed = candidate & prefilter(flow_t0, flow_t1, self.cfg)
        survivor = passed & ~(np.isnan(p_left) | np.isnan(p_right))
        evaluated = np.count_nonzero(survivor)
        # missing: flow or density, or an end pressure of a point that passed
        self.counts += [np.count_nonzero(excluded),
                        np.count_nonzero(~(excluded | candidate))
                        + np.count_nonzero(passed & ~survivor),
                        np.count_nonzero(candidate & ~passed), evaluated]
        taus = np.diff(stamps) / 1e6
        first, self.pair_count = self.pair_count, self.pair_count + len(taus)
        if not evaluated:
            return

        # row-major order: pairs chronologically, pipes by id within a pair
        pair_index, position = np.nonzero(survivor)
        flow_t0, flow_t1, rho = flow_t0[survivor], flow_t1[survivor], rho[survivor]
        table = self.table.take(position)
        alpha = inertia_term_alpha(table, rho, taus[pair_index], flow_t0, flow_t1)
        beta = friction_term_beta(table, self.gas, rho, flow_t1, p_left[survivor],
                                  p_right[survivor], self.diag)
        self.kept.append((pair_index + first, position, flow_t0, flow_t1, alpha, beta))

    def finish(self, history: History) -> Terms:
        """The survivors' terms, relevant as decided under the config, over
        their pairs of history, that of the blocks, once the last block is in."""
        if self.held:
            self.flush()
        pair_index, position, flow_t0, flow_t1, alpha, beta = (
            np.concatenate([np.empty(0, dtype), *parts])
            for dtype, *parts in zip((int, int, float, float, float, float), *self.kept))
        self.kept = []  # joined, and scan outlives this call
        # terms.csv's numbers, divided into one array, not joined from seven
        numbers = np.empty((7, len(alpha)))
        for row, (values, unit) in enumerate((
                (flow_t0, KNM3H), (flow_t1, KNM3H), (flow_t1 - flow_t0, KNM3H), (alpha, BAR),
                (beta, BAR), (alpha / self.table.length_m[position], PER_10KM))):
            np.divide(values, unit, out=numbers[row])
        numbers[6] = term_ratio(alpha, beta)
        # decided on the value terms.csv gives, as components checks it
        relevant = pipe_relevant(numbers[5] * PER_10KM, numbers[6], self.cfg)
        # a pair's index so far is its first frame
        return Terms(*row_pairs(history.timestamps, pair_index), self.pipe_ids, position,
                     numbers, relevant)


def cmd_scan(args: argparse.Namespace) -> int:
    cfg, gas = _configs_from_args(args)
    import hashlib  # imported late, as in ingest.file_sha256
    topology_sha256, states_sha256 = hashlib.sha256(), hashlib.sha256()
    network = parse_topology(args.topology, topology_sha256)
    blocks = states_blocks(args.states, network, states_sha256)
    try:
        windows = parse_exclusions(args.exclusions, network) if args.exclusions else []
    except ParseError:
        # an error in states.csv is reported first, as the file comes first
        for _ in blocks:
            pass
        raise
    scan = _BlockScan(network, windows, cfg, gas)
    history = narrow_history(map(scan.add, blocks), network)
    terms = scan.finish(history)
    terms_path = _out_path(args, "terms.csv")
    save_history(history, terms, terms_path, write_terms(terms, terms_path),
                 states_sha256.hexdigest(), topology_sha256.hexdigest(),
                 os.path.getsize(args.states))
    diag = scan.diag
    excluded, diag.missing_data, below_prefilter, evaluated = scan.counts.tolist()
    # the pairs longer than 1.5 times the shortest, in exact microseconds: a
    # missing frame about doubles a step, jitter moves it far less
    lengths = np.diff(history.timestamps)
    diag.time_gaps = int(np.count_nonzero(2 * lengths > 3 * lengths.min())) if len(lengths) else 0
    pairs, pipes = scan.pair_count, len(scan.pipe_ids)
    print(f"frames: {len(history)}, pairs: {pairs}, pipes: {pipes}")
    print(f"data points: {pairs * pipes}, excluded: {excluded}, missing: {diag.missing_data}, "
          f"below prefilter: {below_prefilter}, evaluated: {evaluated}, "
          f"relevant: {np.count_nonzero(terms.relevant)}")
    print(f"diagnostics: {diag.as_dict()}")
    if excluded + diag.missing_data + below_prefilter + evaluated != pairs * pipes:
        print("warning: data point accounting mismatch", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# components

def cmd_components(args: argparse.Namespace) -> int:
    cfg, _gas = _configs_from_args(args)
    import hashlib  # imported late, as in ingest.file_sha256
    topology_sha256 = hashlib.sha256()
    network = parse_topology(args.topology, topology_sha256)
    saved = load_saved(args.terms, cfg, args.states, topology_sha256.hexdigest())
    if saved is None:
        history = narrow_history(states_blocks(args.states, network), network)
        terms = read_terms(args.terms, history, network.pipes(), cfg)
    else:
        terms, history = saved

    # pair index -> its relevant rows, in file order
    relevant = np.flatnonzero(terms.relevant)
    order = np.argsort(terms.pair_index[relevant], kind="stable")
    pair_ks, starts = np.unique(terms.pair_index[relevant][order], return_index=True)
    rows = dict(zip(pair_ks.tolist(), np.split(relevant[order], starts[1:])))
    index = NetworkIndex(network, history.node_ids, history.valve_ids)

    def built(k: int) -> tuple[tuple[int, int], list]:
        """Pair k and its components, from its rows' numbers in SI units,
        made now, and its frames' rows."""
        at, f = rows[k], frames[k]
        flow_t0, flow_t1, _, alpha = terms.numbers[:4, at]
        return tuple(terms.pairs[k].tolist()), index.pair_components(
            position[terms.pipe_index[at]].tolist(),
            (alpha * BAR).tolist(), (flow_t1 * KNM3H - flow_t0 * KNM3H).tolist(),
            history.valve_open[f + 1].tolist(), history.pressure_pa[f].tolist(),
            history.pressure_pa[f + 1].tolist(), cfg, diag)

    # pairs are consecutive frames, pipes of the topology: read_terms checked, or scan wrote it
    frames = history.timestamps.searchsorted(terms.pairs[:, 0]).tolist()
    position = np.searchsorted(index.pipe_ids, terms.pipes)
    diag = Diagnostics()
    stream = [built(k) for k in sorted(rows, key=frames.__getitem__)]

    write_components(stream, _out_path(args, "components.csv"),
                     _out_path(args, "components_pipes.csv"))
    labels = [comp.relevance.label for _, comps in stream for comp in comps]
    print(f"pairs with relevant pipes: {len(stream)}, components: {len(labels)}")
    print(f"classes: none: {labels.count('none')}, small: {labels.count('small')}, "
          f"high: {labels.count('high')}")
    print(f"diagnostics: {diag.as_dict()}")
    return 0


# ---------------------------------------------------------------------------
# persistence

def _runs_csv_rows(result) -> list[list[str]]:
    return [[str(length), str(result.histogram[length]),
             repr(result.share_by_length[length])]
            for length in sorted(result.histogram)]


def _event_cells(stream, event_id: int, event) -> list[str]:
    """Id, first t0, last t1, member count and peak class of an event."""
    (t0, _), (_, t1) = stream[event[0][0]][0], stream[event[-1][0]][0]
    return [str(event_id), format_timestamp(instant(t0)), format_timestamp(instant(t1)),
            str(len(event)), chain_relevance(stream, event).label]


def cmd_persistence(args: argparse.Namespace) -> int:
    cfg, _gas = _configs_from_args(args)
    stream = read_components(args.components, args.members)

    runs_high = pipe_run_lengths(stream, RelevanceClass.HIGH)
    filtered, dropped = realism_filter(stream, cfg)
    runs_high_realistic = pipe_run_lengths(filtered, RelevanceClass.HIGH)
    chains_high = component_chains(stream, RelevanceClass.HIGH, min_length=2)

    write_table(_out_path(args, "runs_high.csv"), RUNS_COLUMNS, _runs_csv_rows(runs_high))
    write_table(_out_path(args, "runs_high_realistic.csv"), RUNS_COLUMNS,
                _runs_csv_rows(runs_high_realistic))
    write_table(_out_path(args, "chains.csv"), CHAINS_COLUMNS,
                [_event_cells(stream, chain_id, chain)
                 for chain_id, chain in enumerate(chains_high)])

    # events: every relevant component belongs to exactly one event
    events = component_chains(stream, RelevanceClass.SMALL, min_length=1)
    event_rows = []
    realistic_counts = {"small": 0, "high": 0}
    for event_id, event in enumerate(events):
        cells = _event_cells(stream, event_id, event)
        realistic = all(
            stream[k][1][ci].max_abs_dflow_m3s <= cfg.realistic_flow_change_m3s
            for k, ci in event)
        if realistic:
            realistic_counts[cells[-1]] += 1
        event_rows.append(cells + ["1" if realistic else "0"])
    write_table(_out_path(args, "events.csv"), EVENTS_COLUMNS, event_rows)

    def graded(entries, grade: RelevanceClass) -> int:
        return sum(comp.relevance >= grade for _, comps in entries for comp in comps)

    print(f"relevant component instances: {graded(stream, RelevanceClass.SMALL)} "
          f"(high: {graded(stream, RelevanceClass.HIGH)})")
    print(f"realism filter dropped {dropped} components, keeping "
          f"{graded(filtered, RelevanceClass.SMALL)} relevant "
          f"({graded(filtered, RelevanceClass.HIGH)} high)")
    print(f"high run lengths: {runs_high.histogram} "
          f"(realistic: {runs_high_realistic.histogram})")
    print(f"chains found: {len(chains_high)}")
    print(f"events: {len(events)} ({sum(realistic_counts.values())} realistic, "
          f"{realistic_counts['high']} realistic high)")
    return 0


# ---------------------------------------------------------------------------
# report

def cmd_report(args: argparse.Namespace) -> int:
    # every input is read and checked before anything is printed or written
    stream = read_components(args.components, args.members)
    terms = read_terms(args.terms) if args.terms else None
    instances = [comp for _, comps in stream for comp in comps]

    if args.horizon_days is not None:
        horizon_s = args.horizon_days * SECONDS_PER_DAY
    elif stream:
        # microseconds from the first pair's t0 to the last pair's t1
        horizon_s = (stream[-1][0][1] - stream[0][0][0]) / 1e6
        print(f"horizon taken from component span: {horizon_s / SECONDS_PER_DAY:g} days")
    else:
        print("error: empty component stream and no --horizon-days", file=sys.stderr)
        return 1

    table = sweep_table(instances, args.thresholds_pa, horizon_s)
    write_table(_out_path(args, "sweep.csv"), SWEEP_COLUMNS, sweep_rows(table))
    for row in table:
        spacing = ("never" if not math.isfinite(row.interval.seconds)
                   else f"every {row.interval.text}")
        print(f"threshold {row.threshold_pa / BAR:.2f} bar: "
              f"{row.n_components} components, {row.n_pipe_datapoints} pipe points, "
              f"{spacing}")

    if terms is not None:
        result = hexbin(terms.numbers[5], terms.numbers[6],
                        resolution=args.resolution, min_count=args.min_count)
        write_table(_out_path(args, "hexbin.csv"), HEXBIN_COLUMNS, hexbin_rows(result))
        binned = sum(b.count for b in result.bins)
        print(f"hexbin: {binned} points in {len(result.bins)} bins, "
              f"{result.suppressed_points} suppressed, "
              f"{result.sentinel_points} without finite coordinates, "
              f"{format_share_percent(binned / result.total_points) if result.total_points else '0%'} binned")
    return 0


# ---------------------------------------------------------------------------
# synth

def cmd_synth(args: argparse.Namespace) -> int:
    scenario = synth_mod.parse_scenario(args.scenario)
    history = synth_mod.simulate(scenario)
    from .ingest import serialize_states, serialize_topology
    serialize_topology(scenario.network, _out_path(args, "topology.csv"))
    serialize_states(history, _out_path(args, "states.csv"))
    print(f"scenario {scenario.name}: {len(history)} frames, "
          f"{len(scenario.network.pipes())} pipes, "
          f"{len(scenario.network.elements)} elements, seed {scenario.seed}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gasinertia",
        description="Screen gas network state histories for relevant inertia terms.")
    sub = parser.add_subparsers(dest="command", required=True)
    positive = lambda text: _finite(text, positive=True)  # noqa: E731

    p = sub.add_parser("derive-threshold",
                       help="minimal flow change that can matter")
    p.add_argument("--Lmax", type=parse_length, default="200km",
                   help="largest pipe length (default 200km)")
    p.add_argument("--Dmin", type=parse_length, default="150mm",
                   help="smallest pipe diameter (default 150mm)")
    p.add_argument("--tau-min", type=positive, default=180.0,
                   help="shortest time step in seconds (default 180)")
    p.add_argument("--rho-max", type=positive, default=0.9,
                   help="largest normal density in kg/m3 (default 0.9)")
    p.add_argument("--abs-small", type=lambda text: _finite(text, positive=False), default=0.1,
                   help="absolute relevance threshold in bar (default 0.1)")
    p.set_defaults(func=cmd_derive_threshold)

    def common(p: argparse.ArgumentParser, topology=False, states=False,
               exclusions=False, terms_in=False, components_in=False,
               config=False) -> None:
        if topology:
            p.add_argument("--topology", required=True, help="topology CSV")
        if states:
            p.add_argument("--states", required=True, help="state history CSV")
        if exclusions:
            p.add_argument("--exclusions", help="exclusion windows CSV")
        if terms_in:
            p.add_argument("--terms", required=True, help="terms CSV from scan")
        if components_in:
            p.add_argument("--components", required=True, help="components CSV")
            p.add_argument("--members", required=True,
                           help="component membership CSV (components_pipes.csv)")
        p.add_argument("--out", required=True, help="output directory")
        if config:
            p.add_argument("--config", help="key = value config file")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")

    p = sub.add_parser("scan", help="evaluate terms for every pipe and pair")
    common(p, topology=True, states=True, exclusions=True, config=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("components", help="group relevant pipes and measure paths")
    common(p, topology=True, states=True, terms_in=True, config=True)
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("persistence", help="runs, chains and realism filter")
    common(p, components_in=True, config=True)
    p.set_defaults(func=cmd_persistence)

    p = sub.add_parser("report", help="threshold sweep and hexbin aggregation")
    common(p, components_in=True)
    p.add_argument("--terms", help="terms CSV for the hexbin (optional)")
    p.add_argument("--horizon-days", type=positive,
                   help="observation horizon for occurrence rates")
    p.add_argument("--thresholds", dest="thresholds_pa", default=DEFAULT_THRESHOLDS_PA,
                   type=lambda text: [_finite(part, False) * BAR for part in text.split(",")],
                   help="comma separated thresholds in bar")
    p.add_argument("--resolution", type=positive, default=0.1,
                   help="hexagon circumradius in log10 units (default 0.1)")
    p.add_argument("--min-count", type=lambda text: _finite(text, True, int), default=1,
                   help="suppress hexagons with fewer points (default 1)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic history")
    p.add_argument("--scenario", required=True, help="scenario file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ModelError, synth_mod.SimulationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
