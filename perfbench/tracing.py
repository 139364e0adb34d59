"""Spans and counters around the screener's public functions.

The tracer replaces functions by name where their callers look them up
(the CLI imports most of them into its own namespace) and restores them
afterwards, so nothing under src/ changes.  Stage, pair and component
calls get one span each (key, parent, thread, duration).  Per-point calls
are too many for spans; they get a count and a summed time.

Span durations are processor time of the calling thread, like the
end-to-end timings.  A span's self time is its duration less that of
its child spans on the same thread, so per-point calls count as self
time of the span that makes them.  Per-point calls last about a
microsecond, where a thread-time reading costs as much as the call, so
they are timed with the wall clock instead; with --threads > 1 that
includes waiting for the interpreter lock.

A name that no longer exists is reported as absent and skipped.
"""

from __future__ import annotations

from contextlib import contextmanager
import importlib
import threading
from time import perf_counter, thread_time

SPAN = "span"
POINT = "point"

# (module, attribute, metric key, kind).  The metric key names the layer
# that owns the function; the module is where the caller looks it up.
TARGETS = [
    ("gasinertia.cli", "parse_topology", "ingest.parse_topology", SPAN),
    ("gasinertia.cli", "parse_states", "ingest.parse_states", SPAN),
    ("gasinertia.cli", "parse_exclusions", "ingest.parse_exclusions", SPAN),
    ("gasinertia.cli", "index_exclusions", "ingest.index_exclusions", SPAN),
    ("gasinertia.cli", "frame_pairs", "ingest.frame_pairs", SPAN),
    ("gasinertia.cli", "write_terms", "ingest.write_terms", SPAN),
    ("gasinertia.cli", "read_terms", "ingest.read_terms", SPAN),
    ("gasinertia.cli", "_scan_pair", "cli.scan_pair", SPAN),
    ("gasinertia.cli", "is_excluded", "ingest.is_excluded", POINT),
    ("gasinertia.cli", "prefilter", "thresholds.prefilter", POINT),
    ("gasinertia.cli", "pipe_relevant", "thresholds.pipe_relevant", POINT),
    ("gasinertia.physics", "TermRecord.evaluate", "physics.evaluate", POINT),
    ("gasinertia.cli", "build_pair_components", "components.build", SPAN),
    ("gasinertia.components", "group_records", "components.group", SPAN),
    ("gasinertia.components", "orient_arcs", "components.orient", SPAN),
    ("gasinertia.components", "longest_path_value", "components.longest_path", SPAN),
    ("gasinertia.cli", "write_components", "components.write", SPAN),
    ("gasinertia.cli", "read_components", "components.read", SPAN),
    ("gasinertia.cli", "pipe_run_lengths", "temporal.run_lengths", SPAN),
    ("gasinertia.cli", "component_chains", "temporal.chains", SPAN),
    ("gasinertia.cli", "realism_filter", "temporal.realism", SPAN),
    ("gasinertia.cli", "sweep_table", "report.sweep", SPAN),
    ("gasinertia.cli", "hexbin", "report.hexbin", SPAN),
    ("gasinertia.synth", "simulate", "synth.simulate", SPAN),
    ("gasinertia.ingest", "serialize_topology", "ingest.serialize_topology", SPAN),
    ("gasinertia.ingest", "serialize_states", "ingest.serialize_states", SPAN),
]


class Span:
    __slots__ = ("key", "parent", "thread", "start", "seconds")

    def __init__(self, key: str, parent: "Span | None") -> None:
        self.key = key
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = 0.0
        self.seconds = 0.0


class Tracer:
    """Collects spans and counters for one pipeline pass at a time."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.generation = getattr(self, "generation", 0) + 1
        self.spans: list[Span] = []
        self.stages: list[Span] = []
        self.root: Span | None = None
        self._tallies: list[dict[str, list]] = []
        self.longest_path: list[tuple[float, float, float]] = []  # (s, value, correction)
        self.components: list[int] = []       # pipes per built component
        self.hexbin_points = 0
        self.synth_frames = 0

    def _thread_state(self) -> tuple[list[Span], dict[str, list]]:
        local = self._local
        if getattr(local, "generation", None) != self.generation:
            local.generation = self.generation
            local.stack = []
            local.tally = {}
            with self._lock:
                self._tallies.append(local.tally)
        return local.stack, local.tally

    @contextmanager
    def stage(self, name: str):
        stack, _ = self._thread_state()
        span = Span(f"cli.{name}", None)
        self.root = span
        stack.append(span)
        span.start = thread_time()
        try:
            yield span
        finally:
            span.seconds = thread_time() - span.start
            stack.pop()
            self.stages.append(span)
            self.root = None

    def _span_wrapper(self, key, fn, on_return):
        def traced(*args, **kwargs):
            stack, _ = self._thread_state()
            # worker threads start with an empty stack; their calls belong
            # to the stage that submitted them
            span = Span(key, stack[-1] if stack else self.root)
            stack.append(span)
            span.start = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.seconds = thread_time() - span.start
                stack.pop()
                self.spans.append(span)
            if on_return is not None:
                on_return(span, args, result)
            return result
        return traced

    def _point_wrapper(self, key, fn):
        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                _, tally = self._thread_state()
                entry = tally.get(key)
                if entry is None:
                    tally[key] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
        return counted

    def _on_longest_path(self, span, args, result):
        value, correction = result
        self.longest_path.append((span.seconds, value, correction))

    def _on_build(self, span, args, result):
        self.components.extend(len(comp.pipe_ids) for comp in result)

    def _on_hexbin(self, span, args, result):
        self.hexbin_points += len(args[0])

    def _on_simulate(self, span, args, result):
        self.synth_frames += len(result)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "components.longest_path": self._on_longest_path,
            "components.build": self._on_build,
            "report.hexbin": self._on_hexbin,
            "synth.simulate": self._on_simulate,
        }
        self.absent = []
        for module_name, attribute, key, kind in TARGETS:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(name) if owner is not None else None
            if raw is None:
                self.absent.append(f"{module_name}.{attribute}")
                continue
            fn = getattr(owner, name)
            if kind == SPAN:
                wrapped = self._span_wrapper(key, fn, hooks.get(key))
            else:
                wrapped = self._point_wrapper(key, fn)
            if isinstance(raw, (classmethod, staticmethod)):
                # fn is already bound to the class, so the wrapper needs
                # no implicit first argument
                wrapped = staticmethod(wrapped)
            setattr(owner, name, wrapped)
            self._restore.append((owner, name, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, raw = self._restore.pop()
            setattr(owner, name, raw)

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Totals of the pass recorded since the last reset."""
        span_s: dict[str, float] = {}
        span_calls: dict[str, int] = {}
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            span_s[span.key] = span_s.get(span.key, 0.0) + span.seconds
            span_calls[span.key] = span_calls.get(span.key, 0) + 1
            children.setdefault(id(span.parent), []).append(span)

        def self_time(span: Span) -> float:
            # children on other threads (pool workers) never ran on this
            # span's thread clock
            inner = sum(k.seconds for k in children.get(id(span), ()) if k.thread == span.thread)
            return span.seconds - inner

        def layer_self(span: Span, layer: str) -> float:
            # self time of every span of `layer` in the subtree of span
            total = self_time(span) if span.key.split(".")[0] == layer else 0.0
            for kid in children.get(id(span), ()):
                total += layer_self(kid, layer)
            return total

        points: dict[str, list] = {}
        for tally in self._tallies:
            for key, (count, seconds) in tally.items():
                entry = points.setdefault(key, [0, 0.0])
                entry[0] += count
                entry[1] += seconds
        stage_self = {}
        for stage in self.stages:
            name = stage.key + "_self"
            stage_self[name] = stage_self.get(name, 0.0) + layer_self(stage, "cli")
        return {
            "span_s": span_s,
            "span_calls": span_calls,
            "point": points,
            "stage_self_s": stage_self,
            "longest_path": self.longest_path,
            "components": self.components,
            "hexbin_points": self.hexbin_points,
            "synth_frames": self.synth_frames,
        }
