"""Per-layer tracing from outside the program.

The benchmark never edits the package it measures.  In a traced run it
replaces public functions and methods *where their callers look them
up* (``repro.core.sofda.chain_walk``, ``FrozenOracle.prefetch_rows``,
...) with wrappers that record one span per call into a
:class:`repro.obs.Recorder`, so benchmark spans and the program's own
``metrics=`` spans land in one ``sof-obs-trace`` v1 timeline.  Every
patch is undone by :meth:`Layers.uninstall`.

Self time is kept exactly while recording: each open span holds the
summed duration of its direct children, and a span's self time is its
duration minus that sum.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro.core.problem import SOFInstance
from repro.graph.indexed import FrozenOracle
from repro.obs import Recorder, SpanTracer
from repro.online.simulator import OnlineSimulator
from repro.workload.lifecycle import WorkloadEngine

# ``import a.b as m`` would bind the *function* ``repro.core.sofda`` that
# the package re-exports, not the module; look the modules up by name.
conflict_mod = importlib.import_module("repro.core.conflict")
dynamic_mod = importlib.import_module("repro.core.dynamic")
problem_mod = importlib.import_module("repro.core.problem")
sofda_mod = importlib.import_module("repro.core.sofda")
transform_mod = importlib.import_module("repro.core.transform")
simulator_mod = importlib.import_module("repro.online.simulator")

#: Timed layers: (layer name, owners whose attribute is replaced, attribute).
#: A function imported by several modules is patched in each importer.
TIMED: Tuple[Tuple[str, Tuple[object, ...], str], ...] = (
    ("graph.indexed.prefetch_rows", (FrozenOracle,), "prefetch_rows"),
    ("graph.indexed.patch_edge_costs", (FrozenOracle,), "patch_edge_costs"),
    ("graph.indexed.patch_topology", (FrozenOracle,), "patch_topology"),
    ("core.problem.metric_block", (SOFInstance,), "metric_block"),
    ("core.sofda.sofda", (sofda_mod,), "sofda"),
    ("core.sofda.build_auxiliary_graph", (sofda_mod,), "build_auxiliary_graph"),
    ("core.transform.chain_walk",
     (sofda_mod, conflict_mod, dynamic_mod), "chain_walk"),
    ("graph.kstroll.solve_kstroll", (transform_mod,), "solve_kstroll"),
    ("graph.steiner.steiner_tree", (sofda_mod,), "steiner_tree"),
    ("core.conflict.resolve_and_add_chain", (sofda_mod,),
     "resolve_and_add_chain"),
    ("core.validation.check_forest", (sofda_mod, dynamic_mod), "check_forest"),
    ("core.dynamic.reroute_failed_link", (dynamic_mod,), "reroute_failed_link"),
    ("workload.lifecycle.run", (WorkloadEngine,), "run"),
) + tuple(
    (f"online.simulator.{method}", (OnlineSimulator,), method)
    for method in ("embed_leased", "current_instance", "commit", "release",
                   "apply_background_load", "fail_link", "recover_link")
)

#: Counted-only layers: called millions of times, so a clock read per
#: call would distort the run more than it measures.
COUNTED: Tuple[Tuple[str, str], ...] = (
    ("graph.indexed.distance", "distance"),
    ("graph.indexed.distances_to", "distances_to"),
    ("graph.indexed.detour_distances", "detour_distances"),
)

#: Modules that construct oracles by the name ``FrozenOracle``.
ORACLE_SITES = (problem_mod, simulator_mod, sofda_mod)
INIT_LAYER = "graph.indexed.init"
TOPOLOGY_LAYER = "topology.generators.build"


class Layers:
    """Records layer spans; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.tracer = SpanTracer()
        self.recorder = Recorder(tracer=self.tracer)
        self.clock = self.recorder.clock
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Time covered by spans opened with no span open (top level).
        self.covered = 0.0
        #: Child-time accumulators of the currently open spans.
        self._stack: List[float] = []
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack
        stack.append(0.0)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = self.recorder.span(name, t0)
            children = stack.pop()
            self.total[name] += dur
            self.self_time[name] += dur - children
            self.calls[name] += 1
            if stack:
                stack[-1] += dur
            else:
                self.covered += dur

    def _timed(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _oracle_class(self):
        layers = self

        class TracedOracle(FrozenOracle):
            """Times construction and attaches the run's recorder."""

            def __init__(self, *args, **kwargs):
                if kwargs.get("metrics") is None:
                    kwargs["metrics"] = layers.recorder
                layers.call(INIT_LAYER, super().__init__, *args, **kwargs)

        return TracedOracle

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, owners, attr in TIMED:
            for owner in owners:
                self._patch(owner, attr, self._timed(name, getattr(owner, attr)))
        for name, attr in COUNTED:
            self._patch(FrozenOracle, attr,
                        self._counted(name, getattr(FrozenOracle, attr)))
        oracle_class = self._oracle_class()
        for module in ORACLE_SITES:
            self._patch(module, "FrozenOracle", oracle_class)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    def tag_requests(self, start: int, request: int) -> int:
        """Stamp ``request`` into every trace event from index ``start``.

        Returns the index the next call should start from.
        """
        events = self.tracer.events
        for event in events[start:]:
            args = event.setdefault("args", {})
            args.setdefault("request", request)
        return len(events)

    def self_table(self) -> List[Tuple[str, int, float, float]]:
        """``(layer, calls, total_s, self_s)`` rows, largest self time first."""
        rows = [(name, self.calls[name], self.total[name], self.self_time[name])
                for name in self.total if self.calls.get(name)]
        rows.sort(key=lambda row: (-row[3], row[0]))
        return rows


def untraced_call(name: str, fn: Callable, *args, **kwargs):
    """Stand-in for :meth:`Layers.call` when the run is not traced."""
    return fn(*args, **kwargs)


def now() -> float:
    return time.perf_counter()
