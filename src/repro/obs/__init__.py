"""Runtime observability: metrics registry, span tracing, profiling.

Dependency-free instrumentation for the oracle/simulator/workload stack
(PR 10).  Three pieces:

- :class:`MetricsRegistry` -- counters, gauges, fixed-bucket histograms
  with deterministic label ordering and a stable ``snapshot()`` dict.
- :class:`SpanTracer` -- nested spans exported as Chrome trace-event
  JSONL (``repro obs`` subcommand, ``--trace-out`` flags).
- :class:`Recorder` / :data:`NULL_RECORDER` -- the object threaded
  through the ``metrics=`` knob on :class:`~repro.graph.indexed.FrozenOracle`
  and everything above it.  ``None`` (the default) keeps every
  instrumented hot path zero-overhead and bit-identical -- the same
  flag-gated-reference discipline as ``planner=`` /
  ``row_budget_bytes=``.

Unified cache-snapshot schema (``sof-cache-stats/1``)
-----------------------------------------------------

``FrozenOracle.cache_snapshot()`` / ``OnlineSimulator.cache_snapshot()``
/ ``Controller.cache_snapshot()`` all return one dict shape:

====================  ====================================================
key                   meaning
====================  ====================================================
``schema``            literal ``"sof-cache-stats/1"``
``scope``             ``"oracle"`` | ``"simulator"`` | ``"controller"``
``rows``              resident row count
``budget_bytes``      configured budget (``None`` = unbounded)
``total_bytes``       current estimated payload residency
``peak_bytes``        high-water residency mark
``hits``/``misses``   row-cache lookup outcomes
``evictions``         total evictions (= idle + budget + repair)
``idle_evictions``    evicted as idle during repair triage
``budget_evictions``  evicted by the cost-aware budget sweep
``repair_evictions``  evicted because repair was costlier than rebuild
``overshoots``        enforce() passes that could not reach the budget
``tree_index_bytes``  SPT child-index overhead (oracle-owned, not
                      budgeted)
====================  ====================================================

Controller snapshots additionally carry ``domain`` (the controller id).
When a recorder is attached, taking a snapshot also folds the same
numbers into the registry as ``<scope>.cache.*`` gauges.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    PHASE_GROUPS,
    phase_breakdown,
    series_key,
)
from repro.obs.recorder import FakeClock, NullRecorder, NULL_RECORDER, Recorder
from repro.obs.tracer import (
    SpanTracer,
    TRACE_RECORD,
    TRACE_VERSION,
    dump_trace_events,
    load_trace_events,
    metadata_event,
    read_trace_events,
    span_totals,
    to_chrome_json,
    validate_trace_events,
    write_trace_events,
)

#: Version tag carried by every unified cache snapshot.
CACHE_SNAPSHOT_SCHEMA = "sof-cache-stats/1"

__all__ = [
    "CACHE_SNAPSHOT_SCHEMA",
    "DEFAULT_BUCKETS",
    "FakeClock",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "PHASE_GROUPS",
    "Recorder",
    "SpanTracer",
    "TRACE_RECORD",
    "TRACE_VERSION",
    "dump_trace_events",
    "load_trace_events",
    "metadata_event",
    "phase_breakdown",
    "read_trace_events",
    "series_key",
    "span_totals",
    "to_chrome_json",
    "validate_trace_events",
    "write_trace_events",
]
