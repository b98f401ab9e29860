"""repro.obs — runtime observability for the hierarchical solve.

The subsystem has three pieces, all disabled by default and activated
with contextvar scopes so an uninstrumented run stays bit-identical:

* **Span tracing** (:mod:`repro.obs.tracer`) — ``with tracing(Tracer())``
  turns on span collection; the solvers, executors, kernels, fault
  injector and session store bracket their work in nested spans
  (cycle → node → batch → kernel) with structured attributes.
* **Metrics** (:mod:`repro.obs.metrics`) — ``with metrics_scope(...)``
  collects counters/gauges/histograms (retries, quarantines, kernel
  FLOPs, executor resubmissions, session store I/O).
* **Exporters** (:mod:`repro.obs.export`) — one JSONL record schema
  (a ``meta`` row, then ``span``/``instant``/``metrics`` rows) shared by
  spans logs, flight dumps and heartbeats, which
  :func:`read_spans_jsonl` loads back into a :class:`Tracer`; a
  write-only Chrome trace-event view for ``chrome://tracing``/Perfetto;
  and a terminal per-category summary.  :mod:`repro.obs.validate` checks
  exported files against the schema.
* **Analytics** (:mod:`repro.obs.analysis`) — strictly post-hoc:
  critical path through the node-dependency DAG, per-worker
  utilization/imbalance and Equation-1 drift (the ``repro obs`` CLI
  family).
* **Live telemetry** (:mod:`repro.obs.live`) — the while-it-runs plane:
  an always-on :class:`FlightRecorder` ring of tracer records dumped as a
  spans log on forensic triggers, a :class:`TelemetrySnapshotter` heartbeat exporter
  feeding ``repro obs top``, and :class:`SLOSpec`/:class:`SLOTracker`
  burn-rate verdicts over rolling histogram windows.

Typical use::

    from repro import obs

    tracer, registry = obs.Tracer(), obs.MetricsRegistry()
    with obs.tracing(tracer), obs.metrics_scope(registry):
        solver.run_cycle(estimate)
    obs.write_chrome_trace(tracer, "solve_trace.json")
    print(obs.format_obs_summary(tracer, registry))

Instrumented library code uses the module-level no-op-when-inactive
hooks (:func:`obs.span`, :func:`obs.instant`, :func:`obs.inc`,
:func:`obs.observe`, :func:`obs.set_gauge`) so hook sites cost one or
two contextvar reads when observability is off.
"""

from repro.obs.export import (
    chrome_trace_events,
    format_obs_summary,
    read_spans_jsonl,
    write_chrome_trace,
    write_metrics_json,
    write_spans_jsonl,
)
from repro.obs.live import (
    FlightRecorder,
    SLOSpec,
    SLOTracker,
    TelemetrySnapshotter,
    flight_recording,
    parse_heartbeat_spec,
    read_heartbeats,
    render_top,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_metrics,
    inc,
    labeled_name,
    metrics_scope,
    observe,
    observe_latency,
    parse_metric_key,
    quantile_from_snapshot,
    set_gauge,
)
from repro.obs.tracer import (
    Instant,
    Span,
    Tracer,
    current_flight_recorder,
    current_tracer,
    instant,
    span,
    tracing,
)
_LAZY = {
    # Lazy: keeps ``python -m repro.obs.validate`` free of the runpy
    # double-import warning while still exporting the validate API here,
    # and keeps the analysis machinery (numpy-heavy, CLI-facing)
    # out of the instrumentation import path.
    "trace_stats": "repro.obs.validate",
    "validate_chrome_trace": "repro.obs.validate",
    "validate_spans_jsonl": "repro.obs.validate",
    "critical_path": "repro.obs.analysis",
    "doctor_report": "repro.obs.analysis",
    "eq1_drift": "repro.obs.analysis",
    "format_doctor_report": "repro.obs.analysis",
    "solve_passes": "repro.obs.analysis",
    "worker_utilization": "repro.obs.analysis",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")


__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "Instant",
    "MetricsRegistry",
    "SLOSpec",
    "SLOTracker",
    "Span",
    "TelemetrySnapshotter",
    "Tracer",
    "chrome_trace_events",
    "critical_path",
    "current_flight_recorder",
    "current_metrics",
    "current_tracer",
    "doctor_report",
    "eq1_drift",
    "flight_recording",
    "format_doctor_report",
    "format_obs_summary",
    "inc",
    "instant",
    "labeled_name",
    "metrics_scope",
    "observe",
    "observe_latency",
    "parse_heartbeat_spec",
    "parse_metric_key",
    "quantile_from_snapshot",
    "read_heartbeats",
    "read_spans_jsonl",
    "render_top",
    "set_gauge",
    "solve_passes",
    "span",
    "trace_stats",
    "tracing",
    "validate_chrome_trace",
    "validate_spans_jsonl",
    "worker_utilization",
    "write_chrome_trace",
    "write_metrics_json",
    "write_spans_jsonl",
]
