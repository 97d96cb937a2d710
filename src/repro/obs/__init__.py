"""``repro.obs`` — the unified observability layer.

Two pieces, both off by default and contractually free when off:

- the **metrics registry** (:class:`Obs`): counters, time-weighted
  gauges (a named :class:`~repro.sim.trace.TimeWeighted`), per-sample
  distributions and counter-track timelines, shared by name, plus the
  instant/span event stream — scheduler decisions are the
  ``sched.mtb<N>`` instants, the stack's one decision record;
- the **Perfetto exporter** (:mod:`repro.obs.perfetto`): one
  trace-event JSON carrying task spans, serve counters, obs counter
  tracks (per-SMM utilization) and scheduler-decision instants.

Wiring: pass an :class:`Obs` as ``PagodaConfig(obs=...)`` (or set it
on a :class:`~repro.serve.ServeConfig`'s ``pagoda`` config) and every
layer of the stack hooks itself up; read the results back with
:meth:`Obs.snapshot` (validated against :data:`SNAPSHOT_SCHEMA`).
Snapshots are also the substrate :mod:`repro.scenarios` detectors
assert on (``ObsValue`` / ``ObsCounterMatchesReport``), so scenario
verdicts can check the dashboard against the billing.
"""

from repro.obs.perfetto import (
    chrome_trace_events,
    export_chrome_trace,
    export_serve_trace,
    obs_counter_events,
    obs_instant_events,
    serve_counter_events,
)
from repro.obs.registry import (
    AGGREGATE_SCHEMA,
    SNAPSHOT_SCHEMA,
    Counter,
    Distribution,
    Gauge,
    Obs,
    Series,
    aggregate_snapshots,
    validate_snapshot,
)

__all__ = [
    "Obs",
    "AGGREGATE_SCHEMA",
    "aggregate_snapshots",
    "Counter",
    "Gauge",
    "Distribution",
    "Series",
    "SNAPSHOT_SCHEMA",
    "validate_snapshot",
    "chrome_trace_events",
    "export_chrome_trace",
    "export_serve_trace",
    "serve_counter_events",
    "obs_counter_events",
    "obs_instant_events",
]
