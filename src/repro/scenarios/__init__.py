"""``repro.scenarios`` — named, versioned, checked experiments.

The composition layer ROADMAP item 4 asked for: faults, load
generators, SLOs, partitions, and the obs layer already exist as
separate knobs; a :class:`Scenario` bundles them into one reproducible,
pass/fail-checkable experiment, and the registry runs any of them by
name.  The ``paper`` layer (:mod:`repro.scenarios.paper`) holds the
reproduction's claims about the paper's figures and tables, and
EXPERIMENTS.md's tables are rendered from its results.
It is the one catalog of checked experiments: ``python -m repro.bench
<name>`` runs one scenario and ``python -m repro.bench all`` the whole
catalog.  The trace loader (:mod:`repro.scenarios.trace`) feeds
production-shaped arrival schedules into any of it.
"""

from repro.scenarios.detectors import (
    Conservation,
    ExtraValue,
    ObsCounterMatchesReport,
    ObsValue,
    ReadmitWithin,
    ReportValue,
    lookup,
)
from repro.scenarios.registry import (
    get,
    names,
    register,
    run_catalog,
    run_scenario,
)
from repro.scenarios.spec import (
    LAYERS,
    SCHEMA,
    Detector,
    Scenario,
    ScenarioContext,
    ScenarioOutcome,
    ScenarioParams,
    ScenarioResult,
    Verdict,
)
from repro.scenarios.trace import (
    SAMPLE_TRACE,
    TraceRow,
    load_trace,
    task_mix,
    tenant_arrivals,
    trace_schedules,
)

__all__ = [
    "SCHEMA",
    "LAYERS",
    "SAMPLE_TRACE",
    "Scenario",
    "ScenarioContext",
    "ScenarioOutcome",
    "ScenarioParams",
    "ScenarioResult",
    "Detector",
    "Verdict",
    "Conservation",
    "ExtraValue",
    "ObsCounterMatchesReport",
    "ObsValue",
    "ReadmitWithin",
    "ReportValue",
    "lookup",
    "TraceRow",
    "load_trace",
    "task_mix",
    "tenant_arrivals",
    "trace_schedules",
    "register",
    "get",
    "names",
    "run_scenario",
    "run_catalog",
]
