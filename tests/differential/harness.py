"""Shared plumbing for the differential suite.

Every helper runs the *same* deterministic scenario and returns a
byte-comparable artifact (fingerprint tuple, JSON string).  Tests run
each scenario twice — once drained by plain ``Engine.run`` calls and
once inside :func:`sliced_drains`, where every ``run`` is chopped into
short ``max_events`` slices — and assert strict equality: a bound stop
must resume in exactly the original order (docs/INTERNALS.md §10).
"""

import hashlib
import json
from contextlib import contextmanager

from repro.core import PagodaConfig, run_pagoda
from repro.faults import FaultPlan
from repro.gpu.phases import Phase
from repro.obs import Obs
from repro.sim import Engine
from repro.tasks import TaskSpec

from tests.chaos.harness import CHAOS_COLUMNS, chaos_spec, chaos_tasks
from tests.test_determinism import fingerprint

#: seed sweep width (the acceptance bar is >= 25 seeds).
DIFF_SEEDS = range(25)

#: events per slice of a sliced drain: small and prime, so slice
#: boundaries land inside same-instant runs of every length.
SLICE_EVENTS = 13


@contextmanager
def collect_engines():
    """Collect every :class:`Engine` built inside the block."""
    built = []
    init = Engine.__init__

    def registered(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    Engine.__init__ = registered
    try:
        yield built
    finally:
        Engine.__init__ = init


def run_pinned(run) -> tuple:
    """Call ``run()`` once and return ``(result, pin)``, the pin being
    ``(sha256 of result.to_json(), summed engine events)``."""
    with collect_engines() as built:
        result = run()
    digest = hashlib.sha256(result.to_json().encode()).hexdigest()
    return result, (digest, sum(engine.event_count for engine in built))


@contextmanager
def sliced_drains(slice_events: int = SLICE_EVENTS):
    """Make every ``Engine.run`` (and so ``run_until``) drain in
    ``max_events`` slices until the queue empties or ``until`` is
    reached; the result must be indistinguishable from one call."""
    run = Engine.run

    def sliced(self, until=None, max_events=None, raise_on_deadlock=False):
        assert max_events is None, "sliced drains own max_events"
        while True:
            before = self.event_count
            end = run(self, until, slice_events)
            if self.event_count - before < slice_events:
                break
        if raise_on_deadlock:
            self.check_deadlock()
        return end

    Engine.run = sliced
    try:
        yield
    finally:
        Engine.run = run


def drained_both_ways(fn, *args, **kwargs) -> tuple:
    """``fn(*args, **kwargs)`` once with plain and once with sliced
    drains."""
    plain = fn(*args, **kwargs)
    with sliced_drains():
        sliced = fn(*args, **kwargs)
    return plain, sliced


def chaos_fingerprint(seed: int, faulty: bool = False) -> tuple:
    """One hostile-mix Pagoda run on the 2-SMM chaos GPU.

    With ``faulty`` a seed-generated :class:`FaultPlan` is active and
    the fingerprint additionally pins the fault bookkeeping (injected
    count, failures, per-task error reasons).
    """
    plan = None
    watchdog = None
    if faulty:
        plan = FaultPlan.generate(seed=seed, n_faults=4,
                                  horizon_ns=300_000.0,
                                  columns=CHAOS_COLUMNS)
        watchdog = 2_000_000.0 if plan.needs_watchdog() else None
    stats = run_pagoda(chaos_tasks(seed), spec=chaos_spec(),
                       config=PagodaConfig(
                           copy_inputs=False, copy_outputs=False,
                           fault_plan=plan,
                           watchdog_deadline_ns=watchdog))
    extra = ()
    if faulty:
        extra = (stats.meta["faults_injected"],
                 stats.meta["tasks_failed"],
                 tuple(sorted(stats.meta["task_errors"].items())),
                 stats.meta["watchdog_kills"],
                 tuple(stats.meta["quarantined_slots"]))
    return fingerprint(stats) + extra


def obs_snapshot_json(seed: int) -> str:
    """Canonical JSON of a fully instrumented run's stats snapshot
    (counters, gauges, distributions, timelines, event counts and the
    engine's ``sim`` section)."""
    stats = run_pagoda(chaos_tasks(seed), spec=chaos_spec(),
                       config=PagodaConfig(
                           copy_inputs=False, copy_outputs=False,
                           obs=Obs()))
    return json.dumps(stats.meta["stats_snapshot"], sort_keys=True,
                      separators=(",", ":"))


def _serve_kernel(task, block_id, warp_id):
    yield Phase(inst=1500, mem_bytes=128)


def serve_report_json(faulty: bool = False, n_requests: int = 60) -> str:
    """One SLO-serving run; returns the report's canonical bytes."""
    from repro.serve import (PoissonArrivals, ServeConfig, SloClass,
                             TenantSpec, serve)

    plan = None
    watchdog = None
    if faulty:
        plan = FaultPlan.generate(seed=3, n_faults=6,
                                  horizon_ns=300_000.0, columns=48)
        watchdog = 2_000_000.0 if plan.needs_watchdog() else None
    tasks = [TaskSpec(f"t{i}", 128, 1, _serve_kernel)
             for i in range(n_requests)]
    tenants = [TenantSpec("svc", tasks,
                          PoissonArrivals(150_000.0, seed=11),
                          slo=SloClass("svc", deadline_ns=2.0e5))]
    report = serve(tenants, ServeConfig(pagoda=PagodaConfig(
        fault_plan=plan, watchdog_deadline_ns=watchdog)))
    return report.to_json()
