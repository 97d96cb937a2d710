"""`repro.serve` — an SLO-aware task-serving frontend for Pagoda.

The paper's whole argument is that a GPU should stay saturated under
*streams* of narrow tasks; this package is the layer that produces and
disciplines those streams.  It sits above the runtime
(:mod:`repro.core.runtime`: a server drives its
:class:`~repro.core.PagodaSession` stacks directly, one per GPU of a
multi-GPU node) and below the experiments (:mod:`repro.bench`), and
composes with
:mod:`repro.faults` (serving under chaos is just a
:class:`~repro.core.PagodaConfig` with a fault plan).

Pieces, in pipeline order:

- :mod:`~repro.serve.arrivals` — seeded open-loop load
  generators (Poisson, deterministic, bursty);
- :mod:`~repro.serve.policies` — admission control at a bounded
  ingress queue (drop-tail, backpressure, token bucket, per-tenant
  fair queueing) so overload degrades p99 gracefully;
- :mod:`~repro.serve.batcher` — opportunistic same-kernel coalescing
  ahead of the TaskTable;
- :mod:`~repro.serve.slo` — deadlines and tenant tiers mapped onto the
  scheduler's priority knob;
- :mod:`~repro.serve.server` — the sim processes wiring it together
  over the server's own sessions (shortest-queue placement and
  ``gpu.die`` failover included; a fleet node,
  :class:`repro.cluster.node.NodeShard`, is a server fed by the
  fabric);
- :mod:`~repro.serve.histogram` / :mod:`~repro.serve.report` — the
  latency accountant: HDR-style per-stage histograms and a canonical,
  byte-replayable JSON report.

Quick start::

    from repro.serve import (PoissonArrivals, ServeConfig, TenantSpec,
                             TokenBucket, serve)
    from repro.workloads import DES3

    report = serve(
        [TenantSpec("packets", DES3.make_tasks(512, 128, seed=7),
                    PoissonArrivals(rate_per_s=400_000, seed=1))],
        ServeConfig(policy=TokenBucket(rate_per_s=250_000, burst=32)),
    )
    print(report.p99_us, report.drop_pct)
"""

from repro.serve.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DeterministicArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.serve.batcher import BatchPolicy, fuse_key, fuse_specs
from repro.serve.histogram import LatencyHistogram
from repro.serve.policies import (
    ADMIT,
    DROP,
    WAIT,
    AdmissionPolicy,
    AlwaysAdmit,
    Backpressure,
    DropTail,
    TenantFairQueue,
    TokenBucket,
)
from repro.serve.report import ServeReport, build_report
from repro.serve.server import (
    STAGES,
    IngressQueue,
    Request,
    ServeConfig,
    TaskServer,
    TenantSpec,
    serve,
)
from repro.serve.slo import SloClass, apply_slo, slo_priority

__all__ = [
    "ArrivalProcess",
    "DeterministicArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
    "TraceArrivals",
    "AdmissionPolicy",
    "AlwaysAdmit",
    "DropTail",
    "Backpressure",
    "TokenBucket",
    "TenantFairQueue",
    "ADMIT",
    "DROP",
    "WAIT",
    "BatchPolicy",
    "fuse_key",
    "fuse_specs",
    "SloClass",
    "slo_priority",
    "apply_slo",
    "LatencyHistogram",
    "ServeReport",
    "build_report",
    "STAGES",
    "IngressQueue",
    "Request",
    "ServeConfig",
    "TaskServer",
    "TenantSpec",
    "serve",
]
