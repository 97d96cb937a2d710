"""The partitioned serve frontend: one TaskServer per partition.

Tenants are pinned to partitions (``TenantSpec.partition``); each
partition gets its own ingress queue, admission gate, dispatcher, and
collector — a full :class:`~repro.serve.server.TaskServer` — wired to
that partition's stack via a :class:`PartitionNode` adapter.  All
servers share one engine and one ``engine.run``, so cross-partition
virtual time is common while every timed resource stays private.

Dispatch additionally claims the partition's Zorua quota
(:mod:`repro.partition.quota`) per request: a request whose footprint
exceeds the current grant waits at dispatch until usage drains or the
elastic controller borrows headroom — which is exactly the isolation/
utilization trade the `partition.elastic_recovery` scenario checks.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.core.runtime import PagodaConfig
from repro.gpu.spec import GpuSpec
from repro.gpu.timing import TimingModel
from repro.partition.manager import (
    Partition,
    PartitionedStack,
    PartitionPlan,
    task_demand,
)
from repro.serve.server import ServeConfig, TaskServer, TenantSpec
from repro.tasks import TaskSpec


class PartitionNode:
    """Adapter giving one partition the MultiGpuPagoda node shape the
    serve layer drives (one 'GPU': the partition)."""

    def __init__(self, partition: Partition) -> None:
        self.partition = partition
        self.engine = partition.engine
        self.sessions = [partition]
        self._outstanding = [0]

    def pick_gpu(self) -> int:
        return 0

    def shutdown(self) -> None:
        """The stack owns partition lifetime; nothing per-server."""


class PartitionServer(TaskServer):
    """A TaskServer whose backend is one compute partition, with
    quota-ledger admission on the dispatch path."""

    def __init__(self, tenants: List[TenantSpec],
                 config: ServeConfig, partition: Partition) -> None:
        super().__init__(tenants, config, node=PartitionNode(partition))
        self.partition = partition
        self._name_prefix = f"{partition.name}."
        self._quota_claims: Dict[int, tuple] = {}

    def _acquire_slot(self, spec: TaskSpec) -> Generator:
        claim = yield from self.partition.claim_quota(*task_demand(spec))
        return claim

    def _note_claim(self, task_id: int, claim) -> None:
        if claim is not None:
            self._quota_claims[task_id] = claim

    def _release_slot(self, task_id: int) -> None:
        claim = self._quota_claims.pop(task_id, None)
        if claim is not None:
            self.partition.release_quota(claim)


def _partition_config(config: ServeConfig) -> PagodaConfig:
    """The per-partition PagodaConfig: the serve pagoda config minus
    the plan itself (the stack holds it) and the device-wide fault
    plan slot (partitions carry their own)."""
    base = config.pagoda
    fields = {k: getattr(base, k) for k in base.__dataclass_fields__}
    fields["partition"] = None
    return PagodaConfig(**fields)


def serve_partitioned(tenants: List[TenantSpec],
                      config: ServeConfig,
                      spec: Optional[GpuSpec] = None,
                      timing: Optional[TimingModel] = None,
                      stack: Optional[PartitionedStack] = None):
    """Run one partitioned serving experiment.

    Returns ``{partition_name: ServeReport}`` for every partition that
    served at least one tenant.  Pass a prebuilt ``stack`` to inspect
    partition state (ledger, moves) after the run.
    """
    plan: PartitionPlan = config.pagoda.partition
    if plan is None and stack is None:
        raise ValueError("config.pagoda.partition carries no PartitionPlan")
    if config.num_gpus != 1:
        raise ValueError(
            "partitioned serving runs on one device; scale out with "
            "repro.cluster instead of num_gpus"
        )
    if stack is None:
        stack = PartitionedStack(plan, spec, timing,
                                 _partition_config(config))
    else:
        plan = stack.plan
    # -- pin tenants to partitions -----------------------------------------
    by_partition: Dict[str, List[TenantSpec]] = {}
    default = (plan.partitions[0].name
               if len(plan.partitions) == 1 else None)
    for t in tenants:
        target = t.partition or default
        if target is None:
            raise ValueError(
                f"tenant {t.name!r} has no partition; the plan has "
                f"{len(plan.partitions)} — set TenantSpec.partition"
            )
        if target not in stack.partitions:
            raise ValueError(
                f"tenant {t.name!r} names unknown partition {target!r}"
            )
        by_partition.setdefault(target, []).append(t)

    servers: Dict[str, PartitionServer] = {}
    for name in sorted(by_partition):
        servers[name] = PartitionServer(
            by_partition[name], config, stack.partitions[name])
    for name in sorted(servers):
        stack.workload_procs.extend(servers[name].start())
    stack.engine.run(raise_on_deadlock=True)
    reports = {name: servers[name].finish() for name in sorted(servers)}
    stack.shutdown()
    return reports
