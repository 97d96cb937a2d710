"""The built-in incident catalog: seven scenarios across the serve,
fault, cluster and partition layers (the paper layer's claims live in
:mod:`repro.scenarios.paper`).

Each scenario is one packaged incident with the detectors that decide
whether the stack handled it — the experiment definitions ROADMAP
item 4 asked for.  Every workload here is deliberately small: the
whole catalog runs in seconds so CI can matrix it, and each runner is
a pure function of its seed.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench import partition as bench_partition
from repro.cluster import ConsistentHashRouter, NodeSpec, Topology, run_cluster
from repro.core.runtime import PagodaConfig
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.phases import Phase, phase_table
from repro.obs import Obs
from repro.partition import PartitionPlan
from repro.scenarios.detectors import (
    Conservation,
    ExtraValue,
    ObsCounterMatchesReport,
    ObsValue,
    ReadmitWithin,
    ReportValue,
)
from repro.scenarios.registry import register
from repro.scenarios.spec import Scenario, ScenarioOutcome, ScenarioParams
from repro.scenarios.trace import load_trace, task_mix, tenant_arrivals
from repro.serve import (
    BurstyArrivals,
    DeterministicArrivals,
    PoissonArrivals,
    ServeConfig,
    TenantSpec,
    TokenBucket,
    serve,
)
from repro.serve.server import TaskServer
from repro.serve.slo import SloClass
from repro.tasks import TaskSpec


# -- shared serve-layer workload ----------------------------------------------

_WORK = {"shared": True}


@phase_table()
def _serve_kernel(task, block_id, warp_id):
    yield Phase(inst=2_000.0, mem_bytes=256)


def _serve_tasks(prefix: str, n: int) -> List[TaskSpec]:
    return [TaskSpec(f"{prefix}{i}", 128, 1, _serve_kernel, work=_WORK)
            for i in range(n)]


def _obs_config(**pagoda_kwargs):
    """A ServeConfig wired for snapshots (profile off: scenario results
    must not carry host-time numbers)."""
    obs = Obs(profile=False)
    config = ServeConfig(
        pagoda=PagodaConfig(obs=obs, **pagoda_kwargs))
    return config, obs


def _serve_with_obs(tenants, config, obs) -> ScenarioOutcome:
    server = TaskServer(tenants, config)
    report = server.run()
    return report, obs.snapshot(server.engine)


# -- serve.token_bucket_overload ----------------------------------------------


def _overload_runner(params: ScenarioParams) -> ScenarioOutcome:
    # calibrate this stack's service capacity with a flood, then offer
    # 2x that — once without admission control, once behind a token
    # bucket at 0.8x capacity
    cal = serve(
        [TenantSpec("cal", _serve_tasks("c", 150),
                    DeterministicArrivals(100.0))],
        ServeConfig(label="calibrate"),
    )
    capacity = cal.completed * 1e9 / cal.makespan_ns

    # long enough that the unprotected queue's tail visibly grows —
    # the token bucket's p99 bound is independent of run length
    def overload_tenant():
        return [TenantSpec("load", _serve_tasks("o", 400),
                           PoissonArrivals(2.0 * capacity,
                                           seed=params.seed + 5))]

    baseline = serve(
        overload_tenant(),
        ServeConfig(label="baseline"))
    config, obs = _obs_config()
    config.policy = TokenBucket(rate_per_s=0.8 * capacity, burst=8)
    config.label = "protected"
    protected, snap = _serve_with_obs(overload_tenant(), config, obs)
    return ScenarioOutcome(
        report={"baseline": baseline.to_dict(),
                "protected": protected.to_dict()},
        obs=snap,
        extra={
            "capacity_per_s": round(capacity, 3),
            "p99_ratio": round(baseline.p99_us / protected.p99_us, 3),
        },
    )


register(Scenario(
    name="serve.token_bucket_overload",
    version=1,
    layer="serve",
    description=("2x open-loop overload: the token bucket sheds load "
                 "and holds p99 far below the unprotected tail"),
    runner=_overload_runner,
    detectors=(
        ExtraValue("tail_bounded", "p99_ratio", ">=", 2.0),
        ReportValue("sheds_load", "protected.totals.dropped", ">", 0),
        Conservation("protected_conserved", "protected.totals"),
        Conservation("baseline_conserved", "baseline.totals"),
        ObsCounterMatchesReport("obs_counts_completions",
                                "serve.completed",
                                "protected.totals.completed"),
        ObsValue("obs_saw_drops", "counters.serve.dropped", ">", 0),
    ),
))


# -- fault.smm_brownout_admission ---------------------------------------------


def _brownout_runner(params: ScenarioParams) -> ScenarioOutcome:
    # a seeded SMM brownout (the chaos plan of tests/serve/test_report)
    # hits a token-bucket-protected server mid-overload
    plan = FaultPlan.generate(seed=params.seed + 3, n_faults=6,
                              horizon_ns=300_000.0, columns=48)
    watchdog = 2_000_000.0 if plan.needs_watchdog() else None
    config, obs = _obs_config(fault_plan=plan,
                              watchdog_deadline_ns=watchdog)
    config.policy = TokenBucket(rate_per_s=1_500_000.0, burst=8)
    config.label = "brownout"
    tenants = [TenantSpec(
        "svc", _serve_tasks("b", 200),
        PoissonArrivals(4_000_000.0, seed=params.seed + 7),
        slo=SloClass(deadline_ns=3_000_000.0),
    )]
    report, snap = _serve_with_obs(tenants, config, obs)
    return ScenarioOutcome(report=report.to_dict(), obs=snap)


register(Scenario(
    name="fault.smm_brownout_admission",
    version=1,
    layer="fault",
    description=("seeded SMM brownout under 2x overload: chaos fires, "
                 "the bucket keeps shedding, no request is lost"),
    runner=_brownout_runner,
    detectors=(
        ReportValue("chaos_fired", "faults_injected", ">", 0),
        ReportValue("service_survives", "totals.completed", ">", 0),
        ReportValue("bucket_sheds", "totals.dropped", ">", 0),
        Conservation(),
        ObsCounterMatchesReport("obs_counts_drops", "serve.dropped",
                                "totals.dropped"),
    ),
))


# -- serve.trace_replay -------------------------------------------------------

#: total instances in the bundled sample trace (locked by the golden
#: round-trip test in tests/scenarios/test_trace.py).
SAMPLE_TRACE_INSTANCES = 41


@phase_table()
def _trace_kernel(task, block_id, warp_id):
    yield Phase(inst=4_000.0, mem_bytes=512)


def _trace_runner(params: ScenarioParams) -> ScenarioOutcome:
    rows = load_trace()
    mix = task_mix(rows)
    arrivals = tenant_arrivals(rows, time_scale_ns=1e5,
                               stagger_ns=2_000.0, seed=params.seed)
    tenants = [
        TenantSpec(task_type,
                   [TaskSpec(f"{task_type}.{i}", 64, 1, _trace_kernel)
                    for i in range(count)],
                   arrivals[task_type])
        for task_type, count in mix.items()
    ]
    config, obs = _obs_config()
    config.label = "trace-replay"
    report, snap = _serve_with_obs(tenants, config, obs)
    return ScenarioOutcome(
        report=report.to_dict(), obs=snap,
        extra={
            "trace_rows": float(len(rows)),
            "trace_instances": float(sum(mix.values())),
            "offered_minus_trace":
                float(report.offered - sum(mix.values())),
        },
    )


register(Scenario(
    name="serve.trace_replay",
    version=1,
    layer="serve",
    description=("replay the bundled Alibaba-style sample trace: every "
                 "instance arrives on schedule and completes"),
    runner=_trace_runner,
    detectors=(
        ExtraValue("replays_whole_trace", "offered_minus_trace",
                   "==", 0.0),
        ReportValue("offered_matches_trace", "totals.offered", "==",
                    SAMPLE_TRACE_INSTANCES),
        ReportValue("nothing_dropped", "totals.dropped", "==", 0),
        ReportValue("nothing_failed", "totals.failed", "==", 0),
        Conservation(),
        ObsCounterMatchesReport("obs_counts_offered", "serve.offered",
                                "totals.offered"),
    ),
))


# -- cluster scenarios --------------------------------------------------------

_CLUSTER_NODES = 4
_CLUSTER_LINK_NS = 50_000.0
_CLUSTER_REQUESTS = 12


@phase_table()
def _cluster_kernel(task, block_id, warp_id):
    yield Phase(inst=8_000.0, mem_bytes=512)


def _cluster_tenants(seed: int) -> List[TenantSpec]:
    def tasks(prefix):
        return [TaskSpec(f"{prefix}{i % 4}", 64, 2, _cluster_kernel)
                for i in range(_CLUSTER_REQUESTS)]
    # slow arrivals so the offered load spans the fault horizon
    return [
        TenantSpec("lat", tasks("lat"),
                   PoissonArrivals(20_000.0, seed=seed + 7),
                   slo=SloClass(deadline_ns=3_000_000.0)),
        TenantSpec("bat", tasks("bat"),
                   PoissonArrivals(15_000.0, seed=seed + 9),
                   slo=SloClass()),
    ]


def _cluster_run(params: ScenarioParams, plan: FaultPlan, label: str):
    topo = Topology(
        nodes=[NodeSpec(f"n{i}") for i in range(_CLUSTER_NODES)],
        link_ns=_CLUSTER_LINK_NS)
    return run_cluster(
        _cluster_tenants(params.seed), topo,
        router=ConsistentHashRouter(topo, key="request"),
        label=label, fabric_plan=plan,
    )


def _partition_heal_runner(params: ScenarioParams) -> ScenarioOutcome:
    plan = FaultPlan(specs=[
        FaultSpec(kind="fabric.link.partition", at_ns=200_000.0,
                  magnitude_ns=400_000.0, target="n1"),
    ], seed=params.seed)
    report = _cluster_run(params, plan, "partition-heal")
    return ScenarioOutcome(report=report.to_dict())


register(Scenario(
    name="cluster.partition_heal",
    version=1,
    layer="cluster",
    description=("a node goes dark for 400us: traffic hedges around "
                 "it, the ledger suppresses duplicates, and the node "
                 "is readmitted promptly after the heal"),
    runner=_partition_heal_runner,
    detectors=(
        ReadmitWithin("readmits_promptly", node="n1", epochs=16),
        Conservation("ledger_balances", "frontier"),
        ReportValue("hedges_fired", "routing.hedged", ">", 0),
        ReportValue("dups_suppressed",
                    "frontier.hedge_dups_suppressed", ">", 0),
        ReportValue("wire_loss_recovered",
                    "fabric.reliable.retransmits", ">", 0),
    ),
))


def _lossy_fabric_runner(params: ScenarioParams) -> ScenarioOutcome:
    plan = FaultPlan(specs=[
        FaultSpec(kind="fabric.link.drop", meta={"rate": 0.05}),
    ], seed=params.seed + 1)
    report = _cluster_run(params, plan, "lossy-fabric")
    return ScenarioOutcome(report=report.to_dict())


register(Scenario(
    name="cluster.lossy_fabric",
    version=1,
    layer="cluster",
    description=("5% wire loss on every link: retransmits recover "
                 "every message and the answer ledger still balances"),
    runner=_lossy_fabric_runner,
    detectors=(
        Conservation("ledger_balances", "frontier"),
        ReportValue("wire_actually_lossy",
                    "fabric.reliable.wire_dropped", ">", 0),
        ReportValue("retransmits_recover",
                    "fabric.reliable.retransmits", ">", 0),
        ReportValue("nothing_dead_lettered",
                    "fabric.reliable.dead_lettered", "==", 0),
    ),
))


# -- partition.noisy_neighbor -------------------------------------------------

_NN_TASKS = 96
_NN_BURST = 48


@phase_table(lambda task, block_id, warp_id: task.work)
def _nn_kernel(task, block_id, warp_id):
    inst = task.work / 4.0
    for _ in range(3):
        yield Phase(inst=inst)
    yield Phase(inst=inst, mem_bytes=256.0)


def _nn_tenants(seed: int, partitioned: bool) -> List[TenantSpec]:
    victim = TenantSpec(
        "victim",
        [TaskSpec(f"v{i}", 64, 1, _nn_kernel, work=2_000.0,
                  regs_per_thread=32) for i in range(_NN_TASKS)],
        PoissonArrivals(400_000.0, seed=seed + 1),
        partition="victim" if partitioned else None,
    )
    aggressor = TenantSpec(
        "aggressor",
        [TaskSpec(f"a{i}", 256, 1, _nn_kernel, work=40_000.0,
                  regs_per_thread=64) for i in range(_NN_TASKS)],
        BurstyArrivals(burst_size=_NN_BURST, gap_in_burst_ns=150.0,
                       idle_gap_ns=120_000.0, seed=seed + 2),
        partition="aggressor" if partitioned else None,
    )
    return [victim, aggressor]


def _noisy_neighbor_runner(params: ScenarioParams) -> ScenarioOutcome:
    shared = serve(
        _nn_tenants(params.seed, False),
        ServeConfig(label="shared"))
    plan = PartitionPlan.from_mode("DPX", oversubscribe=1.5,
                                   names=["victim", "aggressor"])
    parts = serve(
        _nn_tenants(params.seed, True),
        ServeConfig(pagoda=PagodaConfig(partition=plan),
                    label="static"))
    shared_p99 = shared.tenant_stats["victim"]["hist"].percentile(99)
    static_p99 = parts["victim"].tenant_stats["victim"][
        "hist"].percentile(99)
    report: Dict[str, dict] = {
        "shared": shared.to_dict(),
        "static": {name: rep.to_dict()
                   for name, rep in sorted(parts.items())},
    }
    return ScenarioOutcome(
        report=report,
        extra={
            "victim_p99_shared_us": round(shared_p99 / 1e3, 3),
            "victim_p99_static_us": round(static_p99 / 1e3, 3),
            "p99_shared_over_static":
                round(shared_p99 / static_p99, 3),
        },
    )


register(Scenario(
    name="partition.noisy_neighbor",
    version=1,
    layer="partition",
    description=("bursty aggressor vs steady victim on one device: a "
                 "static DPX split strictly improves the victim's p99 "
                 "over the shared stack"),
    runner=_noisy_neighbor_runner,
    detectors=(
        ExtraValue("isolation_improves_tail", "p99_shared_over_static",
                   ">", 1.0),
        Conservation("shared_conserved", "shared.totals"),
        Conservation("victim_conserved", "static.victim.totals"),
        Conservation("aggressor_conserved", "static.aggressor.totals"),
        ReportValue("victim_unharmed", "static.victim.totals.dropped",
                    "==", 0),
    ),
))


# -- partition.elastic_recovery -----------------------------------------------


def _elastic_recovery_runner(params: ScenarioParams) -> ScenarioOutcome:
    results = bench_partition.run(num_tasks=96, seed=params.seed)
    report = {mode: {k: round(v, 3) for k, v in sorted(cell.items())}
              for mode, cell in sorted(results["results"].items())}
    return ScenarioOutcome(
        report=report,
        extra={
            "p99_shared_over_static":
                round(results["p99_shared_over_static"], 3),
            "elastic_util_recovery":
                round(results["elastic_util_recovery"], 3),
        },
        text=bench_partition.report(results),
    )


register(Scenario(
    name="partition.elastic_recovery",
    version=1,
    layer="partition",
    description=("shared vs static DPX vs elastic DPX on one device: "
                 "static isolation improves the victim's p99, and the "
                 "elastic rebalancer wins back at least half of the "
                 "utilization static isolation gives up"),
    runner=_elastic_recovery_runner,
    detectors=(
        ExtraValue("isolation_improves_tail", "p99_shared_over_static",
                   ">", 1.0),
        ExtraValue("recovers_half_the_gap", "elastic_util_recovery",
                   ">=", 0.5),
    ),
))
