"""Fabric chaos: seeded fault sweeps against the self-healing lane.

Three contracts, straight from the cluster layer's docstrings:

1. **Control arm** — ``fabric_plan=None`` and ``FaultPlan.zero()``
   produce byte-identical ``repro.cluster/1`` digests (the reliable
   lane never turns on for a zero plan).
2. **Conservation + quiescence** — under any seeded fault plan the
   answer-ledger frontier balances (offered == completed + failed +
   dropped, every request answered exactly once) and the fleet
   quiesces (``run_cluster`` raises if it does not).
3. **Replayability** — a faulted run is still a pure function of
   ``(tenants, topology, router, plan)``: its ``to_json()`` sha256
   and engine event count match a recording made while ``workers=0``
   and ``workers=3`` both emitted those bytes.

Plus the explicit partition-then-heal scenario: a quarantined node is
re-admitted (quarantine → probation → readmit events) and every
hedged duplicate is suppressed by the ledger.
"""

import json

import pytest

from repro.cluster import (
    ConsistentHashRouter,
    FLEET_SCHEMA,
    FLEET_SCHEMA_RELIABLE,
    NodeSpec,
    Topology,
    run_cluster,
)
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.phases import Phase
from repro.serve import PoissonArrivals, TenantSpec
from repro.serve.slo import SloClass
from repro.tasks import TaskSpec

from tests.differential.harness import run_pinned

REQUESTS = 12  # per tenant
NODES = 4
LINK_NS = 50_000.0


#: run -> (sha256 of ``to_json()``, summed engine events)
PINNED = {
    "chaos_3": (
        "35767e4ee862d2e55da6bd76694258fc780d75cebc7a7cf05df8d3229bbaa2ff",
        1193),
    "chaos_11": (
        "77f8f7dbe1b5db1a2ec77e9f7862812dcde2bc138f3286eb9922a36b12d3d93f",
        1251),
    "partition": (
        "421a816a4873a3bbca5c0e6d7a4ce8a3137ec75ea8ba65f32dfb55a60517478e",
        1106),
}


def _kernel(task, block_id, warp_id):
    yield Phase(inst=8_000.0, mem_bytes=512)


def _tenants():
    def tasks(prefix):
        return [TaskSpec(f"{prefix}{i % 4}", 64, 2, _kernel)
                for i in range(REQUESTS)]
    # slow arrivals (mean gaps 50/66 us) so the offered load spans the
    # fault horizon — fast chaos is no chaos at all
    return [
        TenantSpec("lat", tasks("lat"), PoissonArrivals(20_000.0, seed=7),
                   slo=SloClass(deadline_ns=3_000_000.0)),
        TenantSpec("bat", tasks("bat"), PoissonArrivals(15_000.0, seed=9),
                   slo=SloClass()),
    ]


def _topology():
    return Topology(nodes=[NodeSpec(f"n{i}") for i in range(NODES)],
                    link_ns=LINK_NS)


def _run(fabric_plan=None, label="chaos"):
    topo = _topology()
    return run_cluster(
        _tenants(), topo,
        router=ConsistentHashRouter(topo, key="request"),
        label=label, fabric_plan=fabric_plan,
    )


def _chaos_plan(seed):
    return FaultPlan.generate_fabric(
        seed, [f"n{i}" for i in range(NODES)],
        n_faults=6, horizon_ns=700_000.0,
        window_ns=(100_000.0, 300_000.0),
        magnitude_ns=(10_000.0, 100_000.0),
    )


def _assert_conserved(report):
    frontier = report.frontier
    offered = frontier["offered"]
    assert offered == 2 * REQUESTS
    assert (frontier["completed"] + frontier["failed"]
            + frontier["dropped"]) == offered, frontier


# -- control arm --------------------------------------------------------------


def test_zero_plan_is_byte_identical_to_no_plan():
    base = _run(fabric_plan=None).to_json()
    zero = _run(fabric_plan=FaultPlan.zero()).to_json()
    assert base == zero
    digest = json.loads(base)
    assert digest["schema"] == FLEET_SCHEMA
    # none of the reliable-lane sections leak into the legacy digest
    assert "reliable" not in digest["fabric"]
    assert "health" not in digest
    assert "frontier" not in digest


# -- seeded sweep -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_chaos_sweep_conserves_and_quiesces(seed):
    report = _run(fabric_plan=_chaos_plan(seed))
    assert report.reliable
    digest = report.to_dict()
    assert digest["schema"] == FLEET_SCHEMA_RELIABLE
    _assert_conserved(report)
    # quiescence: run_cluster returned at all (it raises on a stuck
    # fleet), and the ledger answered every arrival exactly once
    assert digest["health"]["events_total"] == len(report.degradations)
    # every event kind is from the documented vocabulary
    kinds = {e.kind for e in report.degradations}
    assert kinds <= {"retransmit", "dead_letter", "suspect", "quarantine",
                     "probation", "readmit", "relapse", "hedge", "reroute",
                     "defer"}


def test_sweep_actually_perturbs_some_seeds():
    """The sweep is not vacuous: across the seed range, faults fire on
    the wire and the reliability machinery does real work."""
    fired = 0
    retransmits = 0
    for seed in range(25):
        report = _run(fabric_plan=_chaos_plan(seed))
        fired += sum(report.fabric_faults.values())
        retransmits += report.fabric_retransmits
    assert fired > 0
    assert retransmits > 0


# -- recorded bytes under faults ----------------------------------------------


@pytest.mark.parametrize("seed", (3, 11))
def test_fault_plan_bytes_match_across_worker_counts(seed):
    report, pin = run_pinned(lambda: _run(fabric_plan=_chaos_plan(seed)))
    assert pin == PINNED[f"chaos_{seed}"]
    _assert_conserved(report)


# -- partition-then-heal ------------------------------------------------------


def _partition_plan(node="n1", at_ns=200_000.0, span_ns=400_000.0):
    return FaultPlan(specs=[
        FaultSpec(kind="fabric.link.partition", at_ns=at_ns,
                  magnitude_ns=span_ns, target=node),
    ], seed=0)


def test_partition_then_heal_readmits_and_suppresses_hedge_dups():
    report = _run(fabric_plan=_partition_plan())
    _assert_conserved(report)

    # the dark node was quarantined, then re-admitted once it healed
    kinds_for_n1 = [e.kind for e in report.degradations
                    if e.node == "n1"]
    assert "quarantine" in kinds_for_n1
    assert "probation" in kinds_for_n1
    assert "readmit" in kinds_for_n1
    assert report.health_final == {f"n{i}": "healthy"
                                   for i in range(NODES)}

    # requests stuck behind the partition were hedged onto good nodes,
    # and the racing duplicate answers were suppressed by the ledger
    assert report.hedges > 0
    assert report.hedge_dups > 0
    assert report.frontier["hedge_dups_suppressed"] == report.hedge_dups
    assert any(e.kind == "hedge" for e in report.degradations)

    # the partition swallowed real traffic and retransmits recovered it
    assert report.fabric_wire_dropped > 0
    assert report.fabric_retransmits > 0
    assert "fabric.link.partition" in report.fabric_faults


def test_partition_identity_across_worker_counts():
    _, pin = run_pinned(lambda: _run(fabric_plan=_partition_plan()))
    assert pin == PINNED["partition"]


# -- report shape -------------------------------------------------------------


def test_reliable_digest_sections_are_complete():
    digest = _run(fabric_plan=_partition_plan()).to_dict()
    rel = digest["fabric"]["reliable"]
    for key in ("policy", "retransmits", "dead_lettered", "acked",
                "dup_suppressed", "abandoned", "wire_dropped",
                "wire_held"):
        assert key in rel
    assert rel["policy"].startswith("at-least-once(")
    assert digest["fabric"]["faults"]["plan"].startswith("fabric_plan(")
    assert digest["health"]["policy"].startswith("digest-suspicion(")
    for key in ("hedged", "rerouted", "deferred"):
        assert key in digest["routing"]
    events = digest["health"]["events"]
    assert len(events) <= 1000
    assert all(set(e) >= {"when_ns", "kind", "node"} for e in events)
