"""Partition fault-domain isolation.

The contract SR-IOV-style partitioning makes: a fault plan scoped to
one partition may wreck that partition's schedule, but every sibling
partition's canonical serve report stays byte-identical — both to the
same run without the fault and to the sibling running entirely alone.
"""

import hashlib

import pytest

from repro.core import PagodaConfig
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.phases import Phase
from repro.partition import PartitionedStack, PartitionPlan
from repro.partition.serve import serve_partitioned
from repro.serve import (DeterministicArrivals, ServeConfig, TenantSpec,
                         serve)
from repro.tasks import TaskSpec

from tests.differential.harness import drained_both_ways


def _kernel(task, block_id, warp_id):
    yield Phase(inst=20_000.0)
    yield Phase(inst=20_000.0, mem_bytes=512.0)


def _tasks(prefix, n):
    return [TaskSpec(f"{prefix}{i}", threads_per_block=128, num_blocks=1,
                     kernel=_kernel) for i in range(n)]


def _plan(fault_plan=None):
    plan = PartitionPlan.from_mode("DPX", names=["noisy", "quiet"])
    noisy, _quiet = plan.partitions
    noisy.fault_plan = fault_plan
    return plan


def _brownout_plan():
    # mid-run brown-outs of two of the noisy partition's own MTBs
    return FaultPlan(specs=[
        FaultSpec(kind="gpu.brownout", at_ns=30_000.0, target=0),
        FaultSpec(kind="gpu.brownout", at_ns=45_000.0, target=5),
    ])


def _brownouts_at(*targets):
    return FaultPlan(specs=[
        FaultSpec(kind="gpu.brownout", at_ns=30_000.0 + 15_000.0 * i,
                  target=target)
        for i, target in enumerate(targets)])


def _tenants(include_noisy=True):
    # quiet trickles in; noisy slams every column at once so the
    # brown-outs land on occupied MTBs
    tenants = [TenantSpec("quiet", _tasks("q", 24),
                          DeterministicArrivals(4_000.0), partition="quiet")]
    if include_noisy:
        tenants.append(TenantSpec("noisy", _tasks("n", 24),
                                  DeterministicArrivals(500.0),
                                  partition="noisy"))
    return tenants


def _run(fault_plan=None, include_noisy=True):
    config = ServeConfig(partition=_plan(fault_plan))
    return serve_partitioned(_tenants(include_noisy), config)


def test_brownout_leaves_sibling_report_bytes_unchanged():
    clean = _run()
    faulted = _run(fault_plan=_brownout_plan())
    # the fault domain held: the sibling's canonical report is
    # byte-for-byte the report it got without the fault
    assert faulted["quiet"].to_json() == clean["quiet"].to_json()
    # and the fault was real: the noisy partition's own report moved
    assert faulted["noisy"].to_json() != clean["noisy"].to_json()
    assert clean["quiet"].completed == 24


def test_sibling_schedule_matches_solo_run():
    solo = _run(include_noisy=False)
    duo = _run()
    faulted = _run(fault_plan=_brownout_plan())
    assert duo["quiet"].to_json() == solo["quiet"].to_json()
    assert faulted["quiet"].to_json() == solo["quiet"].to_json()


def test_lanes_agree_on_partition_reports():
    """Every partition's report is the same under sliced drains."""
    plain, sliced = drained_both_ways(_run, fault_plan=_brownout_plan())
    for name in ("noisy", "quiet"):
        assert plain[name].to_json() == sliced[name].to_json()


def test_gpu_die_in_a_partition_plan_is_rejected():
    """A partition shares its GPU with its siblings, so the GPU's death
    is no partition fault: building the partition refuses it instead
    of serving every request as if the fault were not there."""
    plan = PartitionPlan.from_mode("SPX")
    plan.partitions[0].fault_plan = FaultPlan(specs=[
        FaultSpec(kind="gpu.die", at_ns=20_000.0)])
    tenants = [TenantSpec("t", _tasks("t", 40),
                          DeterministicArrivals(1_000.0))]
    config = ServeConfig(partition=plan)
    with pytest.raises(ValueError, match="NodeSpec.fault_plan"):
        serve(tenants, config)


#: sha256 of the noisy partition's report under ``_brownout_plan()``,
#: recorded before partitions were sessions.
NOISY_BROWNOUT_SHA256 = (
    "2dc3a63011d22a42b2414ad984d1374e2aba050779964a7959aae656306eb969")


def _sha256(report):
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def test_noisy_brownout_report_matches_recording():
    assert _sha256(_run(fault_plan=_brownout_plan())["noisy"]) == \
        NOISY_BROWNOUT_SHA256


def test_brownout_targets_wrap_within_the_partitions_boot_columns():
    """DPX's noisy partition boots on 24 columns, so target ``t + 24``
    lands where ``t`` does."""
    assert _sha256(_run(fault_plan=_brownouts_at(24, 29))["noisy"]) == \
        NOISY_BROWNOUT_SHA256


def test_brownout_of_a_lent_smm_fires_nothing():
    """Targets 22 and 23 are SMM 11's columns; once noisy lent that SMM
    to quiet, their brown-outs are no fault of noisy's or quiet's."""
    plan = _plan(_brownouts_at(22, 23))
    stack = PartitionedStack(plan)
    assert stack.lend_smm("noisy", "quiet", 11)
    reports = serve_partitioned(_tenants(), ServeConfig(), stack=stack)
    assert stack.moves == [(0.0, "noisy", "quiet", 11)]
    assert stack.partitions["noisy"].faults.injected_count == 0
    assert reports["noisy"].completed == 24
    assert reports["quiet"].completed == 24


def _one_tenant(partition=None):
    return [TenantSpec("t", _tasks("t", 4), DeterministicArrivals(1_000.0),
                       partition=partition)]


@pytest.mark.parametrize("tenants, config, message", [
    (_one_tenant("p0"), ServeConfig(), "tenant 't' names partition 'p0'"),
    (_one_tenant(), ServeConfig(partition=PartitionPlan.from_mode("DPX")),
     "tenant 't' has no partition; the plan has 2"),
    (_one_tenant("nope"),
     ServeConfig(partition=PartitionPlan.from_mode("DPX")),
     "tenant 't' names unknown partition 'nope'"),
    (_one_tenant(), ServeConfig(partition=PartitionPlan.from_mode("SPX"),
                                num_gpus=2),
     "partitioned serving runs on one device"),
    (_one_tenant(), ServeConfig(
        partition=PartitionPlan.from_mode("SPX"),
        pagoda=PagodaConfig(fault_plan=FaultPlan(specs=[
            FaultSpec(kind="gpu.brownout", at_ns=1_000.0)]))),
     "partitioned stacks take per-partition fault plans"),
], ids=["no-plan", "no-partition", "unknown-partition", "two-gpus",
        "device-fault-plan"])
def test_partitioned_serving_rejects_bad_input(tenants, config, message):
    with pytest.raises(ValueError, match=message):
        serve(tenants, config)
