"""Memoized phase tables: a keyed kernel's warps share one item tuple.

A timing kernel that declares ``phase_key`` (``repro.gpu.phases.
phase_table``) has its items built once per distinct key per run
(``Gpu.warp_items``).  That is only sound when the key captures every
task field the kernel reads, so the tests here pin:

- completeness, for every registered workload and every other keyed
  kernel in the tree: across thread counts, regular and irregular
  inputs, one and two blocks, sync on and off, shared memory on and
  off (dct, mm) and a fused batch, every warp's table equals its fresh generator's items, and
  tasks whose fresh streams differ never share a key;
- the fallbacks: an unkeyed kernel (or a fused block whose sub-task is
  unkeyed) runs its generator, and a keyed kernel that raises
  mid-stream fails exactly as its unkeyed twin does, in all three
  runtimes that run warps.
"""

import dataclasses
import types

import pytest

from repro.baselines import run_gemtc, run_hyperq
from repro.baselines.fusion import fuse_tasks
from repro.bench import ablations, cluster, obs_profile, partition, priorities
from repro.core import PagodaConfig
from repro.core.errors import TaskError, TaskErrorGroup
from repro.core.runtime import PagodaSession
from repro.gpu import Gpu, Phase
from repro.gpu.phases import BLOCK_SYNC, phase_table
from repro.scenarios import catalog
from repro.sim import Engine
from repro.tasks import TaskResult, TaskSpec
from repro.workloads import MATMUL, REGISTRY

THREADS = (32, 64, 128, 256)
TASKS = 12


def _items(stream) -> tuple:
    """A stream's items, compared by ``repr``: ``-0.0`` against ``0.0``
    or an int against a float would be equal yet not bit-identical."""
    return tuple(repr(item) for item in stream)


def _check_tables(tasks):
    """Walk every warp of ``tasks`` through one GPU's tables."""
    gpu = Gpu(Engine())
    streams = {}
    for task in tasks:
        kernel = task.kernel
        for block in range(task.num_blocks):
            for warp in range(task.warps_per_block):
                fresh = _items(kernel(task, block, warp))
                assert _items(gpu.warp_items(task, block, warp)) == fresh
                key = kernel.phase_key(task, block, warp)
                assert key is not None
                # equal keys, equal streams
                assert streams.setdefault((kernel, key), fresh) == fresh, (
                    task.name, key)
    # every warp went through a table, one per distinct key
    assert len(gpu._tables) == len(streams)
    return streams


def _reshaped(tasks):
    """Each task again with two blocks, with its sync flag flipped and
    with shared memory toggled: every launch field a kernel may read."""
    return ([dataclasses.replace(task, num_blocks=2) for task in tasks]
            + [dataclasses.replace(task, needs_sync=not task.needs_sync)
               for task in tasks]
            + [dataclasses.replace(
                task, shared_mem_bytes=0 if task.shared_mem_bytes else 4096)
               for task in tasks])


def _workload_tasks(name):
    workload = REGISTRY.get(name)
    tasks = []
    for threads in THREADS:
        for irregular in (False, True):
            batch = workload.make_tasks(TASKS, threads, seed=threads,
                                        irregular=irregular)
            tasks += batch + _reshaped(batch)
    return tasks


@pytest.mark.parametrize("name", REGISTRY.names())
def test_workload_keys_are_complete(name):
    tasks = _workload_tasks(name)
    streams = _check_tables(tasks)
    # the sweep shares tables: fewer keys than warps
    assert len(streams) < sum(task.total_warps for task in tasks)


def test_fused_batch_delegates_to_its_sub_tasks():
    tasks = REGISTRY.get("mpe").make_tasks(4 * TASKS, 128, irregular=True)
    fused = [fuse_tasks(tasks), fuse_tasks(tasks, fused_threads=128)]
    streams = _check_tables(fused)
    assert {kernel for kernel, _key in streams} == {fused[0].kernel}
    assert {key[0] for _kernel, key in streams} == {
        t.kernel for t in tasks}


def _serve_tenant_tasks(tenants):
    return [task for tenant in tenants for task in tenant.tasks]


#: every keyed kernel outside ``repro.workloads``, on the geometries
#: its experiment spawns
IN_TREE = {
    "partition._inst_kernel": lambda: (
        partition._make_tasks("v", 8, partition.VICTIM_INST,
                              partition.VICTIM_THREADS)
        + partition._make_tasks("a", 8, partition.AGGRESSOR_INST,
                                partition.AGGRESSOR_THREADS)),
    "priorities._const_kernel": lambda: priorities.build_mix(40, True),
    "cluster._bench_kernel": lambda: _serve_tenant_tasks(
        cluster.fleet_tenants()),
    "obs_profile._kernel": lambda: [
        TaskSpec(f"t{i}", 128, 1, obs_profile._kernel) for i in range(4)],
    "ablations.tiny_kernel": lambda: [
        TaskSpec("t", warps * 32, 1, ablations.tiny_kernel)
        for warps in (4, 8, 16)],
    "catalog._serve_kernel": lambda: catalog._serve_tasks("s", 8),
    "catalog._trace_kernel": lambda: [
        TaskSpec(f"x.{i}", 64, 1, catalog._trace_kernel) for i in range(4)],
    "catalog._cluster_kernel": lambda: _serve_tenant_tasks(
        catalog._cluster_tenants(0)),
    "catalog._nn_kernel": lambda: _serve_tenant_tasks(
        catalog._nn_tenants(0, partitioned=True)),
}


@pytest.mark.parametrize("name", sorted(IN_TREE))
def test_in_tree_keys_are_complete(name):
    tasks = IN_TREE[name]()
    _check_tables(tasks + _reshaped(tasks))


# ---------------------------------------------------------------------------
# Fallbacks: the generator path
# ---------------------------------------------------------------------------

def _plain(task, block_id, warp_id):
    yield Phase(10.0)


def test_unkeyed_kernels_run_their_generator():
    gpu = Gpu(Engine())
    plain = TaskSpec("p", 64, 1, _plain)
    assert isinstance(gpu.warp_items(plain, 0, 1), types.GeneratorType)
    fused = fuse_tasks([plain, MATMUL.make_tasks(1)[0]])
    assert fused.kernel.phase_key(fused, 0, 0) is None
    assert isinstance(gpu.warp_items(fused, 0, 0), types.GeneratorType)
    assert _items(gpu.warp_items(fused, 1, 0)) == _items(
        fused.kernel(fused, 1, 0))
    assert len(gpu._tables) == 1


def _faulty_items(task, block_id, warp_id):
    """Warp 3 of a ``work=True`` task raises before its third phase."""
    for i in range(4):
        if task.work and warp_id == 3 and i == 2:
            raise RuntimeError("warp 3 bug")
        yield Phase(80 + 10 * warp_id, 512 if i % 2 else 0)
        if i == 1:
            yield BLOCK_SYNC


def _unkeyed(task, block_id, warp_id):
    return _faulty_items(task, block_id, warp_id)


@phase_table(lambda task, block_id, warp_id: (task.work, warp_id))
def _keyed(task, block_id, warp_id):
    return _faulty_items(task, block_id, warp_id)


def _faulty_tasks(kernel):
    return [TaskSpec(f"f{n}", 128, 2, kernel, needs_sync=True,
                     work=n % 3 == 1) for n in range(6)]


def _pagoda_failures(tasks):
    session = PagodaSession(config=PagodaConfig(
        copy_inputs=False, copy_outputs=False))
    host = session.host
    results = [TaskResult(i, t.name) for i, t in enumerate(tasks)]

    def host_thread():
        for task, result in zip(tasks, results):
            yield from host.task_spawn(task, result)
        try:
            yield from host.wait_all()
        except (TaskError, TaskErrorGroup):
            pass

    session.engine.spawn(host_thread(), name="host")
    session.engine.run(until=1.0e7)
    errors = sorted((e.task_id, e.reason, e.when_ns)
                    for e in host.task_errors())
    session.shutdown()
    return ([(r.start_time, r.end_time) for r in results], errors)


def _baseline_failure(run):
    def go(tasks, engines):
        try:
            run(tasks)
        except RuntimeError as exc:
            return repr(exc), engines[-1].now
        raise AssertionError("the kernel fault did not propagate")
    return go


FAILING = {"pagoda": lambda tasks, _engines: _pagoda_failures(tasks),
           "cuda": _baseline_failure(run_hyperq),
           "gemtc": _baseline_failure(run_gemtc)}


@pytest.mark.parametrize("runner", sorted(FAILING))
def test_raising_keyed_kernel_fails_like_its_unkeyed_twin(monkeypatch,
                                                         runner):
    engines = []
    init = Engine.__init__

    def registered(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(Engine, "__init__", registered)
    keyed = FAILING[runner](_faulty_tasks(_keyed), engines)
    assert keyed == FAILING[runner](_faulty_tasks(_unkeyed), engines)
    if runner == "pagoda":
        assert [reason for _id, reason, _when in keyed[1]] == [
            "kernel exception: RuntimeError: warp 3 bug"] * 2
    else:
        assert keyed[0] == "RuntimeError('warp 3 bug')" and keyed[1] > 0
