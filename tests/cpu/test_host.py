"""Tests for the host CPU core model."""

import dataclasses

import pytest

from repro.cpu import HostCpu, run_pthreads
from repro.gpu.phases import Phase
from repro.gpu.timing import TimingModel
from repro.sim import Engine
from repro.tasks import TaskSpec

TIMING = TimingModel(cpu_core_warpinst_per_ns=0.5, cpu_mem_bandwidth_bpns=10.0)


def test_num_cores_validation():
    with pytest.raises(ValueError):
        HostCpu(Engine(), TIMING, num_cores=0)


def test_service_time_compute_bound():
    cpu = HostCpu(Engine(), TIMING, 4)
    # 100 inst at 0.5/ns -> 200 ns; memory 100/10=10ns -> max is 200
    assert cpu.service_time(Phase(100, 100)) == pytest.approx(200.0)


def test_service_time_memory_bound():
    cpu = HostCpu(Engine(), TIMING, 4)
    # 10 inst -> 20 ns compute; 10_000 bytes -> 1000 ns memory
    assert cpu.service_time(Phase(10, 10_000)) == pytest.approx(1000.0)


def _pool_tasks(n, inst):
    def kernel(task, block_id, warp_id):
        yield Phase(inst)
    return [TaskSpec(f"t{i}", 32, 1, kernel) for i in range(n)]


#: TIMING without thread-creation or dispatch costs.
POOL = dataclasses.replace(TIMING, pthread_create_ns=0.0,
                           pthread_dispatch_ns=0.0)


def test_run_task_holds_one_core():
    stats = run_pthreads(_pool_tasks(2, 50), num_cores=1, timing=POOL)
    ends = sorted(r.end_time for r in stats.results)
    assert ends == [pytest.approx(100.0), pytest.approx(200.0)]


def test_run_task_dispatch_overhead():
    timing = dataclasses.replace(POOL, pthread_dispatch_ns=25.0)
    stats = run_pthreads(_pool_tasks(1, 50), num_cores=1, timing=timing)
    assert [r.end_time for r in stats.results] == [pytest.approx(125.0)]


def test_parallel_speedup_matches_core_count():
    def run(cores, n_tasks):
        return run_pthreads(_pool_tasks(n_tasks, 100), num_cores=cores,
                            timing=POOL).makespan

    serial = run(1, 8)
    parallel = run(4, 8)
    assert serial / parallel == pytest.approx(4.0)
