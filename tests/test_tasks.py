"""Tests for the shared TaskSpec/TaskResult/RunStats abstractions."""

import pytest

from repro.gpu.phases import BLOCK_SYNC, Phase
from repro.tasks import RunStats, TaskResult, TaskSpec


def simple_kernel(task, block_id, warp_id):
    yield Phase(inst=100, mem_bytes=64)
    yield BLOCK_SYNC
    yield Phase(inst=50)


def make_task(**kw):
    defaults = dict(
        name="t", threads_per_block=128, num_blocks=2, kernel=simple_kernel
    )
    defaults.update(kw)
    return TaskSpec(**defaults)


def test_geometry_derived_fields():
    task = make_task()
    assert task.warps_per_block == 4
    assert task.total_warps == 8
    assert task.total_threads == 256


def test_geometry_rounds_partial_warps():
    task = make_task(threads_per_block=100)
    assert task.warps_per_block == 4


def test_validation():
    with pytest.raises(ValueError):
        make_task(threads_per_block=0)
    with pytest.raises(ValueError):
        make_task(num_blocks=0)


def test_warp_phases_stream():
    task = make_task()
    phases = list(task.warp_phases(0, 0))
    assert phases[0] == Phase(100, 64)
    assert phases[1] is BLOCK_SYNC
    assert phases[2] == Phase(50, 0)


def test_cpu_cost_sums_all_warps():
    task = make_task()
    cost = task.cpu_cost()
    # 8 warps x (100 + 50) inst, 8 x 64 bytes
    assert cost.inst == 8 * 150
    assert cost.mem_bytes == 8 * 64


def test_task_result_latency():
    res = TaskResult(0, "t", spawn_time=10.0, sched_time=12.0,
                     start_time=15.0, end_time=40.0)
    assert res.latency == 30.0
    assert res.exec_time == 25.0


def test_run_stats_mean_latency():
    stats = RunStats(runtime="x", makespan=100.0, results=[
        TaskResult(0, "t", spawn_time=0, end_time=10),
        TaskResult(1, "t", spawn_time=0, end_time=30),
    ])
    assert stats.mean_latency == 20.0


def test_run_stats_mean_latency_empty():
    assert RunStats(runtime="x", makespan=1.0).mean_latency == 0.0


def test_run_stats_speedup():
    fast = RunStats(runtime="fast", makespan=50.0)
    slow = RunStats(runtime="slow", makespan=200.0)
    assert fast.speedup_over(slow) == 4.0
    assert slow.speedup_over(fast) == 0.25


def test_run_stats_speedup_invalid():
    bad = RunStats(runtime="bad", makespan=0.0)
    with pytest.raises(ValueError):
        bad.speedup_over(RunStats(runtime="x", makespan=1.0))


def test_latency_percentiles():
    stats = RunStats(runtime="x", makespan=100.0, results=[
        TaskResult(i, "t", spawn_time=0, end_time=float(i + 1))
        for i in range(100)
    ])
    assert stats.latency_percentile(0) == 1.0
    assert stats.latency_percentile(100) == 100.0
    assert stats.latency_percentile(50) == pytest.approx(50.0, abs=1.0)


def test_latency_percentile_validation():
    empty = RunStats(runtime="x", makespan=1.0)
    with pytest.raises(ValueError):
        empty.latency_percentile(50)
    full = RunStats(runtime="x", makespan=1.0,
                    results=[TaskResult(0, "t", end_time=1.0)])
    with pytest.raises(ValueError):
        full.latency_percentile(101)


def test_cpu_inst_factor_scales_cpu_cost():
    base = make_task()
    scaled = make_task(cpu_inst_factor=4.0)
    assert scaled.cpu_cost().inst == 4 * base.cpu_cost().inst
    assert scaled.cpu_cost().mem_bytes == base.cpu_cost().mem_bytes
