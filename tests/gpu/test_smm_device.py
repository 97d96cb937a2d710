"""Tests for the SMM / Gpu event-driven models."""

import dataclasses
import pickle

import pytest

from repro.gpu import Gpu, Phase, titan_x
from repro.gpu.phases import BLOCK_SYNC, BlockSync, total_cost
from repro.gpu.timing import TimingModel
from repro.sim import Engine, Event
from repro.sim.engine import _CALL
from repro.tasks import TaskSpec

NO_OVERHEAD = TimingModel(phase_overhead_ns=0.0, mem_latency_ns=0.0,
                          warp_stall_ratio=0.0)


def make_gpu(timing=NO_OVERHEAD):
    eng = Engine()
    return eng, Gpu(eng, titan_x(), timing)


def run_phase(smm, phase, dram):
    """Subroutine: one warp runs one phase on ``smm``."""
    done = smm.run_phases(iter([phase]), dram)
    if isinstance(done, Event):
        yield done


# -- Phase ---------------------------------------------------------------

def test_phase_validation():
    with pytest.raises(ValueError):
        Phase(-1.0)
    with pytest.raises(ValueError):
        Phase(1.0, -2.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            Phase(bad)
        with pytest.raises(ValueError, match="finite"):
            Phase(1.0, bad)


def test_phase_is_a_value():
    p = Phase(5, 2)
    assert p == Phase(5, 2) and p != Phase(5, 3) and p != (5, 2)
    assert hash(p) == hash(Phase(5, 2))
    assert repr(p) == "Phase(inst=5, mem_bytes=2)"
    assert Phase(7) == Phase(7, 0.0)
    assert pickle.loads(pickle.dumps(p)) == p


def test_phase_scaled():
    p = Phase(10.0, 4.0).scaled(2.5)
    assert p.inst == 25.0 and p.mem_bytes == 10.0


def test_total_cost_folds_phases_and_skips_barriers():
    agg = total_cost([Phase(5, 2), BLOCK_SYNC, Phase(3, 1), BlockSync()])
    assert agg.inst == 8 and agg.mem_bytes == 3


# -- SMM reservation ------------------------------------------------------

def test_reserve_and_release_block():
    _eng, gpu = make_gpu()
    smm = gpu.smms[0]
    smm.reserve_block(warps=8, registers=8192, shared_mem=4096)
    assert smm.free_warps == 56
    assert smm.free_blocks == 31
    assert smm.free_registers == 64 * 1024 - 8192
    assert smm.free_shared_mem == 96 * 1024 - 4096
    smm.release_block(warps=8, registers=8192, shared_mem=4096)
    assert smm.free_warps == 64
    assert smm.free_blocks == 32


def test_reserve_block_that_does_not_fit_raises():
    _eng, gpu = make_gpu()
    smm = gpu.smms[0]
    with pytest.raises(RuntimeError):
        smm.reserve_block(warps=65, registers=0, shared_mem=0)


def test_over_release_detected():
    _eng, gpu = make_gpu()
    smm = gpu.smms[0]
    with pytest.raises(RuntimeError):
        smm.release_block(warps=1, registers=0, shared_mem=0)


def test_can_host_respects_all_four_limits():
    _eng, gpu = make_gpu()
    smm = gpu.smms[0]
    assert smm.can_host(64, 0, 0)
    assert not smm.can_host(65, 0, 0)
    assert not smm.can_host(1, 64 * 1024 + 1, 0)
    assert not smm.can_host(1, 0, 96 * 1024 + 1)
    for _ in range(32):
        smm.reserve_block(1, 0, 0)
    assert not smm.can_host(1, 0, 0)  # block slots exhausted


# -- issue timing -----------------------------------------------------------

def test_single_warp_runs_at_one_inst_per_cycle():
    eng, gpu = make_gpu()
    smm = gpu.smms[0]
    done = []

    def warp():
        yield from run_phase(smm, Phase(inst=1000), gpu.dram)
        done.append(eng.now)

    eng.spawn(warp())
    eng.run()
    assert done == [pytest.approx(1000.0)]


def test_four_warps_run_concurrently_at_full_speed():
    eng, gpu = make_gpu()
    smm = gpu.smms[0]
    done = []

    def warp():
        yield from run_phase(smm, Phase(inst=1000), gpu.dram)
        done.append(eng.now)

    for _ in range(4):
        eng.spawn(warp())
    eng.run()
    assert all(t == pytest.approx(1000.0) for t in done)


def test_eight_warps_halve_throughput():
    eng, gpu = make_gpu()
    smm = gpu.smms[0]
    done = []

    def warp():
        yield from run_phase(smm, Phase(inst=1000), gpu.dram)
        done.append(eng.now)

    for _ in range(8):
        eng.spawn(warp())
    eng.run()
    assert all(t == pytest.approx(2000.0) for t in done)


def test_memory_phase_consumes_dram_bandwidth():
    eng, gpu = make_gpu()
    smm = gpu.smms[0]
    done = []

    def warp():
        yield from run_phase(smm, Phase(inst=0, mem_bytes=336_000), gpu.dram)
        done.append(eng.now)

    eng.spawn(warp())
    eng.run()
    # 336 KB at 336 B/ns -> 1000 ns
    assert done == [pytest.approx(1000.0)]


def test_phase_overhead_applied():
    eng, gpu = make_gpu(dataclasses.replace(NO_OVERHEAD, phase_overhead_ns=50.0))
    smm = gpu.smms[0]
    done = []

    def warp():
        yield from run_phase(smm, Phase(inst=100), gpu.dram)
        done.append(eng.now)

    eng.spawn(warp())
    eng.run()
    assert done == [pytest.approx(150.0)]


def test_smms_are_independent_issue_domains():
    eng, gpu = make_gpu()
    done = []

    def warp(smm):
        yield from run_phase(smm, Phase(inst=1000), gpu.dram)
        done.append(eng.now)

    # 8 warps, but spread over 2 SMMs: 4 each -> full speed
    for i in range(8):
        eng.spawn(warp(gpu.smms[i % 2]))
    eng.run()
    assert all(t == pytest.approx(1000.0) for t in done)


# -- occupancy accounting ------------------------------------------------

def test_mean_occupancy_tracks_residency():
    eng, gpu = make_gpu()
    smm = gpu.smms[0]

    def lifecycle():
        smm.reserve_block(warps=32, registers=0, shared_mem=0)
        yield 100.0
        smm.release_block(warps=32, registers=0, shared_mem=0)
        yield 100.0

    eng.spawn(lifecycle())
    eng.run()
    # 32/64 warps for half the time -> 25%
    assert smm.mean_occupancy(200.0) == pytest.approx(0.25)


def test_device_mean_occupancy_and_resident_warps():
    eng, gpu = make_gpu()
    gpu.smms[0].reserve_block(warps=64, registers=0, shared_mem=0)
    assert gpu.resident_warps() == 64
    eng.call_after(100.0, lambda: None)
    eng.run()
    assert gpu.mean_occupancy(100.0) == pytest.approx(64 / (64 * 24))


def test_run_block_starts_each_warp_from_a_call_record():
    """A block's warps start from ``_CALL`` ready-ring records that
    share one start callback and carry the warp id as their value."""
    eng, gpu = make_gpu()

    def kernel(task, block_id, warp_id):
        yield Phase(inst=8.0)

    task = TaskSpec("t", threads_per_block=128, num_blocks=1,
                    kernel=kernel)
    done = gpu.run_block(task, 0, gpu.smms[0], None, 0.0)
    records = list(eng._ready)
    assert [r[1] for r in records] == [_CALL] * 4
    assert [r[3] for r in records] == [0, 1, 2, 3]
    assert all(r[2] is records[0][2] for r in records)
    eng.run()
    assert done.fired


def test_find_smm_prefers_least_loaded():
    _eng, gpu = make_gpu()
    gpu.smms[0].reserve_block(warps=32, registers=0, shared_mem=0)
    chosen = gpu.find_smm(warps=8, registers=0, shared_mem=0)
    assert chosen is not gpu.smms[0]


def test_find_smm_returns_none_when_full():
    _eng, gpu = make_gpu()
    for smm in gpu.smms:
        smm.reserve_block(warps=64, registers=0, shared_mem=0)
    assert gpu.find_smm(warps=1, registers=0, shared_mem=0) is None
