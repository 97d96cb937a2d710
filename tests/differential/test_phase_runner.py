"""The SMM phase runner (``Smm.run_phases``), pinned two ways.

End to end: three artefact sets were recorded on the engine *before*
the runner replaced the per-phase warp generator (``Smm.execute_phase``)
and are asserted unchanged here — the sha256 of their ``repr`` and the
total engine event count (but ``golden``'s count, 522 lower: a
lockstep warp cohort pushes one sync timer at a barrier, where warp
processes pushed one each):

- the seven golden cells of ``tests/test_determinism.py`` (Pagoda,
  HyperQ and GeMTC, so the MasterKernel's executor warps and the
  CUDA/GeMTC block runner, each passing barriers inside the SMM);
- the 25-seed hostile chaos sweep under a fault plan, which includes
  watchdog kills of warps parked mid-phase;
- the faulty serve report;
- ``narrow_open_loop``: open-loop ``run_pagoda`` with input and
  output copies on, over 3des and dct (dct's shared memory and
  ``sync`` flag take the scheduler's per-block barrier/arena path), two
  seeds, once without faults and once under a plan of PCIe drops,
  duplicates, delays, reordered entry writes and launch failures.  It
  pins the host pipeline's incopy/outcopy transfers and copy-backs,
  which ``chaos_faulty`` (copies off) never runs.

Unit level: the runner's edge cases — empty kernels, barriers first,
zero-cost phases, memory-only phases, zero overhead and stall knobs,
bad yields, kernels raising mid-stream in each runtime, a warp killed
while a phase is in flight, and a block whose warps disagree on their
barrier count in each runtime.
"""

import dataclasses
import hashlib

import pytest

from repro.baselines import run_gemtc, run_hyperq
from repro.bench.harness import make_tasks, run_tasks
from repro.core import PagodaConfig
from repro.core.errors import TaskError, TaskErrorGroup
from repro.core.runtime import PagodaSession, run_pagoda
from repro.faults import FaultPlan, FaultSpec
from repro.gpu import Gpu, Phase, titan_x
from repro.gpu.phases import BLOCK_SYNC
from repro.gpu.timing import TimingModel
from repro.sim import Engine, Event
from repro.tasks import TaskResult, TaskSpec

from tests.differential.harness import (
    DIFF_SEEDS,
    chaos_fingerprint,
    collect_engines,
    serve_report_json,
)
from tests.test_determinism import (
    GOLDEN_APPROX_CASES,
    GOLDEN_EXACT_CASES,
    fingerprint,
)

# ---------------------------------------------------------------------------
# Artefacts recorded before the runner existed
# ---------------------------------------------------------------------------

#: name -> (sha256 of the artefacts' repr, summed engine event count)
PINNED = {
    "golden": (
        "43f560718e7825c692ddb395d298c8a1dc9d7fc01a7a1400bc03104bf6b5c0fc",
        6609),
    "chaos_faulty": (
        "769356394b952850c5f1bd38d0b1f7964ee7b93145dd55c717ad09270eed2a41",
        15741),
    "serve_faulty": (
        "cc45a1d7c6ea4999c529da1b4a699dfb8debf5e31a8c233c9e695fcb1b8e967c",
        910),
    "narrow_open_loop": (
        "3d8d0c575c1695b5339af36240e911dc94005ed9aae976fbe570221eb5b6ad18",
        23836),
}

#: PCIe and launch faults for ``narrow_open_loop``: untargeted specs
#: hit whichever transfer or spawn comes first, the targeted ones the
#: D2H copy-backs and output copies.
NARROW_FAULTS = FaultPlan(specs=[
    FaultSpec(kind="pcie.drop", at_ns=20_000.0, count=3),
    FaultSpec(kind="pcie.reorder", at_ns=30_000.0, count=3,
              magnitude_ns=9_000.0),
    FaultSpec(kind="pcie.dup", at_ns=45_000.0, count=2),
    FaultSpec(kind="cuda.launch_fail", at_ns=55_000.0, count=2),
    FaultSpec(kind="pcie.delay", at_ns=70_000.0, count=2,
              magnitude_ns=6_000.0),
    FaultSpec(kind="pcie.drop", at_ns=150_000.0, count=2,
              target="device_to_host"),
    FaultSpec(kind="pcie.delay", at_ns=200_000.0, count=2,
              target="device_to_host", magnitude_ns=4_000.0),
    FaultSpec(kind="cuda.launch_fail", at_ns=250_000.0, count=1),
])


def _golden_cell(workload, runtime, seed):
    return fingerprint(run_tasks(make_tasks(workload, 24, 128, seed=seed),
                                 runtime))


ARTEFACTS = {
    "golden": lambda: [_golden_cell(*case) for case in
                       GOLDEN_EXACT_CASES + GOLDEN_APPROX_CASES],
    "chaos_faulty": lambda: [chaos_fingerprint(seed, faulty=True)
                             for seed in DIFF_SEEDS],
    "serve_faulty": lambda: serve_report_json(faulty=True),
    "narrow_open_loop": lambda: [
        _narrow_open_loop_cell(kernel, seed, plan)
        for kernel in ("3des", "dct") for seed in (0, 1)
        for plan in (None, NARROW_FAULTS)],
}


def _narrow_open_loop_cell(kernel, seed, plan):
    stats = run_pagoda(make_tasks(kernel, 96, 32, seed=seed),
                       config=PagodaConfig(open_loop=True,
                                           spawn_gap_ns=4300.0,
                                           fault_plan=plan))
    meta = stats.meta
    extra = (meta["entry_copies"], meta["copy_backs"])
    if plan is not None:
        extra += (meta["faults_injected"], meta["tasks_failed"])
    return fingerprint(stats) + extra


def measure(name):
    """``(sha256, engine events)`` of one artefact set."""
    with collect_engines() as built:
        artefacts = ARTEFACTS[name]()
    digest = hashlib.sha256(repr(artefacts).encode()).hexdigest()
    return digest, sum(engine.event_count for engine in built)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_artefacts_match_the_recording(name):
    assert measure(name) == PINNED[name]


# ---------------------------------------------------------------------------
# run_phases edge cases
# ---------------------------------------------------------------------------

BARE = TimingModel(phase_overhead_ns=0.0, mem_latency_ns=0.0,
                   warp_stall_ratio=0.0)


def _drive(items, timing=BARE):
    """One warp runs ``items`` through ``run_phases``; returns
    ``[(now, stop item, parked)]`` per segment and the engine."""
    eng = Engine()
    gpu = Gpu(eng, titan_x(), timing)
    smm = gpu.smms[0]
    log = []

    def warp():
        phases = iter(items)
        while True:
            item = smm.run_phases(phases, gpu.dram)
            parked = type(item) is Event
            if parked:
                item = yield item
            log.append((eng.now, item, parked))
            if item is None:
                return

    eng.spawn(warp())
    eng.run()
    return log, eng


def test_empty_kernel_returns_at_once():
    log, eng = _drive([])
    assert log == [(0.0, None, False)]
    assert eng.event_count == 1  # the spawn only


def test_block_sync_first_returns_it_without_parking():
    log, _eng = _drive([BLOCK_SYNC, Phase(100)])
    assert log == [(0.0, BLOCK_SYNC, False),
                   (pytest.approx(100.0), None, True)]


def test_zero_phase_takes_no_time_and_no_event():
    log, eng = _drive([Phase(0, 0), Phase(0.0, 0.0)])
    assert log == [(0.0, None, False)]
    assert eng.event_count == 1


def test_zero_phase_still_pays_the_overhead():
    log, _eng = _drive([Phase(0, 0)],
                       dataclasses.replace(BARE, phase_overhead_ns=50.0))
    assert log == [(50.0, None, True)]


def test_memory_only_phase():
    # 336 KB at 336 B/ns -> 1000 ns, after the DRAM latency
    log, _eng = _drive([Phase(0, 336_000)],
                       dataclasses.replace(BARE, mem_latency_ns=400.0))
    assert log == [(pytest.approx(1400.0), None, True)]


def test_zero_overhead_issues_at_once():
    log, _eng = _drive([Phase(100), Phase(50)])
    assert log == [(pytest.approx(150.0), None, True)]


def test_stall_ratio_delays_only_when_set():
    stalled = dataclasses.replace(BARE, warp_stall_ratio=0.5)
    # inst / clock of issue, then inst * ratio / clock of stall
    assert _drive([Phase(100)], stalled)[0] == [
        (pytest.approx(150.0), None, True)]
    assert _drive([Phase(100, 3360)], stalled)[0] == [
        (pytest.approx(160.0), None, True)]
    assert _drive([Phase(100, 3360)])[0] == [
        (pytest.approx(110.0), None, True)]


def test_single_warp_matches_the_closed_form():
    """Alone on the GPU, a warp's time is the sum of each stage's
    private latency and its demand at the per-warp cap."""
    timing = TimingModel()
    spec = titan_x()
    phases = [Phase(120, 512), Phase(0, 256), Phase(40), Phase(0, 0),
              BLOCK_SYNC, Phase(7, 64)]
    expect = 0.0
    for p in phases:
        if p is BLOCK_SYNC:
            continue
        expect += timing.phase_overhead_ns + p.inst / spec.clock_ghz
        if p.inst:
            expect += p.inst * timing.warp_stall_ratio / spec.clock_ghz
        if p.mem_bytes:
            expect += (timing.mem_latency_ns
                       + p.mem_bytes / spec.dram_bandwidth_gbps)
    log, _eng = _drive(phases, timing)
    assert [item for _t, item, _p in log] == [BLOCK_SYNC, None]
    assert log[-1][0] == pytest.approx(expect)


def test_bad_yield_raises_type_error():
    with pytest.raises(TypeError, match="kernel yielded 'oops'"):
        _drive(["oops"])
    with pytest.raises(TypeError, match="kernel yielded 3"):
        _drive([Phase(10), 3])


def test_killed_warp_issues_nothing_more():
    eng = Engine()
    gpu = Gpu(eng, titan_x(), BARE)
    smm = gpu.smms[0]
    pulled = []

    def kernel():
        for i in range(3):
            pulled.append(i)
            yield Phase(100, 336)

    def warp():
        yield smm.run_phases(kernel(), gpu.dram)

    proc = eng.spawn(warp())
    eng.call_at(50.0, proc.interrupt)
    eng.run()
    # the in-flight issue job completes; no DRAM job, no second phase
    assert pulled == [0]
    assert gpu.dram.active_jobs == 0
    assert eng.now == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# A kernel raising mid-stream, in each runtime
# ---------------------------------------------------------------------------

def _raising_kernel(task, block_id, warp_id):
    yield Phase(200, 128)
    yield Phase(50)
    raise RuntimeError("kernel bug")


def _raising_tasks():
    return [TaskSpec(f"bad{i}", 64, 1, _raising_kernel) for i in range(2)]


def test_pagoda_turns_a_kernel_exception_into_a_task_error():
    session = PagodaSession(config=PagodaConfig(
        copy_inputs=False, copy_outputs=False))
    host = session.host
    caught = []

    def driver():
        for i, task in enumerate(_raising_tasks()):
            yield from host.task_spawn(task, TaskResult(i, task.name))
        try:
            yield from host.wait_all()
        except (TaskError, TaskErrorGroup) as exc:
            caught.append(exc)

    proc = session.engine.spawn(driver(), name="driver")
    session.engine.run(until=1.0e7)
    assert not proc.alive and caught
    assert session.master.tasks_failed() == 2
    assert {e.reason for e in host.task_errors()} == {
        "kernel exception: RuntimeError: kernel bug"}
    session.shutdown()


@pytest.mark.parametrize("run", [run_hyperq, run_gemtc],
                         ids=["cuda", "gemtc"])
def test_baselines_propagate_a_kernel_exception(run):
    with pytest.raises(RuntimeError, match="kernel bug"):
        run(_raising_tasks())


# ---------------------------------------------------------------------------
# A block whose warps disagree on their barrier count, in each runtime
# ---------------------------------------------------------------------------

def _extra_sync_kernel(late):
    """Warp 0 passes one barrier more than its siblings: it reaches it
    while they still run (``late=False``) or after they exited."""

    def kernel(task, block_id, warp_id):
        yield Phase(100, 64)
        yield BLOCK_SYNC
        if warp_id == 0:
            yield Phase(5000 if late else 10)
            yield BLOCK_SYNC
        yield Phase(200)

    return kernel


MISMATCH = {False: r"exited while 1 of its 4 warps wait",
            True: r"arrived after 3 of its 4 warps exited"}


def _mismatch_tasks(late):
    return [TaskSpec(f"odd{i}", 128, 1, _extra_sync_kernel(late),
                     needs_sync=True) for i in range(2)]


@pytest.mark.parametrize("late", [False, True], ids=["early", "late"])
def test_pagoda_fails_a_barrier_mismatch(late):
    session = PagodaSession(config=PagodaConfig(
        copy_inputs=False, copy_outputs=False))
    host = session.host
    caught = []

    def driver():
        for i, task in enumerate(_mismatch_tasks(late)):
            yield from host.task_spawn(task, TaskResult(i, task.name))
        try:
            yield from host.wait_all()
        except (TaskError, TaskErrorGroup) as exc:
            caught.append(exc)

    proc = session.engine.spawn(driver(), name="driver")
    session.engine.run(until=1.0e7)
    assert not proc.alive and caught
    assert session.master.tasks_failed() == 2
    reasons = {e.reason for e in host.task_errors()}
    assert len(reasons) == 1
    (reason,) = reasons
    assert "warps disagree on their barrier count at generation 1" in reason
    assert MISMATCH[late] in reason
    assert all(m.barriers.in_use == 0 and m.warptable.busy_count == 0
               for m in session.master.mtbs)
    session.shutdown()


@pytest.mark.parametrize("late", [False, True], ids=["early", "late"])
@pytest.mark.parametrize("run", [run_hyperq, run_gemtc],
                         ids=["cuda", "gemtc"])
def test_baselines_raise_a_barrier_mismatch(run, late):
    with pytest.raises(RuntimeError, match=(
            r"barrier task 'odd0' block 0: warps disagree on their "
            r"barrier count at generation 1 \(a warp " + MISMATCH[late])):
        run(_mismatch_tasks(late))
