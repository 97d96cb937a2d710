"""Lockstep warp gangs: a cohort moves past each item as one.

A cohort of like warps (``repro.gpu.smm._Warp``) whose warps walk one
phase table at one position, with one barrier, sync latency and DRAM
pool, moves on as one gang (``_Warp._step``): one issue arrival per
phase, one sync record and one bulk arrival per barrier.  Every other
case takes the per-warp path.  Patching ``_step`` to always decline
forces the per-warp path everywhere, and each scenario here must give
byte-identical results both ways (and when every table is walked
through an iterator, which no cohort walks in lockstep):

- the golden cells of ``tests/test_determinism.py`` and a small Fig. 8
  HyperQ mm cell (multi-block tasks without barriers);
- a warp killed during issue, during DRAM and while it waits at a
  barrier, through ``Process.interrupt`` and through an executor kill
  (``Mtb.fail_entry``), at every instant of a grid;
- a barrier-count mismatch inside a gang, in each runtime;
- a 2-warp gang that completes a barrier, in each runtime;
- two blocks of one task on one SMM, which share a table but not a
  barrier and so never gang.

Every unpatched run also checks that each gang it moves shares one
table, position holder, barrier, sync latency and DRAM pool.  The work
count at the end pins what gangs exist to cut: ``_Warp.start`` calls
per warp.
"""

import pytest

import repro.gpu.smm as smm_mod
from repro.baselines import run_gemtc, run_hyperq
from repro.bench.fig8 import make_sized_tasks
from repro.bench.harness import make_tasks, run_tasks
from repro.core import PagodaConfig
from repro.core.errors import TaskError, TaskErrorGroup
from repro.core.runtime import PagodaSession
from repro.cuda import WarpBarrier
from repro.gpu import Gpu, Phase, titan_x
from repro.gpu.phases import BLOCK_SYNC, phase_table
from repro.gpu.smm import Smm
from repro.sim import Engine
from repro.tasks import TaskResult, TaskSpec

from tests.test_determinism import (
    GOLDEN_APPROX_CASES,
    GOLDEN_EXACT_CASES,
    fingerprint,
)

_Warp = smm_mod._Warp


def _both_ways(monkeypatch, scenario):
    """``scenario()`` with gangs, then with every gang step declined;
    returns both results and the number of steps the gangs took.  A
    third run, with each phase table walked through an iterator (as a
    generator kernel's items are: no cohort is ever in lockstep), must
    match the second."""
    steps = []
    step = _Warp._step
    run_phases = Smm.run_phases

    def iterated(self, phases, *args):
        if type(phases) is tuple:
            phases = iter(phases)
        return run_phases(self, phases, *args)

    def checked(self, cohort):
        for warp in cohort:
            assert (warp.table is self.table
                    and warp.barrier is self.barrier
                    and warp.sync_ns == self.sync_ns
                    and warp.dram is self.dram)
        assert cohort[0] is self
        moved = step(self, cohort)
        steps.append(moved)
        return moved

    with monkeypatch.context() as patch:
        patch.setattr(_Warp, "_step", checked)
        ganged = scenario()
    with monkeypatch.context() as patch:
        patch.setattr(_Warp, "_step", lambda self, cohort: False)
        per_warp = scenario()
    with monkeypatch.context() as patch:
        patch.setattr(Smm, "run_phases", iterated)
        assert scenario() == per_warp
    return ganged, per_warp, sum(steps)


# ---------------------------------------------------------------------------
# Golden cells
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload,runtime,seed",
                         GOLDEN_EXACT_CASES + GOLDEN_APPROX_CASES)
def test_golden_cells_match_the_per_warp_path(monkeypatch, workload,
                                              runtime, seed):
    ganged, per_warp, steps = _both_ways(monkeypatch, lambda: fingerprint(
        run_tasks(make_tasks(workload, 24, 128, seed=seed), runtime)))
    assert ganged == per_warp
    assert steps > 0


def test_fig8_hyperq_cell_matches_the_per_warp_path(monkeypatch):
    tasks = make_sized_tasks("mm", 16, 64, 2048, 0)
    ganged, per_warp, steps = _both_ways(monkeypatch, lambda: fingerprint(
        run_tasks(tasks, "hyperq", copies=False)))
    assert ganged == per_warp
    assert steps > 0


# ---------------------------------------------------------------------------
# Kills
# ---------------------------------------------------------------------------

#: one table for every warp: three barrier-separated phases, whose
#: DRAM traffic (100 ns per warp alone) slows every other task's
#: memory stages
@phase_table()
def _tiled(task, block_id, warp_id):
    for _ in range(3):
        yield Phase(100, 33600)
        yield BLOCK_SYNC
    yield Phase(60)


TILED = tuple(_tiled(None, 0, 0))


def _stages(gpu, barriers, doomed):
    """Where the warps ``doomed(warp)`` picks stand: in an issue or
    DRAM job (pending or joined), or at a barrier's gate."""
    def leads(pool):
        for _tag, _seq, target, _k in pool._heap:
            yield target
        for batch in pool._arrivals.values():
            for _amount, target, _k in batch:
                yield target

    def hit(warp):
        return isinstance(warp, _Warp) and any(
            doomed(w) for w in (warp.cohort or [warp]))

    found = set()
    for smm in gpu.smms:
        if any(hit(t) for t in leads(smm.issue)):
            found.add("issue")
    if any(hit(t) for t in leads(gpu.dram)):
        found.add("dram")
    for barrier in barriers:
        waiters = barrier._gate._waiters or ()
        if any(hit(getattr(w, "__self__", w)) for w in waiters):
            found.add("barrier")
    return found


#: ``Process.interrupt`` victims among the eight warps of one block:
#: a follower, the lead, and the whole first gang
INTERRUPTED = {"follower": (2,), "lead": (0,), "gang": (0, 1, 2, 3)}

#: kill instants: every 23 ns across the block's run
KILL_TIMES = [23.0 * i for i in range(1, 200)]


def _interrupted_run(victims, at, stages):
    """One block of eight warps in two gangs of four, the second
    starting 500 ns after the first so that the first waits at each
    barrier; ``victims`` are interrupted at ``at``."""
    eng = Engine()
    gpu = Gpu(eng, titan_x())
    smm = gpu.smms[0]
    barrier = WarpBarrier(8, "block")
    finished = {}
    procs = {}

    def warp(w):
        item = yield smm.run_phases(TILED, gpu.dram, barrier, 20.0)
        finished[w] = (item, eng.now)

    def spawn(ws):
        for w in ws:
            procs[w] = eng.spawn(warp(w), name=f"w{w}")

    spawn(range(4))
    eng.call_at(500.0, lambda: spawn(range(4, 8)))

    def kill():
        doomed = {procs[v] for v in victims}
        stages.update(_stages(gpu, [barrier], lambda warp: (
            warp.done._waiters is not None
            and warp.done._waiters[0] in doomed)))
        for v in victims:
            procs[v].interrupt()

    eng.call_at(at, kill)
    eng.run()
    # the work served counts any a killed warp did
    return (sorted(finished.items()), eng.now, barrier.generation,
            barrier.waiting, smm.issue.served_integral(),
            gpu.dram.served_integral())


@pytest.mark.parametrize("victims", sorted(INTERRUPTED))
def test_interrupted_warps_match_the_per_warp_path(monkeypatch, victims):
    stages = set()
    for at in KILL_TIMES:
        ganged, per_warp, steps = _both_ways(
            monkeypatch,
            lambda: _interrupted_run(INTERRUPTED[victims], at, stages))
        assert ganged == per_warp, at
        assert steps > 0
    assert stages == {"issue", "dram", "barrier"}


#: each task's warp 0 runs a longer first phase, so warps 1-7 (one
#: gang) wait for it at the first barrier
@phase_table(lambda task, block_id, warp_id: warp_id == 0)
def _late_lead(task, block_id, warp_id):
    yield Phase(900 if warp_id == 0 else 100, 33600)
    for _ in range(2):
        yield BLOCK_SYNC
        yield Phase(100, 33600)


def _pagoda(tasks, kill=None):
    """Spawn ``tasks`` on a Pagoda session and wait for them;
    ``kill(session)`` runs first.  Returns every task's times, the
    task errors and the DRAM work served."""
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

    if kill is not None:
        kill(session)
    session.engine.spawn(host_thread(), name="host")
    session.engine.run(until=1.0e7)
    errors = sorted((e.task_id, e.reason) for e in host.task_errors())
    served = session.gpu.dram.served_integral()
    session.shutdown()
    return (tuple((r.spawn_time, r.sched_time, r.start_time, r.end_time)
                  for r in results), errors, served)


def _fail_task(session, name, stages):
    """Kill task ``name`` through its MTB, as the watchdog does."""
    for mtb in session.master.mtbs:
        warptable = mtb.built_warptable
        if warptable is None:
            continue
        for idx in warptable.busy_slots():
            row = warptable.slots[idx].e_num
            entry = mtb.table.gpu[mtb.column][row]
            if entry.spec is None or entry.spec.name != name:
                continue
            stages.update(_stages(
                session.gpu, mtb.barriers._barriers.values(),
                lambda warp: getattr(warp.done._waiters and
                                     warp.done._waiters[0],
                                     "entry", None) is entry))
            mtb.fail_entry(row, entry, "killed by the test")
            return


#: kill instants across the second task's run (4392 ns to 12457 ns
#: with ``_tiled``, to 13930 ns with ``_late_lead``)
EXECUTOR_KILL_TIMES = [4300.0 + 127.0 * i for i in range(75)]


@pytest.mark.parametrize("kernel", [_tiled, _late_lead],
                         ids=["tiled", "late_lead"])
def test_executor_kills_match_the_per_warp_path(monkeypatch, kernel):
    """Four 8-warp tasks; the second is killed at each instant."""
    tasks = [TaskSpec(f"k{n}", 256, 1, kernel, needs_sync=True)
             for n in range(4)]
    stages = set()
    for at in EXECUTOR_KILL_TIMES:
        def scenario():
            return _pagoda(tasks, lambda session: session.engine.call_at(
                at, lambda: _fail_task(session, "k1", stages)))

        ganged, per_warp, steps = _both_ways(monkeypatch, scenario)
        assert ganged == per_warp, at
        assert steps > 0
    assert stages >= {"issue", "dram"}
    if kernel is _late_lead:
        assert "barrier" in stages


# ---------------------------------------------------------------------------
# Barriers: a mismatch inside a gang, and a 2-warp gang
# ---------------------------------------------------------------------------

def _extra_sync_kernel(late):
    """Warps 1-3 (one gang) pass one barrier more than warp 0, which
    exits before they reach it (``late``) or after."""

    @phase_table(lambda task, block_id, warp_id: warp_id == 0)
    def kernel(task, block_id, warp_id):
        yield Phase(100, 64)
        yield BLOCK_SYNC
        if warp_id:
            yield Phase(5000 if late else 10, 64)
            yield BLOCK_SYNC
        yield Phase(200 if late else 3000)

    return kernel


def _baseline(run):
    def go(tasks):
        try:
            stats = run(tasks)
        except RuntimeError as exc:
            return repr(exc)
        return fingerprint(stats)
    return go


RUNNERS = {"pagoda": _pagoda, "cuda": _baseline(run_hyperq),
           "gemtc": _baseline(run_gemtc)}


@pytest.mark.parametrize("late", [False, True], ids=["early", "late"])
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_barrier_mismatch_in_a_gang(monkeypatch, runner, late):
    tasks = [TaskSpec(f"odd{i}", 128, 1, _extra_sync_kernel(late),
                      needs_sync=True) for i in range(2)]
    ganged, per_warp, steps = _both_ways(
        monkeypatch, lambda: RUNNERS[runner](tasks))
    assert ganged == per_warp
    assert steps > 0
    assert "warps disagree on their barrier count" in repr(ganged)


@phase_table()
def _pair(task, block_id, warp_id):
    for i in range(4):
        yield Phase(80 + 40 * i, 256 * (i % 2))
        yield BLOCK_SYNC
    yield Phase(30)


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_two_warp_gang_completes_its_barriers(monkeypatch, runner):
    tasks = [TaskSpec(f"pair{i}", 64, 1, _pair, needs_sync=True)
             for i in range(3)]
    arrivals = []
    sync = _Warp._sync

    def counted(self):
        arrivals.append(len(self.cohort))
        sync(self)

    with monkeypatch.context() as patch:
        patch.setattr(_Warp, "_sync", counted)
        ganged, per_warp, steps = _both_ways(
            monkeypatch, lambda: RUNNERS[runner](tasks))
    assert ganged == per_warp
    assert steps > 0
    assert arrivals and set(arrivals) == {2}


# ---------------------------------------------------------------------------
# Two blocks of one task on one SMM
# ---------------------------------------------------------------------------

def _two_blocks_on_one_smm():
    """Both blocks of one task start together on one SMM: one table,
    two barriers."""
    eng = Engine()
    gpu = Gpu(eng, titan_x())
    smm = gpu.smms[0]
    task = TaskSpec("two", 128, 2, _tiled, needs_sync=True)
    finished = []
    for block_id in range(2):
        barrier = WarpBarrier(4, f"block{block_id}")
        for warp_id in range(4):
            done = smm.run_phases(gpu.warp_items(task, block_id, warp_id),
                                  gpu.dram, barrier, 20.0)
            done._add_waiter(lambda item, b=block_id, w=warp_id:
                             finished.append((b, w, item, eng.now)))
    eng.run()
    return finished, eng.now


def test_two_blocks_on_one_smm_never_gang(monkeypatch):
    ganged, per_warp, steps = _both_ways(monkeypatch,
                                         _two_blocks_on_one_smm)
    assert ganged == per_warp
    assert len(ganged[0]) == 8
    assert steps == 0


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_two_block_tasks_match_the_per_warp_path(monkeypatch, runner):
    tasks = [TaskSpec(f"two{i}", 128, 2, _tiled, needs_sync=True)
             for i in range(4)]
    ganged, per_warp, _steps = _both_ways(
        monkeypatch, lambda: RUNNERS[runner](tasks))
    assert ganged == per_warp


# ---------------------------------------------------------------------------
# Work count
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("runtime", ["pagoda", "hyperq", "gemtc"])
def test_gangs_start_each_warp_at_most_three_times(monkeypatch, runtime):
    """24 256-thread ``mm`` tasks (eight warps per block, a barrier per
    tile): each warp starts once, exits once and, at each barrier, the
    last arriver of each gang restarts alone (9.0 / 9.0 / 17.0 starts
    per warp when every warp started each phase itself)."""
    counts = {"starts": 0, "warps": 0}
    start = _Warp.start
    init = _Warp.__init__

    def counted_start(self):
        counts["starts"] += 1
        return start(self)

    def counted_init(self, *args):
        counts["warps"] += 1
        init(self, *args)

    monkeypatch.setattr(_Warp, "start", counted_start)
    monkeypatch.setattr(_Warp, "__init__", counted_init)
    run_tasks(make_tasks("mm", 24, 256, seed=3), runtime)
    assert counts["warps"] == 24 * 8
    assert counts["starts"] / counts["warps"] <= 3
