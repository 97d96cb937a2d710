"""Lockstep warp cohorts: a block's like warps share one PS entry.

``Smm.run_phases`` lets warps that start the same phase on one SMM, one
after another at the same instant, travel as one weight-``k``
processor-sharing entry.  The schedules must not move, so the tests
here pin four things:

- the work counts that cohorts, phase tables and process-free warps
  exist to cut (heap entries per warp arrival; ``Phase``
  constructions and kernel calls per run; warp processes) —
  byte-identical outputs cannot show a regression of any of them,
  these counts can;
- divergent warps (a different ``inst`` on alternate phases, an early
  exit, a raise mid-stream) against the reference pool, which never
  merges (``ReferenceProcessorSharing._grow`` is always ``False``), in
  all three runtimes that run warps;
- a warp killed mid-phase inside a cohort;
- the pool itself: one weight-``k`` entry against ``k`` singletons.
"""

import dataclasses
import random

import pytest

import repro.gpu.device as device_mod
import repro.gpu.smm as smm_mod
from repro.baselines import run_gemtc, run_hyperq
from repro.bench.harness import make_tasks, run_tasks
from repro.core import PagodaConfig
from repro.core.errors import TaskError, TaskErrorGroup
from repro.core.runtime import PagodaSession
from repro.gpu import Gpu, Phase, titan_x
from repro.gpu.phases import BLOCK_SYNC, phase_table
from repro.sim import Engine, Process, ProcessorSharing
from repro.sim.reference import ReferenceProcessorSharing
from repro.tasks import TaskResult, TaskSpec

from tests.test_determinism import (
    GOLDEN_REL,
    assert_fingerprints_close,
    fingerprint,
)


def _gpu_pool(pool) -> bool:
    return pool.name == "dram" or pool.name.endswith(".issue")


# ---------------------------------------------------------------------------
# Work count
# ---------------------------------------------------------------------------

def test_block_warps_share_one_heap_entry(monkeypatch):
    """128-thread ``mm`` tasks under Pagoda: every block's four warps
    enter each GPU pool as one entry."""
    counts = {"entries": 0, "warps": 0}
    arrive = ProcessorSharing._arrive
    join = ProcessorSharing._join

    def counted_arrive(self, delay, amount, target, k=1):
        if delay == 0 and amount and _gpu_pool(self):
            counts["entries"] += 1
            counts["warps"] += k
        arrive(self, delay, amount, target, k)

    def counted_join(self, when):
        if _gpu_pool(self):
            for amount, _target, k in self._arrivals[when]:
                if amount:
                    counts["entries"] += 1
                    counts["warps"] += k
        join(self, when)

    monkeypatch.setattr(ProcessorSharing, "_arrive", counted_arrive)
    monkeypatch.setattr(ProcessorSharing, "_join", counted_join)
    run_tasks(make_tasks("mm", 24, 128, seed=3), "pagoda")
    assert counts["warps"] > 0
    assert counts["entries"] / counts["warps"] <= 0.25


#: (workload, runtime) -> (Phase constructions, kernel calls) for 24
#: 128-thread tasks: one table per distinct phase key (mm tasks are
#: alike, each mb task draws its own depth), where every warp running
#: its generator made 480 / 384 phases and 96 calls
TABLE_WORK = {
    ("mm", "pagoda"): (5, 1),
    ("mm", "hyperq"): (5, 1),
    ("mb", "pagoda"): (96, 24),
    ("mb", "hyperq"): (96, 24),
}


@pytest.mark.parametrize("workload,runtime", sorted(TABLE_WORK))
def test_keyed_kernels_build_one_table_per_key(monkeypatch, workload,
                                               runtime):
    counts = {"phases": 0, "calls": 0}
    init = Phase.__init__

    def counted_init(self, *args, **kwargs):
        counts["phases"] += 1
        init(self, *args, **kwargs)

    tasks = make_tasks(workload, 24, 128, seed=3)
    kernel = tasks[0].kernel

    @phase_table(kernel.phase_key)
    def counted_kernel(task, block_id, warp_id):
        counts["calls"] += 1
        return kernel(task, block_id, warp_id)

    tasks = [dataclasses.replace(t, kernel=counted_kernel) for t in tasks]
    monkeypatch.setattr(Phase, "__init__", counted_init)
    run_tasks(tasks, runtime)
    assert (counts["phases"], counts["calls"]) == TABLE_WORK[workload,
                                                             runtime]


#: runtime -> engine events of 24 256-thread ``mm`` tasks (eight warps
#: per block, a barrier per tile): 1811 / 1648 / 2803 when every warp
#: was a process, less the ``k - 1`` sync timers a lockstep cohort of
#: ``k`` warps saves at each barrier (504 per runtime)
BARRIER_EVENTS = {"pagoda": 1307, "hyperq": 1144, "gemtc": 2299}


@pytest.mark.parametrize("runtime", sorted(BARRIER_EVENTS))
def test_warps_pass_barriers_without_processes(monkeypatch, runtime):
    """The SMM carries each warp through its barriers: the engine
    events of warp processes but one sync timer per lockstep cohort,
    and no process per warp."""
    names = []
    engines = []
    proc_init = Process.__init__
    engine_init = Engine.__init__

    def named(self, engine, gen, name="", daemon=False):
        names.append(name)
        proc_init(self, engine, gen, name, daemon)

    def registered(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(Process, "__init__", named)
    monkeypatch.setattr(Engine, "__init__", registered)
    run_tasks(make_tasks("mm", 24, 256, seed=3), runtime)
    assert sum(e.event_count for e in engines) == BARRIER_EVENTS[runtime]
    assert names and not [n for n in names if n.startswith(
        ("exec.", "warp.", "gemtc.warp."))]


# ---------------------------------------------------------------------------
# Divergent warps vs the reference pool, in every runtime
# ---------------------------------------------------------------------------

PHASES = 6


def _divergent_tasks(log, clock, raising):
    """Two-block, 4-warp tasks: warp 1 issues more on odd phases,
    warp 2 exits after three phases, warp 3 (of ``raising`` tasks)
    raises before its fifth; one barrier after the second phase."""

    def kernel(task, block_id, warp_id):
        for i in range(PHASES):
            log.append((task.name, block_id, warp_id, i, clock()))
            if warp_id == 2 and i == 3:
                return
            if warp_id == 3 and i == 4 and task.name in raising:
                raise RuntimeError("warp 3 bug")
            inst = 80 + (45 if warp_id == 1 and i % 2 else 0)
            yield Phase(inst, 512 if i % 3 else 0)
            if i == 1:
                yield BLOCK_SYNC

    return [TaskSpec(f"div{n}", 128, 2, kernel, needs_sync=True)
            for n in range(6)]


def _pagoda(tasks):
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
    errors = sorted((e.task_id, e.reason) for e in host.task_errors())
    session.shutdown()
    return (tuple((r.spawn_time, r.sched_time, r.start_time, r.end_time)
                  for r in results), errors)


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


def _divergent_run(monkeypatch, runner, raising, pools):
    """``(outcome, pull log, cohort merges)`` of the divergent tasks on
    the cohort pools, on the same pools with merging off
    (``singletons``: every warp its own job) or on the reference."""
    engines = []
    merges = []
    init = Engine.__init__
    grow = ProcessorSharing._grow

    def registered(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    def counted_grow(self, delay, target):
        merged = grow(self, delay, target)
        merges.append(merged)
        return merged

    with monkeypatch.context() as patch:
        patch.setattr(Engine, "__init__", registered)
        patch.setattr(ProcessorSharing, "_grow", counted_grow)
        if pools == "singletons":
            patch.setattr(ProcessorSharing, "_grow",
                          lambda self, delay, target: False)
        elif pools == "reference":
            patch.setattr(smm_mod, "ProcessorSharing",
                          ReferenceProcessorSharing)
            patch.setattr(device_mod, "ProcessorSharing",
                          ReferenceProcessorSharing)
        log = []
        tasks = _divergent_tasks(log, lambda: engines[-1].now, raising)
        return RUNNERS[runner](tasks), log, sum(merges)


def _close(got, want):
    """Equal up to the reference pool's rounding order (see
    ``tests/test_determinism.py``: the two formulations may differ in
    the last ULPs)."""
    if isinstance(want, str):
        return got == want
    return got == pytest.approx(want, rel=GOLDEN_REL, abs=1e-9)


@pytest.mark.parametrize("raising", [(), ("div2",)],
                         ids=["divergent", "raising"])
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_divergent_warps_match_the_reference(monkeypatch, runner, raising):
    got, got_log, merges = _divergent_run(monkeypatch, runner, raising,
                                          "cohorts")
    assert merges > 0
    # bit-identical to every warp being its own processor-sharing job
    assert (got, got_log) == _divergent_run(monkeypatch, runner, raising,
                                            "singletons")[:2]
    # and to the reference pool, which never merges: every kernel item
    # pulled in the same order, at the same instant
    want, want_log, _ = _divergent_run(monkeypatch, runner, raising,
                                       "reference")
    assert [row[:4] for row in got_log] == [row[:4] for row in want_log]
    assert _close([row[4] for row in got_log], [row[4] for row in want_log])
    if runner == "pagoda":
        assert got[1] == want[1]
        assert _close([t for row in got[0] for t in row],
                      [t for row in want[0] for t in row])
        assert [reason for _id, reason in got[1]] == (
            ["kernel exception: RuntimeError: warp 3 bug"] if raising
            else [])
    elif raising:
        assert got == want == "RuntimeError('warp 3 bug')"
    else:
        assert_fingerprints_close(got, want)


# ---------------------------------------------------------------------------
# A warp killed inside a cohort
# ---------------------------------------------------------------------------

#: (phase memory, killed warps) -> (every survivor's finish time, the
#: engine's event count) in the scenario below, recorded when every warp
#: was its own processor-sharing job
KILLED_COHORT = {
    (336, (0,)): (2125.0, 19),
    (336, (3,)): (2125.0, 19),
    (336, tuple(range(6))): (None, 14),
    (0, (0,)): (1060.0, 28),
    (0, (3,)): (1060.0, 28),
    (0, tuple(range(6))): (None, 14),
}


@pytest.mark.parametrize("mem,victims", sorted(KILLED_COHORT),
                         ids=lambda v: "all" if v == tuple(range(6))
                         else str(v))
def test_warp_killed_inside_a_cohort(mem, victims):
    """Six like warps share each stage; some are killed mid-issue.
    Their issue job still completes, but they join DRAM (or sleep
    their stall) with nobody, and the survivors keep the times they
    had when every warp was its own job."""
    eng = Engine()
    gpu = Gpu(eng, titan_x())
    smm = gpu.smms[0]
    pulled = {w: 0 for w in range(6)}
    finished = {}
    weights = []

    def kernel(warp_id):
        for _ in range(3):
            pulled[warp_id] += 1
            yield Phase(100, mem)

    def warp(warp_id):
        yield smm.run_phases(kernel(warp_id), gpu.dram)
        finished[warp_id] = eng.now

    procs = [eng.spawn(warp(w)) for w in range(6)]
    # the cohort is on the issue pool from 20 ns (the phase overhead)
    eng.call_at(50.0, lambda: weights.append(
        [k for _tag, _seq, _target, k in smm.issue._heap]))
    for victim in victims:
        eng.call_at(60.0, procs[victim].interrupt)
    # issue ends at 170 ns (six warps share four schedulers), then the
    # 200 ns stall and 350 ns latency: the survivors' DRAM job
    eng.call_at(722.0, lambda: weights.append(
        [k for _tag, _seq, _target, k in gpu.dram._heap]))
    eng.run()
    survivors = 6 - len(victims)
    assert weights == [[6], [survivors] if mem and survivors else []]
    assert all(pulled.pop(victim) == 1 for victim in victims)
    assert set(pulled.values()) <= {3} and not finished.keys() & victims
    finish, events = KILLED_COHORT[mem, victims]
    assert set(finished.values()) == ({finish} if survivors else set())
    assert eng.event_count - 2 == events  # less the two probes
    assert gpu.dram.active_jobs == 0 and smm.issue.active_jobs == 0


# ---------------------------------------------------------------------------
# The pool: one weight-k entry vs k singletons
# ---------------------------------------------------------------------------

class _Done:
    """A completion target recording when it fired."""

    def __init__(self, engine, log, name):
        self.engine, self.log, self.name = engine, log, name

    def fire(self, _value=None):
        self.log.append((self.name, self.engine.now))


#: when the ``k`` like jobs join; the clock has just passed the rebase
#: bound, so their join rebases every tag, theirs included
JOIN_AT = 2.2e6


def _weighted_run(k, merged):
    """A busy pool whose virtual clock passes the rebase bound, with
    background churn and ``k`` like jobs joining at one instant, either
    as one grown entry or as ``k`` entries."""
    eng = Engine()
    pool = ProcessorSharing(eng, rate=3.0, per_job_cap=1.0)
    log, samples = [], []
    rebases = []
    rebase = pool._rebase

    def counted():
        rebases.append(eng.now)
        rebase()

    pool._rebase = counted
    rng = random.Random(11)
    # a long job keeps the pool busy (an idle pool resets V to zero)
    pool._arrive(0.0, 4.0e6, _Done(eng, log, "long"))
    for i in range(40):
        eng.call_at(rng.uniform(0.0, 2.5e6), lambda i=i: pool._arrive(
            rng.uniform(1.0, 5.0e4), rng.uniform(1.0e3, 9.0e4),
            _Done(eng, log, f"bg{i}")))

    def join_like_jobs():
        if merged:
            target = _Done(eng, log, "cohort")
            pool._arrive(30.0, 7.5e4, target)
            for _ in range(k - 1):
                assert pool._grow(30.0, target)
        else:
            for j in range(k):
                pool._arrive(30.0, 7.5e4, _Done(eng, log, f"cohort.{j}"))

    eng.call_at(JOIN_AT - 30.0, join_like_jobs)
    for t in range(0, 4_000_000, 50_000):
        eng.call_at(float(t), lambda: samples.append(pool.active_jobs))
    eng.run()
    return log, samples, pool.utilization(), pool.served_integral(), rebases


@pytest.mark.parametrize("k", [2, 4, 8])
def test_weighted_entry_matches_singletons(k):
    m_log, m_samples, m_util, m_served, m_rebases = _weighted_run(k, True)
    s_log, s_samples, s_util, s_served, s_rebases = _weighted_run(k, False)
    assert m_rebases == s_rebases
    done_at = dict(m_log)["cohort"]
    assert any(JOIN_AT <= t < done_at for t in m_rebases)
    assert max(m_samples) > k
    # the k singletons fire back to back where the one entry fires
    at = s_log.index(("cohort.0", dict(s_log)["cohort.0"]))
    singles = s_log[at:at + k]
    assert [name for name, _t in singles] == [f"cohort.{j}" for j in range(k)]
    assert len({t for _name, t in singles}) == 1
    assert s_log[:at] + [("cohort", singles[0][1])] + s_log[at + k:] == m_log
    assert m_samples == s_samples
    assert m_util == s_util and m_served == s_served


def test_grow_only_extends_the_last_pending_entry():
    eng = Engine()
    pool = ProcessorSharing(eng, rate=4.0, per_job_cap=1.0)
    log = []
    first, second = _Done(eng, log, "a"), _Done(eng, log, "b")
    assert not pool._grow(10.0, first)  # nothing pending
    pool._arrive(10.0, 5.0, first)
    pool._arrive(10.0, 5.0, second)
    assert not pool._grow(10.0, first)  # no longer last
    assert not pool._grow(20.0, second)  # another instant
    assert pool._grow(10.0, second)
    now = _Done(eng, log, "now")
    pool._arrive(0.0, 5.0, now)
    assert not pool._grow(0.0, now)  # immediate joins never batch
    eng.run(until=12.0)
    assert pool.active_jobs == 3
    eng.run()
    assert log == [("now", 5.0), ("a", 15.0), ("b", 15.0)]
