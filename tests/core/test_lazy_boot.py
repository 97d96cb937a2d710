"""A GPU costs what it runs: TaskTable entries and WarpTables are built
on first use, not at boot.

Every count here is exact (no wall clock).  The pinned values of the
walkers (``column_busy``, ``close_column``/``open_column``, brown-out,
the watchdog's sibling sweep) were recorded with eagerly built tables,
so the lazy ones must answer the same.
"""

import hashlib

import pytest

import repro.cluster as cluster
import repro.serve as serve
from repro.core import PagodaConfig, PagodaSession
from repro.core.tasktable import TaskEntry, TaskTable
from repro.core.validation import check_quiescent
from repro.core.warptable import WarpSlot
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.phases import Phase
from repro.gpu.timing import DEFAULT_TIMING
from repro.pcie.bus import PcieBus
from repro.serve.slo import SloClass
from repro.sim import Engine
from repro.tasks import TaskResult, TaskSpec

from tests.chaos.harness import chaos_spec, const_kernel


@pytest.fixture
def built(monkeypatch):
    """Counts of TaskEntry / WarpSlot constructions from now on."""
    counts = {"TaskEntry": 0, "WarpSlot": 0}
    for cls in (TaskEntry, WarpSlot):
        init = cls.__init__

        def counting(self, *args, _init=init, _name=cls.__name__, **kw):
            counts[_name] += 1
            _init(self, *args, **kw)
        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def free_order_sha(table) -> str:
    return hashlib.sha256(repr(list(table._cpu_free)).encode()).hexdigest()


def test_booted_and_drained_session_builds_nothing(built):
    session = PagodaSession()
    session.engine.run()
    assert built == {"TaskEntry": 0, "WarpSlot": 0}
    check_quiescent(session, deep=True)
    assert built == {"TaskEntry": 0, "WarpSlot": 0}
    session.shutdown()


def fleet_kernel(task, block_id, warp_id):
    yield Phase(inst=4_000.0, mem_bytes=512)
    yield Phase(inst=4_000.0, mem_bytes=512)


def test_lossy_fleet_builds_at_most_one_entry_per_request(built):
    """The shape of one lossy-fleet benchmark cell: 8 nodes, 20 us
    links, 2% link drops, a latency and a batch tenant of 150 requests
    each.  Eagerly built tables cost 81.9 entries and 39.7 warp slots
    per request here."""
    topology = cluster.Topology(
        nodes=[cluster.NodeSpec(f"n{i}") for i in range(8)],
        link_ns=20_000.0)

    def tasks(prefix):
        return [TaskSpec(f"{prefix}{i % 4}", 64, 2, fleet_kernel)
                for i in range(150)]
    tenants = [
        serve.TenantSpec("lat", tasks("lat"),
                         serve.PoissonArrivals(4e5, seed=0),
                         slo=SloClass("lat", deadline_ns=1e6)),
        serve.TenantSpec("bat", tasks("bat"),
                         serve.PoissonArrivals(2e5, seed=1)),
    ]
    plan = FaultPlan(specs=[FaultSpec(
        kind="fabric.link.drop", meta={"rate": 0.02})], seed=0)
    report = cluster.run_cluster(
        tenants, topology,
        router=cluster.ConsistentHashRouter(topology, key="request"),
        fabric_plan=plan)
    completed = report.frontier["completed"]
    assert completed == 300
    assert built["TaskEntry"] <= completed
    assert built["WarpSlot"] <= 11 * completed


def run_three_tasks(session):
    """Three tasks: columns 0-2 are touched, the rest never are."""
    host = session.host

    def driver():
        for i in range(3):
            yield from host.task_spawn(
                TaskSpec(f"t{i}", 64, 1, const_kernel(800)),
                TaskResult(i, f"t{i}"))
        yield from host.wait_all()
    session.engine.spawn(driver(), name="driver")
    session.engine.run()


#: sha256 of ``repr(list(table._cpu_free))`` after close_column(40),
#: then after open_column(40), on the drained three-task session (LIFO
#: free list).
LIFO_CLOSE_SHA = (
    "955e4366986800f2de571ceb657e2d2f5a709d4fea9eae4cc07efb520294f260")
LIFO_REOPEN_SHA = (
    "60732becc52fcfc1cbb57c4bb851bb58ff610b0e0553c449e139941ed54d0af2")
#: the same on a FIFO table opening columns 0-23, after open_column(30)
#: and then close_column(5).
FIFO_REOPEN_SHA = (
    "f07db16ddcaedc34b94994bf2212d060f48bbdc2c37db8999aaeb81e0926232d")
FIFO_CLOSE_SHA = (
    "7fbd653b989fb149dc921fe2dfbc789c5290bcbc8bb0d828acca8ec2907c2466")


def test_walkers_on_an_untouched_column_match_eager_tables(built):
    session = PagodaSession()
    run_three_tasks(session)
    table, master = session.table, session.master
    before = dict(built)
    assert [table.column_busy(c) for c in (0, 1, 2, 40)] == [False] * 4
    assert master.brownout(40) == 0
    table.close_column(40)
    assert free_order_sha(table) == LIFO_CLOSE_SHA
    table.open_column(40)
    assert free_order_sha(table) == LIFO_REOPEN_SHA
    assert built == before
    check_quiescent(session, deep=True)
    assert built == before
    session.shutdown()


def test_fifo_reinterleave_on_an_untouched_column_matches_eager_tables(
        built):
    engine = Engine()
    table = TaskTable(engine, PcieBus(engine, DEFAULT_TIMING), 48,
                      open_columns=range(24), free_order="fifo")
    table.open_column(30)
    assert free_order_sha(table) == FIFO_REOPEN_SHA
    table.close_column(5)
    assert free_order_sha(table) == FIFO_CLOSE_SHA
    assert not table.column_busy(30)
    assert built["TaskEntry"] == 0


#: every executor retirement of the watchdog run, as
#: ``(column, slot, when_ns)``, recorded with eagerly built tables.
WATCHDOG_RETIRES = (
    "[(0, 2, 4861.333333333334), (0, 3, 4861.333333333334), "
    "(1, 0, 7372.0), (2, 0, 8382.666666666666), (3, 0, 9393.333333333332), "
    "(0, 0, 53161.333333333336), (0, 1, 53161.333333333336), "
    "(0, 2, 57574.0), (0, 3, 57574.0), (0, 4, 57574.0), (0, 5, 57574.0), "
    "(0, 6, 57574.0), (0, 7, 57574.0)]")


def test_watchdog_kill_retires_only_the_victims_slots(monkeypatch):
    """The hog (4 warps, two of them wedged) shares column 0 with a
    6-warp task; the hog's kill retires exactly its two wedged
    executors while the 6 warps run on, and the 6-warp task's own
    later kill retires its 6."""
    from repro.core.masterkernel import Mtb
    retires = []
    retire = Mtb._retire

    def logging_retire(self, slot_index):
        retires.append((self.column, slot_index, self.engine.now))
        retire(self, slot_index)
    monkeypatch.setattr(Mtb, "_retire", logging_retire)
    session = PagodaSession(spec=chaos_spec(), config=PagodaConfig(
        copy_inputs=False, copy_outputs=False,
        watchdog_deadline_ns=50_000.0,
        fault_plan=FaultPlan(specs=[FaultSpec(
            kind="gpu.stuck_warp", target="hog", count=2)])))
    host = session.host
    specs = [TaskSpec("hog", 128, 1, const_kernel(500))]
    specs += [TaskSpec(f"ok{i}", 32, 1, const_kernel(1000))
              for i in range(1, 4)]
    specs.append(TaskSpec("long", 192, 1, const_kernel(400_000)))

    def driver():
        for i, spec in enumerate(specs):
            yield from host.task_spawn(spec, TaskResult(i, spec.name))
        try:
            yield from host.wait_all()
        except Exception:
            pass
    session.engine.spawn(driver(), name="driver")
    session.engine.run(until=5.0e7)
    hog, long = session.master.watchdog_kills()
    assert (hog.name, hog.column, long.name, long.column) == \
        ("hog", 0, "long", 0)
    assert [r[1] for r in retires if r[2] == hog.when_ns] == [0, 1]
    assert [r[1] for r in retires if r[2] == long.when_ns] == \
        [2, 3, 4, 5, 6, 7]
    assert repr(retires) == WATCHDOG_RETIRES
    check_quiescent(session, deep=True)
    session.shutdown()


def test_brownout_kills_in_row_order_when_rows_were_built_out_of_order():
    """Reading row 1 of column 0 first builds it first; the brown-out
    still kills the column's resident tasks in row order."""
    session = PagodaSession(spec=chaos_spec(), config=PagodaConfig(
        copy_inputs=False, copy_outputs=False))
    table, host = session.table, session.host
    assert table.gpu[0][1].ready == 0
    failed = []

    def driver():
        for i in range(8):
            yield from host.task_spawn(
                TaskSpec(f"t{i}", 64, 1, const_kernel(200_000)),
                TaskResult(i, f"t{i}"))
        try:
            yield from host.wait_all()
        except Exception:
            pass

    def brownout():
        done = len(table._completed_unreported)
        assert session.master.brownout(0) == 2
        failed.extend(table._completed_unreported[done:])
    session.engine.spawn(driver(), name="driver")
    session.engine.call_at(30_000.0, brownout)
    session.engine.run(until=5.0e7)
    assert failed == [(0, 0), (0, 1)]
    check_quiescent(session, deep=True)
    session.shutdown()
