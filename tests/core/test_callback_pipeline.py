"""The host pipeline and the scheduler warps as callback objects.

``PcieBus.transfer``, the TaskTable copy-backs and state pushes,
``PagodaHost.post``/``task_spawn``/``finalize_last``/``collect``,
``run_pagoda``'s spawner and collector and the MTB scheduler warps are
:class:`repro.sim.engine.Op` objects, not processes.  These tests pin
what that must not cost: a process per task (a wrapped ``Engine.spawn``
counts them), the ``file:line`` a TaskError names as its spawn site,
and the deadlock reporting of a wedged run.
"""

import os

import pytest

from repro.bench.harness import make_tasks
from repro.core import PagodaConfig, run_pagoda
from repro.core.masterkernel import Mtb
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.phases import Phase
from repro.obs import Obs
from repro.pcie.bus import Transfer
from repro.serve import DeterministicArrivals, ServeConfig, TenantSpec, serve
from repro.sim import DeadlockError, Engine
from repro.tasks import TaskSpec


@pytest.mark.parametrize("kernel", ["3des", "dct"])
def test_narrow_stream_runs_no_process_per_task(kernel, process_spawns):
    """An open-loop stream of single-warp tasks with input and output
    copies (dct also places barriers and arena blocks), obs attached:
    the run spawns no generator process at all, so none is resumed."""
    n = 64
    stats = run_pagoda(make_tasks(kernel, n, 32, seed=0),
                       config=PagodaConfig(open_loop=True,
                                           spawn_gap_ns=4300.0, obs=Obs()))
    assert stats.meta["entry_copies"] == n
    assert process_spawns == []


def _raise_plan():
    return FaultPlan(specs=[FaultSpec(kind="task.raise", count=2)])


def _spawn_sites(monkeypatch):
    """Collect the spawn site of every TaskError a kill builds."""
    sites = []
    original = Mtb.fail_entry

    def fail_entry(self, *args, **kwargs):
        err = original(self, *args, **kwargs)
        if err is not None:
            sites.append(err.spawn_site.replace(os.sep, "/"))
        return err

    monkeypatch.setattr(Mtb, "fail_entry", fail_entry)
    return sites


def test_run_pagoda_task_errors_name_the_runner(monkeypatch):
    sites = _spawn_sites(monkeypatch)
    stats = run_pagoda(make_tasks("mb", 16, 32, seed=0),
                       config=PagodaConfig(fault_plan=_raise_plan()))
    assert stats.meta["tasks_failed"] == 2
    assert len(sites) == 2
    assert all("repro/core/runtime.py:" in site for site in sites), sites
    failed = [r for r in stats.results if r.task_id in
              stats.meta["task_errors"]]
    assert all("repro/core/runtime.py:" in r.spawn_site.replace(os.sep, "/")
               for r in failed)


def _kernel(task, block_id, warp_id):
    yield Phase(inst=1_000)


def test_serve_task_errors_name_the_server(monkeypatch):
    sites = _spawn_sites(monkeypatch)
    tasks = [TaskSpec(f"t{i}", 64, 1, _kernel) for i in range(12)]
    report = serve([TenantSpec("a", tasks, DeterministicArrivals(400.0))],
                   ServeConfig(pagoda=PagodaConfig(fault_plan=_raise_plan())))
    assert report.failed == 2
    assert len(sites) == 2
    assert all("repro/serve/server.py:" in site for site in sites), sites


def _wedge_transfers(monkeypatch):
    """Granted DMA transfers never deliver: the engine stays held and
    every later transfer queues behind it for good."""
    monkeypatch.setattr(Transfer, "fire", lambda self, _value=None: None)


def test_wedged_run_raises_deadlock_naming_the_collector(monkeypatch):
    _wedge_transfers(monkeypatch)
    with pytest.raises(DeadlockError) as exc_info:
        run_pagoda(make_tasks("mb", 8, 32, seed=0))
    blocked = [op.name for op in exc_info.value.blocked]
    assert "collector" in blocked
    assert any(name.startswith("incopy.") for name in blocked)
    assert "'collector' waiting on" in str(exc_info.value)


def test_wedged_run_without_deadlock_check_did_not_complete(monkeypatch):
    _wedge_transfers(monkeypatch)
    monkeypatch.setattr(Engine, "check_deadlock", lambda self: None)
    with pytest.raises(RuntimeError, match="did not complete"):
        run_pagoda(make_tasks("mb", 8, 32, seed=0))
