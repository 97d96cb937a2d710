"""Stepped NodeFrontend semantics: inject, step, drain, abort."""

import pytest

from repro.gpu.phases import Phase
from repro.serve import (
    Backpressure,
    DeterministicArrivals,
    NodeFrontend,
    ServeConfig,
    TenantSpec,
    remote_tenants,
)
from repro.serve.slo import SloClass
from repro.tasks import TaskSpec

from tests.differential.harness import run_pinned


def _kernel(task, block_id, warp_id):
    yield Phase(inst=5_000.0, mem_bytes=512)


def _spec(name="k0"):
    return TaskSpec(name, 64, 1, _kernel)


def _frontend():
    fe = NodeFrontend(remote_tenants([("t", SloClass())]), ServeConfig())
    fe.start()
    return fe


def test_run_to_quiescence_is_refused():
    fe = _frontend()
    with pytest.raises(TypeError, match="stepped"):
        fe.run()


def test_step_before_start_is_refused():
    fe = NodeFrontend(remote_tenants([("t", SloClass())]), ServeConfig())
    with pytest.raises(RuntimeError, match="start"):
        fe.step_until(1.0)


def test_inject_step_drain_accounts_every_request():
    fe = _frontend()
    for rid in range(4):
        fe.inject(rid, "t", _spec(f"k{rid}"), at_ns=10_000.0 * (rid + 1))
    assert fe.busy()
    fe.step_until(5_000.0)          # before the first arrival
    assert fe.engine.now == 5_000.0
    assert fe.status()["offered"] == 0
    fe.step_until(45_000.0)         # all four arrival instants passed
    assert fe.status()["offered"] == 4
    report = fe.close_and_drain()
    assert report.completed == 4
    assert not fe.busy()
    assert fe.status()["alive"] == 1


def test_unknown_tenant_and_closed_frontend_are_refused():
    fe = _frontend()
    with pytest.raises(KeyError, match="nobody"):
        fe.inject(0, "nobody", _spec(), at_ns=1.0)
    fe.close_and_drain()
    with pytest.raises(RuntimeError, match="closed"):
        fe.inject(0, "t", _spec(), at_ns=1.0)


def test_frontend_closed_before_any_step_never_polls():
    """Drained with nothing injected, the run is over before the
    collector's first look: no poll, no copy-back, makespan 0."""
    report = _frontend().close_and_drain()
    assert report.makespan_ns == 0.0


def test_step_until_pins_clock_forward_on_idle():
    fe = _frontend()
    fe.step_until(30_000.0)
    assert fe.engine.now == 30_000.0
    fe.step_until(60_000.0)
    assert fe.engine.now == 60_000.0


def test_abort_hands_back_unanswered_requests_in_rid_order():
    fe = _frontend()
    # one request arriving well before the abort (it will complete),
    # two in-window and one whose arrival instant is never reached
    fe.inject(7, "t", _spec("early"), at_ns=1_000.0)
    fe.inject(3, "t", _spec("mid"), at_ns=299_000.0)
    fe.inject(9, "t", _spec("late"), at_ns=299_500.0)
    fe.inject(5, "t", _spec("never"), at_ns=900_000.0)
    fe.step_until(200_000.0)
    report, respawns = fe.abort(300_000.0)
    assert [rid for rid, _, _ in respawns] == sorted(
        rid for rid, _, _ in respawns)
    names = {spec.name for _, _, spec in respawns}
    assert "never" in names and "early" not in names
    assert fe.failed_over == len(respawns)
    status = fe.status()
    assert status["alive"] == 0
    assert status["queued"] == status["inflight"] == status["pending"] == 0
    assert report.completed == 1
    with pytest.raises(RuntimeError, match="aborted"):
        fe.abort(300_000.0)
    with pytest.raises(RuntimeError, match="closed"):
        fe.inject(11, "t", _spec(), at_ns=400_000.0)


def test_duplicate_rid_injection_is_suppressed():
    """At-least-once upstream (retransmits, hedges) must stay
    exactly-once at the frontend: a repeated rid is refused before it
    touches any state."""
    fe = _frontend()
    assert fe.inject(7, "t", _spec(), at_ns=10_000.0) is True
    assert fe.inject(7, "t", _spec(), at_ns=20_000.0) is False
    assert fe.status()["dup_suppressed"] == 1
    fe.step_until(50_000.0)
    assert fe.status()["offered"] == 1   # the duplicate never arrived
    report = fe.close_and_drain()
    assert report.completed == 1


def test_drain_answered_feeds_terminal_outcomes_once():
    fe = _frontend()
    fe.inject(3, "t", _spec(), at_ns=5_000.0)
    fe.inject(8, "t", _spec(), at_ns=6_000.0)
    assert fe.drain_answered() == []     # nothing terminal yet
    fe.step_until(200_000.0)
    drained = fe.drain_answered()
    assert sorted(rid for _, rid, _ in drained) == [3, 8]
    assert all(outcome == "completed" for _, _, outcome in drained)
    assert all(when <= 200_000.0 for when, _, _ in drained)
    assert fe.drain_answered() == []     # drained means drained
    fe.close_and_drain()


def test_status_is_plain_ints():
    fe = _frontend()
    fe.inject(0, "t", _spec(), at_ns=1_000.0)
    for key, value in fe.status().items():
        assert type(value) is int, (key, value)
    fe.step_until(50_000.0)
    fe.close_and_drain()


def test_a_tenant_carrying_tasks_is_refused():
    """Remote tenants receive every request by injection: tasks on
    the spec would never be offered, so the frontend refuses them."""
    tenant = TenantSpec("t", [_spec()], DeterministicArrivals(0.0))
    with pytest.raises(ValueError, match="injection"):
        NodeFrontend([tenant], ServeConfig())


def test_injected_requests_spawn_no_process(process_spawns):
    """Ingress is a callback at the arrival's slot: 50 injected
    requests spawn no generator beyond the dispatcher and collector."""
    fe = _frontend()
    for rid in range(50):
        fe.inject(rid, "t", _spec(f"k{rid}"), at_ns=1_000.0 * rid)
    fe.step_until(50_000.0)
    report = fe.close_and_drain()
    assert report.completed == 50
    assert process_spawns == ["serve-dispatch", "serve-collect.0"]


#: ``(sha256 of report.to_json(), summed engine events)`` of the
#: backpressured burst below, recorded while ingress still ran one
#: process per request.
BACKPRESSURE_PIN = (
    "241e11b6d39c1eae024f9510920e29b73802a866e2c38cce3e18b10e4cb5f257", 281)


def _backpressured_burst():
    fe = NodeFrontend(remote_tenants([("t", SloClass())]),
                      ServeConfig(policy=Backpressure(max_depth=2)))
    fe.start()
    for rid in range(12):
        fe.inject(rid, "t", _spec(f"k{rid}"), at_ns=10_000.0)
    epoch_end = 0.0
    while fe.status()["pending"]:
        epoch_end += 5_000.0
        fe.step_until(epoch_end)
    return fe.close_and_drain()


def test_backpressured_burst_leaves_the_gate_in_arrival_order():
    """A same-instant burst into a gate of depth 2: the requests that
    find it full wait for space and are admitted in arrival order."""
    report, pin = run_pinned(_backpressured_burst)
    requests = report.requests
    assert report.admitted == report.completed == 12
    assert any(r.admit_ns > r.arrival_ns for r in requests)
    admits = [r.admit_ns for r in requests]
    dispatches = [r.dispatch_ns for r in requests]
    assert admits == sorted(admits)
    assert dispatches == sorted(dispatches)
    assert pin == BACKPRESSURE_PIN
