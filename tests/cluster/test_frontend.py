"""Stepped fleet-node semantics: deliver, step, finish, die.

A :class:`~repro.cluster.node.NodeShard` is driven here exactly as the
coordinator drives it: each ``step(epoch_end, deliveries)`` returns
the step's outbox and status digest, and ``finish()`` drains it.
"""

import pytest

import repro.cluster.node as node_module
from repro.cluster.fabric import ANSWER, FORWARD, RESPAWN, Message
from repro.cluster.node import NodeShard
from repro.cluster.topology import ROUTER, NodeSpec
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.phases import Phase
from repro.serve import Backpressure, ServeConfig
from repro.serve.slo import SloClass
from repro.tasks import TaskSpec

from tests.differential.harness import run_pinned


def _kernel(task, block_id, warp_id):
    yield Phase(inst=5_000.0, mem_bytes=512)


def _spec(name="k0"):
    return TaskSpec(name, 64, 1, _kernel)


def _node(name="n0", fault_plan=None, reliable=False):
    return NodeShard(NodeSpec(name, fault_plan=fault_plan),
                     [("t", SloClass())], reliable=reliable)


def _msg(rid, spec, at_ns, tenant="t"):
    """A ``FORWARD`` delivery of request ``rid`` arriving at ``at_ns``."""
    return Message(FORWARD, ROUTER, "n0", 0.0, at_ns, rid,
                   (rid, tenant, spec))


def _idle(status):
    return status["pending"] == status["queued"] == status["inflight"] == 0


def test_run_to_quiescence_is_refused():
    node = _node()
    with pytest.raises(TypeError, match="stepped"):
        node.run()


def test_inject_step_drain_accounts_every_request():
    node = _node()
    deliveries = [_msg(rid, _spec(f"k{rid}"), 10_000.0 * (rid + 1))
                  for rid in range(4)]
    outbox, status = node.step(5_000.0, deliveries)  # before the first
    assert outbox == []
    assert node.engine.now == 5_000.0
    assert status["offered"] == 0 and status["pending"] == 4
    _, status = node.step(45_000.0, [])  # all four arrival instants passed
    assert status["offered"] == 4
    report, snapshot = node.finish()
    assert report.completed == 4 and snapshot is None
    status = node.status()
    assert status["alive"] == 1 and _idle(status)


def test_unknown_tenant_and_closed_frontend_are_refused():
    node = _node()
    with pytest.raises(KeyError, match="nobody"):
        node.step(1.0, [_msg(0, _spec(), 1.0, tenant="nobody")])
    node.finish()
    with pytest.raises(RuntimeError, match="finished"):
        node.step(2.0, [_msg(1, _spec(), 2.0)])


def test_finishing_with_arrivals_pending_is_refused():
    node = _node()
    node.step(1_000.0, [_msg(0, _spec(), 5_000.0)])
    with pytest.raises(RuntimeError, match="pending"):
        node.finish()


def test_frontend_closed_before_any_step_never_polls():
    """Finished with nothing delivered, the run is over before the
    collector's first look: no poll, no copy-back, makespan 0."""
    report, _ = _node().finish()
    assert report.makespan_ns == 0.0


def test_step_pins_clock_forward_on_idle():
    node = _node()
    node.step(30_000.0, [])
    assert node.engine.now == 30_000.0
    node.step(60_000.0, [])
    assert node.engine.now == 60_000.0


def test_abort_hands_back_unanswered_requests_in_rid_order():
    """The node dies at 300 µs: the step that crosses it ends with the
    answers logged before death, then one ``RESPAWN`` per unanswered
    request in rid order; later deliveries bounce."""
    plan = FaultPlan([FaultSpec("gpu.die", at_ns=300_000.0)])
    node = _node(fault_plan=plan, reliable=True)
    # one request arriving well before the death (it completes), two
    # in-window and one whose arrival instant is never reached
    deliveries = [_msg(7, _spec("early"), 1_000.0),
                  _msg(3, _spec("mid"), 299_000.0),
                  _msg(9, _spec("late"), 299_500.0),
                  _msg(5, _spec("never"), 900_000.0)]
    outbox, status = node.step(500.0, deliveries)
    assert outbox == [] and status["alive"] == 1
    outbox, status = node.step(400_000.0, [])
    assert [kind for kind, _, _ in outbox] == [ANSWER] + [RESPAWN] * 3
    assert outbox[0][2] == (7, "completed")
    respawns = [payload for _, _, payload in outbox[1:]]
    assert [rid for rid, _, _ in respawns] == [3, 5, 9]
    assert all(send_ns == 300_000.0 for _, send_ns, _ in outbox[1:])
    assert {spec.name for _, _, spec in respawns} == {"mid", "late",
                                                      "never"}
    assert status["alive"] == 0 and _idle(status)
    assert status["failed_over"] == 3
    # a dead node bounces every later delivery at its arrival instant
    late = _msg(11, _spec(), 410_000.0)
    outbox, status = node.step(500_000.0, [late])
    assert outbox == [(RESPAWN, 410_000.0, late.payload)]
    assert status["bounced"] == 1
    report, _ = node.finish()
    assert report.completed == 1


def test_duplicate_rid_injection_is_suppressed():
    """At-least-once upstream (retransmits, hedges) must stay
    exactly-once at the node: a repeated rid is refused before it
    touches any state."""
    node = _node()
    _, status = node.step(5_000.0, [_msg(7, _spec(), 10_000.0),
                                    _msg(7, _spec(), 20_000.0)])
    assert status["dup_suppressed"] == 1
    _, status = node.step(50_000.0, [_msg(7, _spec(), 40_000.0)])
    assert status["dup_suppressed"] == 2
    assert status["offered"] == 1   # no duplicate ever arrived
    report, _ = node.finish()
    assert report.completed == 1


def test_reliable_step_answers_each_terminal_outcome_once():
    """On the reliable lane a step's outbox carries one ``ANSWER`` per
    request that reached a terminal outcome during that step."""
    node = _node(reliable=True)
    outbox, _ = node.step(1_000.0, [_msg(3, _spec(), 5_000.0),
                                    _msg(8, _spec(), 6_000.0)])
    assert outbox == []                 # nothing terminal yet
    outbox, _ = node.step(200_000.0, [])
    assert sorted(rid for _, _, (rid, _) in outbox) == [3, 8]
    assert all(kind == ANSWER and outcome == "completed"
               for kind, _, (_, outcome) in outbox)
    assert all(1_000.0 < when <= 200_000.0 for _, when, _ in outbox)
    outbox, _ = node.step(300_000.0, [])
    assert outbox == []                 # answered means answered
    node.finish()


def test_status_is_plain_ints():
    node = _node()
    _, status = node.step(500.0, [_msg(0, _spec(), 1_000.0)])
    for key, value in status.items():
        assert type(value) is int, (key, value)
    node.step(50_000.0, [])
    node.finish()


def test_injected_requests_spawn_no_process(process_spawns):
    """Ingress is a callback at the arrival's slot: 50 delivered
    requests spawn no generator beyond the dispatcher and collector."""
    node = _node()
    node.step(50_000.0, [_msg(rid, _spec(f"k{rid}"), 1_000.0 * rid)
                         for rid in range(50)])
    report, _ = node.finish()
    assert report.completed == 50
    assert process_spawns == ["serve-dispatch", "serve-collect.0"]


#: ``(sha256 of report.to_json(), summed engine events)`` of the
#: backpressured burst below, recorded while ingress still ran one
#: process per request.
BACKPRESSURE_PIN = (
    "241e11b6d39c1eae024f9510920e29b73802a866e2c38cce3e18b10e4cb5f257", 281)


def _backpressured_burst():
    node = NodeShard(NodeSpec("serve"), [("t", SloClass())])
    burst = [_msg(rid, _spec(f"k{rid}"), 10_000.0) for rid in range(12)]
    epoch_end = 5_000.0
    _, status = node.step(epoch_end, burst)
    while status["pending"]:
        epoch_end += 5_000.0
        _, status = node.step(epoch_end, [])
    return node.finish()[0]


def test_backpressured_burst_leaves_the_gate_in_arrival_order(monkeypatch):
    """A same-instant burst into a gate of depth 2: the requests that
    find it full wait for space and are admitted in arrival order."""
    monkeypatch.setattr(
        node_module, "ServeConfig",
        lambda label: ServeConfig(label=label,
                                  policy=Backpressure(max_depth=2)))
    report, pin = run_pinned(_backpressured_burst)
    requests = report.requests
    assert report.admitted == report.completed == 12
    assert any(r.admit_ns > r.arrival_ns for r in requests)
    admits = [r.admit_ns for r in requests]
    dispatches = [r.dispatch_ns for r in requests]
    assert admits == sorted(admits)
    assert dispatches == sorted(dispatches)
    assert pin == BACKPRESSURE_PIN
