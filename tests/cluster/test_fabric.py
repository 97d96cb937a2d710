"""Fabric invariants: the lookahead bound, deterministic delivery,
and the reliable lane (faulted wire + ack/retransmit)."""

import pytest

from repro.cluster import Fabric, NodeSpec, Topology
from repro.cluster.fabric import ANSWER, FORWARD, MAX_ATTEMPTS, POLICY_DESC
from repro.cluster.topology import ROUTER
from repro.faults import FabricInjector, FaultPlan, FaultSpec


def _fabric(link_ns=25_000.0, **kw):
    topo = Topology(nodes=[NodeSpec("n0"), NodeSpec("n1")],
                    link_ns=link_ns, **kw)
    return Fabric(topo)


def _reliable(specs, link_ns=25_000.0):
    topo = Topology(nodes=[NodeSpec("n0"), NodeSpec("n1")],
                    link_ns=link_ns)
    plan = FaultPlan(specs=list(specs), seed=1)
    return Fabric(topo, injector=FabricInjector(plan))


def test_message_never_arrives_in_its_send_epoch():
    """The conservative-sync keystone: link latency >= epoch length,
    so a message posted during epoch e lands in a bucket >= e+1."""
    fab = _fabric()
    for send_ns in (0.0, 1.0, 12_500.0, 24_999.9, 25_000.0, 60_001.0):
        msg = fab.post(FORWARD, ROUTER, "n0", send_ns)
        assert fab.epoch_of(msg.arrive_ns) > fab.epoch_of(msg.send_ns)


def test_delivery_order_is_arrival_then_post_order():
    fab = _fabric()
    late = fab.post(FORWARD, ROUTER, "n0", 10.0)    # arrives 25_010
    early = fab.post(FORWARD, ROUTER, "n0", 5.0)    # arrives 25_005
    tied_a = fab.post(FORWARD, ROUTER, "n0", 5.0)   # same instant as early
    got = fab.deliver(1)
    assert got == [early, tied_a, late]
    # equal arrive_ns ties break on global post order (seq)
    assert (got[0].arrive_ns, got[0].seq) < (got[1].arrive_ns, got[1].seq)


def test_buckets_are_consumed_and_pending_counts():
    fab = _fabric()
    fab.post(FORWARD, ROUTER, "n0", 0.0)       # epoch 1
    fab.post(FORWARD, ROUTER, "n1", 30_000.0)  # epoch 2
    assert fab.pending() == 2
    assert fab.next_pending_epoch() == 1
    assert len(fab.deliver(1)) == 1
    assert fab.deliver(1) == []                # consumed
    assert fab.pending() == 1
    assert fab.next_pending_epoch() == 2
    fab.deliver(2)
    assert fab.pending() == 0
    assert fab.next_pending_epoch() == -1


def test_latency_accounting_uses_link_overrides():
    fab = _fabric(links={(ROUTER, "n0"): 40_000.0})
    fab.post(FORWARD, ROUTER, "n0", 0.0)
    fab.post(FORWARD, ROUTER, "n1", 0.0)
    assert fab.latency_sum_ns == 40_000.0 + 25_000.0


# -- reliable lane ------------------------------------------------------------


def test_legacy_lane_has_no_reliability_state():
    fab = _fabric()
    msg = fab.post(FORWARD, ROUTER, "n0", 0.0)
    assert not fab.reliable
    assert msg.mid == -1 and msg.attempt == 1
    assert fab.unacked_count() == 0


def test_count_drop_removes_from_wire_but_keeps_unacked():
    fab = _reliable([FaultSpec(kind="fabric.link.drop", at_ns=0.0)])
    assert fab.post(FORWARD, ROUTER, "n0", 0.0, payload=(7,)) is None
    assert fab.wire_dropped == 1
    assert fab.pending() == 0          # nothing bucketed
    assert fab.unacked_count() == 1    # ...but the record survives
    # the spec is spent: the next post goes through
    assert fab.post(FORWARD, ROUTER, "n0", 1.0, payload=(8,)) is not None


def test_rate_drop_is_probabilistic_and_never_spent():
    fab = _reliable([FaultSpec(kind="fabric.link.drop",
                               meta={"rate": 1.0})])
    for i in range(3):
        assert fab.post(FORWARD, ROUTER, "n0", float(i)) is None
    assert fab.wire_dropped == 3
    fab0 = _reliable([FaultSpec(kind="fabric.link.drop",
                                meta={"rate": 0.0})])
    assert fab0.post(FORWARD, ROUTER, "n0", 0.0) is not None


def test_dup_delivers_twice_and_first_delivery_dedups():
    fab = _reliable([FaultSpec(kind="fabric.link.dup", at_ns=0.0)])
    fab.post(FORWARD, ROUTER, "n0", 0.0, payload=(7,))
    got = fab.deliver(1)
    assert len(got) == 2
    assert got[0].mid == got[1].mid      # same identity
    assert got[0].seq != got[1].seq      # distinct wire copies
    assert fab.first_delivery(got[0])
    assert not fab.first_delivery(got[1])
    assert fab.dup_suppressed == 1


def test_delay_spike_adds_magnitude_to_arrival():
    fab = _reliable([FaultSpec(kind="fabric.link.delay_spike",
                               at_ns=0.0, magnitude_ns=30_000.0)])
    slow = fab.post(FORWARD, ROUTER, "n0", 0.0)
    fast = fab.post(FORWARD, ROUTER, "n0", 0.0)
    assert slow.arrive_ns == 55_000.0    # link 25k + spike 30k
    assert fast.arrive_ns == 25_000.0


def test_pause_holds_messages_until_resume():
    fab = _reliable([
        FaultSpec(kind="fabric.node.pause", at_ns=0.0, target="n0"),
        FaultSpec(kind="fabric.node.resume", at_ns=90_000.0,
                  target="n0"),
    ])
    held = fab.post(FORWARD, ROUTER, "n0", 0.0)
    assert held.arrive_ns == 90_000.0    # restamped to the release
    assert fab.wire_held == 1
    clear = fab.post(FORWARD, ROUTER, "n1", 0.0)
    assert clear.arrive_ns == 25_000.0   # other node unaffected


def test_unmatched_pause_drops_like_a_partition():
    fab = _reliable([FaultSpec(kind="fabric.node.pause", at_ns=0.0,
                               target="n0")])
    assert fab.post(FORWARD, ROUTER, "n0", 0.0) is None
    assert fab.wire_dropped == 1


def test_retransmit_then_ack_retires_the_record():
    fab = _reliable([FaultSpec(kind="fabric.link.drop", at_ns=0.0)])
    fab.post(FORWARD, ROUTER, "n0", 0.0, payload=(7,))  # dropped
    # rto = max(2 * 2*25k, 25k) = 100k; attempt 1 due at 100k
    retried, dead = fab.sweep(50_000.0)
    assert retried == [] and dead == []  # not due yet
    retried, dead = fab.sweep(150_000.0)
    assert len(retried) == 1 and dead == []
    assert fab.retransmits == 1
    msg = fab.deliver(5)[0]              # resent at 100k, arrives 125k
    assert msg.attempt == 2
    assert fab.first_delivery(msg)
    fab.send_ack(msg)
    ack = fab.deliver(6)[0]              # ack arrives 150k
    fab.ack(ack.payload)
    assert fab.unacked_count() == 0
    assert fab.acked == 1
    fab.ack(ack.payload)                 # duplicate ack is a no-op
    assert fab.acked == 1


def test_forward_dead_letters_after_max_attempts():
    fab = _reliable([FaultSpec(kind="fabric.link.drop", at_ns=0.0)])
    fab.post(FORWARD, ROUTER, "n0", 0.0, payload=(7, "t", None))
    # never acked: every sweep past the due instant resends it ...
    for attempt in range(1, MAX_ATTEMPTS):
        retried, dead = fab.sweep(1e9)
        assert len(retried) == 1 and retried[0].attempt == attempt
        assert dead == []
    # ... until the last transmission's timeout dead-letters it
    retried, dead = fab.sweep(1e9)
    assert retried == []
    assert len(dead) == 1 and dead[0].payload[0] == 7
    assert dead[0].attempt == MAX_ATTEMPTS
    assert fab.dead_lettered == 1
    assert fab.unacked_count() == 0


def test_answers_never_dead_letter():
    fab = _reliable([FaultSpec(kind="fabric.link.drop", at_ns=0.0)])
    fab.post(ANSWER, "n0", ROUTER, 0.0, payload=(7, "completed"))
    for _ in range(2 * MAX_ATTEMPTS):
        retried, dead = fab.sweep(1e9)
        assert len(retried) == 1 and dead == []


def test_abandon_from_keeps_other_sources():
    fab = _reliable([FaultSpec(kind="fabric.link.drop", at_ns=0.0,
                               count=3)])
    fab.post(ANSWER, "n0", ROUTER, 0.0, payload=(7, "completed"))
    fab.post(ANSWER, "n0", ROUTER, 0.0, payload=(8, "completed"))
    fab.post(ANSWER, "n1", ROUTER, 0.0, payload=(9, "completed"))
    assert fab.unacked_count() == 3
    assert fab.abandon_from("n0") == 2   # rids 7 and 8's answers
    assert fab.unacked_count() == 1      # n1's answer survives
    assert fab.abandoned == 2


def test_injector_rejects_non_fabric_plans():
    with pytest.raises(ValueError, match="fabric"):
        FabricInjector(FaultPlan(specs=[FaultSpec(kind="pcie.drop")]))


def test_policy_validation_and_description():
    assert POLICY_DESC == "at-least-once(rto=2x, cap=8x, max_attempts=5)"
