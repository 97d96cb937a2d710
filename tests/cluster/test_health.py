"""HealthTracker unit semantics: the suspect → quarantine →
probation state machine over digest visibility."""

from repro.cluster.health import (
    HEALTH_DESC,
    HEALTHY,
    PROBATION,
    PROBATION_EPOCHS,
    QUARANTINED,
    SUSPECT,
    DegradationEvent,
    HealthTracker,
)

NODES = ["a", "b"]


def _tracker():
    return HealthTracker(NODES)


def _miss(tracker, node, times=1):
    out = []
    for _ in range(times):
        heard = {n: n != node for n in NODES}
        out.extend(tracker.observe(heard))
    return out


def test_policy_validation():
    assert HEALTH_DESC == \
        "digest-suspicion(suspect=2, quarantine=4, probation=3)"


def test_misses_escalate_suspect_then_quarantine():
    t = _tracker()
    assert _miss(t, "a") == []                       # 1 miss: still healthy
    assert _miss(t, "a") == [("a", HEALTHY, SUSPECT)]
    assert _miss(t, "a") == []                       # 3rd miss: still suspect
    assert _miss(t, "a") == [("a", SUSPECT, QUARANTINED)]
    assert t.state["b"] == HEALTHY                   # b never transitioned


def test_suspect_readmits_directly_on_hearing():
    t = _tracker()
    _miss(t, "a", times=2)
    trans = t.observe({n: True for n in NODES})
    assert trans == [("a", SUSPECT, HEALTHY)]
    # and the miss counter reset: two fresh misses to re-suspect
    assert _miss(t, "a") == []
    assert _miss(t, "a") == [("a", HEALTHY, SUSPECT)]


def test_quarantined_serves_probation_before_healthy():
    t = _tracker()
    _miss(t, "a", times=4)
    assert t.state["a"] == QUARANTINED
    assert t.observe({n: True for n in NODES}) == \
        [("a", QUARANTINED, PROBATION)]
    assert not t.bad_nodes()                 # probation is routable
    for _ in range(PROBATION_EPOCHS - 1):    # clean epochs
        assert t.observe({n: True for n in NODES}) == []
    assert t.observe({n: True for n in NODES}) == \
        [("a", PROBATION, HEALTHY)]


def test_probation_miss_relapses_straight_to_quarantine():
    t = _tracker()
    _miss(t, "a", times=4)
    t.observe({n: True for n in NODES})      # -> probation
    assert _miss(t, "a") == [("a", PROBATION, QUARANTINED)]


def test_dead_nodes_are_skipped():
    t = _tracker()
    # "a" is dead: not in the heard map at all -> state frozen
    for _ in range(6):
        assert t.observe({"b": True}) == []
    assert t.state["a"] == HEALTHY


def test_routable_and_bad_nodes():
    t = _tracker()
    assert t.routable("a") and t.routable("b")
    assert t.bad_nodes() == []
    _miss(t, "a", times=2)
    assert not t.routable("a")
    assert t.bad_nodes() == ["a"]
    assert t.final_states() == {"a": SUSPECT, "b": HEALTHY}
    # unknown nodes default healthy (router probes arbitrary names)
    assert t.routable("nobody")


def test_degradation_event_dict_omits_unset_ids():
    bare = DegradationEvent(10.0, "suspect", "a")
    assert bare.to_dict() == {"when_ns": 10.0, "kind": "suspect",
                              "node": "a"}
    full = DegradationEvent(10.0, "retransmit", "a", mid=3, rid=7,
                            detail="forward")
    assert full.to_dict() == {"when_ns": 10.0, "kind": "retransmit",
                              "node": "a", "mid": 3, "rid": 7,
                              "detail": "forward"}
