"""The metrics registry: instruments, the snapshot and its aggregate."""

import pytest

from repro.obs import (
    SNAPSHOT_SCHEMA,
    Obs,
    aggregate_snapshots,
    validate_snapshot,
)
from repro.sim import TimeWeighted


def test_counter_counts():
    obs = Obs(profile=False)
    c = obs.counter("x.y.z")
    c.inc()
    c.inc(5)
    assert c.value == 6


def test_same_name_returns_same_instrument():
    """Two MTBs on one SMM share that SMM's utilization track."""
    obs = Obs(profile=False)
    assert obs.counter("a") is obs.counter("a")
    assert obs.gauge("g") is obs.gauge("g")
    assert obs.timeline("t") is obs.timeline("t")
    assert obs.distribution("d") is obs.distribution("d")
    # distinct kinds may share a name without colliding
    assert obs.counter("n") is not obs.gauge("n")


def test_gauge_time_weighted_average_and_peak():
    obs = Obs(profile=False)
    g = obs.gauge("depth")
    g.set(0.0, 2.0)    # level 2 over [0, 10)
    g.add(10.0, 4.0)   # level 6 over [10, 20)
    assert g.current == 6.0
    assert g.peak == 6.0
    assert g.average(20.0) == pytest.approx((2 * 10 + 6 * 10) / 20)


def test_gauge_is_bit_equal_to_time_weighted():
    """A gauge is a named TimeWeighted: the same set/add sequence gives
    the same floats, bit for bit."""
    gauge = Obs(profile=False).gauge("level")
    tw = TimeWeighted()
    steps = [("add", 0.3, 1.0), ("add", 1.7, 0.1), ("set", 2.9, 7.3),
             ("add", 2.9, -2.2), ("add", 10.0 / 3.0, 0.7),
             ("set", 11.1, 0.0), ("add", 12.5, 1e-9)]
    for op, t, v in steps:
        getattr(gauge, op)(t, v)
        getattr(tw, op)(t, v)
        assert gauge.current == tw.current
        assert gauge.peak == tw.peak
    for end in (12.5, 13.0, 100.0 / 7.0):
        assert gauge.average(end) == tw.average(end)


def test_gauge_rejects_time_going_backwards():
    gauge = Obs(profile=False).gauge("level")
    gauge.set(5.0, 1.0)
    with pytest.raises(ValueError, match="backwards"):
        gauge.set(4.0, 2.0)
    with pytest.raises(ValueError, match="backwards"):
        gauge.add(4.0, 1.0)


def test_series_coalesces_same_instant_changes():
    obs = Obs(profile=False)
    s = obs.timeline("busy")
    s.add(0.0, 1)
    s.add(0.0, 1)   # same instant: one sample at the final level
    s.add(5.0, -1)
    assert s.samples == [(0.0, 2.0), (5.0, 1.0)]
    assert s.current == 1.0


def test_snapshot_shape_and_determinism():
    def build():
        obs = Obs(profile=False)
        obs.counter("b").inc(2)
        obs.counter("a").inc(1)
        obs.gauge("g").set(0.0, 3.0)
        obs.timeline("t").add(1.0, 1)
        obs.instant("track", "evt", 5.0, k=1)
        obs.span("track", "sp", 5.0, 2.0)
        return obs.snapshot()

    snap = build()
    assert snap["schema"] == SNAPSHOT_SCHEMA
    assert list(snap["counters"]) == ["a", "b"]  # sorted names
    assert snap["events"] == {"instants": 1, "spans": 1}
    assert snap == build()  # identical construction -> identical dict


def test_snapshot_with_engine_carries_sim_section():
    from repro.sim import Engine

    def proc():
        yield 10.0
        yield 10.0

    engine = Engine()
    engine.spawn(proc(), "p")
    engine.run()
    obs = Obs()
    snap = obs.snapshot(engine)
    assert snap["sim"]["events_executed"] == engine.event_count
    assert snap["sim"]["final_now_ns"] == engine.now
    assert "profile" not in snap


def test_obs_profile_true_raises():
    """Obs attaches no profiler: only ``profile=False`` is accepted."""
    with pytest.raises(ValueError, match="profile=True"):
        Obs(profile=True)
    assert Obs(profile=False).snapshot() == Obs().snapshot()


def test_validate_snapshot_rejects_malformed():
    good = Obs(profile=False).snapshot()
    assert validate_snapshot(good) is good
    with pytest.raises(ValueError, match="schema"):
        validate_snapshot({**good, "schema": "bogus/9"})
    with pytest.raises(ValueError, match="now_ns"):
        validate_snapshot({**good, "now_ns": "yesterday"})
    with pytest.raises(ValueError, match="counters"):
        validate_snapshot({**good, "counters": {"c": "three"}})
    with pytest.raises(ValueError, match="events"):
        validate_snapshot({**good, "events": {"instants": 0}})


def test_aggregate_extremes_skip_empty_distributions():
    """A node whose distribution recorded nothing reports placeholder
    extremes of 0.0; they must not leak into the fleet's min/max, and a
    fleet with no sample at all reports 0.0."""
    busy, idle, idle2 = (Obs(profile=False) for _ in range(3))
    for v in (5.0, 9.0):
        busy.distribution("wait_ns").record(v)
    idle.distribution("wait_ns")
    idle2.distribution("wait_ns")

    def row(*obs):
        snaps = {f"n{i}": o.snapshot() for i, o in enumerate(obs)}
        r = aggregate_snapshots(snaps)["distributions"]["wait_ns"]
        return r["count"], r["min"], r["max"]

    assert row(busy, idle) == (2, 5.0, 9.0)
    assert row(idle, idle2) == (0, 0.0, 0.0)
