"""Unit tests for Event and Signal primitives."""

import pytest

from repro.sim import Engine, Event, Signal


def test_event_fires_once():
    ev = Event()
    ev.fire(1)
    with pytest.raises(RuntimeError):
        ev.fire(2)


def test_event_wakes_all_waiters():
    ev = Event()
    got = []
    ev._add_waiter(got.append)
    ev._add_waiter(got.append)
    ev.fire("x")
    assert got == ["x", "x"]


def test_event_late_waiter_gets_value():
    ev = Event()
    ev.fire(99)
    got = []
    ev._add_waiter(got.append)
    assert got == [99]


def test_signal_pulse_wakes_current_waiters_only():
    sig = Signal()
    got = []
    ev1 = sig.wait()
    ev1._add_waiter(lambda v: got.append(("first", v)))
    sig.pulse("a")
    ev2 = sig.wait()
    ev2._add_waiter(lambda v: got.append(("second", v)))
    sig.pulse("b")
    assert got == [("first", "a"), ("second", "b")]
    assert sig.pulse_count == 2


def test_signal_waiter_count():
    sig = Signal()
    assert sig.waiter_count == 0
    sig.wait()
    sig.wait()
    assert sig.waiter_count == 2
    sig.pulse()
    assert sig.waiter_count == 0


def test_signal_in_process_loop():
    eng = Engine()
    sig = Signal()
    seen = []

    def consumer():
        for _ in range(3):
            value = yield sig.wait()
            seen.append((eng.now, value))

    def producer():
        for i in range(3):
            yield 2.0
            sig.pulse(i)

    eng.spawn(consumer())
    eng.spawn(producer())
    eng.run()
    assert seen == [(2.0, 0), (4.0, 1), (6.0, 2)]


def test_pulse_with_no_waiters_is_noop():
    sig = Signal()
    sig.pulse("lost")
    got = []
    sig.wait()._add_waiter(got.append)
    assert got == []  # the earlier pulse is not replayed
