"""Unit tests for the discrete-event engine core."""

import pytest

from repro.sim import Delay, Engine, Event


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_call_after_advances_clock():
    eng = Engine()
    hits = []
    eng.call_after(5.0, lambda: hits.append(eng.now))
    eng.run()
    assert hits == [5.0]
    assert eng.now == 5.0


def test_call_at_past_raises():
    eng = Engine()
    eng.call_after(10.0, lambda: None)
    eng.run()
    with pytest.raises(ValueError):
        eng.call_at(5.0, lambda: None)


def test_events_fire_in_time_order():
    eng = Engine()
    order = []
    eng.call_after(3.0, lambda: order.append("c"))
    eng.call_after(1.0, lambda: order.append("a"))
    eng.call_after(2.0, lambda: order.append("b"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_order():
    eng = Engine()
    order = []
    for tag in ("first", "second", "third"):
        eng.call_after(1.0, lambda t=tag: order.append(t))
    eng.run()
    assert order == ["first", "second", "third"]


def test_run_until_stops_clock():
    eng = Engine()
    eng.call_after(100.0, lambda: None)
    end = eng.run(until=10.0)
    assert end == 10.0
    assert eng.now == 10.0


@pytest.mark.parametrize("drain", ["run", "run_until"])
def test_run_until_in_the_past_raises(drain):
    eng = Engine()
    eng.call_at(10.0, lambda: None)
    eng.run()
    eng.call_at(20.0, lambda: None)
    with pytest.raises(ValueError, match="cannot run backwards"):
        getattr(eng, drain)(5.0)
    # the clock did not move and the pending record is untouched
    assert eng.now == 10.0
    assert eng.run() == 20.0


def test_process_delay_sequence():
    eng = Engine()
    trace = []

    def proc():
        trace.append(eng.now)
        yield 5.0
        trace.append(eng.now)
        yield Delay(2.5)
        trace.append(eng.now)

    eng.spawn(proc())
    eng.run()
    assert trace == [0.0, 5.0, 7.5]


def test_process_result_and_join():
    eng = Engine()

    def child():
        yield 3.0
        return 42

    results = []

    def parent():
        proc = eng.spawn(child())
        value = yield proc
        results.append((eng.now, value))

    eng.spawn(parent())
    eng.run()
    assert results == [(3.0, 42)]


def test_join_already_finished_process():
    eng = Engine()

    def child():
        yield 1.0
        return "done"

    got = []

    def parent(proc):
        yield 10.0
        value = yield proc
        got.append((eng.now, value))

    proc = eng.spawn(child())
    eng.spawn(parent(proc))
    eng.run()
    assert got == [(10.0, "done")]


def test_process_waits_on_event_value():
    eng = Engine()
    ev = Event()
    got = []

    def waiter():
        value = yield ev
        got.append((eng.now, value))

    eng.spawn(waiter())
    eng.call_after(4.0, lambda: ev.fire("payload"))
    eng.run()
    assert got == [(4.0, "payload")]


def test_yield_from_subroutine():
    eng = Engine()
    trace = []

    def sub(n):
        yield float(n)
        trace.append(eng.now)
        return n * 2

    def main():
        a = yield from sub(3)
        b = yield from sub(4)
        trace.append(a + b)

    eng.spawn(main())
    eng.run()
    assert trace == [3.0, 7.0, 14]


def test_return_value_passes_through():
    """A generator's return value survives every hop: ``yield from`` a
    subroutine hands it to the caller, the process keeps it as
    ``result``, and a process that joins it receives it."""
    eng = Engine()
    got = []

    def inner():
        yield 1.0
        return 42

    def outer():
        value = yield from inner()
        got.append(value)
        return value + 1

    def joiner(proc):
        got.append((yield proc))

    proc = eng.spawn(outer(), "outer")
    eng.spawn(joiner(proc))
    eng.run()
    assert got == [42, 43]
    assert proc.result == 43


def test_interrupt_stops_daemon():
    eng = Engine()
    ticks = []

    def daemon():
        while True:
            yield 1.0
            ticks.append(eng.now)

    proc = eng.spawn(daemon())
    eng.call_after(3.5, proc.interrupt)
    eng.run()
    assert ticks == [1.0, 2.0, 3.0]
    assert not proc.alive


def test_interrupt_wakes_joiners():
    eng = Engine()

    def daemon():
        while True:
            yield 1.0

    joined = []

    def joiner(proc):
        yield proc
        joined.append(eng.now)

    proc = eng.spawn(daemon())
    eng.spawn(joiner(proc))
    eng.call_after(2.5, proc.interrupt)
    eng.run(until=10.0)
    assert joined == [2.5]


def test_interrupt_runs_the_generators_finally():
    """interrupt() closes the generator: its finally blocks run (the
    resource cleanup of a torn-down daemon relies on this)."""
    eng = Engine()
    closed = []

    def daemon():
        try:
            yield 10.0
            yield Event()  # parks forever; only interrupt() ends it
        finally:
            closed.append(eng.now)

    proc = eng.spawn(daemon(), "d", daemon=True)
    eng.run()
    assert closed == []
    proc.interrupt()
    assert closed == [10.0]


def test_unnamed_process_takes_the_generator_name():
    eng = Engine()

    def my_proc():
        yield 1.0

    assert eng.spawn(my_proc()).name == "my_proc"
    assert eng.spawn(my_proc(), "named").name == "named"


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1.0)

    eng = Engine()

    def bad():
        yield -2.0

    eng.spawn(bad())
    with pytest.raises(ValueError):
        eng.run()


NAN = float("nan")


class _Ns(float):
    """A float subclass (as ``numpy.float64`` is): not the fast path."""


def test_nan_delay_and_time_rejected():
    with pytest.raises(ValueError):
        Delay(NAN)
    eng = Engine()
    with pytest.raises(ValueError):
        eng.call_at(NAN, lambda: None)
    with pytest.raises(ValueError):
        eng.call_after(NAN, lambda: None)
    assert eng.now == 0.0 and not eng._queue


@pytest.mark.parametrize("delay", [NAN, _Ns(NAN)], ids=["float", "subclass"])
def test_nan_yield_rejected_by_the_run_loop(delay):
    eng = Engine()

    def bad():
        yield 1.0
        yield delay

    eng.spawn(bad())
    with pytest.raises(ValueError, match="nan"):
        eng.run()
    assert eng.now == 1.0


@pytest.mark.parametrize("delay", [NAN, _Ns(NAN)], ids=["float", "subclass"])
def test_nan_yield_rejected_on_an_event_wake(delay):
    # a process woken by an event fire resumes in Process.__call__,
    # not in the run loop
    eng = Engine()
    gate = Event()

    def bad():
        yield gate
        yield delay

    eng.spawn(bad())
    eng.call_after(2.0, lambda: gate.fire(None))
    with pytest.raises(ValueError, match="nan"):
        eng.run()
    assert eng.now == 2.0
    assert all(record[0] == record[0] for record in eng._queue)


def test_unsupported_yield_command_raises():
    eng = Engine()

    def bad():
        yield "not a command"

    eng.spawn(bad())
    with pytest.raises(TypeError):
        eng.run()


def test_timeout_event_value():
    eng = Engine()
    got = []

    def proc():
        value = yield eng.timeout(7.0, "tick")
        got.append((eng.now, value))

    eng.spawn(proc())
    eng.run()
    assert got == [(7.0, "tick")]


def test_max_events_guard():
    def forever():
        while True:
            yield 1.0

    for limit in (50, 20_000):
        eng = Engine()
        eng.spawn(forever())
        eng.run(max_events=limit)
        assert eng.event_count == limit


def test_many_processes_complete():
    eng = Engine()
    done = []

    def worker(i):
        yield float(i % 7) + 0.5
        done.append(i)

    for i in range(500):
        eng.spawn(worker(i))
    eng.run()
    assert sorted(done) == list(range(500))


def test_interrupt_during_resource_wait():
    from repro.sim import ProcessorSharing

    eng = Engine()
    ps = ProcessorSharing(eng, rate=1.0)
    progressed = []

    def job():
        yield ps.consume(1e9)  # effectively forever
        progressed.append("done")

    proc = eng.spawn(job())
    eng.call_after(10.0, proc.interrupt)
    eng.run(until=100.0)
    assert not proc.alive
    assert progressed == []


def test_engine_handles_many_simultaneous_wakeups():
    eng = Engine()
    ev = Event()
    woken = []

    def waiter(i):
        yield ev
        woken.append(i)

    for i in range(2000):
        eng.spawn(waiter(i))
    eng.call_after(1.0, lambda: ev.fire(None))
    eng.run()
    assert len(woken) == 2000
