"""Property test: same-instant event ordering matches the reference.

Hypothesis generates interleaved timers, callbacks, and spawns whose
delays are drawn from a tiny set of values, so *most* events collide on
equal timestamps — exactly the regime where merging the ready ring with
the heap could get the ``_seq`` tie-break wrong.  Each program first
runs under a random ``until`` / ``max_events`` bound, then to
completion, so every exit and resume path of the run loop is covered.
``Engine`` and the frozen seed ``ReferenceEngine`` must produce
identical execution traces, clocks, and event counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine
from repro.sim.reference import ReferenceEngine

#: few distinct delays -> dense timestamp collisions (0.0 entries keep
#: the ready ring in play; equal positives collide in the heap).
DELAYS = (0.0, 0.5, 1.0, 1.0, 2.0)

#: one process = a list of (action, delay-index) steps.
#:   action 0: sleep           (timer resume)
#:   action 1: schedule a callback, then sleep (callback + timer)
#:   action 2: spawn a child with the remaining steps, then sleep
action_step = st.tuples(st.integers(0, 2), st.integers(0, len(DELAYS) - 1))
program = st.lists(
    st.lists(action_step, min_size=1, max_size=8),
    min_size=1, max_size=8,
)
#: the first, bounded run: ``until`` on the delay grid (hits exact
#: collision instants) and/or a ``max_events`` cut.
first_bound = st.tuples(
    st.one_of(st.none(), st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, 3.5))),
    st.one_of(st.none(), st.integers(1, 40)),
)


def run_program(plan, engine, until, max_events):
    trace = []

    def proc(pid, steps):
        for j, (action, sel) in enumerate(steps):
            delay = DELAYS[sel]
            if action == 1:
                engine.call_after(
                    delay,
                    lambda p=pid, k=j: trace.append((engine.now, "cb", p, k)),
                )
            elif action == 2:
                # children inherit at most two of the remaining steps,
                # so generated programs always terminate
                child = list(steps[j + 1:j + 3])
                if child:
                    engine.spawn(proc((pid, j), child), name=f"c{pid}{j}")
            yield delay
            trace.append((engine.now, "tick", pid, j))

    for i, steps in enumerate(plan):
        engine.spawn(proc(i, list(steps)), name=f"p{i}")
    first = engine.run(until=until, max_events=max_events)
    mid = (tuple(trace), first, engine.event_count)
    end = engine.run()
    return mid, tuple(trace), end, engine.event_count


@given(program, first_bound)
@settings(max_examples=60, deadline=None)
def test_same_instant_traces_identical(plan, bound):
    until, max_events = bound
    assert (run_program(plan, Engine(), until, max_events)
            == run_program(plan, ReferenceEngine(), until, max_events))
