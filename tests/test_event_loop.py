"""The serve/fleet event loop merges the sorted trace into its heap.

``EventLoop`` must pop exactly the sequence of a plain ``(time, seq)``
heap into which every arrival was pushed before any other event
(``reference.PushEverythingLoop``): an arrival wins every time tie,
equal arrivals keep trace order, and events pushed at run time keep
push order.  The engine-level check runs the serve and fleet engines
on both loops and compares report digests (the quick grid of
``scripts/check_event_loop_oracle.py``, whose full grid runs nightly).
"""

import os
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import reference
from repro.serve.engine import EventLoop
from repro.serve.workload import Request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "scripts"))

import check_event_loop_oracle  # noqa: E402

#: Few distinct times, so arrivals, pre-pushed and run-time events tie.
TIMES = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 2.5, 3.0, 7.0])
ARRIVAL = 9

#: A run-time step: pop, push at a time, push at the last popped time,
#: or push at exactly the next arrival's time.
STEPS = st.one_of(
    st.just(("pop",)),
    st.tuples(st.just("push"), TIMES),
    st.just(("push_now",)),
    st.just(("push_next_arrival",)),
)


def bits(event):
    """An event with its time as exact bits (``-0.0`` differs from 0)."""
    time, kind, payload = event
    return time.hex(), kind, payload


@settings(max_examples=300, deadline=None)
@given(arrival_times=st.lists(TIMES, max_size=12),
       prepushed=st.lists(TIMES, max_size=6),
       steps=st.lists(STEPS, max_size=30))
def test_pop_order_matches_push_everything_heap(arrival_times, prepushed,
                                                steps):
    arrivals = [Request(i, "t", t) for i, t in enumerate(arrival_times)]
    loop = EventLoop(arrivals, ARRIVAL)
    model = reference.PushEverythingLoop(arrivals, ARRIVAL)
    tokens = iter(range(10_000))

    def push(time):
        token = ("event", next(tokens))
        loop.push(time, 1, token)
        model.push(time, 1, token)

    for time in prepushed:
        push(time)
    pending = sorted(arrival_times)   # arrival times not yet popped
    now = 0.0
    for step in steps + [("pop",)] * (len(arrivals) + len(prepushed)
                                      + len(steps)):
        assert len(loop) == len(model)
        assert bool(loop) == bool(model)
        if step[0] == "push":
            push(step[1])
        elif step[0] == "push_now":
            push(now)
        elif step[0] == "push_next_arrival":
            if pending:
                push(pending[0])
        elif model:
            event = loop.pop()
            assert bits(event) == bits(model.pop())
            now = event[0]
            if event[1] == ARRIVAL:
                pending.remove(event[0])
    assert not loop and len(loop) == 0 and not model


def test_empty_arrival_stream():
    loop = EventLoop()
    assert not loop and len(loop) == 0
    loop.push(5.0, 1, "a")
    loop.push(5.0, 2, "b")
    assert loop and len(loop) == 2
    assert loop.pop() == (5.0, 1, "a")
    assert loop.pop() == (5.0, 2, "b")
    assert not loop


def test_engines_match_the_push_everything_loop():
    count, mismatch = check_event_loop_oracle.check(quick=True)
    assert mismatch is None, mismatch
    assert count == 80
