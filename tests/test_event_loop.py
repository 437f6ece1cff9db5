"""The serve/fleet event loop merges the sorted trace into its heap.

``EventLoop`` drains through one iterator, which must yield exactly the
sequence of a plain ``(time, seq)`` heap into which every arrival was
pushed before any other event (``reference.PushEverythingLoop``): an
arrival wins every time tie, equal arrivals keep trace order, events
pushed at run time keep push order, and an event pushed while the
caller handles another is yielded later in the same pass.  The
engine-level check runs the serve and fleet engines on both loops and
compares report digests (the quick grid of
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

#: A run-time step: take the next event, push at a time, push at the
#: last event's time, or push at exactly the next arrival's time.
STEPS = st.one_of(
    st.just(("next",)),
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
def test_iteration_matches_push_everything_heap(arrival_times, prepushed,
                                                steps):
    arrivals = [Request(i, "t", t) for i, t in enumerate(arrival_times)]
    loop = EventLoop(arrivals, ARRIVAL)
    model = reference.PushEverythingLoop(arrivals, ARRIVAL)
    events, oracle = iter(loop), iter(model)
    tokens = iter(range(10_000))
    outstanding = len(arrivals)   # events pushed or merged, not yet yielded

    def push(time):
        nonlocal outstanding
        token = ("event", next(tokens))
        loop.push(time, 1, token)
        model.push(time, 1, token)
        outstanding += 1

    # Pushed before the first next(): the iterators have not started.
    for time in prepushed:
        push(time)
    pending = sorted(arrival_times)   # arrival times not yet yielded
    now = 0.0
    for step in steps + [("next",)] * (len(arrivals) + len(prepushed)
                                       + len(steps)):
        if step[0] == "push":
            push(step[1])
        elif step[0] == "push_now":
            push(now)
        elif step[0] == "push_next_arrival":
            if pending:
                push(pending[0])
        elif outstanding:
            event = next(events)
            assert bits(event) == bits(next(oracle))
            outstanding -= 1
            now = event[0]
            if event[1] == ARRIVAL:
                pending.remove(event[0])
    assert outstanding == 0 and not pending
    # Both run out together, and neither yields an arrival twice.
    assert next(events, None) is None and next(oracle, None) is None
    assert list(loop) == list(model) == []


def test_event_pushed_while_handling_is_yielded_in_the_same_pass():
    loop = EventLoop([Request(1, "t", 3.0), Request(0, "t", 1.0)], ARRIVAL)
    seen = []
    for time, kind, payload in loop:
        seen.append((time, kind, payload))
        if payload == Request(0, "t", 1.0):
            loop.push(time, 1, "now")     # at the current time
            loop.push(3.0, 1, "tie")      # ties the next arrival
        elif payload == "tie":
            loop.push(time, 2, "last")    # after the trace has run out
    assert seen == [(1.0, ARRIVAL, Request(0, "t", 1.0)),
                    (1.0, 1, "now"),
                    (3.0, ARRIVAL, Request(1, "t", 3.0)),
                    (3.0, 1, "tie"),
                    (3.0, 2, "last")]
    # The pass drained the loop: a second one yields only new pushes.
    assert list(loop) == []
    loop.push(4.0, 1, "again")
    assert list(loop) == [(4.0, 1, "again")]


def test_empty_arrival_stream():
    loop = EventLoop()
    assert list(loop) == []
    loop.push(5.0, 1, "a")
    loop.push(5.0, 2, "b")
    assert list(loop) == [(5.0, 1, "a"), (5.0, 2, "b")]
    assert list(loop) == []


def test_engines_match_the_push_everything_loop():
    count, mismatch = check_event_loop_oracle.check(quick=True)
    assert mismatch is None, mismatch
    assert count == 80
