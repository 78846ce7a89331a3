"""Tests for the discrete-event engine."""

import pytest

from repro.analysis.scenarios import build_scenario
from repro.bench.golden import trace_digest
from repro.netsim.events import EventQueue


class TestScheduling:
    def test_runs_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(3.0, order.append, "c")
        queue.schedule(1.0, order.append, "a")
        queue.schedule(2.0, order.append, "b")
        queue.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        order = []
        for label in "abc":
            queue.schedule(1.0, order.append, label)
        queue.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        queue = EventQueue()
        seen = []
        queue.schedule(2.5, lambda: seen.append(queue.clock.now))
        queue.run()
        assert seen == [2.5]

    def test_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        queue = EventQueue()
        seen = []
        queue.schedule_at(5.0, lambda: seen.append(queue.clock.now))
        queue.run()
        assert seen == [5.0]

    def test_schedule_at_now_is_allowed(self):
        queue = EventQueue()
        queue.schedule(2.0, lambda: None)
        queue.run()
        ran = []
        queue.schedule_at(2.0, ran.append, "x")
        queue.run()
        assert ran == ["x"]
        assert queue.clock.now == 2.0

    def test_schedule_at_past_time_rejected(self):
        # Regression: past times used to be silently clamped to "now",
        # hiding broken timer arithmetic.  Now they raise, matching
        # schedule()'s negative-delay check.
        queue = EventQueue()
        queue.schedule(5.0, lambda: None)
        queue.run()
        assert queue.clock.now == 5.0
        with pytest.raises(ValueError):
            queue.schedule_at(4.9, lambda: None)

    def test_events_scheduled_during_run(self):
        queue = EventQueue()
        order = []

        def first():
            order.append("first")
            queue.schedule(1.0, lambda: order.append("second"))

        queue.schedule(1.0, first)
        queue.run()
        assert order == ["first", "second"]
        assert queue.clock.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        queue = EventQueue()
        ran = []
        event = queue.schedule(1.0, ran.append, "x")
        event.cancel()
        queue.run()
        assert ran == []

    def test_pending_excludes_cancelled(self):
        queue = EventQueue()
        keep = queue.schedule(1.0, lambda: None)
        gone = queue.schedule(2.0, lambda: None)
        gone.cancel()
        assert queue.pending == 1

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        event = queue.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()  # double-cancel must not corrupt the live count
        assert queue.pending == 1

    def test_pending_tracks_pops_and_cancels(self):
        queue = EventQueue()
        events = [queue.schedule(float(i), lambda: None) for i in range(1, 6)]
        assert queue.pending == 5
        events[3].cancel()
        assert queue.pending == 4
        queue.run(until=1.0)
        assert queue.pending == 3
        queue.run()
        assert queue.pending == 0

    def test_counts_inside_an_action_are_exact(self):
        # The action at t=2 cancels the event at t=3: what it reads
        # must already count the t=1 and t=2 events as run and the
        # t=3 one as cancelled, not the values as of run()'s entry.
        queue = EventQueue()
        seen = []

        def read():
            doomed.cancel()
            seen.append((queue.pending, queue.cancelled_backlog,
                         queue.heap_size))

        queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, read)
        doomed = queue.schedule(3.0, lambda: None)
        queue.schedule(4.0, lambda: None)
        queue.run()
        assert seen == [(1, 1, 2)]
        assert queue.processed == 3

    def test_dispatched_counts_every_run_event_inside_an_action(self):
        # ``processed`` is batched per run(); ``dispatched`` is exact
        # inside an action (the running event included) and never
        # counts a cancelled event or one left past the horizon.
        queue = EventQueue()
        seen = []
        queue.schedule(1.0, lambda: None)
        queue.schedule(1.5, lambda: None).cancel()
        queue.schedule(2.0, lambda: seen.append(queue.dispatched))
        queue.schedule(3.0, lambda: seen.append(queue.dispatched))
        queue.schedule(9.0, lambda: None)
        queue.run(until=5.0)
        assert seen == [2, 3]
        assert queue.dispatched == queue.processed == 3

    def test_cancelled_events_never_fire_after_a_mass_cancel(self):
        # Cancel two of every three of many events: no cancelled
        # callback runs, processed/pending stay exact, and survivors
        # run in the original order.
        queue = EventQueue()
        ran = []
        keepers = 0
        for index in range(600):
            event = queue.schedule(1.0 + index, ran.append, index)
            if index % 3:
                event.cancel()
            else:
                keepers += 1
        assert queue.pending == keepers
        assert queue.cancelled_backlog == 600 - keepers
        queue.run()
        assert ran == [i for i in range(600) if i % 3 == 0]
        assert queue.processed == keepers
        assert queue.pending == 0
        assert queue.cancelled_backlog == 0

    def test_mass_cancel_during_run(self):
        # An action cancels every later timer and schedules one more
        # event: only that event runs after it.
        queue = EventQueue()
        timers = [
            queue.schedule(10.0 + i, lambda: None)
            for i in range(500)
        ]
        ran = []

        def mass_cancel():
            for timer in timers:
                timer.cancel()
            queue.schedule(1.0, ran.append, "after")

        queue.schedule(0.5, mass_cancel)
        queue.run()
        assert ran == ["after"]
        assert queue.pending == 0
        assert queue.cancelled_backlog == 0

    def test_cancel_after_run_is_a_noop(self):
        # Callers keep timer handles around (registration retries,
        # refresh timers); cancelling a handle whose event already ran
        # must not change the queue's live or cancelled counts.
        queue = EventQueue()
        stale = queue.schedule(1.0, lambda: None)
        live = queue.schedule(2.0, lambda: None)
        queue.run(until=1.0)  # runs `stale`
        assert queue.pending == 1
        stale.cancel()
        assert queue.pending == 1
        assert queue.cancelled_backlog == 0
        live.cancel()
        assert queue.pending == 0

    def test_cancel_after_run_loop_is_a_noop(self):
        # Same property after a full drain.
        queue = EventQueue()
        handles = [queue.schedule(float(i + 1), lambda: None) for i in range(4)]
        queue.run()
        for handle in handles:
            handle.cancel()
        assert queue.pending == 0
        assert queue.cancelled_backlog == 0

    def test_tie_break_order_survives_cancellation(self):
        queue = EventQueue()
        order = []
        events = [queue.schedule(1.0, order.append, label) for label in "abcdef"]
        events[1].cancel()
        events[4].cancel()
        queue.run()
        assert order == ["a", "c", "d", "f"]


class TestRunUntil:
    def test_stops_at_horizon(self):
        queue = EventQueue()
        ran = []
        queue.schedule(1.0, ran.append, "early")
        queue.schedule(10.0, ran.append, "late")
        queue.run(until=5.0)
        assert ran == ["early"]
        assert queue.clock.now == 5.0
        queue.run()
        assert ran == ["early", "late"]

    def test_until_before_any_event(self):
        queue = EventQueue()
        queue.schedule(10.0, lambda: None)
        assert queue.run(until=1.0) == 1.0

    def test_drain_without_until_leaves_the_clock_at_the_last_event(self):
        queue = EventQueue()
        queue.schedule(3.0, lambda: None)
        assert queue.run() == 3.0
        assert queue.run() == 3.0  # an empty queue does not move the clock
        assert queue.run(until=7.0) == 7.0

    def test_event_budget_guards_runaway(self):
        queue = EventQueue()

        def forever():
            queue.schedule(0.0, forever)

        queue.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            queue.run(max_events=100)

    def test_int_until_leaves_a_float_clock(self, sim):
        sim.run(until=10)
        assert repr(sim.now) == "10.0"

    def test_int_until_stamps_and_digests_like_a_float_one(self):
        def send_after(until):
            scenario = build_scenario()
            scenario.sim.run(until=until)
            sock = scenario.ch.stack.udp_socket(7000)
            sock.sendto("x", 100, scenario.mh.home_address, 7000)
            return scenario.sim.trace

        trace = send_after(10)
        assert repr(trace.entries[-1].time) == "10.0"
        assert trace_digest(trace) == trace_digest(send_after(10.0))


class TestClock:
    def test_time_never_goes_backwards(self):
        queue = EventQueue()
        queue.schedule(4.0, lambda: None)
        queue.clock._now = 5.0
        with pytest.raises(RuntimeError, match="time went backwards"):
            queue.run()
