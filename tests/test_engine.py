"""Event loop tests."""

import pytest

from repro.netsim.engine import EventLoop, SimulationError


class TestScheduling:
    def test_runs_in_time_order(self):
        engine = EventLoop()
        order = []
        engine.schedule(0.3, lambda: order.append("c"))
        engine.schedule(0.1, lambda: order.append("a"))
        engine.schedule(0.2, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_scheduling_order(self):
        engine = EventLoop()
        order = []
        for name in "abcd":
            engine.schedule(1.0, lambda n=name: order.append(n))
        engine.run()
        assert order == list("abcd")

    def test_clock_advances_to_event_time(self):
        engine = EventLoop()
        seen = []
        engine.schedule(2.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.5]

    def test_schedule_at_absolute(self):
        engine = EventLoop(start_time=10.0)
        seen = []
        engine.schedule_at(12.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [12.0]

    def test_nested_scheduling(self):
        engine = EventLoop()
        order = []

        def outer():
            order.append("outer")
            engine.schedule(0.1, lambda: order.append("inner"))

        engine.schedule(0.1, outer)
        engine.run()
        assert order == ["outer", "inner"]

    def test_rejects_past(self):
        engine = EventLoop(start_time=5.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(4.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)


class TestTimer:
    def test_cancel_prevents_firing(self):
        engine = EventLoop()
        fired = []
        timer = engine.schedule(1.0, lambda: fired.append(1))
        timer.cancel()
        engine.run()
        assert not fired

    def test_cancel_idempotent(self):
        engine = EventLoop()
        timer = engine.schedule(1.0, lambda: None)
        timer.cancel()
        timer.cancel()
        engine.run()

    def test_pending(self):
        engine = EventLoop()
        timer = engine.schedule(1.0, lambda: None)
        assert timer.pending
        timer.cancel()
        assert not timer.pending

    def test_fire_time(self):
        engine = EventLoop()
        timer = engine.schedule(2.0, lambda: None)
        assert timer.fire_time == 2.0

    @pytest.mark.parametrize("drive", ["run", "step"])
    def test_fired_timer_is_not_pending(self, drive):
        """The clock still reads the fire time when the callback runs
        and afterwards, so ``pending`` cannot be a clock comparison."""
        engine = EventLoop()
        seen = []
        timer = engine.schedule(1.0, lambda: seen.append(timer.pending))
        getattr(engine, drive)()
        assert seen == [False]
        assert engine.now == timer.fire_time
        assert not timer.pending

    def test_cancel_after_fire_is_silent(self):
        """A callback cancelling its own timer (the receiver's delayed
        ACK does) must not report a cancel for an event that fired."""

        class Log:
            def __init__(self):
                self.calls = []

            def on_schedule(self, time, callback):
                self.calls.append("schedule")

            def on_fire(self, time, callback):
                self.calls.append("fire")

            def on_cancel(self, time):
                self.calls.append("cancel")

        engine = EventLoop()
        engine.observer = log = Log()
        timer = engine.schedule(1.0, lambda: timer.cancel())
        other = engine.schedule(2.0, lambda: None)
        other.cancel()
        engine.run()
        timer.cancel()
        assert log.calls == ["schedule", "schedule", "cancel", "fire"]

    def test_cleared_timer_is_not_pending(self):
        engine = EventLoop()
        timer = engine.schedule(1.0, lambda: None)
        engine.clear()
        assert not timer.pending

    def test_timer_has_no_unassigned_slot(self):
        engine = EventLoop()
        timer = engine.schedule(1.0, lambda: None)
        for slot in type(timer).__slots__:
            getattr(timer, slot)


class TestRunBounds:
    def test_until_leaves_later_events(self):
        engine = EventLoop()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(3.0, lambda: fired.append(3))
        engine.run(until=2.0)
        assert fired == [1]
        assert engine.now == 2.0
        engine.run()
        assert fired == [1, 3]

    def test_until_advances_clock_when_idle(self):
        engine = EventLoop()
        engine.run(until=7.0)
        assert engine.now == 7.0

    def test_max_events(self):
        engine = EventLoop()
        fired = []
        for i in range(5):
            engine.schedule(float(i + 1), lambda i=i: fired.append(i))
        engine.run(max_events=2)
        assert fired == [0, 1]

    def test_step(self):
        engine = EventLoop()
        engine.schedule(1.0, lambda: None)
        assert engine.step()
        assert not engine.step()

    def test_peek_time_skips_cancelled(self):
        engine = EventLoop()
        timer = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        timer.cancel()
        assert engine.peek_time() == 2.0

    def test_clear(self):
        engine = EventLoop()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.clear()
        engine.run()
        assert not fired

    def test_events_run_counter(self):
        engine = EventLoop()
        for i in range(3):
            engine.schedule(float(i + 1), lambda: None)
        engine.run()
        assert engine.events_run == 3
