"""Edge-case tests for the kernel fast paths.

The kernel schedules plain ``(time, seq, kind, payload)`` tuples and
resumes single waiters through an inline callback slot; processes may
wait with a bare ``yield <int>`` that allocates no event at all.  These
tests pin the semantics that the fast paths must preserve: FIFO order at
equal timestamps, interrupt staleness, combinator failure propagation
order, and late-callback behaviour on processed events.
"""

import pytest

from repro.sim.engine import Interrupt, SimulationError, Simulator


class TestBareDelay:
    def test_advances_clock_and_returns_none(self, sim):
        seen = []

        def proc(sim):
            got = yield 40
            seen.append((sim.now, got))
            yield 0
            seen.append((sim.now, "zero"))

        sim.process(proc(sim))
        sim.run()
        assert seen == [(40, None), (40, "zero")]

    def test_matches_timeout_schedule_exactly(self):
        """A bare delay and an equivalent Timeout produce identical
        resume times and interleaving."""

        def proc_delay(sim, log):
            for i in range(3):
                yield 7
                log.append(("d", sim.now))

        def proc_timeout(sim, log):
            for i in range(3):
                yield sim.timeout(7)
                log.append(("t", sim.now))

        sim = Simulator()
        log = []
        sim.process(proc_delay(sim, log))
        sim.process(proc_timeout(sim, log))
        sim.run()
        # Same times; the delay process was spawned first so it wins
        # every same-time tie.
        assert log == [("d", 7), ("t", 7), ("d", 14), ("t", 14),
                       ("d", 21), ("t", 21)]

    def test_negative_delay_is_catchable_misuse(self, sim):
        def proc(sim):
            try:
                yield -5  # simlint: disable=KP01 (deliberate misuse under test)
            except SimulationError:
                return "caught"

        process = sim.process(proc(sim))
        sim.run()
        assert process.value == "caught"

    def test_interrupt_supersedes_pending_delay(self, sim):
        """An interrupt during a bare-delay wait must win, and the stale
        delay entry must not resume the process a second time."""
        log = []

        def proc(sim):
            try:
                yield 100
                log.append("delay")
            except Interrupt as exc:
                log.append(f"interrupt:{exc.cause}")
            yield 500
            log.append("after")

        process = sim.process(proc(sim))
        sim.call_at(10, lambda: process.interrupt("boom"))
        sim.run()
        assert log == ["interrupt:boom", "after"]
        assert sim.now == 510

    def test_stale_event_cannot_resume_bare_delay_wait(self, sim):
        """Interrupt during an event wait, then a bare-delay wait: the
        superseded event still holds the process's callback and must not
        resume it early when it fires."""
        log = []

        def proc(sim):
            try:
                yield sim.timeout(100)
                log.append("timeout")
            except Interrupt:
                log.append("interrupt")
            yield 500  # bare delay; stale timeout fires at t=100
            log.append(sim.now)

        process = sim.process(proc(sim))
        sim.call_at(10, lambda: process.interrupt())
        sim.run()
        assert log == ["interrupt", 510]

    def test_back_to_back_delays_after_interrupt(self, sim):
        """The wait token must distinguish consecutive equal delays."""
        log = []

        def proc(sim):
            try:
                yield 100
            except Interrupt:
                pass
            yield 100  # same duration as the superseded wait
            log.append(sim.now)

        process = sim.process(proc(sim))
        sim.call_at(10, lambda: process.interrupt())
        sim.run()
        assert log == [110]


class TestFifoTieBreak:
    def test_equal_time_entries_run_in_schedule_order(self, sim):
        """Timeouts, events, call_at callbacks and bare delays scheduled
        for the same instant fire in the order they were scheduled."""
        log = []

        def waiter(sim, tag):
            yield sim.timeout(10)
            log.append(tag)

        def bare(sim, tag):
            yield 10
            log.append(tag)

        sim.process(waiter(sim, "t1"))
        sim.process(bare(sim, "d1"))
        sim.call_at(10, lambda: log.append("c1"))
        sim.process(waiter(sim, "t2"))
        sim.run()
        # The call_at entry is heap-pushed immediately; the processes push
        # their t=10 entries only when their bootstraps run at t=0 — so
        # the callback holds the earliest sequence number, then the
        # processes in spawn order.
        assert log == ["c1", "t1", "d1", "t2"]

    def test_triggered_events_process_in_trigger_order(self, sim):
        log = []
        first = sim.event()
        second = sim.event()
        second.add_callback(lambda e: log.append("second"))
        first.add_callback(lambda e: log.append("first"))
        first.succeed()
        second.succeed()
        sim.run()
        assert log == ["first", "second"]

    def test_same_time_event_storm(self, sim):
        """Zero-delay triggers scheduled while one timestamp dispatches
        run in the same pass, in the order they were scheduled."""
        log = []

        def proc(sim, tag):
            for i in range(10):
                event = sim.event()
                sim.call_at(sim.now, lambda e=event: e.succeed())
                yield event
                log.append((sim.now, tag, i))

        for tag in range(8):
            sim.process(proc(sim, tag))
        sim.run()
        assert log == [(0, tag, i) for i in range(10) for tag in range(8)]


class TestCallbackSlots:
    def test_many_callbacks_fire_in_registration_order(self, sim):
        """The inline single-callback slot plus overflow list must keep
        registration order across both storage forms."""
        event = sim.event()
        log = []
        for i in range(5):
            event.add_callback(lambda e, i=i: log.append(i))
        event.succeed()
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_late_callback_on_processed_event_runs_now(self, sim):
        event = sim.event()
        event.succeed("v")
        sim.run()
        assert event.processed
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]

    def test_mixed_late_and_early_callbacks(self, sim):
        event = sim.event()
        log = []
        event.add_callback(lambda e: log.append("early"))
        event.succeed()
        sim.run()
        event.add_callback(lambda e: log.append("late"))
        assert log == ["early", "late"]


class TestCombinatorFailures:
    def test_all_of_first_failure_wins(self, sim):
        """When two members fail at the same instant, AllOf carries the
        failure that was processed first (FIFO order)."""
        first = sim.event()
        second = sim.event()

        def proc(sim):
            try:
                yield sim.all_of([first, second])
            except RuntimeError as exc:
                return str(exc)

        process = sim.process(proc(sim))
        first.fail(RuntimeError("first"))
        second.fail(RuntimeError("second"))
        sim.run()
        assert process.value == "first"

    def test_any_of_failure_beats_later_success(self, sim):
        def proc(sim):
            try:
                yield sim.any_of([sim.process(_fail_after(sim, 5)),
                                  sim.timeout(50)])
            except RuntimeError as exc:
                return str(exc)
            return "no failure"

        process = sim.process(proc(sim))
        sim.run()
        assert process.value == "boom"

    def test_all_of_second_member_failure_is_not_lost(self, sim):
        """A failure arriving after the AllOf already failed must not
        re-trigger it (the combinator keeps the first failure)."""
        first = sim.event()
        second = sim.event()
        joined = sim.all_of([first, second])
        first.fail(RuntimeError("a"))
        second.fail(RuntimeError("b"))
        sim.run()
        assert joined.triggered and not joined.ok
        assert str(joined.value) == "a"


def _fail_after(sim, delay):
    yield sim.timeout(delay)
    raise RuntimeError("boom")


class TestInterruptDuringTimeout:
    def test_pending_timeout_does_not_double_resume(self, sim):
        """The classic stale-wait case, with the waiter re-using the same
        timeout duration so only token/identity checks can save it."""
        log = []

        def proc(sim):
            try:
                yield sim.timeout(30)
                log.append("t1")
            except Interrupt:
                log.append("int")
            yield sim.timeout(30)
            log.append("t2")

        process = sim.process(proc(sim))
        sim.call_at(30, lambda: None)  # unrelated same-time entry
        sim.call_at(5, lambda: process.interrupt())
        sim.run()
        assert log == ["int", "t2"]
        assert sim.now == 35

    def test_interrupt_queued_before_timeout_fires_first(self, sim):
        """Interrupt scheduled at the same instant as the awaited timeout:
        whichever was pushed first wins, and the loser stays stale."""
        log = []

        def proc(sim):
            try:
                yield sim.timeout(10)
                log.append("timeout")
            except Interrupt:
                log.append("interrupt")

        process = sim.process(proc(sim))
        sim.call_at(10, lambda: process.is_alive and process.interrupt())
        sim.run()
        # The timeout entry was heap-pushed at t=0 for t=10; the call_at
        # entry was pushed after it, so at t=10 the timeout resumes (and
        # finishes) the process before the interrupt could be delivered.
        assert log == ["timeout"]

    def test_interrupt_unstarted_process(self, sim):
        """Interrupting a process before its bootstrap runs delivers the
        interrupt as the first thing the generator sees."""
        log = []

        def proc(sim):
            try:
                yield sim.timeout(1)
                log.append("ran")
            except Interrupt:
                log.append("early-interrupt")

        process = sim.process(proc(sim))
        process.interrupt()
        sim.run()
        assert log == ["early-interrupt"]


class TestRunUntil:
    def test_stops_at_event_not_heap_exhaustion(self, sim):
        """run_until must return as soon as the event is processed, even
        with unrelated work still queued."""
        ticks = []

        def background(sim):
            while True:
                yield 10
                ticks.append(sim.now)

        def target(sim):
            yield sim.timeout(35)

        sim.process(background(sim))
        process = sim.process(target(sim))
        sim.run_until(process, deadline=10_000)
        assert process.triggered
        assert sim.now <= 40
        assert all(t <= 40 for t in ticks)

    def test_deadline_caps_the_run(self, sim):
        def never(sim):
            yield sim.event()  # waits forever

        def background(sim):
            while True:
                yield 10

        sim.process(background(sim))
        process = sim.process(never(sim))
        sim.run_until(process, deadline=100)
        assert not process.triggered
        assert sim.now <= 100

    def test_run_until_stop_and_resume(self):
        """Stopping part-way through one timestamp's entries, then
        continuing with run(), loses and reorders nothing."""
        def build(sim, log):
            stop_event = sim.event()
            for i in range(12):
                sim.timeout(50).add_callback(
                    lambda _e, i=i: log.append((sim.now, i)))
                if i == 5:
                    sim.timeout(50).add_callback(
                        lambda _e: stop_event.succeed())
            return stop_event

        sim, reference = Simulator(), []
        build(sim, reference)
        sim.run()

        sim, log = Simulator(), []
        stop_event = build(sim, log)
        sim.run_until(stop_event)
        marker = len(log)
        sim.run()
        assert 0 < marker < len(log)  # the stop actually split the batch
        assert log == reference == [(50, i) for i in range(12)]

    def test_run_limit_then_new_entries_fire_before_older(self, sim):
        """After run(until=T) parks the clock, entries scheduled at
        T+0 and T+100 fire before an older entry further out."""
        log = []
        sim.timeout(10_000).add_callback(lambda _e: log.append(sim.now))
        sim.run(until=2_500)
        sim.timeout(100).add_callback(lambda _e: log.append(sim.now))
        sim.timeout(0).add_callback(lambda _e: log.append(sim.now))
        sim.run()
        assert log == [2500, 2600, 10000]


class TestStepAndPeek:
    def test_step_walk_matches_run_order(self):
        delays = [0, 3, 3, 900, 1024, 5000, (1 << 20) + 7, 10 ** 8]

        def build(sim, log):
            for i, d in enumerate(delays):
                sim.timeout(d).add_callback(
                    lambda _e, i=i: log.append((sim.now, i)))

        sim, reference = Simulator(), []
        build(sim, reference)
        sim.run()

        sim, log, peeks = Simulator(), [], []
        build(sim, log)
        while sim.peek() is not None:
            peeks.append(sim.peek())
            sim.step()
        assert log == reference
        assert peeks == [now for now, _i in reference] == sorted(delays)

    def test_step_on_empty_raises(self, sim):
        with pytest.raises(IndexError):
            sim.step()
