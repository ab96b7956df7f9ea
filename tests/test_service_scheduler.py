"""Tests for the coalescing priority scheduler (no processes involved)."""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError

import pytest

from repro.service.faults import DeadlineExceededError
from repro.service.scheduler import (
    RequestScheduler,
    SchedulerSaturatedError,
    Ticket,
)


def _submit(sched: RequestScheduler, order: int, priority: int = 0) -> Ticket:
    return sched.submit(("costas", order), {"order": order}, priority=priority)


class TestCoalescing:
    def test_identical_requests_share_one_job(self):
        sched = RequestScheduler()
        tickets = [_submit(sched, 18) for _ in range(5)]
        assert len({id(t.job) for t in tickets}) == 1
        assert sched.pending_jobs() == 1
        job = sched.next_job(timeout=0)
        assert job is tickets[0].job
        assert job.width == 5
        # No second job exists.
        assert sched.next_job(timeout=0) is None

    def test_all_coalesced_tickets_receive_the_result(self):
        sched = RequestScheduler()
        tickets = [_submit(sched, 18) for _ in range(4)]
        job = sched.next_job(timeout=0)
        sched.complete(job, {"answer": 42})
        assert all(t.result(timeout=1) == {"answer": 42} for t in tickets)

    def test_running_jobs_still_coalesce(self):
        sched = RequestScheduler()
        first = _submit(sched, 18)
        job = sched.next_job(timeout=0)
        late = _submit(sched, 18)  # joins while RUNNING
        assert late.job is job
        sched.complete(job, "done")
        assert first.result(0.1) == "done" and late.result(0.1) == "done"

    def test_distinct_instances_do_not_coalesce(self):
        sched = RequestScheduler()
        _submit(sched, 18)
        _submit(sched, 19)
        assert sched.pending_jobs() == 2

    def test_completed_jobs_do_not_absorb_new_requests(self):
        sched = RequestScheduler()
        t1 = _submit(sched, 18)
        job = sched.next_job(timeout=0)
        sched.complete(job, "x")
        t2 = _submit(sched, 18)
        assert t2.job is not t1.job

    def test_failure_propagates_to_every_ticket(self):
        sched = RequestScheduler()
        tickets = [_submit(sched, 20) for _ in range(3)]
        job = sched.next_job(timeout=0)
        sched.fail(job, RuntimeError("boom"))
        for t in tickets:
            with pytest.raises(RuntimeError, match="boom"):
                t.result(timeout=1)


class TestPriority:
    def test_higher_priority_pops_first(self):
        sched = RequestScheduler()
        _submit(sched, 10, priority=0)
        _submit(sched, 11, priority=5)
        _submit(sched, 12, priority=1)
        orders = [sched.next_job(timeout=0).key[1] for _ in range(3)]
        assert orders == [11, 12, 10]

    def test_fifo_within_a_priority(self):
        sched = RequestScheduler()
        for order in (30, 31, 32):
            _submit(sched, order)
        assert [sched.next_job(timeout=0).key[1] for _ in range(3)] == [30, 31, 32]

    def test_coalesced_join_bumps_queued_priority(self):
        sched = RequestScheduler()
        _submit(sched, 10, priority=0)
        _submit(sched, 11, priority=1)
        _submit(sched, 10, priority=9)  # join bumps order 10 above order 11
        assert sched.next_job(timeout=0).key[1] == 10
        assert sched.next_job(timeout=0).key[1] == 11


class TestBackpressure:
    def test_saturated_queue_rejects_new_jobs(self):
        sched = RequestScheduler(max_depth=2)
        _submit(sched, 10)
        _submit(sched, 11)
        with pytest.raises(SchedulerSaturatedError):
            _submit(sched, 12)
        assert sched.stats()["rejected"] == 1

    def test_coalesced_joins_bypass_the_depth_limit(self):
        sched = RequestScheduler(max_depth=1)
        _submit(sched, 10)
        _submit(sched, 10)  # same instance: admitted
        with pytest.raises(SchedulerSaturatedError):
            _submit(sched, 11)

    def test_running_jobs_free_queue_slots(self):
        sched = RequestScheduler(max_depth=1)
        _submit(sched, 10)
        sched.next_job(timeout=0)
        _submit(sched, 11)  # fits: the first job is now running

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            RequestScheduler(max_depth=0)


class TestCancellation:
    def test_cancel_last_ticket_removes_queued_job(self):
        sched = RequestScheduler()
        ticket = _submit(sched, 10)
        assert sched.cancel(ticket)
        assert sched.pending_jobs() == 0
        assert sched.next_job(timeout=0) is None
        with pytest.raises(CancelledError):
            ticket.result(timeout=0)

    def test_cancel_one_of_many_keeps_the_job(self):
        sched = RequestScheduler()
        t1 = _submit(sched, 10)
        t2 = _submit(sched, 10)
        assert sched.cancel(t1)
        job = sched.next_job(timeout=0)
        assert job is t2.job and job.width == 1
        sched.complete(job, "ok")
        assert t2.result(0.1) == "ok"
        with pytest.raises(CancelledError):
            t1.result(timeout=0)

    def test_cancel_running_job_fires_callback(self):
        aborted = []
        sched = RequestScheduler(on_cancel_running=aborted.append)
        ticket = _submit(sched, 10)
        job = sched.next_job(timeout=0)
        assert sched.cancel(ticket)
        assert aborted == [job]

    def test_new_request_after_cancelling_running_job_gets_fresh_job(self):
        """A fresh request must not coalesce onto a running job whose last
        ticket was cancelled — it would inherit a CancelledError it never
        asked for when the abort lands."""
        sched = RequestScheduler(on_cancel_running=lambda job: None)
        t1 = _submit(sched, 10)
        job = sched.next_job(timeout=0)
        sched.cancel(t1)
        t2 = _submit(sched, 10)
        assert t2.job is not job
        # The aborted job's failure settles only its own (cancelled) tickets.
        sched.fail(job, CancelledError())
        assert not t2.future.done()
        sched.complete(sched.next_job(timeout=0), "fresh")
        assert t2.result(0.1) == "fresh"

    def test_cancel_after_completion_is_a_noop(self):
        sched = RequestScheduler()
        ticket = _submit(sched, 10)
        sched.complete(sched.next_job(timeout=0), "ok")
        assert not sched.cancel(ticket)
        assert ticket.result(0.1) == "ok"

    def test_cancelled_queued_job_is_skipped_on_pop(self):
        sched = RequestScheduler()
        t1 = _submit(sched, 10, priority=5)
        _submit(sched, 11, priority=0)
        sched.cancel(t1)
        assert sched.next_job(timeout=0).key[1] == 11


class TestLifecycleAndThreads:
    def test_close_refuses_new_submissions(self):
        sched = RequestScheduler()
        sched.close()
        with pytest.raises(RuntimeError):
            _submit(sched, 10)

    def test_next_job_unblocks_on_close(self):
        sched = RequestScheduler()
        got = []

        def consumer():
            got.append(sched.next_job(timeout=5))

        thread = threading.Thread(target=consumer)
        thread.start()
        sched.close()
        thread.join(timeout=2)
        assert not thread.is_alive()
        assert got == [None]

    def test_blocked_consumer_wakes_on_submit(self):
        sched = RequestScheduler()
        got = []
        thread = threading.Thread(target=lambda: got.append(sched.next_job(timeout=5)))
        thread.start()
        _submit(sched, 18)
        thread.join(timeout=2)
        assert got and got[0] is not None and got[0].key[1] == 18

    def test_stats_shape(self):
        sched = RequestScheduler(max_depth=4)
        _submit(sched, 10)
        _submit(sched, 10)
        stats = sched.stats()
        assert stats["submitted"] == 2
        assert stats["coalesced"] == 1
        assert stats["queued"] == 1
        assert stats["max_depth"] == 4

    def test_concurrent_submitters_coalesce_exactly(self):
        sched = RequestScheduler()
        tickets = []
        lock = threading.Lock()

        def worker():
            t = _submit(sched, 18)
            with lock:
                tickets.append(t)

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tickets) == 16
        assert len({id(t.job) for t in tickets}) == 1
        assert sched.stats()["submitted"] == 16
        assert sched.stats()["coalesced"] == 15


class TestBatchSubmit:
    @staticmethod
    def _entries(orders):
        return [(("costas", o), {"order": o}, 0) for o in orders]

    def test_batch_admits_aligned_tickets(self):
        sched = RequestScheduler()
        tickets = sched.submit_batch(self._entries([18, 19, 20]))
        assert len(tickets) == 3
        assert all(isinstance(t, Ticket) for t in tickets)
        assert [t.job.payload["order"] for t in tickets] == [18, 19, 20]
        assert sched.pending_jobs() == 3

    def test_batch_coalesces_identical_items_and_joins_inflight(self):
        sched = RequestScheduler()
        first = _submit(sched, 18)
        tickets = sched.submit_batch(self._entries([18, 18, 19]))
        # The two 18s join the existing job; only the 19 is a new job.
        assert tickets[0].job is first.job and tickets[1].job is first.job
        assert tickets[2].job is not first.job
        assert sched.pending_jobs() == 2
        assert sched.stats()["coalesced"] == 2
        job = sched.next_job(timeout=0)
        sched.complete(job, "done")
        assert first.result(timeout=1) == "done"
        assert tickets[0].result(timeout=1) == "done"

    def test_batch_saturation_is_per_item(self):
        sched = RequestScheduler(max_depth=2)
        outcomes = sched.submit_batch(self._entries([18, 19, 20, 21, 18]))
        assert isinstance(outcomes[0], Ticket)
        assert isinstance(outcomes[1], Ticket)
        assert isinstance(outcomes[2], SchedulerSaturatedError)
        assert isinstance(outcomes[3], SchedulerSaturatedError)
        # Coalescing joins are always admitted, even at max depth.
        assert isinstance(outcomes[4], Ticket)
        assert outcomes[4].job is outcomes[0].job
        assert sched.stats()["rejected"] == 2

    def test_batch_wakes_blocked_consumers(self):
        sched = RequestScheduler()
        got = []

        def consumer():
            got.append(sched.next_job(timeout=5.0))

        threads = [threading.Thread(target=consumer) for _ in range(2)]
        for t in threads:
            t.start()
        sched.submit_batch(self._entries([18, 19]))
        for t in threads:
            t.join(timeout=6.0)
        assert len(got) == 2 and all(j is not None for j in got)
        assert {j.payload["order"] for j in got} == {18, 19}

    def test_batch_priority_bump_on_join(self):
        sched = RequestScheduler()
        low = _submit(sched, 18, priority=0)
        _submit(sched, 19, priority=5)
        sched.submit_batch([(("costas", 18), {"order": 18}, 9)])
        # The joined 18 was bumped above the priority-5 job.
        assert sched.next_job(timeout=0) is low.job

    def test_batch_after_close_raises(self):
        sched = RequestScheduler()
        sched.close()
        with pytest.raises(RuntimeError):
            sched.submit_batch(self._entries([18]))


class TestBatchMixedDeadlines:
    """Pin the loosest-deadline rule for coalesced batch items.

    The job's deadline is the loosest of its tickets': a later joiner's
    tighter patience must never cut short an earlier joiner's budget, one
    unbounded join makes the job unbounded, and the rule composes with the
    priority bump (both act on the same coalesced join).
    """

    @staticmethod
    def _entry(order, priority=0, deadline_at=None):
        return (("costas", order), {"order": order}, priority, deadline_at)

    def test_batch_join_takes_the_loosest_deadline(self):
        sched = RequestScheduler()
        now = time.monotonic()
        first = sched.submit(
            ("costas", 18), {"order": 18}, deadline_at=now + 100.0
        )
        outcomes = sched.submit_batch(
            [
                self._entry(18, deadline_at=now + 5.0),  # tighter: ignored
                self._entry(18, deadline_at=now + 500.0),  # looser: wins
            ]
        )
        assert all(isinstance(t, Ticket) for t in outcomes)
        assert outcomes[0].job is first.job
        assert first.job.deadline_at == pytest.approx(now + 500.0)

    def test_batch_unbounded_join_clears_the_deadline(self):
        sched = RequestScheduler()
        now = time.monotonic()
        first = sched.submit(
            ("costas", 18), {"order": 18}, deadline_at=now + 5.0
        )
        sched.submit_batch([self._entry(18, deadline_at=None)])
        assert first.job.deadline_at is None
        # A later bounded join cannot re-tighten an unbounded job.
        sched.submit_batch([self._entry(18, deadline_at=now + 1.0)])
        assert first.job.deadline_at is None

    def test_batch_mixed_deadlines_across_distinct_keys(self):
        sched = RequestScheduler()
        now = time.monotonic()
        outcomes = sched.submit_batch(
            [
                self._entry(18, deadline_at=now + 10.0),
                self._entry(19, deadline_at=None),
                self._entry(18, deadline_at=now + 60.0),
            ]
        )
        job18, job19 = outcomes[0].job, outcomes[1].job
        assert outcomes[2].job is job18
        assert job18.deadline_at == pytest.approx(now + 60.0)
        assert job19.deadline_at is None

    def test_deadline_loosening_and_priority_bump_compose(self):
        sched = RequestScheduler()
        now = time.monotonic()
        low = sched.submit(
            ("costas", 18), {"order": 18}, priority=0, deadline_at=now + 5.0
        )
        sched.submit(("costas", 19), {"order": 19}, priority=5)
        # One batch join both bumps the priority and loosens the deadline.
        sched.submit_batch([self._entry(18, priority=9, deadline_at=now + 500.0)])
        assert low.job.priority == 9
        assert low.job.deadline_at == pytest.approx(now + 500.0)
        # The bump wins the next pop, and the stale low-priority heap entry
        # is skipped rather than double-popping the job.
        assert sched.next_job(timeout=0) is low.job
        second = sched.next_job(timeout=0)
        assert second is not None and second.payload["order"] == 19
        assert sched.next_job(timeout=0) is None

    def test_expired_batch_job_fails_at_pop_with_loosest_rule_applied(self):
        sched = RequestScheduler()
        now = time.monotonic()
        # Both tickets carry already-passed deadlines; the job expires at
        # pop time and every coalesced ticket sees DeadlineExceededError.
        outcomes = sched.submit_batch(
            [
                self._entry(18, deadline_at=now - 10.0),
                self._entry(18, deadline_at=now - 5.0),
            ]
        )
        assert outcomes[1].job is outcomes[0].job
        assert sched.next_job(timeout=0) is None
        with pytest.raises(DeadlineExceededError):
            outcomes[0].result(timeout=1)
        with pytest.raises(DeadlineExceededError):
            outcomes[1].result(timeout=1)
        assert sched.stats()["expired"] == 1
