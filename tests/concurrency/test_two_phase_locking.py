"""Tests for the strict-2PL lock manager: exclusive locks only."""

import pytest

from repro.concurrency.two_phase_locking import DeadlockError, LockManager


@pytest.fixture
def locks():
    return LockManager()


class TestExclusiveLocks:
    def test_a_held_key_blocks_every_other_transaction(self, locks):
        assert locks.acquire(1, "k")
        assert not locks.acquire(2, "k")
        assert not locks.acquire(3, "k")
        assert locks.acquire(1, "other")

    def test_reacquire_held_lock(self, locks):
        assert locks.acquire(1, "k")
        assert locks.acquire(1, "k")


class TestReleaseAndWaiters:
    def test_release_grants_waiter(self, locks):
        locks.acquire(1, "k")
        assert not locks.acquire(2, "k")
        assert locks.release_all(1) == [(2, "k")]
        # 2 holds k now: a newcomer waits, and 2's release hands k on.
        assert locks.acquire(2, "k")
        assert not locks.acquire(3, "k")
        assert locks.release_all(2) == [(3, "k")]

    def test_release_hands_each_key_to_its_first_waiter(self, locks):
        locks.acquire(1, "a")
        locks.acquire(1, "b")
        locks.acquire(2, "a")
        locks.acquire(3, "a")
        locks.acquire(4, "b")
        assert locks.release_all(1) == [(2, "a"), (4, "b")]
        assert locks.release_all(2) == [(3, "a")]
        assert locks.release_all(3) == []
        assert locks.acquire(5, "a")                # free again

    def test_a_waiter_that_releases_leaves_the_queue(self, locks):
        locks.acquire(1, "k")
        locks.acquire(2, "k")
        locks.acquire(3, "k")
        assert locks.release_all(2) == []
        assert locks.release_all(1) == [(3, "k")]

    def test_stats_lock_waits(self, locks):
        locks.acquire(1, "k")
        locks.acquire(2, "k")
        assert locks.stats_lock_waits == 1


class TestDeadlockDetection:
    def test_two_party_deadlock_detected(self, locks):
        locks.acquire(1, "a")
        locks.acquire(2, "b")
        assert not locks.acquire(1, "b")
        with pytest.raises(DeadlockError) as err:
            locks.acquire(2, "a")
        assert err.value.cycle == [2, 1, 2]
        assert locks.stats_deadlocks == 1

    def test_three_party_deadlock_detected(self, locks):
        locks.acquire(1, "a")
        locks.acquire(2, "b")
        locks.acquire(3, "c")
        locks.acquire(1, "b")
        locks.acquire(2, "c")
        with pytest.raises(DeadlockError) as err:
            locks.acquire(3, "a")
        assert err.value.cycle == [3, 1, 2, 3]

    def test_no_false_deadlock_on_simple_wait(self, locks):
        locks.acquire(1, "a")
        assert not locks.acquire(2, "a")
        # Transaction 2 waits, but no cycle exists: 1 may wait on 3.
        locks.acquire(3, "b")
        assert not locks.acquire(1, "b")

    def test_a_grant_re_points_the_remaining_waiters(self, locks):
        # 2 and 3 queue for a behind 1; the grant makes 3 wait on 2, so 2
        # waiting for anything 3 holds closes a cycle.
        locks.acquire(1, "a")
        locks.acquire(2, "a")
        locks.acquire(3, "a")
        locks.acquire(3, "c")
        assert locks.release_all(1) == [(2, "a")]
        with pytest.raises(DeadlockError) as err:
            locks.acquire(2, "c")
        assert err.value.cycle == [2, 3, 2]

    def test_victim_can_retry_after_holder_releases(self, locks):
        locks.acquire(1, "a")
        locks.acquire(2, "b")
        locks.acquire(1, "b")
        with pytest.raises(DeadlockError):
            locks.acquire(2, "a")
        # Victim (2) releases everything; 1 gets b and can finish.
        assert locks.release_all(2) == [(1, "b")]

    def test_the_chain_walk_stops_on_a_malformed_graph(self, locks):
        # No public call sequence closes a cycle; force one between 1 and 2
        # and the walk from a third requester must still end.
        locks.acquire(1, "a")
        locks.acquire(2, "b")
        locks._waiting_on.update({1: "b", 2: "a"})
        assert not locks.acquire(3, "a")
