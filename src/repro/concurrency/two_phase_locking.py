"""Strict two-phase locking, used by the MySQL-like baseline.

Figure 9 compares Obladi and NoPriv against MySQL, whose InnoDB engine
acquires exclusive locks for the duration of conflicting transactions.  The
baseline takes exactly that lock and no other: a key has at most one holder
and a FIFO queue of waiters, and every lock is held until commit/abort,
which is what makes the new-order/payment contention in TPC-C serialise (and
why NoPriv, running MVTSO, slightly outperforms it in the paper).

A blocked transaction waits for exactly one holder, so the waits-for graph
is a set of chains.  A wait that would close a cycle can only be added by
:meth:`LockManager.acquire`, which follows the chain from the holder and
refuses the wait with :class:`DeadlockError` if the chain leads back to the
requester.  A release hands the key to its first waiter, which waits for
nothing once it holds the key, so a release never closes a cycle.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Set, Tuple


class DeadlockError(Exception):
    """Raised for the transaction chosen as the deadlock victim."""

    def __init__(self, txn_id: int, cycle: List[int]) -> None:
        super().__init__(f"transaction {txn_id} aborted to break deadlock {cycle}")
        self.txn_id = txn_id
        self.cycle = cycle


class LockManager:
    """Exclusive-lock table with deadlock detection at acquire time."""

    def __init__(self) -> None:
        self._holder: Dict[str, int] = {}
        self._waiters: Dict[str, List[int]] = defaultdict(list)
        self._held_by_txn: Dict[int, Set[str]] = defaultdict(set)
        # The key each blocked transaction waits for; its holder is the one
        # transaction it waits on.
        self._waiting_on: Dict[int, str] = {}
        self.stats_lock_waits = 0
        self.stats_deadlocks = 0

    def acquire(self, txn_id: int, key: str) -> bool:
        """Take ``key``'s exclusive lock for ``txn_id``.

        Returns ``True`` if the lock is held (it was free, or already
        ``txn_id``'s).  Otherwise the transaction joins the key's wait queue
        and ``False`` is returned — unless the wait would close a cycle, in
        which case :class:`DeadlockError` is raised, nothing is queued and
        the caller must abort the transaction.
        """
        holder = self._holder.setdefault(key, txn_id)
        if holder == txn_id:
            self._held_by_txn[txn_id].add(key)
            return True
        # Follow the chain of waits from the holder; the membership test
        # stops the walk even on a graph that already holds a cycle.
        chain = [txn_id]
        while holder is not None and holder not in chain:
            chain.append(holder)
            holder = self._holder.get(self._waiting_on.get(holder))
        if holder == txn_id:
            self.stats_deadlocks += 1
            raise DeadlockError(txn_id, chain + [txn_id])
        self._waiting_on[txn_id] = key
        self._waiters[key].append(txn_id)
        self.stats_lock_waits += 1
        return False

    def release_all(self, txn_id: int) -> List[Tuple[int, str]]:
        """Release every lock ``txn_id`` holds, and leave any queue it is in.

        Each released key goes to its first waiter.  Returns the
        ``(waiter, key)`` grants performed, so the caller can resume the
        transactions that now hold the lock they waited for.
        """
        key = self._waiting_on.pop(txn_id, None)
        if key is not None:
            self._waiters[key].remove(txn_id)
        granted: List[Tuple[int, str]] = []
        for key in sorted(self._held_by_txn.pop(txn_id, ())):
            waiters = self._waiters.get(key)
            if not waiters:
                del self._holder[key]
                continue
            waiter = waiters.pop(0)
            del self._waiting_on[waiter]
            self._holder[key] = waiter
            self._held_by_txn[waiter].add(key)
            granted.append((waiter, key))
        return granted
