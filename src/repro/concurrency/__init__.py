"""Concurrency control.

Obladi's proxy runs multiversion timestamp ordering (MVTSO): every
transaction gets a unique timestamp fixing its serialization order, writes
create new versions visible immediately to concurrent transactions, reads
return the latest version older than the reader and leave a read marker that
causes late writers to abort.  Transactions that observed uncommitted data
record write-read dependencies and abort in cascade if a dependency aborts.

The package also contains the exclusive-lock manager of the strict-2PL
"MySQL" baseline of Figure 9 and the offline serializability check
:func:`check_serializable` (the benchmark runs it on every round's history,
and the auditor's tests compare against it).  Transaction repair
(``ObladiConfig.conflict_strategy="repair"``) is the proxy's, not this
package's: :meth:`repro.core.proxy.ObladiProxy._repair_conflict_losers`.
"""

from repro.concurrency.transaction import TransactionRecord, TransactionStatus
from repro.concurrency.mvtso import MVTSOManager, WriteConflictError
from repro.concurrency.versions import Version, VersionChain, VersionStore
from repro.concurrency.serializability import check_serializable
from repro.concurrency.transaction import CommittedTransaction
from repro.concurrency.two_phase_locking import LockManager, DeadlockError

__all__ = [
    "TransactionRecord",
    "TransactionStatus",
    "CommittedTransaction",
    "MVTSOManager",
    "WriteConflictError",
    "Version",
    "VersionChain",
    "VersionStore",
    "check_serializable",
    "LockManager",
    "DeadlockError",
]
