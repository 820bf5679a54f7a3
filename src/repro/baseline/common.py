"""Shared infrastructure for the closed-loop baseline executors.

Both baselines execute transaction programs (the same generator programs the
Obladi proxy runs) in a closed loop with ``C`` concurrent client slots over a
simulated clock:

* each client slot runs one transaction at a time and advances its own local
  time as its operations incur storage round trips;
* the proxy's CPU is a shared, serial resource: every operation also charges
  a small CPU cost to a global accumulator, and the run's makespan is the
  larger of "last client finished" and "total CPU demanded" — this is how
  the ``dummy``/LAN configurations become CPU-bound while WAN configurations
  stay I/O-bound, as in the paper.

Run results are :class:`repro.api.results.RunStats`, the unified result type
of the engine layer.  The retry/backoff bookkeeping both executors share
lives in :func:`record_attempt`, parameterised by the engine layer's
:class:`~repro.api.loop.RetryPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.api.loop import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.api.results import RunStats
from repro.core.client import TransactionResult


@dataclass
class ClientSlot:
    """One closed-loop client: runs transactions back-to-back."""

    slot_id: int
    time_ms: float = 0.0
    busy: bool = False
    transactions_run: int = 0


ProgramFactory = Callable[[], object]


@dataclass
class PendingProgram:
    """A program waiting to be executed (possibly a retry).

    ``not_before_ms`` implements client retry backoff: a transaction aborted
    by a conflict or deadlock is resubmitted only after a short delay, which
    prevents the deterministic simulation from replaying the same collision
    in lockstep forever (real clients get the same effect from scheduling
    noise).
    """

    factory: ProgramFactory
    attempts: int = 0
    first_submit_ms: float = 0.0
    not_before_ms: float = 0.0


def record_attempt(run: RunStats, pending: PendingProgram, txn_id: int,
                   slot_time_ms: float, committed: bool, reason: Optional[str],
                   return_value, queue: List[PendingProgram],
                   retry_aborted: bool, max_retries: int,
                   policy: RetryPolicy = DEFAULT_RETRY_POLICY) -> TransactionResult:
    """Account for one finished transaction attempt.

    Updates ``run`` counters and latency samples, appends the attempt's
    :class:`~repro.core.client.TransactionResult`, and — when the attempt
    aborted and retries remain — re-queues ``pending`` with the policy's
    backoff so the same conflict is not replayed in lockstep.  Returns the
    recorded result.  (This is the bookkeeping that used to be duplicated
    between the NoPriv and 2PL executors.)
    """
    latency = slot_time_ms - pending.first_submit_ms
    if committed:
        run.committed += 1
        run.latencies_ms.append(latency)
    else:
        run.aborted += 1
        if retry_aborted and pending.attempts < max_retries:
            pending.attempts += 1
            run.retries += 1
            pending.not_before_ms = slot_time_ms + policy.backoff_ms(txn_id,
                                                                     pending.attempts)
            queue.append(pending)
    result = TransactionResult(
        txn_id=txn_id, committed=committed,
        return_value=return_value if committed else None,
        abort_reason=reason, latency_ms=latency, epoch=-1)
    run.results.append(result)
    return result
