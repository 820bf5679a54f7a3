"""The ``buggy`` engine: the auditor's adversarial conformance fixture.

A verification tool is only as credible as the bugs it has been shown to
catch.  :class:`BuggyEngine` wraps a real (correct) Obladi engine and
corrupts the *reported* committed history — execution, timing and results
are untouched; only the ``CommittedTransaction`` records an auditor sees are
falsified — injecting the classic serializability violations:

* ``stale_read`` — a read-modify-write transaction's read provenance is
  rewritten to an older version, as if the engine served a stale replica.
* ``lost_update`` — a writer is claimed to have based its write on an old
  version of the key, i.e. the intermediate writer's update was lost.
* ``write_cycle`` — two same-wave writers of different keys are given
  crossed stale reads of each other's key (write skew), a 2-cycle of
  anti-dependencies.

Each injection produces a history whose offline direct serialization graph
is genuinely cyclic (asserted by the conformance tests), so the streaming
auditor must flag it either as a concrete cycle — while the partner
transactions are retained — or as a stale-read witness against the settled
frontier, never miss it.  The injections performed are recorded in
:attr:`BuggyEngine.injected` so tests can pair each one with a detection.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.engine import ProgramFactory, TransactionEngine
from repro.concurrency.transaction import CommittedTransaction

#: Violation kinds the wrapper knows how to inject.
FAULT_KINDS = ("stale_read", "lost_update", "write_cycle")


@dataclass(frozen=True)
class InjectedViolation:
    """One deliberate corruption of the reported history.

    ``txn_ids`` are the transactions whose records were falsified (one for
    ``stale_read``/``lost_update``, the crossed pair for ``write_cycle``);
    ``partners`` the uncorrupted transactions completing the dependency
    cycle; ``keys`` the keys whose read provenance was rewritten.
    """

    kind: str
    txn_ids: Tuple[int, ...]
    partners: Tuple[int, ...]
    keys: Tuple[str, ...]
    detail: str = ""


class BuggyEngine(TransactionEngine):
    """A correct engine whose reported history lies.

    Wraps an inner :class:`~repro.api.engine.TransactionEngine` (the tests
    wrap an Obladi engine), delegates all execution to it, and maintains its
    own parallel ``committed_history`` in which roughly every ``period``-th
    committed transaction is corrupted with the next fault kind from
    ``kinds`` (cycling).  Corruptions are deterministic given ``seed``.
    """

    name = "buggy"

    def __init__(self, inner: TransactionEngine,
                 kinds: Optional[Sequence[str]] = None,
                 period: int = 4, seed: int = 0) -> None:
        kinds = tuple(kinds) if kinds else FAULT_KINDS
        unknown = [k for k in kinds if k not in FAULT_KINDS]
        if unknown:
            raise ValueError(f"unknown fault kinds {unknown}; valid: {FAULT_KINDS}")
        self.inner = inner
        super().__init__()
        self.supports_crash_recovery = inner.supports_crash_recovery
        self.kinds = kinds
        self.period = max(1, period)
        self.injected: List[InjectedViolation] = []
        self._rng = random.Random(seed)
        self._cursor = 0
        # Per-key (timestamp, txn_id) writer index over the corrupted
        # history, for picking "older version" read targets.
        self._writers: Dict[str, List[Tuple[int, int]]] = {}
        self._since_fault = 0
        self._kind_index = 0

    # ------------------------------------------------------------------ #
    # Engine surface (delegation)
    # ------------------------------------------------------------------ #
    def load_initial_data(self, items: Dict[str, bytes]) -> None:
        """Bulk-load the dataset into the wrapped engine."""
        self.inner.load_initial_data(items)

    def submit_many(self, programs: Sequence[ProgramFactory]):
        """Execute a wave on the inner engine, then corrupt its records."""
        results = self.inner.submit_many(programs)
        self._sync(results)
        self._notify_wave(results)
        return results

    def stats(self):
        """The inner engine's lifetime stats, relabelled with this engine's name."""
        stats = self.inner.stats()
        stats.engine = self.name
        return stats

    @property
    def clock(self):
        """The inner engine's simulated clock."""
        return self.inner.clock

    def open_loop_wave_limit(self):
        """Delegate the wave-size cap to the wrapped engine."""
        return self.inner.open_loop_wave_limit()

    def counters(self):
        """The wrapped engine's cumulative counters."""
        return self.inner.counters()

    def crash(self) -> None:
        """Crash the wrapped engine (the corrupted history is retained)."""
        self.inner.crash()

    def recover(self):
        """Recover the wrapped engine; returns its recovery report."""
        return self.inner.recover()

    # ------------------------------------------------------------------ #
    # History corruption
    # ------------------------------------------------------------------ #
    def _sync(self, results) -> None:
        """Copy newly committed records, index them, and inject faults.

        The wave's results and its corrupted records enter this engine's
        own ledger, so :attr:`committed_history` is the lie under audit.
        """
        inner_history = self.inner.committed_history
        fresh = inner_history[self._cursor:]
        self._cursor = len(inner_history)
        wave: List[CommittedTransaction] = []
        for txn in fresh:
            copy = CommittedTransaction(
                txn_id=txn.txn_id, timestamp=txn.timestamp, epoch=txn.epoch,
                read_set=dict(txn.read_set), write_set=dict(txn.write_set))
            wave.append(copy)
            for key in copy.write_set:
                bisect.insort(self._writers.setdefault(key, []),
                              (copy.timestamp, copy.txn_id))
        self._inject(wave)
        self._record_wave(results, wave)

    def _inject(self, wave: List[CommittedTransaction]) -> None:
        """Attempt one injection per ``period`` commits, cycling the kinds."""
        for txn in wave:
            self._since_fault += 1
            if self._since_fault < self.period:
                continue
            # Try the scheduled kind first, then the others, so a kind whose
            # preconditions this transaction cannot meet does not starve.
            for offset in range(len(self.kinds)):
                kind = self.kinds[(self._kind_index + offset) % len(self.kinds)]
                injected = self._try_kind(kind, txn, wave)
                if injected is not None:
                    self.injected.append(injected)
                    self._kind_index = (self._kind_index + offset + 1) % len(self.kinds)
                    self._since_fault = 0
                    break

    def _try_kind(self, kind: str, txn: CommittedTransaction,
                  wave: List[CommittedTransaction]) -> Optional[InjectedViolation]:
        if kind == "stale_read":
            return self._try_stale_read(txn)
        if kind == "lost_update":
            return self._try_lost_update(txn)
        return self._try_write_cycle(txn, wave)

    def _predecessor(self, key: str, ts: int) -> Tuple[int, int]:
        """Newest corrupted-history writer of ``key`` strictly before ``ts``.

        Returns ``(timestamp, txn_id)``, or ``(-1, -1)`` when ``ts`` is the
        oldest write (the initial version precedes it).
        """
        writers = self._writers.get(key, [])
        pos = bisect.bisect_left(writers, (ts, -1))
        if pos == 0:
            return (-1, -1)
        return writers[pos - 1]

    def _try_stale_read(self, txn: CommittedTransaction) -> Optional[InjectedViolation]:
        """Rewrite a read-modify-write read to the previous version.

        The transaction keeps writing the key but now claims it read the
        version *before* the one it really observed: an rw edge to the real
        observed writer plus the ww chain back to this transaction — a cycle
        the offline checker also sees.
        """
        candidates = sorted(
            key for key, observed in txn.read_set.items()
            if key in txn.write_set and observed >= 0
            and self._writer_with_ts(key, observed) is not None)
        if not candidates:
            return None
        key = self._rng.choice(candidates)
        observed = txn.read_set[key]
        stale_ts, _ = self._predecessor(key, observed)
        partner = self._writer_with_ts(key, observed)
        txn.read_set[key] = stale_ts
        return InjectedViolation(
            kind="stale_read", txn_ids=(txn.txn_id,),
            partners=(partner,),
            keys=(key,),
            detail=(f"txn {txn.txn_id} read {key!r}@{observed} rewritten "
                    f"to stale version {stale_ts}"))

    def _try_lost_update(self, txn: CommittedTransaction) -> Optional[InjectedViolation]:
        """Claim a write was based on an old version, losing the update between.

        Picks a written key with an earlier committed writer and fabricates
        (or rewrites) the read provenance to the version *before* that
        writer — the classic lost update: this transaction's write clobbers
        an update it never saw.  Blind-write keys are preferred.
        """
        eligible = []
        for key in sorted(txn.write_set):
            prev_ts, prev_id = self._predecessor(key, txn.timestamp)
            if prev_ts >= 0:
                eligible.append((key not in txn.read_set, key, prev_ts, prev_id))
        if not eligible:
            return None
        blind = [e for e in eligible if e[0]]
        _, key, prev_ts, prev_id = self._rng.choice(sorted(blind or eligible))
        stale_ts, _ = self._predecessor(key, prev_ts)
        txn.read_set[key] = stale_ts
        return InjectedViolation(
            kind="lost_update", txn_ids=(txn.txn_id,), partners=(prev_id,),
            keys=(key,),
            detail=(f"txn {txn.txn_id} claims it wrote {key!r} from version "
                    f"{stale_ts}, losing txn {prev_id}'s update at {prev_ts}"))

    def _try_write_cycle(self, txn: CommittedTransaction,
                         wave: List[CommittedTransaction]) -> Optional[InjectedViolation]:
        """Give two same-wave writers crossed stale reads (write skew).

        Each of the pair is claimed to have read the version of the other's
        key from before the other's write: two anti-dependency edges in
        opposite directions, the tightest possible cycle.
        """
        partners = [other for other in wave if other.txn_id != txn.txn_id]
        self._rng.shuffle(partners)
        for other in partners:
            first, second = sorted((txn, other), key=lambda t: t.timestamp)
            keys1 = sorted(set(first.write_set) - set(second.write_set))
            keys2 = sorted(set(second.write_set) - set(first.write_set))
            if not keys1 or not keys2:
                continue
            key1 = self._rng.choice(keys1)   # written by first only
            key2 = self._rng.choice(keys2)   # written by second only
            first.read_set[key2] = self._predecessor(key2, second.timestamp)[0]
            second.read_set[key1] = self._predecessor(key1, first.timestamp)[0]
            return InjectedViolation(
                kind="write_cycle",
                txn_ids=(first.txn_id, second.txn_id),
                partners=(first.txn_id, second.txn_id),
                keys=(key1, key2),
                detail=(f"txns {first.txn_id}/{second.txn_id} given crossed "
                        f"stale reads of {key1!r}/{key2!r}"))
        return None

    def _writer_with_ts(self, key: str, ts: int) -> Optional[int]:
        writers = self._writers.get(key, [])
        pos = bisect.bisect_left(writers, (ts, -1))
        if pos < len(writers) and writers[pos][0] == ts:
            return writers[pos][1]
        return None
