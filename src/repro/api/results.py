"""The unified run-result type shared by every transaction engine.

Every engine's ``run_closed_loop`` / ``run_open_loop`` returns one
:class:`RunStats`, with identical field semantics, so rows of Figure 9 can
be computed without knowing which system produced a run.
"""

from __future__ import annotations

import operator
from itertools import islice, zip_longest
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

from repro.core.client import TransactionResult

CounterList = List[Tuple[int, int]]


@dataclass(frozen=True)
class Counters:
    """One snapshot of an engine's cumulative counters.

    What :meth:`TransactionEngine.counters() <repro.api.engine.
    TransactionEngine.counters>` returns.  Every field is named after, and
    means the same as, the :class:`RunStats` field it ends up in; the three
    lists hold one ``(reads, writes)`` pair per partition / storage server /
    proxy worker and are empty where an engine has no such breakdown.

    ``after - before`` is what happened in between, entry by entry over
    ``after``'s entries: an engine may grow entries mid-run (a reshard adds
    partitions), and an entry ``before`` lacks counts from zero.  ``a + b``
    sums two engines' worth (a retired proxy's and its successor's) over the
    longer of each pair of lists.
    """

    physical_reads: int = 0
    physical_writes: int = 0
    partition_physical: CounterList = field(default_factory=list)
    server_physical: CounterList = field(default_factory=list)
    worker_ops: CounterList = field(default_factory=list)
    cpu_ms: float = 0.0

    def _combine(self, other: "Counters", op, length) -> "Counters":
        def pairs(mine: CounterList, theirs: CounterList) -> CounterList:
            padded = zip_longest(mine, theirs, fillvalue=(0, 0))
            return [(op(a[0], b[0]), op(a[1], b[1]))
                    for a, b in islice(padded, length(len(mine), len(theirs)))]

        return Counters(
            physical_reads=op(self.physical_reads, other.physical_reads),
            physical_writes=op(self.physical_writes, other.physical_writes),
            partition_physical=pairs(self.partition_physical, other.partition_physical),
            server_physical=pairs(self.server_physical, other.server_physical),
            worker_ops=pairs(self.worker_ops, other.worker_ops),
            cpu_ms=op(self.cpu_ms, other.cpu_ms))

    def __sub__(self, other: "Counters") -> "Counters":
        return self._combine(other, operator.sub, lambda mine, theirs: mine)

    def __add__(self, other: "Counters") -> "Counters":
        return self._combine(other, operator.add, max)

    def write_to(self, stats: "RunStats") -> None:
        """Set ``stats``' six counter fields from this value."""
        for spec in fields(self):
            setattr(stats, spec.name, getattr(self, spec.name))


@dataclass
class RunStats:
    """Aggregate outcome of a closed-loop run against any engine.

    Attributes
    ----------
    engine:
        Name of the engine that produced the run (``"obladi"``, ``"nopriv"``,
        ``"mysql"``, ...).
    committed / aborted:
        Final transaction outcomes.  A transaction that aborts and later
        commits on retry counts once in each column, so
        ``committed + aborted == len(results)`` (total attempts), and
        ``committed + aborted - retries`` equals the number of distinct
        programs that reached a final verdict.
    retries:
        Number of aborted attempts that were re-queued.
    elapsed_ms:
        Simulated wall-clock duration of the run (the baselines' makespan;
        the proxy's epoch span).
    cpu_ms:
        Simulated proxy CPU consumed, where the engine models it (0 otherwise).
    epochs:
        Scheduling waves executed: epochs for the Obladi proxy, client
        batches for the baselines.
    physical_reads / physical_writes:
        Physical storage requests issued during the run (ORAM bucket I/O for
        Obladi, raw key I/O for the baselines).
    partition_physical:
        Per-ORAM-partition ``(physical_reads, physical_writes)`` breakdown
        for partitioned Obladi engines (one entry per shard; the totals
        above are its sums).  Empty for baselines.
    server_physical:
        Per-storage-server ``(reads, writes)`` request counters — what each
        *node* of the storage tier observed, durability traffic included
        (one entry per server; a colocated topology has exactly one).
        Empty for engines that do not report a server breakdown.
    worker_ops:
        Per-proxy-worker ``(cc_reads, cc_writes)`` concurrency-control
        operation counters for Obladi engines with more than one proxy
        worker (``repro.proxytier``): the version-chain reads and version
        installs each worker's slice performed during the run.  Empty for
        one worker (no breakdown) and the baselines.
    latencies_ms:
        Per-committed-transaction latency samples.  Latency is measured over
        the *committing attempt* (submission of that attempt to its commit),
        identically for every engine; queueing time spent between retry
        waves is not included.  This is the one measurement model of the
        unified closed loop — the pre-engine-layer baselines measured some
        of that waiting, so their absolute numbers shifted slightly when
        they were folded in (the paper's qualitative relationships are
        unchanged).
    results:
        Every :class:`~repro.core.client.TransactionResult` observed,
        including aborted attempts that were later retried.
    offered / dropped:
        Open-loop load accounting (:func:`repro.api.openloop.run_open_loop`):
        arrivals the arrival process generated, and arrivals turned away by
        the bounded admission queue (dropped arrivals never execute, so
        ``committed + aborted == (offered - dropped) + retries`` for an
        open-loop run that ran to completion; a run truncated by
        ``max_waves`` may leave offered arrivals queued and a final-wave
        re-queued retry unattempted, so the identity holds only as ``<=``
        there).  Both stay 0 for closed-loop runs.
    max_queue_depth:
        Largest admission-queue depth observed while admitting open-loop
        arrivals (0 for closed-loop runs, where no queue exists).
    queue_delays_ms:
        Per-committed-transaction *queueing* delay samples — admission (or
        re-queue, for the committing retry) to wave dispatch — aligned
        index-by-index with ``latencies_ms``.  Empty for closed-loop runs:
        queueing delay is exactly what the closed loop cannot express.
    audit:
        The :class:`~repro.audit.streaming.AuditReport` published by an
        attached :class:`~repro.audit.observer.AuditingObserver` when the
        run finished, or ``None`` when no auditor was attached.  Excluded
        from ``repr`` and ``==`` so audited fixed-seed runs compare
        byte-identical to unaudited ones.
    repaired / repair_failed:
        Conflict-repair accounting (``ObladiConfig.conflict_strategy``): final
        results whose transaction lost an MVTSO conflict but was repaired
        and committed, and repair attempts that still ended in an abort.
        Both stay 0 under the default retry strategy.
    wasted_attempts:
        Work discarded before commit: every aborted attempt counts one,
        and a failed repair counts one more (the repair work on top of the
        abort it could not prevent); a successful repair salvages its
        attempt and adds nothing.  This is the retry-vs-repair
        amplification measure of the knee sweep.
    aborts_by_reason:
        Final aborts broken out by ``AbortReason.value`` (e.g.
        ``{"write_conflict": 3, "epoch_boundary": 1}``).
        Like ``audit``, the four fields above are excluded from ``repr``
        and ``==`` so fixed-seed retry runs stay byte-identical to
        pre-repair output.
    """

    engine: str = ""
    committed: int = 0
    aborted: int = 0
    retries: int = 0
    elapsed_ms: float = 0.0
    cpu_ms: float = 0.0
    epochs: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    results: List[TransactionResult] = field(default_factory=list)
    partition_physical: List[Tuple[int, int]] = field(default_factory=list)
    server_physical: List[Tuple[int, int]] = field(default_factory=list)
    worker_ops: List[Tuple[int, int]] = field(default_factory=list)
    offered: int = 0
    dropped: int = 0
    max_queue_depth: int = 0
    queue_delays_ms: List[float] = field(default_factory=list)
    # Typed as object to avoid importing repro.audit here (the audit package
    # sits above the api layer); holds an AuditReport when an auditor ran.
    audit: Optional[object] = field(default=None, repr=False, compare=False)
    repaired: int = field(default=0, repr=False, compare=False)
    repair_failed: int = field(default=0, repr=False, compare=False)
    wasted_attempts: int = field(default=0, repr=False, compare=False)
    aborts_by_reason: dict = field(default_factory=dict, repr=False, compare=False)
    # Elastic-topology observability (repro.elasticity): the run's completed
    # migration windows (MigrationReport tuple, stamped by the Obladi engine).
    # Excluded from repr and comparisons like the other observability
    # extras, so runs that never reshard stay byte-identical to the
    # historical output.
    migrations: tuple = field(default=(), repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #
    @property
    def throughput_tps(self) -> float:
        """Committed transactions per simulated second."""
        if self.elapsed_ms <= 0:
            return 0.0
        return self.committed * 1000.0 / self.elapsed_ms

    @property
    def average_latency_ms(self) -> float:
        """Mean committed-transaction latency (0.0 when nothing committed)."""
        if not self.latencies_ms:
            return 0.0
        return sum(self.latencies_ms) / len(self.latencies_ms)

    @staticmethod
    def _percentile(fraction: float, samples: List[float]) -> float:
        if not samples:
            return 0.0
        ordered = sorted(samples)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    @property
    def abort_rate(self) -> float:
        """Fraction of attempts that aborted (0.0 with no attempts)."""
        total = self.committed + self.aborted
        return self.aborted / total if total else 0.0

    # ------------------------------------------------------------------ #
    # Open-loop metrics (offered load, queueing)
    # ------------------------------------------------------------------ #
    @property
    def offered_tps(self) -> float:
        """Offered load in arrivals per simulated second (0 when closed loop)."""
        if self.elapsed_ms <= 0:
            return 0.0
        return self.offered * 1000.0 / self.elapsed_ms

    @property
    def achieved_tps(self) -> float:
        """Achieved throughput — an alias of :attr:`throughput_tps` that
        reads naturally next to :attr:`offered_tps` in saturation sweeps."""
        return self.throughput_tps

    @property
    def total_latencies_ms(self) -> List[float]:
        """Queue-inclusive latency samples (queueing delay + service latency).

        For closed-loop runs (no queueing-delay samples) this is simply the
        service latencies, so the property reads uniformly in either mode.
        """
        if not self.queue_delays_ms:
            return list(self.latencies_ms)
        return [queue + service for queue, service
                in zip(self.queue_delays_ms, self.latencies_ms)]

    @property
    def average_queue_delay_ms(self) -> float:
        """Mean queueing delay of committed transactions (0.0 closed loop)."""
        if not self.queue_delays_ms:
            return 0.0
        return sum(self.queue_delays_ms) / len(self.queue_delays_ms)

    @property
    def average_total_latency_ms(self) -> float:
        """Mean queue-inclusive latency (equals the mean service latency
        for closed-loop runs)."""
        totals = self.total_latencies_ms
        if not totals:
            return 0.0
        return sum(totals) / len(totals)

    @property
    def p50_total_latency_ms(self) -> float:
        """Median queue-inclusive latency."""
        return self._percentile(0.50, self.total_latencies_ms)

    @property
    def p95_total_latency_ms(self) -> float:
        """95th-percentile queue-inclusive latency."""
        return self._percentile(0.95, self.total_latencies_ms)
