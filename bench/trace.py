"""Outside-in span tracing: where a round's host time goes, layer by layer.

Nothing under ``src/`` knows it is being traced.  :class:`Tracer` swaps the
public methods listed in ``_targets()`` for wrappers *as class attributes*
before a traced round and puts the originals back after it.  Each call
becomes a span — name, start, end, parent span, and the engine wave (= Obladi
epoch) it belongs to as the identifier spans of one epoch share.  Spans stay
in memory until the round ends; :meth:`Tracer.dump` then writes them out.

A span's *self time* is its duration minus the part covered by its child
spans, and a layer's self time is the sum over its spans, so the layers'
``*.ms_per_txn`` plus ``harness.unattributed_ms_per_txn`` add up to the
traced window.  Layers are this repo's packages; a span's layer is the first
component of its name.

Counts are taken at the same boundaries as the spans (padded vs real slots
at the data-layer boundary, slots and bytes at the cipher boundary), so
ratios are measured where the work happens.

In-program spans (``RunStats`` telemetry) are a later change; until then the
wrapper cost lands in the *parent* span's self time, which is why
``harness.trace_overhead_x`` is reported beside the layer numbers and why
end-to-end metrics only ever come from untraced rounds.
"""

from __future__ import annotations

import collections
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.api.adapters import ObladiEngine
from repro.api.engine import TransactionEngine
from repro.audit.observer import AuditingObserver
from repro.concurrency.mvtso import MVTSOManager
from repro.core.data_handler import DataHandler
from repro.core.proxy import ObladiProxy
from repro.elasticity.migration import TopologyMigration
from repro.oram.batch_executor import EpochBatchExecutor
from repro.oram.crypto import CipherSuite
from repro.oram.ring_oram import RingOram
from repro.proxytier.coordinator import ProxyCoordinator
from repro.proxytier.sharded import ShardedMVTSOManager
from repro.recovery.manager import RecoveryManager
from repro.recovery.wal import WriteAheadLog
from repro.sharding.data_layer import SingleOramDataLayer
from repro.sharding.partitioned import PartitionedDataLayer
from repro.sim.scheduler import ParallelScheduler
from repro.storage.cluster import StorageCluster
from repro.storage.memory import InMemoryStorageServer
from repro.storage.namespace import NamespacedStorage

# Span record layout (a list, mutated in place when the span closes).
_NAME, _PARENT, _START, _END, _WAVE, _SIM_MS = range(6)

BoundaryCounter = Callable[[Dict[str, float], tuple], None]


def _count_read_slots(counts, args) -> None:
    # DataLayer.execute_read_batch(self, keys, batch_size)
    counts["core.read_slots_real"] += len(args[1])
    counts["core.read_slots_padded"] += args[2]


def _count_write_slots(counts, args) -> None:
    # DataLayer.execute_write_batch(self, items, batch_size)
    counts["core.write_slots_real"] += len(args[1])
    counts["core.write_slots_padded"] += max(args[2], len(args[1]))


def _count_sealed_many(counts, args) -> None:
    # CipherSuite.encrypt_many(self, plaintexts, contexts=None)
    counts["crypto.sealed_slots"] += len(args[1])
    counts["crypto.sealed_bytes"] += len(args[1]) * args[0].block_size


def _count_sealed_one(counts, args) -> None:
    counts["crypto.sealed_slots"] += 1
    counts["crypto.sealed_bytes"] += args[0].block_size


def _count_opened_many(counts, args) -> None:
    counts["crypto.opened_slots"] += len(args[1])
    counts["crypto.opened_bytes"] += len(args[1]) * args[0].block_size


def _count_opened_one(counts, args) -> None:
    counts["crypto.opened_slots"] += 1
    counts["crypto.opened_bytes"] += args[0].block_size


def _count_schedule_ops(counts, args) -> None:
    # ParallelScheduler.schedule(self, ops, start_ms=0.0)
    counts["sim.schedule_ops"] += len(args[1])


@dataclass(frozen=True)
class _Target:
    owner: type
    method: str
    span: str
    counter: Optional[BoundaryCounter] = None
    sim_clock: bool = False      # also record the SimClock time the call took
    new_wave: bool = False       # the call opens the next engine wave


def _targets() -> List[_Target]:
    """Every method wrapped in a traced round, by layer."""
    targets = [
        # api: the loop drivers and the wave entry point.
        _Target(TransactionEngine, "run_closed_loop", "api.run_closed_loop"),
        _Target(TransactionEngine, "run_open_loop", "api.run_open_loop"),
        _Target(ObladiEngine, "submit_many", "api.submit_many", new_wave=True),
        # core: the epoch, and the key-directory / version-cache hop between
        # the data layer and the ORAM executor.
        _Target(ObladiProxy, "run_epoch", "core.run_epoch", sim_clock=True),
        _Target(ProxyCoordinator, "run_epoch", "core.coordinator.run_epoch"),
        _Target(DataHandler, "execute_read_batch", "core.handler.read_batch"),
        _Target(DataHandler, "execute_write_batch", "core.handler.write_batch"),
        _Target(DataHandler, "flush", "core.handler.flush"),
        # sim
        _Target(ParallelScheduler, "schedule", "sim.schedule",
                counter=_count_schedule_ops),
        # recovery (engine.recover is timed by the benchmark itself)
        _Target(RecoveryManager, "log_read_batch", "recovery.log_read_batch"),
        _Target(RecoveryManager, "checkpoint_data_layer", "recovery.checkpoint"),
        _Target(WriteAheadLog, "append", "recovery.wal_append"),
        # audit, elasticity
        _Target(AuditingObserver, "on_wave", "audit.on_wave"),
        _Target(TopologyMigration, "step", "elasticity.step"),
    ]
    for method in ("begin", "read", "write", "can_commit", "commit", "abort"):
        targets.append(_Target(MVTSOManager, method, f"concurrency.{method}"))
    for method in ("read", "write", "can_commit", "prepare_epoch"):
        targets.append(_Target(ShardedMVTSOManager, method,
                               f"concurrency.sharded.{method}"))
    for owner, tag in ((SingleOramDataLayer, "single"),
                       (PartitionedDataLayer, "partitioned")):
        targets += [
            _Target(owner, "begin_epoch", f"sharding.{tag}.begin_epoch"),
            _Target(owner, "execute_read_batch", f"sharding.{tag}.read_batch",
                    counter=_count_read_slots, sim_clock=True),
            _Target(owner, "execute_write_batch", f"sharding.{tag}.write_batch",
                    counter=_count_write_slots, sim_clock=True),
            _Target(owner, "flush", f"sharding.{tag}.flush", sim_clock=True),
            _Target(owner, "bulk_load", f"sharding.{tag}.bulk_load"),
        ]
    targets += [
        _Target(EpochBatchExecutor, "execute_read_batch", "oram.executor.read_batch"),
        _Target(EpochBatchExecutor, "execute_write_batch", "oram.executor.write_batch"),
        _Target(EpochBatchExecutor, "flush_epoch", "oram.executor.flush_epoch"),
        _Target(RingOram, "plan_path_read", "oram.plan_path_read"),
        _Target(RingOram, "complete_eviction", "oram.complete_eviction"),
        _Target(RingOram, "bulk_load", "oram.bulk_load"),
        # crypto: slots and bytes are counted at the innermost call of each
        # direction so the batched and single-block paths are not counted twice.
        _Target(CipherSuite, "seal_blocks", "crypto.seal.seal_blocks"),
        _Target(CipherSuite, "encrypt_many", "crypto.seal.encrypt_many",
                counter=_count_sealed_many),
        _Target(CipherSuite, "encrypt", "crypto.seal.encrypt",
                counter=_count_sealed_one),
        _Target(CipherSuite, "open_blocks", "crypto.open.open_blocks"),
        _Target(CipherSuite, "decrypt_many", "crypto.open.decrypt_many",
                counter=_count_opened_many),
        _Target(CipherSuite, "decrypt", "crypto.open.decrypt",
                counter=_count_opened_one),
    ]
    for owner, tag in ((InMemoryStorageServer, "server"),
                       (NamespacedStorage, "namespace"),
                       (StorageCluster, "cluster")):
        for method in ("read_batch", "write_batch", "delete_batch"):
            targets.append(_Target(owner, method, f"storage.{tag}.{method}"))
    return targets


@dataclass
class SpanTotals:
    """Aggregate of one span name inside one benchmark phase."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    sim_ms: float = 0.0


@dataclass
class PhaseSummary:
    """One phase's (root span's) spans, aggregated by span name."""

    duration_s: float = 0.0
    root_self_s: float = 0.0
    spans: Dict[str, SpanTotals] = field(default_factory=dict)

    def total(self, prefix: str, attr: str = "self_s") -> float:
        """Sum ``attr`` over the spans named ``prefix`` or ``prefix.*``."""
        dotted = prefix + "."
        return sum(getattr(totals, attr) for name, totals in self.spans.items()
                   if name == prefix or name.startswith(dotted))

    def calls(self, name: str) -> int:
        totals = self.spans.get(name)
        return totals.calls if totals is not None else 0


class Tracer:
    """Records spans for the wrapped methods while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.records: List[list] = []
        self.counts: Dict[str, float] = collections.Counter()
        self._stack: List[int] = [-1]
        self._wave = -1
        self._originals: List[Tuple[type, str, object]] = []
        self._targets = _targets()

    # ------------------------------------------------------------------ #
    # Installing and removing the wrappers
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Swap every target method for its span-recording wrapper."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for target in self._targets:
            original = target.owner.__dict__[target.method]
            self._originals.append((target.owner, target.method, original))
            setattr(target.owner, target.method, self._wrap(original, target))

    def uninstall(self) -> None:
        """Put the original methods back (idempotent)."""
        while self._originals:
            owner, method, original = self._originals.pop()
            setattr(owner, method, original)

    def wrap_callable(self, function: Callable, span: str) -> Callable:
        """Wrap a benchmark-owned callable (observer hooks) as a span."""
        return self._wrap(function, _Target(object, "", span))

    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def _wrap(self, function: Callable, target: _Target) -> Callable:
        records, stack, clock = self.records, self._stack, time.perf_counter
        name_id = self._name_id(target.span)
        counter, counts = target.counter, self.counts
        sim_clock, new_wave = target.sim_clock, target.new_wave
        tracer = self

        def traced(*args, **kwargs):
            if new_wave:
                tracer._wave += 1
            if counter is not None:
                counter(counts, args)
            record = [name_id, stack[-1], 0.0, 0.0, tracer._wave, 0.0]
            stack.append(len(records))
            records.append(record)
            if sim_clock:
                sim_before = args[0].clock.now_ms
            record[_START] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                record[_END] = clock()
                if sim_clock:
                    record[_SIM_MS] = args[0].clock.now_ms - sim_before
                stack.pop()

        traced.__wrapped__ = function
        return traced

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A benchmark-owned root span (``bench.setup``, ``bench.run``, ...)."""
        record = [self._name_id(name), self._stack[-1], 0.0, 0.0, self._wave, 0.0]
        self._stack.append(len(self.records))
        self.records.append(record)
        record[_START] = time.perf_counter()
        try:
            yield
        finally:
            record[_END] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------------ #
    # Reading the spans back
    # ------------------------------------------------------------------ #
    def summarize(self) -> Dict[str, PhaseSummary]:
        """Aggregate the spans by phase (root span name) and span name."""
        records, names = self.records, self.names
        child_s = [0.0] * len(records)
        root = [0] * len(records)
        for index, record in enumerate(records):
            parent = record[_PARENT]
            if parent < 0:
                root[index] = index
            else:
                root[index] = root[parent]
                child_s[parent] += record[_END] - record[_START]
        phases: Dict[str, PhaseSummary] = {}
        for index, record in enumerate(records):
            duration = record[_END] - record[_START]
            phase = phases.setdefault(names[records[root[index]][_NAME]],
                                      PhaseSummary())
            if root[index] == index:
                phase.duration_s += duration
                phase.root_self_s += duration - child_s[index]
                continue
            totals = phase.spans.setdefault(names[record[_NAME]], SpanTotals())
            totals.calls += 1
            totals.inclusive_s += duration
            totals.self_s += duration - child_s[index]
            totals.sim_ms += record[_SIM_MS]
        return phases

    def dump(self, path: str, workload: str, seed: int) -> None:
        """Write every span to ``path`` (columnar JSON, microseconds)."""
        origin = self.records[0][_START] if self.records else 0.0
        payload = {
            "workload": workload,
            "seed": seed,
            "unit": "us since the first span; wave = engine wave / Obladi epoch "
                    "ordinal, -1 outside any wave; parent = span index, -1 for "
                    "a phase root",
            "names": self.names,
            "name": [r[_NAME] for r in self.records],
            "parent": [r[_PARENT] for r in self.records],
            "start_us": [round((r[_START] - origin) * 1e6) for r in self.records],
            "end_us": [round((r[_END] - origin) * 1e6) for r in self.records],
            "wave": [r[_WAVE] for r in self.records],
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
            handle.write("\n")
