"""The proxy coordinator: admission, routing and the epoch commit barrier.

:class:`ProxyCoordinator` is the sharded trusted tier's front end.  It keeps
the single proxy's externally observable behaviour — same admission order,
same global timestamps, same epoch shape, same batch quotas, same data-layer
fan-out, the same one MVTSO version store and one epoch version cache —
while the concurrency-control *work* is divided across N
:class:`~repro.proxytier.worker.ProxyWorker` lanes:

* every read/write a transaction issues is attributed to the owning worker
  (sha256 key hash, the same partition map ``repro.sharding`` uses);
* each round's concurrency-control CPU is charged as *parallel worker
  lanes* on the shared :class:`~repro.sim.clock.SimClock` — one lane per
  worker, so the charge is the slowest worker — instead of the single
  proxy's serial charge;
* at the epoch boundary the coordinator runs a lightweight 2PC: every
  participating worker votes commit/abort per transaction
  (:meth:`~repro.proxytier.sharded.ShardedMVTSOManager.prepare_epoch`),
  and only unanimously approved transactions commit, which keeps the
  committed history serializable across workers;
* per-worker epoch batches merge into the *existing* data-layer fan-out:
  the physical schedule the storage tier observes is byte-identical to the
  single proxy's, so every per-partition/per-server obliviousness argument
  carries over unchanged.

``proxy_workers=1`` deployments never see this class —
:func:`build_proxy` (and therefore ``create_engine``/crash recovery)
constructs the plain :class:`~repro.core.proxy.ObladiProxy`, the same seam
discipline ``SingleOramDataLayer`` follows on the data path.  See
``docs/ARCHITECTURE.md`` — "Distributed proxy tier".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import ObladiConfig
from repro.core.proxy import ObladiProxy
from repro.sharding.data_layer import key_partition
from repro.proxytier.sharded import ShardedMVTSOManager
from repro.proxytier.worker import ProxyWorker


def worker_for_key(key: str, proxy_workers: int) -> int:
    """Index of the proxy worker owning ``key``'s trusted state.

    The same sha256 partition map the data layer uses
    (:func:`repro.sharding.key_partition`), applied to the worker count: the
    mapping is deterministic across proxy crashes and independent of the
    ORAM partition map unless the counts happen to match.
    """
    return key_partition(key, proxy_workers)


@dataclass
class CcLaneStats:
    """Accumulated worker-lane CPU accounting across CC charges.

    ``serial_ms`` is the serial bound of the tier's own operations — the sum
    over workers, i.e. what *one* lane would have taken for everything the
    workers did, barrier votes included.  (A true single proxy pays slightly
    less than this bound: it runs the same chain reads/inserts but its
    commit check is unpriced, since it needs no cross-worker barrier.)
    ``lane_ms`` is what the coordinator actually charged (max over worker
    lanes per charge); their ratio is the realised lane speedup.
    """

    charges: int = 0
    serial_ms: float = 0.0
    lane_ms: float = 0.0

    def record(self, durations: List[float], makespan_ms: float) -> None:
        """Fold one charge's per-worker ``durations`` into the totals."""
        self.charges += 1
        self.serial_ms += sum(durations)
        self.lane_ms += makespan_ms

    @property
    def speedup(self) -> float:
        """Serial-to-lane CPU ratio (1.0 when nothing was charged)."""
        if self.lane_ms <= 0:
            return 1.0
        return self.serial_ms / self.lane_ms


class ProxyCoordinator(ObladiProxy):
    """Sharded trusted proxy tier behind the :class:`ObladiProxy` surface.

    Drop-in for the single proxy: :class:`repro.api.ObladiEngine` and the
    recovery manager drive it through the exact same methods.  Construction
    mirrors :class:`~repro.core.proxy.ObladiProxy`; ``config.proxy_workers``
    decides how many worker lanes the concurrency-control work is divided
    across.
    """

    def __init__(self, config: Optional[ObladiConfig] = None,
                 storage=None, clock=None, master_key: Optional[bytes] = None,
                 data_layer=None) -> None:
        super().__init__(config, storage=storage, clock=clock,
                         master_key=master_key, data_layer=data_layer)
        count = self.config.proxy_workers
        self.workers = [ProxyWorker(index) for index in range(count)]
        self._worker_cache: Dict[str, int] = {}
        self.mvtso = ShardedMVTSOManager(self.workers, self.worker_of)
        self.lane_stats = CcLaneStats()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def worker_of(self, key: str) -> int:
        """Index of the worker owning ``key`` (cached sha256 hash)."""
        index = self._worker_cache.get(key)
        if index is None:
            index = worker_for_key(key, self.config.proxy_workers)
            self._worker_cache[key] = index
        return index

    # ------------------------------------------------------------------ #
    # Epoch execution overrides
    # ------------------------------------------------------------------ #
    def run_epoch(self, deliver=None):
        """The single proxy's epoch, named here so ``bench/trace.py`` can time it."""
        return super().run_epoch(deliver)

    def _charge_cc(self) -> None:
        """Charge pending CC operations as parallel worker lanes.

        Each worker's drained operations run on that worker's own lane, so
        nothing ever queues and the makespan is the slowest worker — the
        trusted-tier analogue of the data layer's partition-batch fan-out.
        A zero per-op cost drains the counters without touching the clock,
        keeping ``cc_op_ms=0`` runs byte-identical to the single proxy.
        """
        cost = self.config.cost_model.cc_op_ms
        pending = [worker.take_pending_ops() for worker in self.workers]
        if cost <= 0 or not any(pending):
            return
        durations = [ops * cost for ops in pending]
        makespan = max(durations)
        self.lane_stats.record(durations, makespan)
        for worker, duration in zip(self.workers, durations):
            worker.cpu_ms += duration
        self.clock.advance(makespan)
        self.cc_cpu_ms += makespan

    def _finalize_epoch(self, admitted, epoch_id, deliver):
        """Run the epoch barrier (2PC prepare), then finalise as usual.

        Votes are collected — and counted as worker lane work — before the
        base finaliser's commit pass; the memoized unanimous decisions feed
        its ``can_commit`` checks, and the base finaliser's entry charge
        prices the barrier into the epoch's clock time.
        """
        self.mvtso.prepare_epoch([active.record for active in admitted])
        return super()._finalize_epoch(admitted, epoch_id, deliver)

    def _prepare_repaired(self, records) -> None:
        """Vote repaired transactions through the epoch barrier.

        A repaired transaction runs under a fresh MVTSO record created
        after the epoch's main prepare round, so the coordinator holds a
        second, smaller prepare for exactly those records: the workers that
        served its re-execution vote on it, and the memoized decision feeds
        the commit pass like any other transaction's.
        """
        self.mvtso.prepare_epoch(records)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def worker_op_totals(self) -> List[Tuple[int, int]]:
        """Lifetime ``(cc_reads, cc_writes)`` per proxy worker."""
        return [(worker.stats_reads, worker.stats_writes)
                for worker in self.workers]

    @property
    def barrier_stats(self):
        """Epoch-barrier vote accounting (see :class:`BarrierStats`)."""
        return self.mvtso.barrier_stats


def build_proxy(config: Optional[ObladiConfig] = None, storage=None, clock=None,
                master_key: Optional[bytes] = None, data_layer=None):
    """Construct the proxy the configuration asks for.

    ``proxy_workers=1`` (the default) returns the plain
    :class:`~repro.core.proxy.ObladiProxy` — byte-identical to the seed
    system, the same way ``build_data_layer`` returns the single-tree layer
    for ``shards=1``.  Anything larger returns a :class:`ProxyCoordinator`.
    ``data_layer`` injects an already-populated layer instead of building a
    fresh one — the reshard cutover (``repro.elasticity``) hands the new
    proxy the layer its migration filled.
    """
    config = config if config is not None else ObladiConfig()
    cls = ObladiProxy if config.proxy_workers <= 1 else ProxyCoordinator
    return cls(config, storage=storage, clock=clock, master_key=master_key,
               data_layer=data_layer)
