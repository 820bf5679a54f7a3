"""The proxy coordinator: the single proxy with one CC lane per worker.

:class:`ProxyCoordinator` is the sharded trusted tier's front end.  It keeps
the single proxy's externally observable behaviour — same admission order,
same global timestamps, same epoch shape, same batch quotas, same data-layer
fan-out, the same one MVTSO version store and one epoch version cache —
while the concurrency-control *work* is divided across N
:class:`~repro.proxytier.worker.ProxyWorker` lanes:

* every read/write a transaction issues is attributed to the owning worker
  (sha256 key hash, the same partition map ``repro.sharding`` uses);
* the single proxy's concurrency-control charge has one lane per worker,
  so each round's charge is the slowest worker rather than the serial sum;
* the single proxy's epoch barrier is a lightweight 2PC here: every
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
constructs the plain :class:`~repro.core.proxy.ObladiProxy`, whose CC
charge and epoch barrier are this class's one-lane case.  See
``docs/ARCHITECTURE.md`` — "Distributed proxy tier".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import ObladiConfig
from repro.core.proxy import ObladiProxy
from repro.sharding.partitioned import key_partition
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

    def run_epoch(self, deliver=None):
        """The single proxy's epoch, named here so ``bench/trace.py`` can time it."""
        return super().run_epoch(deliver)

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
    system.  Anything larger returns a :class:`ProxyCoordinator`.
    ``data_layer`` injects an already-populated layer instead of building a
    fresh one — the reshard cutover (``repro.elasticity``) hands the new
    proxy the layer its migration filled.
    """
    config = config if config is not None else ObladiConfig()
    cls = ObladiProxy if config.proxy_workers <= 1 else ProxyCoordinator
    return cls(config, storage=storage, clock=clock, master_key=master_key,
               data_layer=data_layer)
