"""Distributed proxy tier: the trusted tier's concurrency control, sharded.

PRs 2–3 scaled the *untrusted* half of Obladi (partitioned ORAM, distinct
storage servers); this package scales the *trusted* half.  N
:class:`ProxyWorker` lanes each account for a key range (same sha256
partition map as ``repro.sharding``): the chain reads and writes routed to
it, the dependencies they observed, and its vote.  A
:class:`ProxyCoordinator` admits transactions, attributes every read/write
to the owning worker, so the proxy charges concurrency-control CPU as one
lane per worker on the simulated clock and its epoch barrier is a
lightweight 2PC — every participating worker votes commit/abort per
transaction — before merging the epoch's batches into the existing
``DataLayer`` fan-out.  The version chains and the epoch cache's base
values stay the proxy's, one of each.

Selected by ``ObladiConfig.proxy_workers`` /
``ObladiConfig.with_proxy_workers(N)``; ``proxy_workers=1`` builds the
plain :class:`~repro.core.proxy.ObladiProxy` (byte-identical to the seed).
The physical request schedule is unchanged by worker count, so all
per-partition and per-server obliviousness properties carry over; the props
suite asserts exactly that.  See ``docs/ARCHITECTURE.md`` — "Distributed
proxy tier" — for the worker/coordinator diagram and the commit-protocol
walkthrough.
"""

from repro.proxytier.coordinator import ProxyCoordinator, build_proxy
from repro.proxytier.sharded import BarrierStats, ShardedMVTSOManager
from repro.proxytier.worker import ProxyWorker

__all__ = [
    "ProxyWorker",
    "ProxyCoordinator",
    "ShardedMVTSOManager",
    "BarrierStats",
    "build_proxy",
]
