"""Distributed proxy tier: the trusted tier's concurrency control, in lanes.

PRs 2–3 scaled the *untrusted* half of Obladi (partitioned ORAM, distinct
storage servers); this package holds the lanes of the *trusted* half.  The
one proxy, :class:`~repro.core.proxy.ObladiProxy`, owns
``config.proxy_workers`` :class:`ProxyWorker` lanes, each accounting for a
key range (same sha256 partition map as ``repro.sharding``): the chain
reads and writes routed to it, the dependencies they observed, and its
vote.  The proxy attributes every read/write to the owning lane
(:meth:`~repro.core.proxy.ObladiProxy.worker_of`), charges
concurrency-control CPU as one lane per worker on the simulated clock, and
at N > 1 its epoch barrier is a lightweight 2PC — every participating
worker votes commit/abort per transaction
(:meth:`~repro.concurrency.mvtso.MVTSOManager.prepare_epoch`, counted in
:class:`BarrierStats`) — before the epoch's batches go to the data
layer's fan-out.  One lane is the paper's single proxy: its barrier is the
commit check itself, so it casts no vote.  The version chains and the
epoch cache's base values stay the proxy's, one of each.

The physical request schedule is unchanged by worker count, so all
per-partition and per-server obliviousness properties carry over; the props
suite asserts exactly that.  See ``docs/ARCHITECTURE.md`` — "Distributed
proxy tier" — for the lane diagram and the commit-protocol walkthrough.
"""

from repro.proxytier.worker import BarrierStats, ProxyWorker

__all__ = [
    "ProxyWorker",
    "BarrierStats",
]
