"""A cluster of distinct simulated storage servers (one per partition group).

Obladi's evaluation fans epoch batches out from the proxy to cloud storage
over a real network.  A single :class:`~repro.storage.memory.InMemoryStorageServer`
multiplexing every partition through key namespaces cannot express that a
real storage provider runs one observer per storage node: each server of a
cluster records its *own* :class:`~repro.storage.trace.AccessTrace`, and the
obliviousness argument must hold for every node independently
(:func:`repro.analysis.views` splits the views back out).  What the
link to each node costs is not the cluster's concern: the proxy's data layer
times partition ``i`` against link ``i % M`` of
:func:`~repro.sim.latency.link_latency_models` (``ObladiConfig.backend`` and
``link_extra_rtt_ms``).

:class:`StorageCluster` is the registry of those servers.  Partition ``i``
of the data layer (:class:`~repro.sharding.partitioned.PartitionedDataLayer`,
one partition or N) is hosted on server ``i % num_servers``, so
``num_servers == shards`` is one-server-per-partition and
``1 < num_servers < shards`` groups several partitions per server (each
keeping its ``p<i>/`` key namespace on the host).

The cluster itself implements the :class:`~repro.storage.backend.StorageServer`
interface by delegating to its *metadata server* (server 0): proxy-wide
durability state — the WAL and the checkpoint chain — lives on one
designated node, exactly like the paper's single durable store, while ORAM
bucket traffic goes to each partition's own host.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.sim.clock import SimClock
from repro.storage.backend import StorageServer
from repro.storage.memory import InMemoryStorageServer

__all__ = ["StorageCluster", "build_storage"]


class StorageCluster(StorageServer):
    """M distinct simulated storage servers behind one façade.

    Parameters
    ----------
    num_servers:
        How many distinct servers the cluster runs (at least 2; a single
        server is just :class:`InMemoryStorageServer`).
    clock:
        Shared simulated clock every server stamps its trace with.
    record_trace:
        Forwarded to each server (see :class:`InMemoryStorageServer`).

    The :class:`StorageServer` interface (``read_batch`` .. ``keys``)
    delegates to the metadata server (server 0); address a specific server
    through :attr:`servers`.
    """

    def __init__(self, num_servers: int = 2, clock: Optional[SimClock] = None,
                 record_trace: bool = True) -> None:
        if num_servers < 2:
            raise ValueError("a StorageCluster needs at least two servers; "
                             "use InMemoryStorageServer for one")
        shared_clock = clock if clock is not None else SimClock()
        self.servers: List[InMemoryStorageServer] = [
            InMemoryStorageServer(clock=shared_clock, record_trace=record_trace)
            for _ in range(num_servers)
        ]

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    @classmethod
    def from_server(cls, server: InMemoryStorageServer,
                    num_servers: int = 2) -> "StorageCluster":
        """Promote an existing single server to a cluster's metadata server.

        The live-resharding path (``repro.elasticity``) uses this to grow a
        single-server deployment: ``server`` keeps every key it already
        holds — including the WAL and checkpoint chain, which is why it must
        become server 0 — and ``num_servers - 1`` fresh servers join it,
        sharing its clock and trace-recording setting.
        """
        if num_servers < 2:
            raise ValueError("a StorageCluster needs at least two servers")
        cluster = cls.__new__(cls)
        cluster.servers = [server]
        cluster.resize(num_servers)
        return cluster

    def resize(self, num_servers: int) -> None:
        """Grow or shrink the cluster to ``num_servers`` distinct servers.

        Growth appends fresh servers (sharing the metadata server's clock
        and trace-recording setting); shrinkage truncates from the *end* of
        the server list, so the metadata server — and with it the WAL and
        checkpoint chain — is never dropped.  Shrinking is only safe once no
        live partition is hosted on the departing servers (the reshard
        cutover guarantees this before it resizes).
        """
        if num_servers < 2:
            raise ValueError("a StorageCluster needs at least two servers")
        template = self.metadata_server
        del self.servers[num_servers:]
        while len(self.servers) < num_servers:
            server = InMemoryStorageServer(clock=template.clock,
                                           record_trace=template.trace is not None)
            # An outage in progress covers the servers that join the tier.
            server.join_outage(template)
            self.servers.append(server)

    @property
    def num_servers(self) -> int:
        """How many distinct storage servers the cluster runs."""
        return len(self.servers)

    @property
    def metadata_server(self) -> InMemoryStorageServer:
        """The server hosting proxy-wide durability state (WAL, checkpoints)."""
        return self.servers[0]

    # ------------------------------------------------------------------ #
    # Shared-clock plumbing (the proxy sets the clock on whatever storage
    # object it is handed, single server or cluster alike).
    # ------------------------------------------------------------------ #
    @property
    def clock(self) -> SimClock:
        """The shared simulated clock every server stamps its trace with."""
        return self.servers[0].clock

    @clock.setter
    def clock(self, value: SimClock) -> None:
        for server in self.servers:
            server.clock = value

    def fail(self, after: int = 0) -> None:
        """Start one outage of the whole tier (see :meth:`InMemoryStorageServer.fail`).

        ``after`` counts the keys written or deleted on any server.
        """
        self.metadata_server.fail(after)
        for server in self.servers[1:]:
            server.join_outage(self.metadata_server)

    def recover(self) -> None:
        """Clear a previously injected outage on every server."""
        for server in self.servers:
            server.recover()

    # ------------------------------------------------------------------ #
    # StorageServer interface — delegated to the metadata server
    # ------------------------------------------------------------------ #
    def read_batch(self, keys: Sequence[str],
                   record_batch: bool = True) -> Dict[str, Optional[bytes]]:
        """Read from the metadata server (WAL / checkpoint traffic)."""
        return self.metadata_server.read_batch(keys, record_batch=record_batch)

    def write_batch(self, items: Dict[str, bytes], record_batch: bool = True) -> None:
        """Write to the metadata server (WAL / checkpoint traffic)."""
        self.metadata_server.write_batch(items, record_batch=record_batch)

    def delete_batch(self, keys: Sequence[str]) -> None:
        """Delete on the metadata server (WAL truncation, checkpoint chains)."""
        self.metadata_server.delete_batch(keys)

    def contains(self, key: str) -> bool:
        """Whether the metadata server holds ``key``."""
        return self.metadata_server.contains(key)

    def keys(self) -> List[str]:
        """The metadata server's keys."""
        return self.metadata_server.keys()


def build_storage(config, clock: Optional[SimClock] = None):
    """Construct the storage tier an :class:`~repro.core.config.ObladiConfig` asks for.

    ``storage_servers == 1`` (the default, and the only choice for a
    single-tree proxy) yields one :class:`InMemoryStorageServer` — byte-
    identical to the historical layout; ``storage_servers > 1`` yields a
    :class:`StorageCluster` whose servers host the data-layer partitions
    round-robin.
    """
    if config.storage_servers <= 1:
        return InMemoryStorageServer(clock=clock)
    return StorageCluster(num_servers=config.storage_servers, clock=clock)
