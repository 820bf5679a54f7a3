"""Per-partition namespaces over an untrusted storage server.

A partitioned Obladi proxy runs N independent Ring ORAM trees.  Each
partition addresses storage through a :class:`NamespacedStorage` view that
prefixes every key with the partition's namespace (``p<index>/``), so

* partitions can never collide (each has its own ``oram/...``, bucket
  versions, etc. under its prefix), and
* the adversary-visible trace records the *prefixed* keys, which is exactly
  what a real deployment exposes: the storage provider sees which partition
  (storage namespace) each request targets, and the obliviousness argument
  must therefore hold **per partition**
  (:func:`repro.analysis.views` splits traces accordingly).

Which *server* a namespace lives on is the server-topology knob
(``ObladiConfig.storage_servers``), orthogonal to the namespacing: in the
colocated topology every ``p<i>/`` view wraps the one shared store (the
historical layout), while over a :class:`~repro.storage.cluster.StorageCluster`
partition ``i``'s view wraps its host server ``i % M`` — several partitions
may share a host when M < N, and their namespaces keep them apart there
exactly as they did on a single server.  The prefix is retained even with
one server per partition so traces, checkpoint components and the analysis
helpers parse identically across every topology.

The view shares its base server's clock, trace, counters and fault switch;
only the key space is remapped.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.storage.backend import StorageServer


def partition_prefix(index: int) -> str:
    """Storage namespace prefix of partition ``index`` (empty for a single ORAM)."""
    if index < 0:
        raise ValueError("partition index cannot be negative")
    return f"p{index}/"


class NamespacedStorage(StorageServer):
    """A prefixed view of another :class:`StorageServer`.

    All requests are forwarded to the base server with ``prefix`` prepended
    to every key; results are returned under the caller's unprefixed keys.
    Attributes not overridden here (``clock``, ``trace``, ``fail``...)
    delegate to the base server, so callers that inspect the trace or inject
    failures keep working against the shared store.
    """

    def __init__(self, base: StorageServer, prefix: str) -> None:
        self.base = base
        self.prefix = prefix

    def __getattr__(self, name):
        # Only reached for attributes not defined on the view itself:
        # clock, trace, fail/recover, stats_* ...
        return getattr(self.base, name)

    # ------------------------------------------------------------------ #
    # StorageServer interface
    # ------------------------------------------------------------------ #
    def read_batch(self, keys: Sequence[str],
                   record_batch: bool = True) -> Dict[str, Optional[bytes]]:
        prefix = self.prefix
        prefixed = [prefix + key for key in keys]
        values = self.base.read_batch(prefixed, record_batch=record_batch)
        return dict(zip(keys, map(values.get, prefixed)))

    def write_batch(self, items: Dict[str, bytes], record_batch: bool = True) -> None:
        prefixed = {self.prefix + key: payload for key, payload in items.items()}
        self.base.write_batch(prefixed, record_batch=record_batch)

    def delete_batch(self, keys: Sequence[str]) -> None:
        self.base.delete_batch([self.prefix + key for key in keys])

    def contains(self, key: str) -> bool:
        return self.base.contains(self.prefix + key)

    def keys(self) -> List[str]:
        """Keys of this namespace, with the prefix stripped."""
        return [key[len(self.prefix):] for key in self.base.keys()
                if key.startswith(self.prefix)]
