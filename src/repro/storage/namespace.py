"""Storage namespaces: each tree's keys start with its own.

A partitioned Obladi proxy runs N independent Ring ORAM trees, and a reshard
cutover installs a new generation of them beside the old one.  Each tree
carries its namespace in its keys (``RingOram.key_prefix``: ``""``,
``g<g>/``, ``p<i>/`` or ``g<g>/p<i>/``; :func:`partition_prefix` names the
``p<i>/`` part) and addresses its host server itself, so

* trees can never collide (each has its own ``oram/...``, bucket versions,
  etc. under its prefix), and
* the adversary-visible trace records the *prefixed* keys, which is exactly
  what a real deployment exposes: the storage provider sees which partition
  (storage namespace) each request targets, and the obliviousness argument
  must therefore hold **per partition**
  (:func:`repro.analysis.views` splits traces accordingly).

Which *server* a namespace lives on is the server-topology knob
(``ObladiConfig.storage_servers``), orthogonal to the namespacing: in the
colocated topology every ``p<i>/`` tree uses the one shared store, while
over a :class:`~repro.storage.cluster.StorageCluster` partition ``i`` lives
on its host server ``i % M`` — several partitions may share a host when
M < N, and their namespaces keep them apart there exactly as they do on a
single server.  The prefix is retained even with one server per partition
so traces, checkpoint components and the analysis helpers parse
identically across every topology.

:class:`NamespacedStorage`, a view that prefixes every key of a batch, is
no longer on the data path: a tree builds each bucket version's keys once,
namespace included, instead of having a view rebuild every batch.  The
class stays while ``bench/trace.py`` imports it by name.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.storage.backend import StorageServer


def partition_prefix(index: int) -> str:
    """Storage namespace prefix of partition ``index`` (empty for a single ORAM)."""
    if index < 0:
        raise ValueError("partition index cannot be negative")
    return f"p{index}/"


class NamespacedStorage(StorageServer):
    """A prefixed view of another :class:`StorageServer` (see the module docstring).

    All requests are forwarded to the base server with ``prefix`` prepended
    to every key; results are returned under the caller's unprefixed keys.
    Attributes not overridden here (``clock``, ``trace``, ``fail``...)
    delegate to the base server, so callers that inspect the trace or inject
    failures keep working against the shared store.  A view serves batches
    only: the WAL and the checkpoints, the one state read back by key, live
    on the base server, which answers ``contains`` and ``keys``.
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
