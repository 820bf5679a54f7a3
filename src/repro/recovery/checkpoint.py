"""Epoch checkpoints of the proxy's volatile metadata.

At every epoch boundary the proxy durably stores the metadata it would need
to resume from that epoch: the position map, the per-bucket permutation
metadata, the valid/invalid map, the stash (padded to its bound), the key
directory, and the access/eviction counters.  To keep the steady-state cost
low, most epochs write *deltas* (entries changed since the last full
checkpoint); every ``checkpoint_frequency`` epochs a full checkpoint is
written, and once its manifest is stored the previous chain — the old full
checkpoint plus its deltas — is deleted (Figure 11a sweeps this frequency).

All components except the valid/invalid map are encrypted; the position-map
delta is padded to the maximum number of entries an epoch can change so its
size leaks nothing about how many real requests ran (paper §8).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.oram.crypto import CipherSuite
from repro.storage.backend import StorageServer


@dataclass
class CheckpointManifest:
    """Index of the checkpoint chain, stored in the clear (structure only).

    ``access_count``/``eviction_count`` are partition 0's counters (the only
    partition of a single-tree proxy); a partitioned data layer additionally
    records every partition's ``[access_count, eviction_count]`` pair in
    ``partition_counters`` keyed by partition index.
    """

    last_epoch: int = -1
    #: ``None`` until a full checkpoint exists.  The one written by
    #: ``load_initial_data``, before epoch 0, is epoch -1.
    last_full_epoch: Optional[int] = None
    delta_epochs: List[int] = field(default_factory=list)
    access_count: int = 0
    eviction_count: int = 0
    partition_counters: Dict[str, List[int]] = field(default_factory=dict)

    def serialize(self) -> bytes:
        """The manifest as stored: sorted-key JSON, in the clear."""
        return json.dumps({
            "last_epoch": self.last_epoch,
            "last_full_epoch": self.last_full_epoch,
            "delta_epochs": self.delta_epochs,
            "access_count": self.access_count,
            "eviction_count": self.eviction_count,
            "partition_counters": self.partition_counters,
        }, sort_keys=True).encode("utf-8")

    @classmethod
    def deserialize(cls, blob: bytes) -> "CheckpointManifest":
        """Parse a manifest :meth:`serialize` wrote."""
        payload = json.loads(blob.decode("utf-8"))
        return cls(
            last_epoch=payload["last_epoch"],
            last_full_epoch=payload["last_full_epoch"],
            delta_epochs=list(payload["delta_epochs"]),
            access_count=payload["access_count"],
            eviction_count=payload["eviction_count"],
            partition_counters={str(k): [int(a), int(e)] for k, (a, e) in
                                payload.get("partition_counters", {}).items()},
        )


MANIFEST_KEY = "ckpt/manifest"


def _component_key(epoch_id: int, name: str, full: bool) -> str:
    kind = "full" if full else "delta"
    return f"ckpt/{epoch_id}/{kind}/{name}"


def _in_chain(key: str, manifest: CheckpointManifest) -> bool:
    """Whether component ``key`` belongs to the chain ``manifest`` describes."""
    _, epoch, kind, _ = key.split("/", 3)
    if kind == "full":
        return int(epoch) == manifest.last_full_epoch
    return int(epoch) in manifest.delta_epochs


@dataclass
class CheckpointSizes:
    """Byte sizes of one checkpoint's components (used by Figure 11a / Table 11b)."""

    position_bytes: int = 0
    metadata_bytes: int = 0
    valid_map_bytes: int = 0
    stash_bytes: int = 0
    extra_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return (self.position_bytes + self.metadata_bytes + self.valid_map_bytes
                + self.stash_bytes + self.extra_bytes)


class CheckpointStore:
    """Writes and reads checkpoint components on the untrusted store."""

    def __init__(self, storage: StorageServer, cipher: Optional[CipherSuite] = None,
                 encrypt: bool = True) -> None:
        self.storage = storage
        self.encrypt = encrypt
        # Checkpoint payloads vary in size; they are encrypted with a stream
        # cipher sized per payload rather than padded to one block.
        self.cipher = cipher if cipher is not None else CipherSuite(block_size=64,
                                                                    enabled=encrypt)
        blob = self.storage.read(MANIFEST_KEY)
        self.manifest = (CheckpointManifest() if blob is None
                         else CheckpointManifest.deserialize(blob))
        # Keys of the chain the manifest describes; unknown (``None``) for a
        # chain an earlier incarnation wrote until :meth:`sweep` lists it.
        self._chain_keys: Optional[List[str]] = [] if blob is None else None
        # Keys of replaced chains, deleted by :meth:`collect`.
        self._stale: List[str] = []
        #: The last epoch whose manifest this store saw stored: the trusted
        #: epoch counter a recovery checks the chain against.
        self.committed_epoch: Optional[int] = None if blob is None else self.manifest.last_epoch

    # ------------------------------------------------------------------ #
    # Sealing helpers (variable-length payloads, each bound to its storage
    # key, so the store cannot answer for one component with another)
    # ------------------------------------------------------------------ #
    def _seal(self, payload: bytes, key: str) -> bytes:
        if not self.encrypt:
            return payload
        suite = CipherSuite(key=self.cipher.key, block_size=len(payload) + 4,
                            authenticated=True, enabled=True)
        return suite.encrypt(payload, key.encode("utf-8"))

    def _unseal(self, blob: bytes, key: str) -> bytes:
        if not self.encrypt:
            return blob
        suite = CipherSuite(key=self.cipher.key,
                            block_size=len(blob) - 12 - 16,
                            authenticated=True, enabled=True)
        return suite.decrypt(blob, key.encode("utf-8"))

    # ------------------------------------------------------------------ #
    # Manifest
    # ------------------------------------------------------------------ #
    def _store_manifest(self) -> None:
        self.storage.write(MANIFEST_KEY, self.manifest.serialize())

    # ------------------------------------------------------------------ #
    # Writing checkpoints
    # ------------------------------------------------------------------ #
    def write_checkpoint(self, epoch_id: int, components: Dict[str, bytes],
                         plain_components: Dict[str, bytes], full: bool,
                         access_count: int, eviction_count: int,
                         partition_counters: Optional[Dict[str, List[int]]] = None
                         ) -> CheckpointSizes:
        """Write one epoch's checkpoint; returns the component sizes.

        ``components`` are encrypted before storage; ``plain_components``
        (the valid/invalid map) are stored as-is.  Component names may carry
        a partition namespace prefix (``p<i>/position``); sizes are
        classified by the unprefixed suffix and summed across partitions.
        Storing the manifest commits the checkpoint, and this returns right
        after it: the chain a full checkpoint replaces stays stored until
        :meth:`collect`.
        """
        items: Dict[str, bytes] = {}
        sizes = CheckpointSizes()
        for name, payload in components.items():
            key = _component_key(epoch_id, name, full)
            sealed = items[key] = self._seal(payload, key)
            if name.endswith("position"):
                sizes.position_bytes += len(sealed)
            elif name.endswith("metadata"):
                sizes.metadata_bytes += len(sealed)
            elif name.endswith("stash"):
                sizes.stash_bytes += len(sealed)
            else:
                sizes.extra_bytes += len(sealed)
        for name, payload in plain_components.items():
            items[_component_key(epoch_id, name, full)] = payload
            sizes.valid_map_bytes += len(payload)

        if self._chain_keys is None:
            self.sweep()
        self.storage.write_batch(items)

        if full:
            self.manifest.last_full_epoch = epoch_id
            self.manifest.delta_epochs = []
            # The manifest will no longer name the previous chain, so nothing
            # can read it — except a key the new chain just rewrote.
            self._stale += [key for key in self._chain_keys if key not in items]
            self._chain_keys = []
        else:
            self.manifest.delta_epochs.append(epoch_id)
        self._chain_keys.extend(items)
        self.manifest.last_epoch = epoch_id
        self.manifest.access_count = access_count
        self.manifest.eviction_count = eviction_count
        self.manifest.partition_counters = dict(partition_counters or {})
        self._store_manifest()
        self.committed_epoch = epoch_id
        return sizes

    def collect(self) -> int:
        """Delete the chains the stored manifest replaced, as one batch.

        Runs after the checkpoint has committed; returns how many objects
        were deleted.
        """
        stale, self._stale = self._stale, []
        if stale:
            self.storage.delete_batch(stale)
        return len(stale)

    # ------------------------------------------------------------------ #
    # Reading checkpoints (recovery)
    # ------------------------------------------------------------------ #
    def read_component(self, epoch_id: int, name: str, full: bool,
                       encrypted: bool = True) -> Optional[bytes]:
        """One component of one checkpoint, opened; ``None`` if not stored."""
        key = _component_key(epoch_id, name, full)
        blob = self.storage.read(key)
        if blob is None:
            return None
        return self._unseal(blob, key) if encrypted else blob

    def chain(self) -> List[Dict[str, object]]:
        """The checkpoint chain to replay: the last full one plus its deltas."""
        entries: List[Dict[str, object]] = []
        if self.manifest.last_full_epoch is not None:
            entries.append({"epoch": self.manifest.last_full_epoch, "full": True})
        for epoch in self.manifest.delta_epochs:
            entries.append({"epoch": epoch, "full": False})
        return entries

    def sweep(self) -> int:
        """Delete every checkpoint object outside the manifest's chain.

        Lists the store once: recovery calls this, and so does the first
        checkpoint of a store that loaded a chain it did not write (a
        reshard cutover's fence).  Returns how many objects were deleted.
        """
        chain: List[str] = []
        orphans: List[str] = []
        for key in self.storage.keys():
            if key.startswith("ckpt/") and key != MANIFEST_KEY:
                (chain if _in_chain(key, self.manifest) else orphans).append(key)
        if orphans:
            self.storage.delete_batch(orphans)
        self._chain_keys = chain
        return len(orphans)
