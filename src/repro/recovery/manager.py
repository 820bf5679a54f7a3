"""Recovery manager: ties the WAL and checkpoint store to the proxy.

During normal operation the manager is invoked by the proxy at two points:

* before every read batch, to log the batch's access locations
  (:meth:`RecoveryManager.log_read_batch`);
* at every epoch boundary, to checkpoint the proxy metadata
  (:meth:`RecoveryManager.checkpoint_data_layer`, which commits the epoch),
  then to delete what that checkpoint replaced
  (:meth:`RecoveryManager.collect`).

After a crash, :func:`recover_proxy` builds a fresh proxy from the untrusted
store: it restores the last committed epoch's metadata, replays the aborted
epoch's logged paths (so the adversary observes the same accesses), deletes
what the restored state cannot read (:meth:`RecoveryManager.sweep`), and
reports a per-component time breakdown — the quantities of Table 11b.

The untrusted tier may be a single server or a multi-server
:class:`~repro.storage.cluster.StorageCluster`: the WAL and the checkpoint
chain live on the metadata server (the cluster façade routes them there),
while path replay addresses each partition's own host server under the
partition's namespace — recovery therefore restores *every* server's
partitions from the one checkpoint chain.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import ObladiConfig
from repro.oram.crypto import CipherSuite, IntegrityError, freshness_context
from repro.oram.position_map import PositionMap
from repro.oram.metadata import MetadataTable
from repro.oram.ring_oram import lost_real_slot
from repro.oram.stash import Stash
from repro.recovery.checkpoint import CheckpointSizes, CheckpointStore
from repro.recovery.wal import WalRecord, WriteAheadLog
from repro.sim.clock import SimClock
from repro.sim.latency import get_latency_model
from repro.storage.backend import StorageServer


def derive_key(master_key: bytes, purpose: str) -> bytes:
    """Derive a purpose-specific key from the proxy's persistent master key."""
    return hashlib.sha256(master_key + purpose.encode("utf-8")).digest()


@dataclass
class DurabilityCosts:
    """Cost constants for durability traffic (simulated milliseconds)."""

    bandwidth_bytes_per_ms: float = 100_000.0      # ~100 MB/s to cloud storage
    decrypt_entry_ms: float = 0.0008               # per position-map entry
    decrypt_bucket_ms: float = 0.004               # per bucket of permutation metadata


@dataclass
class RecoveryResult:
    """Outcome of one recovery, including the Table 11b breakdown."""

    recovered_epoch: int
    aborted_epoch: int
    total_ms: float = 0.0
    network_ms: float = 0.0
    position_ms: float = 0.0
    permutation_ms: float = 0.0
    paths_ms: float = 0.0
    bytes_read: int = 0
    paths_replayed: int = 0
    position_entries: int = 0
    metadata_buckets: int = 0


class RecoveryManager:
    """Durability hooks used by :class:`repro.core.proxy.ObladiProxy`."""

    def __init__(self, storage: StorageServer, clock: SimClock, config: ObladiConfig,
                 master_key: bytes) -> None:
        self.storage = storage
        self.clock = clock
        self.config = config
        self.master_key = master_key
        self.costs = DurabilityCosts()
        self.latency = get_latency_model(config.backend)

        entry_capacity = max(8 * 1024, config.read_batch_size * 64)
        self.wal = WriteAheadLog(
            storage,
            cipher=CipherSuite(key=derive_key(self.master_key, "wal"),
                               block_size=entry_capacity, enabled=config.encrypt),
            encrypt=config.encrypt,
        )
        self.checkpoints = CheckpointStore(
            storage,
            cipher=CipherSuite(key=derive_key(self.master_key, "checkpoint"),
                               enabled=config.encrypt),
            encrypt=config.encrypt,
        )

        # ``(epoch, bytes)`` of a committed checkpoint :meth:`collect` has
        # not finished yet.
        self._uncollected: Optional[Tuple[int, int]] = None
        self.stats_wal_bytes = 0
        self.stats_checkpoint_bytes = 0
        self.stats_checkpoints = 0

    # ------------------------------------------------------------------ #
    # Normal-operation hooks
    # ------------------------------------------------------------------ #
    def log_read_batch(self, epoch_id: int, batch_index: int, keys: Sequence[str],
                       batch_size: int) -> None:
        """Durably log a read batch's access set before it executes."""
        record = WalRecord(epoch_id=epoch_id, batch_index=batch_index,
                           keys=list(keys), padded_size=batch_size)
        size = self.wal.append(record)
        self.stats_wal_bytes += size
        self._charge(size)

    @staticmethod
    def _oram_components(oram, pad_position_entries: int, full: bool):
        """Serialise one ORAM's metadata; returns (encrypted, plain) blobs."""
        params = oram.params
        stash_pad = max(params.stash_bound, len(oram.stash))
        if full:
            position_blob = oram.position_map.serialize_full()
            metadata_blob = oram.metadata.serialize_full()
            valid_blob = oram.metadata.serialize_valid_map()
        else:
            position_blob = oram.position_map.serialize_delta(
                pad_to_entries=max(pad_position_entries, len(oram.position_map.dirty_entries())))
            metadata_blob = oram.metadata.serialize_delta()
            valid_blob = oram.metadata.serialize_valid_map(oram.metadata.dirty_buckets())
        encrypted = {
            "position": position_blob,
            "metadata": metadata_blob,
            "stash": oram.stash.serialize(stash_pad, params.block_size),
        }
        return encrypted, {"valid_map": valid_blob}

    def checkpoint_data_layer(self, epoch_id: int, data_layer, full: bool) -> CheckpointSizes:
        """Checkpoint every partition of the proxy's data layer as one epoch.

        Component names are namespaced by the partition's prefix (partition 0
        of a single-tree layer uses no prefix, keeping the historical layout)
        and the manifest records per-partition access/eviction counters so
        recovery can restore each tree's schedule position.  Returns once
        the manifest is stored: that commits the epoch, and a crash no
        longer undoes it.  :meth:`collect` finishes the checkpoint.
        """
        components: Dict[str, bytes] = {}
        plain: Dict[str, bytes] = {}
        partition_counters: Dict[str, List[int]] = {}
        pad_entries = data_layer.config.position_delta_pad_entries
        for part in data_layer.partitions:
            prefix = part.component_prefix
            directory = part.directory
            components[prefix + "key_directory"] = (directory.serialize() if full
                                                    else directory.serialize_delta())
            encrypted, part_plain = self._oram_components(part.oram, pad_entries, full)
            for name, blob in encrypted.items():
                components[prefix + name] = blob
            for name, blob in part_plain.items():
                plain[prefix + name] = blob
            partition_counters[str(part.index)] = [part.oram.access_count,
                                                   part.oram.eviction_count]

        first = data_layer.partitions[0].oram
        sizes = self.checkpoints.write_checkpoint(
            epoch_id=epoch_id, components=components, plain_components=plain, full=full,
            access_count=first.access_count, eviction_count=first.eviction_count,
            partition_counters=(partition_counters
                                if len(data_layer.partitions) > 1 else None))
        for part in data_layer.partitions:
            part.oram.position_map.clear_dirty()
            part.oram.metadata.clear_dirty()
            part.directory.clear_dirty()
        self._uncollected = (epoch_id, sizes.total_bytes)
        return sizes

    def collect(self) -> None:
        """Finish the committed checkpoint: delete what it replaced, charge it.

        Deletes the checkpoint chain it replaced and the WAL records of the
        epochs before it, then charges the checkpoint's traffic to the
        clock (the deletes are not charged).
        """
        epoch_id, total_bytes = self._uncollected
        self._uncollected = None
        self.checkpoints.collect()
        self.wal.truncate_before(epoch_id, self.config.read_batches)

        self.stats_checkpoint_bytes += total_bytes
        self.stats_checkpoints += 1
        self._charge(total_bytes)

    def _charge(self, total_bytes: int) -> None:
        """Charge simulated time for synchronous durability traffic.

        The checkpoint components (and the WAL entry) are independent objects
        written concurrently, so the proxy waits one round trip plus the time
        to push the bytes at the available bandwidth.
        """
        self.clock.advance(self.latency.write_rtt_ms
                           + total_bytes / self.costs.bandwidth_bytes_per_ms)

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    def _restore_partition(self, part, result: RecoveryResult,
                           manifest) -> None:
        """Restore one partition's metadata from its namespaced components."""
        from repro.core.data_handler import KeyDirectory
        params = part.oram.params
        prefix = part.component_prefix
        position = PositionMap(params.num_leaves, rng=part.oram.rng)
        metadata = MetadataTable(params.num_buckets, params.z_real, params.s_dummies,
                                 rng=part.oram.rng)
        stash = Stash()
        directory = KeyDirectory()

        names = ("position", "metadata", "stash", "valid_map", "key_directory")
        for entry in self.checkpoints.chain():
            epoch = int(entry["epoch"])
            full = bool(entry["full"])
            blobs = [self.checkpoints.read_component(epoch, prefix + name, full,
                                                     encrypted=name != "valid_map")
                     for name in names]
            for name, blob in zip(names, blobs):
                # Every checkpoint stores all five components: a missing one
                # was lost or withheld, and skipping it would restore a
                # silently older state.
                if blob is None:
                    raise IntegrityError(
                        f"checkpoint {epoch} has no {prefix}{name} component")
                result.bytes_read += len(blob)
            position_blob, metadata_blob, stash_blob, valid_blob, extra_blob = blobs

            # A full checkpoint holds every entry and row in the delta layout;
            # it comes first in the chain, so it lands on the empty tables.
            if full:
                directory = KeyDirectory.deserialize(extra_blob)
            else:
                directory.apply_delta(extra_blob)
            position.apply_delta(position_blob)
            metadata.apply_delta(metadata_blob)
            metadata.apply_valid_map(valid_blob)
            stash = Stash.deserialize(stash_blob, params.block_size)

        part.oram.position_map = position
        part.oram.metadata = metadata
        part.oram.stash = stash
        counters = manifest.partition_counters.get(str(part.index))
        if counters is not None:
            part.oram.access_count, part.oram.eviction_count = counters
        else:
            part.oram.access_count = manifest.access_count
            part.oram.eviction_count = manifest.eviction_count
        if len(directory):
            part.handler.directory = directory

        result.position_entries += len(position)
        result.metadata_buckets += len(metadata.buckets_present())

    def restore_metadata(self, proxy) -> RecoveryResult:
        """Restore every data-layer partition from the checkpoint chain."""
        manifest = self.checkpoints.manifest
        result = RecoveryResult(recovered_epoch=manifest.last_epoch,
                                aborted_epoch=manifest.last_epoch + 1)

        for part in proxy.data_layer.partitions:
            self._restore_partition(part, result, manifest)
        proxy._epoch_counter = manifest.last_epoch + 1

        result.position_ms = result.position_entries * self.costs.decrypt_entry_ms
        result.permutation_ms = result.metadata_buckets * self.costs.decrypt_bucket_ms
        result.network_ms = (result.bytes_read / self.costs.bandwidth_bytes_per_ms
                             + 8 * self.latency.read_rtt_ms)
        return result

    def replay_aborted_epoch(self, proxy, result: RecoveryResult) -> None:
        """Re-issue the aborted epoch's logged read paths (paper §8).

        The position map restored from the checkpoint still maps every block
        to the leaf it had when the aborted epoch read it, so replaying the
        logged keys touches the same buckets the adversary already observed.
        Real blocks encountered are remapped and absorbed into the stash.
        """
        records = self.wal.read_epoch(result.aborted_epoch, self.config.read_batches)
        replay_keys: List[str] = []
        for record in records:
            replay_keys.extend(record.keys)
        physical_requests = 0
        for key in replay_keys:
            part = proxy.data_layer.partition_for_key(key)
            block_id = part.directory.block_id(key)
            plan = part.oram.plan_path_read(block_id)
            keys_of = part.oram.slot_keys
            slot_keys = [keys_of(bucket_id, version)[slot_index]
                         for bucket_id, slot_index, version, _ in plan.slot_reads]
            fetched = part.storage.read_batch(slot_keys)
            physical_requests += len(slot_keys)
            result.bytes_read += sum(len(v) for v in fetched.values() if v)
            for slot_key, (bucket_id, slot_index, version, expected_block) in zip(
                    slot_keys, plan.slot_reads):
                if expected_block is None:
                    continue
                blob = fetched.get(slot_key)
                if blob is None:
                    raise lost_real_slot(slot_key)
                bid, value = part.cipher.open_block(
                    blob, freshness_context(bucket_id, version, slot_index))
                if bid is not None and bid not in part.oram.stash:
                    leaf = part.oram.position_map.lookup_or_assign(bid)
                    part.oram.stash.put(bid, leaf, value)
        result.paths_replayed = len(replay_keys)
        parallelism = self.latency.effective_parallelism(proxy.config.parallelism)
        waves = (physical_requests + parallelism - 1) // parallelism if physical_requests else 0
        result.paths_ms = waves * self.latency.read_rtt_ms + physical_requests * 0.002

    def sweep(self, proxy) -> int:
        """Delete what the restored state cannot read; returns how many objects.

        Per server of the tier, one batch of every ORAM slot key the
        restored layer does not name: a version that differs from its
        bucket's restored metadata (the aborted epoch's flush, or what a
        crash between commit and collect left behind), and every key of a
        namespace that is no partition of the layer hosted there (the target
        generation of a migration that died with the proxy, or the
        generation a crash at the cutover had not finished retiring).  Then
        every checkpoint object outside the manifest's chain.  After the
        sweep each bucket ever written has exactly one version, and no other
        generation's.
        """
        named: Dict[StorageServer, Set[str]] = {}
        for part in proxy.data_layer.partitions:
            keep = named.setdefault(part.storage, set())
            metadata, slot_keys = part.oram.metadata, part.oram.slot_keys
            for bucket_id in metadata.buckets_present():
                version = metadata.bucket(bucket_id).version
                if version:
                    keep.update(slot_keys(bucket_id, version))
        storage = proxy.storage
        removed = 0
        for server in getattr(storage, "servers", None) or [storage]:
            keep = named.get(server, set())
            orphans = [key for key in server.keys() if "oram/" in key and key not in keep]
            if orphans:
                server.delete_batch(orphans)
            removed += len(orphans)
        return removed + self.checkpoints.sweep()


def recover_proxy(storage: StorageServer, config: ObladiConfig, master_key: bytes, *,
                  committed_epoch: Optional[int]):
    """Rebuild a proxy after a crash, on the storage tier's clock.

    Returns ``(proxy, RecoveryResult)``.  ``master_key`` is the persistent
    proxy secret (the only state assumed to survive the crash, along with the
    trusted epoch counter it protects): ``committed_epoch``, the last epoch
    the crashed proxy saw commit (its ``CheckpointStore.committed_epoch``;
    ``None`` if it never saw one).  A chain that ends before it was rolled
    back by the store and raises ``IntegrityError``.  The proxy comes back
    with ``config.proxy_workers`` lanes whose epoch state starts empty —
    correct by epoch fate sharing: every lane's MVTSO/cache slice is
    epoch-scoped, so the durable state each lane serves is exactly what the
    shared checkpoint chain restores into the data layer below it.
    """
    from repro.core.proxy import ObladiProxy

    clock = storage.clock
    proxy = ObladiProxy(config, storage=storage, clock=clock, master_key=master_key)
    manager: RecoveryManager = proxy.recovery
    if manager is None:
        raise ValueError("recovery requires a configuration with durability enabled")
    last_epoch = manager.checkpoints.manifest.last_epoch
    if committed_epoch is not None and last_epoch < committed_epoch:
        raise IntegrityError(f"the checkpoint chain ends at epoch {last_epoch} but epoch "
                             f"{committed_epoch} committed: the store rolled it back")

    result = manager.restore_metadata(proxy)
    manager.replay_aborted_epoch(proxy, result)
    manager.sweep(proxy)
    result.total_ms = (result.position_ms + result.permutation_ms + result.paths_ms
                       + result.network_ms)
    clock.advance(result.total_ms)
    return proxy, result
