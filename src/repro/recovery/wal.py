"""Write-ahead log of read-batch access locations.

The recovery unit logs, for every read batch, the set of locations the batch
is about to read (paper §8, "Obladi durably logs the list of paths and slot
indices that it accesses, before executing the actual requests").  After a
crash these logs are replayed so that the adversary sees the aborted epoch's
paths repeated deterministically, which removes the leak that would
otherwise arise when clients retry the same logical requests.

Entries are encrypted (Appendix A: once writes are no longer atomic, the
read log contents must not be visible before the epoch counter advances) and
padded to the read batch size so the log length is workload-independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.oram.crypto import CipherSuite
from repro.storage.backend import StorageServer


@dataclass(frozen=True)
class WalRecord:
    """One logged read batch."""

    epoch_id: int
    batch_index: int
    keys: List[str]
    padded_size: int

    def storage_key(self) -> str:
        """The key this record is stored under (``wal/<epoch>/<batch>``)."""
        return wal_storage_key(self.epoch_id, self.batch_index)


def wal_storage_key(epoch_id: int, batch_index: int) -> str:
    return f"wal/{epoch_id}/{batch_index}"


class WriteAheadLog:
    """Durable, encrypted log of per-batch access locations."""

    def __init__(self, storage: StorageServer, cipher: Optional[CipherSuite] = None,
                 entry_capacity: int = 16 * 1024, encrypt: bool = True) -> None:
        # Encrypted WAL entries do not fit the ORAM block size, so the WAL
        # uses its own cipher sized for one padded batch entry; every entry
        # for a given configuration therefore has the same ciphertext length.
        self.storage = storage
        self.cipher = cipher if cipher is not None else CipherSuite(
            block_size=entry_capacity, enabled=encrypt)
        self.records_written = 0

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def append(self, record: WalRecord) -> int:
        """Durably write one record; returns the payload size in bytes."""
        keys = list(record.keys)
        # Pad the key list so every entry for a given configuration has the
        # same number of rows regardless of how many real requests it holds.
        rows: List[Optional[str]] = list(keys)
        while len(rows) < record.padded_size:
            rows.append(None)
        payload = json.dumps({
            "epoch": record.epoch_id,
            "batch": record.batch_index,
            "rows": rows,
        }).encode("utf-8")
        key = record.storage_key()
        # Bound to its key: the store cannot answer for one record with another.
        sealed = self.cipher.encrypt(payload, key.encode("utf-8"))
        self.storage.write_batch({key: sealed})
        self.records_written += 1
        return len(sealed)

    # ------------------------------------------------------------------ #
    # Reading (recovery path)
    # ------------------------------------------------------------------ #
    def read_epoch(self, epoch_id: int, max_batches: int) -> List[WalRecord]:
        """Read every logged batch of ``epoch_id`` (missing indices are skipped)."""
        records: List[WalRecord] = []
        for batch_index in range(max_batches):
            key = wal_storage_key(epoch_id, batch_index)
            blob = self.storage.read(key)
            if blob is None:
                continue
            payload = json.loads(self.cipher.decrypt(blob, key.encode("utf-8")).decode("utf-8"))
            rows = [row for row in payload["rows"] if row is not None]
            records.append(WalRecord(epoch_id=payload["epoch"], batch_index=payload["batch"],
                                     keys=rows, padded_size=len(payload["rows"])))
        return records

    def truncate_before(self, epoch_id: int, max_batches: int, horizon: int = 16) -> int:
        """Delete WAL entries for epochs older than ``epoch_id``; returns count.

        ``horizon`` bounds how far back the scan looks; epochs older than the
        horizon were deleted by earlier truncations.
        """
        deleted = 0
        keys = []
        for old_epoch in range(max(0, epoch_id - horizon), epoch_id):
            for batch_index in range(max_batches):
                key = wal_storage_key(old_epoch, batch_index)
                if self.storage.contains(key):
                    keys.append(key)
        if keys:
            self.storage.delete_batch(keys)
            deleted = len(keys)
        return deleted
