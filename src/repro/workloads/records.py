"""Record encoding for the key-value workloads.

Obladi stores opaque byte values; the workloads encode their table rows as
compact JSON so that records stay small enough to fit in an ORAM block and
remain human-readable in tests.  Keys follow a ``table:part1:part2`` naming
convention; helpers here build and parse them consistently.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Union


Record = Dict[str, Union[int, float, str, List[int], List[str]]]


def encode_record(record: Record) -> bytes:
    """Serialise a row as compact JSON bytes (stable key order)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_record(payload: Optional[bytes]) -> Optional[Record]:
    """Parse a row previously produced by :func:`encode_record`.

    ``None`` and empty payloads (deleted / never-written keys) decode to
    ``None`` so callers can treat "missing" uniformly.
    """
    if payload is None or len(payload) == 0:
        return None
    return json.loads(payload.decode("utf-8"))


def make_key(table: str, *parts: Union[int, str]) -> str:
    """Build a ``table:part:part`` key."""
    return ":".join([table] + [str(p) for p in parts])


def update_record(payload: Optional[bytes], **changes) -> bytes:
    """Return a new encoded record with ``changes`` applied.

    Missing records start from an empty row, which keeps workload code free
    of existence checks for counters and accumulator fields.
    """
    record = decode_record(payload) or {}
    record.update(changes)
    return encode_record(record)


def bump_counter(payload: Optional[bytes], field: str, delta: Union[int, float] = 1) -> bytes:
    """Increment a numeric field of an encoded record."""
    record = decode_record(payload) or {}
    record[field] = record.get(field, 0) + delta
    return encode_record(record)


def record_field(payload: Optional[bytes], field: str, default=None):
    """Read one field out of an encoded record."""
    record = decode_record(payload)
    if record is None:
        return default
    return record.get(field, default)
