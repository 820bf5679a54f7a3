"""The proxy's per-epoch version cache.

The version cache (paper Figure 4/§6.2) holds, for the duration of one
epoch, the *base values*: the committed state of keys fetched from the ORAM
by this epoch's read batches (or already present in the ORAM stash from a
logical access).  The epoch's own uncommitted versions live in MVTSO's
version chains (:class:`repro.concurrency.versions.VersionStore`), not here.

Reads are served from the chains or the cache whenever possible; only keys
whose base value is unknown require an ORAM read batch slot.  The write
batch is built from the committed transactions' write sets
(``ObladiProxy._collect_write_back``).  The proxy keeps exactly one cache
whatever its worker count; ``docs/ARCHITECTURE.md`` — "Distributed proxy
tier".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class VersionCache:
    """Epoch-scoped cache of the pre-epoch base values read batches fetched."""

    _base_values: Dict[str, Optional[bytes]] = field(default_factory=dict)

    def has_base(self, key: str) -> bool:
        """Whether the committed (pre-epoch) value of ``key`` is cached."""
        return key in self._base_values

    def base_value(self, key: str) -> Optional[bytes]:
        return self._base_values.get(key)

    def install_base(self, key: str, value: Optional[bytes]) -> None:
        """Record the committed value fetched from the ORAM for this epoch."""
        self._base_values[key] = value

    def reset(self) -> None:
        """Drop all epoch state (called between epochs and on aborts)."""
        self._base_values.clear()
