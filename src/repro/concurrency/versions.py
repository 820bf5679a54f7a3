"""Version chains for multiversion concurrency control.

Each key has a chain of versions ordered by the timestamp of the writing
transaction.  The chain also carries a *read marker*: the highest timestamp
of any transaction that has read some version of the key.  MVTSO uses the
marker to reject writes that arrive "too late" (a younger transaction already
read the older state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Version:
    """One version of one key."""

    key: str
    value: Optional[bytes]
    writer_ts: int
    committed: bool = False
    aborted: bool = False

    def visible_to(self, reader_ts: int) -> bool:
        """Whether a reader with ``reader_ts`` may observe this version.

        MVTSO lets readers observe uncommitted versions (that is the point of
        the optimistic scheme); aborted versions are never visible.
        """
        return not self.aborted and self.writer_ts <= reader_ts


@dataclass
class VersionChain:
    """All versions of a single key, newest last, plus the read marker."""

    key: str
    versions: List[Version] = field(default_factory=list)
    read_marker_ts: int = -1

    def latest_visible(self, reader_ts: int) -> Optional[Version]:
        """Latest version with ``writer_ts <= reader_ts`` that is not aborted."""
        for version in reversed(self.versions):
            if version.visible_to(reader_ts):
                return version
        return None

    def insert(self, version: Version) -> None:
        """Insert a version keeping the chain sorted by writer timestamp."""
        idx = len(self.versions)
        while idx > 0 and self.versions[idx - 1].writer_ts > version.writer_ts:
            idx -= 1
        self.versions.insert(idx, version)

    def record_read(self, reader_ts: int) -> None:
        """Advance the read marker to ``reader_ts`` if it is newer."""
        if reader_ts > self.read_marker_ts:
            self.read_marker_ts = reader_ts


class VersionStore:
    """Version chains for all keys touched in the current epoch or database."""

    def __init__(self) -> None:
        self._chains: Dict[str, VersionChain] = {}

    def chain(self, key: str) -> VersionChain:
        """The version chain for ``key``, created empty on first access."""
        chain = self._chains.get(key)
        if chain is None:
            chain = VersionChain(key=key)
            self._chains[key] = chain
        return chain

    def get_chain(self, key: str) -> Optional[VersionChain]:
        """The version chain for ``key``, or ``None`` if no write touched it."""
        return self._chains.get(key)

    def clear(self) -> None:
        """Drop every chain (at the end of an epoch's write-back)."""
        self._chains.clear()
