"""Crash injection for tests and the recovery experiments.

The paper's failure model allows the proxy to crash at any point, losing all
volatile state.  The simulator injects crashes at the boundaries that matter
for the recovery protocol: before/after a read batch, and at the epoch
boundary before the checkpoint is written or after it commits, before any
superseded bucket version is deleted.  (Crashing in the middle of a local
computation is indistinguishable from crashing just before it, since
nothing local persists.)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.errors import ProxyCrashedError


class CrashPoint(enum.Enum):
    """Where in the epoch the injected crash fires."""

    BEFORE_READ_BATCH = "before_read_batch"
    AFTER_READ_BATCH = "after_read_batch"
    BEFORE_CHECKPOINT = "before_checkpoint"
    AFTER_CHECKPOINT = "after_checkpoint"


@dataclass
class CrashInjector:
    """Arms a crash after a configurable number of read batches.

    The injector wraps the proxy's data handler; once ``crash_after_batches``
    batches have been dispatched in total (across epochs), the proxy is
    crashed and :class:`ProxyCrashedError` propagates out of ``run_epoch``.
    """

    proxy: object
    crash_after_batches: int
    point: CrashPoint = CrashPoint.BEFORE_READ_BATCH
    fired: bool = False
    _batches_seen: int = 0
    _original_read: Optional[Callable] = None
    _original_checkpoint: Optional[Callable] = None
    _original_collect: Optional[Callable] = None

    def arm(self) -> None:
        """Install the wrappers (on the proxy's data layer, single or sharded)."""
        layer = self.proxy.data_layer
        self._original_read = layer.execute_read_batch

        def wrapped_read(keys, batch_size):
            if self.point is CrashPoint.BEFORE_READ_BATCH:
                self._maybe_crash()
            result = self._original_read(keys, batch_size)
            self._batches_seen += 1
            if self.point is CrashPoint.AFTER_READ_BATCH:
                self._maybe_crash(post=True)
            return result

        layer.execute_read_batch = wrapped_read

        if self.point is CrashPoint.BEFORE_CHECKPOINT and self.proxy.recovery is not None:
            self._original_checkpoint = self.proxy.recovery.checkpoint_data_layer

            def wrapped_checkpoint(*args, **kwargs):
                self._crash()
                return None

            self.proxy.recovery.checkpoint_data_layer = wrapped_checkpoint

        if self.point is CrashPoint.AFTER_CHECKPOINT:
            self._original_collect = layer.collect

            def wrapped_collect():
                self._crash()

            layer.collect = wrapped_collect

    def disarm(self) -> None:
        """Remove the wrappers (used after recovery to reuse helper objects)."""
        if self._original_read is not None:
            self.proxy.data_layer.execute_read_batch = self._original_read
        if self._original_collect is not None:
            self.proxy.data_layer.collect = self._original_collect
        if self._original_checkpoint is not None and self.proxy.recovery is not None:
            self.proxy.recovery.checkpoint_data_layer = self._original_checkpoint

    # ------------------------------------------------------------------ #
    def _maybe_crash(self, post: bool = False) -> None:
        threshold = self.crash_after_batches
        seen = self._batches_seen if not post else self._batches_seen - 1
        if not self.fired and seen >= threshold:
            self._crash()

    def _crash(self) -> None:
        self.fired = True
        self.proxy.crash()
        raise ProxyCrashedError(
            f"injected crash at {self.point.value} after {self._batches_seen} batches")
