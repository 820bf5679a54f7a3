"""Exception types raised by the Obladi proxy."""

from __future__ import annotations


class ObladiError(Exception):
    """Base class for proxy errors."""


class BatchFullError(ObladiError):
    """A read or write batch had no free slot for a request.

    The paper's behaviour is to abort the requesting transaction; callers
    catch this and do exactly that.
    """

    def __init__(self, kind: str, capacity: int) -> None:
        super().__init__(f"{kind} batch is full (capacity {capacity})")
        self.kind = kind
        self.capacity = capacity


class ProxyCrashedError(ObladiError):
    """The proxy has crashed; clients must wait for recovery."""
