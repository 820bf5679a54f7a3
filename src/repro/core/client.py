"""Client-side transaction interface.

Transactions are expressed as *generator programs*: plain Python generator
functions that yield :class:`Read` and :class:`Write` operations and receive
read results back as the value of the ``yield``.  This mirrors how the
paper's clients issue operations to the proxy one at a time (and lets the
proxy batch reads into its fixed epoch structure without threads):

.. code-block:: python

    def transfer(src, dst, amount):
        src_balance = yield Read(f"account:{src}")
        dst_balance = yield Read(f"account:{dst}")
        yield Write(f"account:{src}", encode(decode(src_balance) - amount))
        yield Write(f"account:{dst}", encode(decode(dst_balance) + amount))
        return "ok"

The same programs run unchanged on every :class:`repro.api.TransactionEngine`:
Obladi, the NoPriv baseline and the 2PL baseline.  :class:`ProgramRun` is
the one reader of this protocol: every engine drives a program through it
and keeps only its policy — how a read is served, how a write is applied,
and when a transaction waits or aborts.

For interactive use (the quickstart example), :class:`Transaction` offers a
blocking façade over a single-transaction epoch: ``txn.read(key)`` /
``txn.write(key, value)`` / ``txn.commit()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple, Union


class TransactionAborted(Exception):
    """Raised to the client when its transaction aborted.

    ``reason`` carries the proxy-side abort reason string (write conflict,
    cascade, epoch boundary, batch full, crash, user).
    """

    def __init__(self, txn_id: int, reason: str) -> None:
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


@dataclass(frozen=True)
class Read:
    """Yielded by a transaction program to read a key."""

    key: str

    @property
    def keys(self) -> tuple:
        """The one key, in the shape :class:`ReadMany` exposes."""
        return (self.key,)


@dataclass(frozen=True)
class ReadMany:
    """Yielded to read several *independent* keys in one round.

    The proxy schedules all of them into the same (or the next available)
    read batch, so a transaction that fetches, say, the stock rows of every
    item in an order consumes one round of the epoch instead of one round per
    item.  The yield returns a dict mapping each key to its value.
    """

    keys: tuple

    def __init__(self, keys) -> None:
        object.__setattr__(self, "keys", tuple(keys))


@dataclass(frozen=True)
class Write:
    """Yielded by a transaction program to write a key."""

    key: str
    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, (bytes, bytearray)):
            raise TypeError("values written to Obladi must be bytes")


@dataclass(frozen=True)
class AbortRequest:
    """Yielded by a transaction program to abort itself voluntarily."""

    reason: str = "user"


Operation = Union[Read, ReadMany, Write, AbortRequest]
TransactionProgram = Callable[..., Generator[Operation, Optional[bytes], object]]

#: What :meth:`ProgramRun.next` returns once the program has finished.
COMMIT = "commit"
ABORT = "abort"


class ProgramRun:
    """One execution of a transaction program, one request at a time.

    ``program`` is a zero-argument factory (called here) or a generator
    object (used as given); anything else raises :class:`TypeError`.
    :meth:`next` returns the pending request — a :class:`Read` or
    :class:`ReadMany` (both expose ``keys``) or a :class:`Write` — and keeps
    returning it until the engine calls :meth:`answer`.  Once the program
    has finished it returns :data:`COMMIT` (``return_value`` holds what the
    program returned) or :data:`ABORT` (a yielded :class:`AbortRequest` or a
    raised :class:`TransactionAborted`).  Any other yield raises
    :class:`TypeError`.
    """

    __slots__ = ("_generator", "_reply", "pending", "outcome", "return_value")

    def __init__(self, program) -> None:
        generator = program() if callable(program) else program
        if not hasattr(generator, "send"):
            raise TypeError("transaction programs must be generator functions "
                            "or generators")
        self._generator = generator
        self._reply = None
        #: The request :meth:`next` returned and :meth:`answer` has not.
        self.pending: Optional[Union[Read, ReadMany, Write]] = None
        #: :data:`COMMIT` or :data:`ABORT` once the program has finished.
        self.outcome: Optional[str] = None
        self.return_value: object = None

    def next(self):
        """The pending request, or the outcome once the program finished."""
        if self.pending is not None:
            return self.pending
        if self.outcome is not None:
            return self.outcome
        try:
            request = self._generator.send(self._reply)
        except StopIteration as stop:
            self.return_value = stop.value
            self.outcome = COMMIT
            return COMMIT
        except TransactionAborted:
            self.outcome = ABORT
            return ABORT
        if isinstance(request, (Read, ReadMany, Write)):
            self.pending = request
            return request
        if isinstance(request, AbortRequest):
            self.outcome = ABORT
            return ABORT
        raise TypeError(f"transaction yielded unsupported operation {request!r}")

    def answer(self, values: Optional[Dict[str, Optional[bytes]]] = None) -> None:
        """Answer the pending request; the program resumes at the next :meth:`next`.

        A read is answered with ``{key: value}`` for its ``keys``: a
        :class:`Read` receives the bare value, a :class:`ReadMany` the dict.
        A :class:`Write` is answered with nothing.
        """
        request, self.pending = self.pending, None
        self._reply = values[request.key] if isinstance(request, Read) else values

    def close(self) -> None:
        """Abandon the program: it is closed and its outcome is :data:`ABORT`."""
        self._generator.close()
        self.pending = None
        self.outcome = ABORT


@dataclass
class TransactionResult:
    """Outcome of one transaction as reported to the client.

    ``repaired``/``repair_failed`` record whether the result went through a
    conflict-repair pass (:meth:`repro.core.proxy.ObladiProxy._repair_conflict_losers`,
    ARCHITECTURE "Conflict resolution"): ``repaired`` means
    the transaction lost an MVTSO conflict but was re-executed against the
    winning versions and committed; ``repair_failed`` means repair was
    attempted and the transaction still aborted.  Both are excluded from
    ``repr`` and ``==`` so fixed-seed runs under the default retry strategy
    stay byte-identical to historical output.
    """

    txn_id: int
    committed: bool
    return_value: object = None
    abort_reason: Optional[str] = None
    latency_ms: float = 0.0
    epoch: int = -1
    repaired: bool = field(default=False, repr=False, compare=False)
    repair_failed: bool = field(default=False, repr=False, compare=False)


class Transaction:
    """Blocking convenience façade used by the quickstart example.

    Engines expose ``engine.transaction()`` returning one of these; reads
    and writes are buffered and submitted as a single generator program when
    :meth:`commit` is called, so each interactive transaction occupies one
    epoch slot.
    Reads issued before commit see the transaction's own buffered writes
    first, then the current committed state (and are re-validated at commit
    time by the engine's concurrency control).
    """

    def __init__(self, submit: Callable[[TransactionProgram], TransactionResult],
                 read_now: Callable[[str], Optional[bytes]]) -> None:
        self._submit = submit
        self._read_now = read_now
        self._ops: List[Tuple[str, str, Optional[bytes]]] = []
        self._finished = False

    def read(self, key: str) -> Optional[bytes]:
        """Read a key.

        The transaction's own buffered writes are visible first
        (read-your-own-writes); otherwise the value reflects the latest
        committed epoch.
        """
        self._check_open()
        self._ops.append(("read", key, None))
        for kind, op_key, value in reversed(self._ops[:-1]):
            if kind == "write" and op_key == key:
                return value
        return self._read_now(key)

    def write(self, key: str, value: bytes) -> None:
        """Buffer a write; it becomes visible when the transaction commits."""
        self._check_open()
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("values written to Obladi must be bytes")
        self._ops.append(("write", key, bytes(value)))

    def commit(self) -> TransactionResult:
        """Submit the buffered operations as one transaction and wait."""
        self._check_open()
        self._finished = True
        ops = list(self._ops)

        def program():
            for kind, key, value in ops:
                if kind == "read":
                    yield Read(key)
                else:
                    yield Write(key, value)
            return True

        result = self._submit(program)
        if not result.committed:
            raise TransactionAborted(result.txn_id, result.abort_reason or "unknown")
        return result

    def abort(self) -> None:
        """Discard the buffered operations without contacting the proxy."""
        self._check_open()
        self._finished = True
        self._ops.clear()

    def _check_open(self) -> None:
        if self._finished:
            raise RuntimeError("transaction already committed or aborted")

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._finished:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False
