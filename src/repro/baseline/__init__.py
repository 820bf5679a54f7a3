"""Non-private baselines used by the end-to-end evaluation (Figure 9).

Each baseline is a :class:`~repro.api.engine.TransactionEngine` of its own,
built on the one wave loop of :class:`~repro.baseline.common.BaselineEngine`:

* :class:`~repro.baseline.nopriv.NoPrivEngine` — the paper's NoPriv baseline:
  the same MVTSO concurrency control as Obladi, but the data handler talks to
  remote storage directly (no ORAM, no batching, no delayed commits).  Writes
  are buffered at the proxy until commit and served locally when possible.
* :class:`~repro.baseline.mysql_like.MySQLEngine` — a MySQL/InnoDB
  stand-in: strict two-phase locking with exclusive locks held until
  commit, which is what serialises TPC-C's new-order/payment contention in
  the paper.

:func:`repro.api.create_engine` builds them (kind ``"nopriv"`` or
``"mysql"``), and :mod:`repro.api` re-exports both.
"""

from repro.baseline.nopriv import NoPrivEngine
from repro.baseline.mysql_like import MySQLEngine

__all__ = ["NoPrivEngine", "MySQLEngine"]
