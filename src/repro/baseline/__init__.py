"""Non-private baselines used by the end-to-end evaluation (Figure 9).

* :class:`~repro.baseline.nopriv.NoPrivProxy` — the paper's NoPriv baseline:
  the same MVTSO concurrency control as Obladi, but the data handler talks to
  remote storage directly (no ORAM, no batching, no delayed commits).  Writes
  are buffered at the proxy until commit and served locally when possible.
* :class:`~repro.baseline.mysql_like.TwoPhaseLockingStore` — a MySQL/InnoDB
  stand-in: strict two-phase locking with locks held until commit, which is
  what serialises TPC-C's new-order/payment contention in the paper.

Both are usually driven through the unified engine layer
(:func:`repro.api.create_engine` with kind ``"nopriv"`` or ``"mysql"``) and
report a :class:`repro.api.results.RunStats`.
"""

from repro.baseline.nopriv import NoPrivProxy
from repro.baseline.mysql_like import TwoPhaseLockingStore

__all__ = ["NoPrivProxy", "TwoPhaseLockingStore"]
