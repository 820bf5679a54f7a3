"""``SingleOramDataLayer``: an empty name kept for the benchmark's tracer.

The paper's single tree is :class:`~repro.sharding.partitioned.PartitionedDataLayer`
with one partition, and nothing under ``src/`` builds this class.
``bench/trace.py`` still imports it by name and wraps its ``begin_epoch``,
``execute_read_batch``, ``execute_write_batch``, ``flush`` and
``bulk_load`` from the class ``__dict__``, once as ``sharding.single.*``
and once, on the parent, as ``sharding.partitioned.*``.  So the subclass
holds the parent's five function objects itself: the tracer finds them in
its ``__dict__``, and a production call still makes one
``sharding.partitioned.*`` span.  (An alias would hand the tracer one
``__dict__`` twice and record every call twice.)  ROADMAP item 1, the change
that moves tracing into the program, deletes this module.
"""

from __future__ import annotations

from repro.sharding.partitioned import PartitionedDataLayer


class SingleOramDataLayer(PartitionedDataLayer):
    """No code of its own; see the module docstring."""

    begin_epoch = PartitionedDataLayer.begin_epoch
    execute_read_batch = PartitionedDataLayer.execute_read_batch
    execute_write_batch = PartitionedDataLayer.execute_write_batch
    flush = PartitionedDataLayer.flush
    bulk_load = PartitionedDataLayer.bulk_load
