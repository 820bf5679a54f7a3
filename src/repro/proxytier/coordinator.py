"""``ProxyCoordinator``: an empty name kept for the benchmark's tracer.

:class:`~repro.core.proxy.ObladiProxy` is the one proxy: it owns
``config.proxy_workers`` concurrency-control lanes whatever their count,
and nothing under ``src/`` builds this class.  ``bench/trace.py`` still
imports it by name and wraps its ``run_epoch`` from the class ``__dict__``
as ``core.coordinator.run_epoch``.  So the subclass holds the parent's
function object itself, and a production epoch makes only the parent's
``core.run_epoch`` span.  ROADMAP item 1, the change that moves tracing
into the program, deletes this module.
"""

from __future__ import annotations

from repro.core.proxy import ObladiProxy


class ProxyCoordinator(ObladiProxy):
    """No code of its own; see the module docstring."""

    run_epoch = ObladiProxy.run_epoch
