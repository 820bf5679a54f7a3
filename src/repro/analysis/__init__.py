"""Workload-independence analysis (§9, Appendix B): :func:`distinguish` judges
the storage servers' :func:`views` against views simulated from a :func:`leakage`."""

from repro.analysis.leakage import (Leakage, check_bucket_invariant, distinguish, leakage,
                                    simulate_view, views)

__all__ = ["Leakage", "check_bucket_invariant", "distinguish", "leakage", "simulate_view",
           "views"]
