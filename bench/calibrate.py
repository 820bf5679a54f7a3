"""Host-clock calibration: a frozen kernel, a per-wave sampler, a noise guard.

Raw wall seconds on a shared box are weather: the same fixed-seed run at a
byte-identical ``RunStats`` reads 4.8 s in one process and 9.0 s in the next
because a neighbour is busy (CPU time inflates equally, so it is not
preemption).  Host time is therefore reported *relative to a kernel pass
measured beside the work*: a :class:`WaveSampler` runs :func:`kernel_pass`
after every engine wave, and

    calibrated_ms = work_seconds / mean(pass_seconds) * REFERENCE_PASS_MS

is "milliseconds at the speed where one pass takes 2.0 ms".  Slow weather
stretches work and passes alike and cancels.

**The kernel is frozen.**  It imports nothing from ``repro`` and must never
change with the system under test: every calibrated number ever recorded is
a multiple of it.  If quiet runs trip the noise guard, tune the guard's
thresholds — never the kernel.
"""

from __future__ import annotations

import hashlib
import statistics
import struct
import time
from typing import List, Sequence

#: One pass is defined to be worth this many calibrated milliseconds.
REFERENCE_PASS_MS = 2.0
#: Iterations of the frozen kernel (about 2 ms a pass on the 2-core box the
#: benchmark was defined on).
KERNEL_ITERATIONS = 4000
#: Share of each wave's host time the sampler spends on kernel passes: the
#: pass count follows the work, so long and short workloads are calibrated
#: by the same relative amount of sampling.
SAMPLING_SHARE = 0.04

#: Noise guard thresholds.  A round is *disturbed* when the p90/p10 ratio of
#: its pass times exceeds ``MAX_CU_SPREAD`` (the host's speed changed inside
#: the round) or the process got less than ``MIN_CPU_WALL_RATIO`` of a core
#: (it was descheduled).  Single 2x outlier passes are normal on a shared
#: box and do not move p90.  Tuned on the box the benchmark was defined on:
#: its ordinary rounds read 1.1-1.9 and 0.92-1.0, and inside that range the
#: spread says nothing about how far a round lands from the median (the
#: first guess, 1.5, set half of all rounds aside for no gain in steadiness).
MAX_CU_SPREAD = 2.0
MIN_CPU_WALL_RATIO = 0.9

_PACK = struct.Struct(">Q").pack
_SEED_STATE = hashlib.sha256(b"obladi-bench-calibration-kernel-v1")


def kernel_pass() -> float:
    """Run the frozen kernel once; returns its duration in seconds.

    The mix mirrors the engine's hot path: sha256 midstate ``copy()`` /
    ``update(struct.pack)`` / ``digest()`` (the keystream and MAC), a dict
    store (metadata, caches) and a list append (traces, results).
    """
    table = {}
    out: List[int] = []
    copy = _SEED_STATE.copy
    append = out.append
    started = time.perf_counter()
    for i in range(KERNEL_ITERATIONS):
        state = copy()
        state.update(_PACK(i))
        digest = state.digest()
        table[i & 255] = digest
        append(digest[0])
    return time.perf_counter() - started


def calibrated_ms(work_seconds: float, pass_seconds: Sequence[float]) -> float:
    """``work_seconds`` in milliseconds at the reference kernel speed."""
    return work_seconds / statistics.fmean(pass_seconds) * REFERENCE_PASS_MS


def spread(pass_seconds: Sequence[float]) -> float:
    """p90 / p10 of the pass times (1.0 for fewer than ten samples' worth)."""
    if len(pass_seconds) < 10:
        return max(pass_seconds) / min(pass_seconds) if len(pass_seconds) > 1 else 1.0
    deciles = statistics.quantiles(pass_seconds, n=10)
    return deciles[8] / deciles[0]


def bracket(passes: int = 5) -> List[float]:
    """A short burst of passes, for calibrating a window from outside
    (set-up, recovery: code with no wave hook to interleave with)."""
    return [kernel_pass() for _ in range(passes)]


class WaveSampler:
    """Engine observer that interleaves kernel passes with the waves.

    Duck-typed to ``repro.audit.observer.EngineObserver`` so this module
    keeps importing nothing from the system under test.  After each wave it
    runs passes worth ``SAMPLING_SHARE`` of that wave's host time (at least
    one) and records the wave's own duration; its own time is kept apart so
    the caller can subtract it from the timed window.
    """

    def __init__(self) -> None:
        self.pass_seconds: List[float] = []
        self.wave_seconds: List[float] = []
        self.own_seconds = 0.0
        self._wave_started = 0.0

    def start(self) -> None:
        """Mark the start of the timed window (the first wave begins now)."""
        self._wave_started = time.perf_counter()

    def on_attach(self, engine) -> None:
        del engine

    def on_wave(self, engine, results) -> None:
        del engine, results
        entered = time.perf_counter()
        wave = entered - self._wave_started
        self.wave_seconds.append(wave)
        budget = wave * SAMPLING_SHARE
        spent = 0.0
        while True:
            took = kernel_pass()
            self.pass_seconds.append(took)
            spent += took
            if spent >= budget:
                break
        now = time.perf_counter()
        self.own_seconds += now - entered
        self._wave_started = now

    def on_run_end(self, engine, stats) -> None:
        del engine, stats


def is_disturbed(cu_spread: float, cpu_wall_ratio: float) -> bool:
    """The noise guard: whether a round's host numbers should be set aside."""
    return cu_spread > MAX_CU_SPREAD or cpu_wall_ratio < MIN_CPU_WALL_RATIO
