"""The rounds of one benchmark run, and the metrics they add up to.

``run.py`` is the command; this module is what it does once the system under
test is importable.  See ``run.py`` for the two clocks and the output
contract, ``measure.py`` for what a single round is.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import time
from typing import Dict, List

import calibrate
import layers
import measure
from workloads import Workload

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
#: Set-ups timed per run, so ``setup_s`` is a median even when one round
#: fills the whole measuring time.
MIN_SETUP_SAMPLES = 3
#: A run whose rounds were all disturbed may try this many more, while they
#: still fit in 1.5x the measuring time.
EXTRA_TRIES = 2


def environment() -> Dict[str, object]:
    """What the numbers were measured on (``harness.cu_ms`` is the rest)."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count()}


class Run:
    """The rounds of one benchmark run, and what they add up to."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.untraced: List[measure.Round] = []
        self.traced: List[measure.Round] = []
        self.layer_rounds: List[Dict[str, float]] = []
        self.setup_samples: List[float] = []       # calibrated seconds
        self.problems: List[str] = []

    @property
    def rounds(self) -> List[measure.Round]:
        return self.untraced + self.traced

    # ------------------------------------------------------------------ #
    # Measuring
    # ------------------------------------------------------------------ #
    def measure(self) -> None:
        """Repeat rounds (pairs of rounds when tracing) until time is up.

        A step is started only if, going by the last one, it will end inside
        the measuring time — except the first, which always runs, and up to
        ``EXTRA_TRIES`` more when the noise guard set every round aside.
        """
        started = time.perf_counter()
        extra_tries = EXTRA_TRIES
        while True:
            step_started = time.perf_counter()
            self._round(traced=False)
            if self.trace:
                self._round(traced=True)
            now = time.perf_counter()
            elapsed, step = now - started, now - step_started
            if elapsed + step <= self.seconds:
                continue
            if (extra_tries and all(r.disturbed for r in self.untraced)
                    and elapsed + step <= 1.5 * self.seconds):
                extra_tries -= 1
                continue
            break
        while not self.trace and len(self.setup_samples) < MIN_SETUP_SAMPLES:
            data = self.workload.make_generator(self.seed).initial_data()
            _, seconds, passes = measure.time_set_up(self.workload, self.seed, data)
            self._note_setup(seconds, passes)
        digests = sorted({r.digest for r in self.rounds})
        if len(digests) != 1:
            self.problems.append(
                f"sim_digest differs between rounds of one seed: {digests}")

    def _note_setup(self, seconds: float, passes: List[float]) -> None:
        self.setup_samples.append(calibrate.calibrated_ms(seconds, passes) / 1000.0)

    def _round(self, traced: bool) -> None:
        index = len(self.rounds)
        round_ = measure.run_round(self.workload, self.seed, traced=traced,
                                   full_checks=index == 0)
        # Every try is reported, disturbed or not.
        print(f"round {index} {'traced  ' if traced else 'untraced'} "
              f"sim_digest={round_.digest} committed={round_.committed}/{round_.offered} "
              f"raw_host_s={round_.work_seconds:.3f} "
              f"host_ms_per_txn={round_.host_ms / max(1, round_.committed):.4f} "
              f"cu_ms={1000 * statistics.fmean(round_.pass_seconds):.3f} "
              f"cu_spread={round_.cu_spread:.2f} "
              f"cpu_wall_ratio={round_.cpu_wall_ratio:.3f}"
              f"{' DISTURBED' if round_.disturbed else ''}", flush=True)
        self.problems += [f"round {index}: {problem}" for problem in round_.problems]
        if not traced:
            self._note_setup(round_.setup_seconds, round_.setup_pass_seconds)
            self.untraced.append(round_)
            return
        self.layer_rounds.append(layers.layer_metrics(round_))
        if not self.traced:
            os.makedirs(OUT_DIR, exist_ok=True)
            round_.tracer.dump(
                os.path.join(OUT_DIR, f"trace-{self.workload.name}.json"),
                self.workload.name, self.seed)
        # Spans and the engine are big, and their numbers have been taken.
        round_.tracer = round_.engine = round_.counters = None
        self.traced.append(round_)

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    @staticmethod
    def _quiet(rounds: List[measure.Round]) -> List[measure.Round]:
        """The undisturbed rounds, or all of them when none was quiet."""
        return [r for r in rounds if not r.disturbed] or rounds

    def end_to_end(self) -> Dict[str, float]:
        """The end-to-end metrics: host numbers are medians over the quiet
        untraced rounds, simulated ones are the first round's (all agree)."""
        first = self.untraced[0]
        stats = first.stats
        return {
            "host_ms_per_txn": statistics.median(
                r.host_ms / r.committed for r in self._quiet(self.untraced)),
            "setup_s": statistics.median(self.setup_samples),
            "peak_rss_mb": first.peak_rss_mb,
            "sim_tps": stats.throughput_tps,
            "sim_latency_ms_p50": stats.p50_total_latency_ms,
            "sim_latency_ms_p95": stats.p95_total_latency_ms,
            "sim_slo_share": first.slo_share,
            "physical_ops_per_txn": (stats.physical_reads + stats.physical_writes)
                                    / stats.committed,
        }

    def per_layer(self) -> Dict[str, float]:
        """The per-layer metrics: medians over the traced rounds, plus what
        only the run as a whole knows (baseline, recovery, the harness)."""
        metrics = {name: statistics.median(layer[name] for layer in self.layer_rounds)
                   for name in self.layer_rounds[0]}
        quiet = self._quiet(self.untraced)
        first = self.untraced[0]
        stats = first.stats

        def wave_ms(pick) -> float:
            return statistics.median(
                calibrate.calibrated_ms(pick(r.wave_seconds), r.pass_seconds)
                for r in quiet)

        metrics["api.wave_host_ms_p50"] = wave_ms(statistics.median)
        metrics["api.wave_host_ms_max"] = wave_ms(max)

        recovery = first.recovery
        metrics["recovery.recover_host_ms"] = 0.0 if recovery is None else (
            calibrate.calibrated_ms(recovery.host_seconds, recovery.pass_seconds))
        metrics["recovery.recover_sim_ms"] = 0.0 if recovery is None else recovery.sim_ms
        metrics["recovery.recover_bytes_read"] = (
            0 if recovery is None else recovery.bytes_read)

        baseline = measure.nopriv_baseline(self.workload, self.seed)
        metrics["baseline.nopriv_sim_tps"] = baseline.throughput_tps
        metrics["baseline.privacy_price_tps_x"] = (
            baseline.throughput_tps / stats.throughput_tps)
        metrics["baseline.privacy_price_latency_x"] = (
            stats.p50_total_latency_ms / baseline.p50_total_latency_ms)

        metrics["harness.cu_ms"] = 1000.0 * statistics.fmean(
            seconds for r in quiet for seconds in r.pass_seconds)
        metrics["harness.cu_spread"] = statistics.median(
            r.cu_spread for r in self.untraced)
        metrics["harness.raw_host_s"] = statistics.median(r.work_seconds for r in quiet)
        metrics["harness.cpu_wall_ratio"] = statistics.median(
            r.cpu_wall_ratio for r in self.untraced)
        metrics["harness.trace_overhead_x"] = (
            statistics.median(r.host_ms for r in self._quiet(self.traced))
            / statistics.median(r.host_ms for r in quiet))
        metrics["harness.rounds"] = len(self.rounds)
        metrics["harness.disturbed_rounds"] = sum(1 for r in self.rounds if r.disturbed)
        return metrics


def _result_metrics(run: Run, spec: dict, kind: str,
                    metrics: Dict[str, float]) -> Dict[str, dict]:
    """``metrics`` in result form, held against ``BENCHMARK.json``.

    Names and units are the file's: a metric the benchmark computes but the
    file does not list under ``kind`` (or the reverse) is a failed check.
    """
    units = {entry["name"]: entry["unit"] for entry in spec[kind]}
    if set(metrics) != set(units):
        run.problems.append(
            f"{kind} metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(metrics))}, unlisted "
            f"{sorted(set(metrics) - set(units))}")
    for name, value in metrics.items():
        if not math.isfinite(value):
            run.problems.append(f"metric {name} is not finite: {value!r}")
    return {name: {"value": value, "unit": units.get(name, "?")}
            for name, value in metrics.items()}


def execute(workload: Workload, seed: int, seconds: float, trace: bool,
            spec: dict) -> int:
    """Measure, check, print every metric, end with the result line."""
    print(f"workload {workload.name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)} size={workload.size} "
          f"environment={json.dumps(environment())}")
    run = Run(workload, seed, seconds, trace)
    run.measure()

    first = run.untraced[0]
    samples = len(first.stats.latencies_ms)
    print(f"sim_digest {first.digest} (sha256 of repr(RunStats); "
          f"{len(run.rounds)} round(s))")
    print(f"offered {first.offered}: committed {first.committed}, failed "
          f"{first.failed}, unfinished {first.unfinished}; {samples} latency "
          f"samples, {samples - int(0.95 * samples)} at or beyond p95")
    if workload.open_loop:
        print("arrivals are scheduled on the simulated clock: generator "
              "lateness is 0 by construction")

    # A traced run has untraced rounds too, so it can show both sets; only
    # the set the caller asked for goes into the result line.
    shown = _result_metrics(run, spec, "end_to_end", run.end_to_end())
    metrics = shown
    if trace:
        metrics = _result_metrics(run, spec, "per_layer", run.per_layer())
        shown = {**shown, **metrics}
    for name, entry in shown.items():
        print(f"metric {name} {entry['value']!r} {entry['unit']}")
    if trace:
        print(f"reference shape, NoPriv against Obladi (the model is otherwise "
              f"unvalidated): the paper reports 5-12x throughput and up to 70x "
              f"latency; here "
              f"{metrics['baseline.privacy_price_tps_x']['value']:.1f}x and "
              f"{metrics['baseline.privacy_price_latency_x']['value']:.1f}x")

    for problem in run.problems:
        print(f"CHECK FAILED {problem}")
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.offered for r in run.rounds),
        "failed": sum(r.failed for r in run.rounds),
        "metrics": metrics}))
    return 0 if correct else 1
