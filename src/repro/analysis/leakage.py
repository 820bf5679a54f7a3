"""Workload independence as a game (§9, Appendix B; ObliDB's method): a server's view may
depend on the configuration alone, so :func:`distinguish` judges a run's :func:`views`
against those :func:`simulate_view` builds from nothing but its :class:`Leakage`."""

import math
import random
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Dict, List, Sequence, Tuple

from repro.core.config import ObladiConfig
from repro.oram.parameters import RingOramParameters
from repro.oram.path_math import eviction_path, path_buckets
from repro.storage.backend import StorageOp
from repro.storage.trace import AccessTrace

ViewKey = Tuple[int, int, int]          # (server, generation, partition)
Views = Dict[ViewKey, AccessTrace]
Reshard = Tuple[int, ObladiConfig, Tuple[int, ...]]

_NAMESPACE = re.compile(r"(?:g(\d+)/)?(?:p(\d+)/)?")


def _namespace(key: str) -> Tuple[Tuple[int, int], str]:
    """``((generation, partition), key)`` with the ``[g<g>/][p<i>/]`` prefix cut off."""
    match = _NAMESPACE.match(key)
    return (int(match.group(1) or 0), int(match.group(2) or 0)), key[match.end():]


def views(storage) -> Views:
    """One trace per ``(server, generation, partition)`` of a server, a namespaced view of
    one or a :class:`~repro.storage.cluster.StorageCluster`.  The batches of one kind a
    server saw at one instant go, in fan-out order, to the namespaces with such requests
    then, or, if reads, to every partition reading: buffered rewrites may serve one."""
    out: Views = {}
    for server, host in enumerate(getattr(storage, "servers", [storage])):
        trace = host.trace
        if trace is None:
            continue
        parts, named = trace.split(_namespace), defaultdict(list)
        for space in sorted(parts):
            for event in parts[space].events:
                if space not in named[event.op.value, event.time_ms]:
                    named[event.op.value, event.time_ms].append(space)
        generation = min(parts, default=(0, 0))[0]
        for (kind, at), run in groupby(trace.batches, lambda batch: (batch.kind, batch.time_ms)):
            spaces = named[kind, at]
            if kind == "read":
                generation = spaces[0][0] if spaces else generation
                spaces = [space for space in sorted(parts) if space[0] == generation]
            for batch, space in zip(run, spaces):
                parts[space].begin_batch(kind, at, batch.request_count)
        out.update(((server,) + space, view) for space, view in parts.items())
    return out


@dataclass(frozen=True)
class Leakage:
    """What a run may tell the storage servers.  Delete batches need no field:
    one removes what the flushes since the last superseded, or a retiring tree."""

    config: ObladiConfig                      #: R, b_read, b_write, Δ and the first topology
    trees: Dict[ViewKey, RingOramParameters]  #: the tree geometry of every view
    epochs: int                               #: how many epochs the run executed
    reshards: Tuple[Reshard, ...]             #: first epoch, target, copy batches per barrier


def leakage(config: ObladiConfig, run) -> Leakage:
    """The profile of ``run``, the :class:`~repro.api.RunStats` of a whole trace."""
    configs, reshards = [config], []
    for report in run.migrations:
        topology = dict(zip(("shards", "storage_servers", "proxy_workers"), report.to_topology))
        configs.append(replace(configs[-1], generation=report.to_generation, **topology))
        reshards.append((report.first_epoch, configs[-1],
                         (1,) * (report.epochs - 1) + (1 + report.drain_batches,)))
    trees = {(index % c.storage_servers, c.generation, index):
             c.oram.for_partition(c.shards).to_parameters()
             for c in configs for index in range(c.shards)}
    return Leakage(config, trees, run.epochs, tuple(reshards))


class _Tree:
    """One simulated view: the buckets Ring ORAM rewrites, and what that shows.  ``reads``
    counts each bucket's path reads since its rewrite, ``rewritten`` since the flush."""

    def __init__(self, params: RingOramParameters) -> None:
        self.params, self.trace, self.reads, self.rewritten = params, AccessTrace(), {}, set()
        self.accesses = self.evictions = self.staged = 0

    def access(self, count: int = 1, leaf=None) -> None:
        """``count`` logical accesses, each a path read to ``leaf`` unless None."""
        depth = self.params.depth
        for _ in range(count):
            path = path_buckets(leaf, depth) if leaf is not None else []
            self.reads.update({bucket: self.reads.get(bucket, 0) + 1 for bucket in path})
            rewrites = [b for b in path if self.reads[b] >= self.params.s_dummies]  # reshuffles
            self.accesses += 1
            if self.accesses % self.params.evict_rate == 0:
                rewrites += path_buckets(eviction_path(self.evictions, depth), depth)
                self.evictions += 1
            self.reads.update(dict.fromkeys(rewrites, 0))
            self.rewritten.update(rewrites)

    def read_batch(self, at: float, size: int, rng: random.Random) -> None:
        """``size`` uniform path reads; a bucket rewritten this epoch is read locally."""
        buckets = []
        for leaf in [rng.randrange(self.params.num_leaves) for _ in range(size)]:
            buckets += [b for b in path_buckets(leaf, self.params.depth) if b not in self.rewritten]
            self.access(leaf=leaf)
        self._record("read", at, buckets, 1, size)

    def flush(self, at: float, collect_at=None) -> None:
        """Write the rewritten buckets back; then delete what the flushes superseded."""
        if self.rewritten:
            self._record("write", at, sorted(self.rewritten), self.params.slots_per_bucket)
            self.staged, self.rewritten = self.staged + len(self.rewritten), set()
        if collect_at is not None and self.staged:
            self._record("delete", collect_at, range(self.staged), self.params.slots_per_bucket)
            self.staged = 0

    def _record(self, kind: str, at: float, buckets, slots: int, size=None) -> None:
        keys = [f"oram/{bucket}/v0/s/{slot}" for bucket in buckets for slot in range(slots)]
        self.trace.begin_batch(kind, at, len(keys) if size is None else size)
        self.trace.record_batch(StorageOp(kind), keys, [0] * len(keys), at)


def simulate_view(leak: Leakage, seed: int) -> Views:
    """Every view of a run with profile ``leak``, from the profile alone: configured
    batches, reads Δ apart, uniform leaves, write-backs of the buckets random paths
    and evictions rewrote.  Later requests take a nominal Δ/4, as does the idle."""
    rng, trees = random.Random(seed), {key: _Tree(p) for key, p in sorted(leak.trees.items())}
    copies = {first + index: (target, count, index == len(counts) - 1)
              for first, target, counts in leak.reshards for index, count in enumerate(counts)}
    config, delta, now = leak.config, leak.config.batch_interval_ms, 0.0
    for index in range(leak.epochs):
        target, count, cutover = copies.get(index, (config, 0, False))
        serving, copying = ([tree for key, tree in trees.items() if key[1] == c.generation]
                            for c in (config, target))
        barrier, tick = now + config.read_batches * delta, delta / 4
        for tree in serving:
            for round_index in range(config.read_batches):
                tree.read_batch(now + round_index * delta, config.partition_read_batch_size, rng)
            tree.access(config.partition_write_batch_size)
            tree.flush(barrier, barrier + tick)
        for at in (barrier + (3 * copy + 2) * tick for copy in range(count)):
            for tree in serving:
                tree.read_batch(at, config.partition_read_batch_size, rng)
                tree.flush(at + tick)
            for tree in copying:
                tree.access(target.partition_write_batch_size)
                tree.flush(at + tick, at + 2 * tick)
        now = barrier + (3 * count + 2) * tick
        for tree in serving if cutover else ():
            tree.staged += tree.params.num_buckets
            tree.flush(now, now - tick)
        config = target if cutover else config
    return {key: tree.trace for key, tree in trees.items()}


def _read_runs(view: AccessTrace) -> List[List[float]]:
    """Instants of every maximal run of consecutive read batches."""
    return [[b.time_ms for b in run] for kind, run in groupby(view.batches, lambda b: b.kind)
            if kind == "read"]


def _leaf_p(view: AccessTrace) -> float:
    """Chi-square p-value of the leaves read once in a batch (not evicted) against uniform."""
    reads = [Counter(int(e.key.split("/")[1]) for e in run if e.key.startswith("oram/"))
             for (_, op), run in groupby(view.events, lambda e: (e.time_ms, e.op))
             if op is StorageOp.READ]
    cells = 1 << max(((b + 1).bit_length() - 1 for group in reads for b in group), default=0)
    counts = Counter(b for group in reads for b, n in group.items() if n == 1 and b >= cells - 1)
    expected, dof = sum(counts.values()) / cells, cells - 1
    if not expected or not dof:
        return 1.0
    statistic = sum((counts[b] - expected) ** 2 for b in range(dof, dof + cells)) / expected
    z = ((statistic / dof) ** (1 / 3) - 1 + 2 / (9 * dof)) / math.sqrt(2 / (9 * dof))
    return 0.5 * math.erfc(z / math.sqrt(2))


def _two_sample_p(a: List[int], b: List[int]) -> float:
    """Kolmogorov–Smirnov p-value, by the series' first term, of one distribution."""
    if not a or not b:
        return float(len(a) == len(b))
    d = max(abs(sum(v <= x for v in a) / len(a) - sum(v <= x for v in b) / len(b)) for x in a + b)
    root = math.sqrt(len(a) * len(b) / (len(a) + len(b)))
    return min(1.0, 2 * math.exp(-2 * ((root + 0.12 + 0.11 / root) * d) ** 2))


def _steps(run: Views):
    """``(sizes, time)`` from each instant a batch or request was seen to the next: sizes
    are op, size, most slots of one bucket and place in a run of reads (a read in a
    run of several waits for the next Δ) of the request groups then but deletes."""
    rows = defaultdict(list)
    for key, view in sorted(run.items()):
        place = {t: (i, len(reads)) for reads in _read_runs(view) for i, t in enumerate(reads)}
        for (t, op), events in groupby(view.events, lambda e: (e.time_ms, e.op)):
            if op is not StorageOp.DELETE:
                n = Counter(event.key.rsplit("/", 1)[0] for event in events)    # per bucket
                rows[t].append((key, op.value, sum(n.values()), max(n.values()), place.get(t)))
    instants = sorted(set(rows) | {b.time_ms for view in run.values() for b in view.batches})
    for now, then in zip(instants, instants[1:]):
        yield tuple(rows[now]), round(then - now, 6)


def _columns(view: AccessTrace) -> Dict[str, list]:
    """What the configuration fixes (kinds, read offsets) and the write-back sizes."""
    return {"kinds": [(b.kind, b.request_count if b.kind == "read" else None)
                      for b in view.batches],
            "read offsets": [[round(t - run[0], 6) for t in run] for run in _read_runs(view)],
            "writes": [b.request_count for b in view.batches if b.kind == "write"]}


def distinguish(real: Sequence[Views], simulated: Sequence[Views]) -> List[str]:
    """What tells the real runs' views from their simulations, ``real[i]`` from
    ``simulated[i]``, as ``"<column>: <evidence>"``: unequal kinds (with read sizes) or
    read offsets, leaves failing chi-square, write-back sizes failing a two-sample test,
    and steps between instants that are no function of the request sizes then."""
    findings, times = [], defaultdict(set)
    for run, (seen, made) in enumerate(zip(real, simulated)):
        for key in sorted(set(seen) | set(made)):
            view = seen.get(key, AccessTrace())
            ours, theirs = _columns(view), _columns(made.get(key, AccessTrace()))
            findings += [f"{name}: run {run} view {key}: {ours[name]} against {theirs[name]}"
                         for name in ("kinds", "read offsets") if ours[name] != theirs[name]]
            findings += [f"{name}: run {run} view {key}: p={p:.2g}" for name, p in (
                ("leaves", _leaf_p(view)),
                ("write-back sizes", _two_sample_p(ours["writes"], theirs["writes"]))) if p < 1e-4]
        for sizes, elapsed in _steps(seen):
            times[sizes].add(elapsed)
    return findings + [f"steps: {sorted(found)} ms after the same request sizes {sizes}"[:300]
                       for sizes, found in times.items() if len(found) > 1]


def check_bucket_invariant(trace: AccessTrace) -> List[Tuple[int, int, int]]:
    """``(bucket, version, slot)`` read twice in one namespace: Ring ORAM reads a slot
    at most once before its bucket's rewrite bumps the version."""
    counts = Counter(_namespace(event.key) for event in trace.events
                     if event.op is StorageOp.READ)
    return sorted({(int(p[1]), int(p[2][1:]), int(p[4])) for (_, key), count in counts.items()
                   if count > 1 and len(p := key.split("/")) == 5 and p[0] == "oram"})
