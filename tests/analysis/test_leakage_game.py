"""The workload-independence game.

Each cell runs two different program streams on the same deployment and
asks :func:`repro.analysis.distinguish` to tell both runs' storage views from
views simulated out of each run's leakage profile alone.  The cells cover
every pair of values of the four axes (topology, priced concurrency control,
load loop, program-stream pair) at least once, not their full product.
Durability is off: WAL and checkpoint traffic is not in the profile.

A cell that finds a leak the code still has is a strict ``xfail`` naming
the ROADMAP item that fixes it: it shows the game fails today and turns red
the day the fix lands, so the mark must go with it.
"""

import itertools
import random

import pytest

from repro.analysis import check_bucket_invariant, distinguish, leakage, simulate_view, views
from repro.api import EngineConfig, PoissonArrivals, create_engine
from repro.audit import EngineObserver
from repro.core.client import Read, Write
from repro.elasticity import ReshardPlan

KEYS = 32
#: Waves of each stream's client count (twice that around the reshard).
EPOCHS = 6
SEED = 7
RESHARD = ((1, 1, 1), (4, 2, 1))
TOPOLOGIES = [(1, 1, 1), (4, 1, 1), (4, 2, 1), (4, 4, 4), RESHARD]
#: Arrival rates either side of the knee (one epoch is about 10 ms).
LOOPS = ["closed", 5000.0, 20.0]


def rmw(key):
    def program():
        value = yield Read(key)
        yield Write(key, value[::-1])
        return value
    return program


def read(key):
    def program():
        return (yield Read(key))
    return program


def stream(make, pick):
    rng = random.Random(5)
    return lambda: make(pick(rng))


#: Program-stream pairs: ``(name, (program source, clients) for each side)``.
STREAMS = [
    ("uniform vs 4 hot keys",
     lambda: ((stream(rmw, lambda rng: f"k{rng.randrange(KEYS)}"), 4),
              (stream(rmw, lambda rng: f"k{rng.randrange(4)}"), 4))),
    ("read-only vs RMW",
     lambda: ((stream(read, lambda rng: f"k{rng.randrange(KEYS)}"), 4),
              (stream(rmw, lambda rng: f"k{rng.randrange(KEYS)}"), 4))),
    ("calm vs contention",
     lambda: ((stream(rmw, lambda rng, keys=itertools.count(): f"k{next(keys) % KEYS}"), 4),
              (stream(rmw, lambda rng: "k0"), 4))),
    ("1 vs saturated txns per epoch",
     lambda: ((stream(rmw, lambda rng: f"k{rng.randrange(KEYS)}"), 1),
              (stream(rmw, lambda rng: f"k{rng.randrange(KEYS)}"), 8))),
]

#: The leaks still in the code: ``(reason, the columns their findings name)``.
PRICED = ("ROADMAP 2(b): priced CC holds a read batch past its Δ boundary",
          ("read offsets", "steps"))
IDLE = ("ROADMAP 2(c): below the knee the gaps between epochs are the arrival gaps",
        ("steps",))


def cells():
    """Every pair of axis values at least once: topology x stream, loop and
    CC cost rotated over them."""
    for t, topology in enumerate(TOPOLOGIES):
        for s, (name, sides) in enumerate(STREAMS):
            loop, cc_op_ms = LOOPS[(t + s) % 3], 2.0 if s == t % 4 else 0.0
            leaks = [PRICED] * bool(cc_op_ms) + [IDLE] * (loop == 20.0)
            marks = [pytest.mark.xfail(strict=True, raises=AssertionError,
                                       reason="; ".join(reason for reason, _ in leaks))]
            yield pytest.param(topology, cc_op_ms, loop, sides,
                               {column for _, columns in leaks for column in columns},
                               marks=marks if leaks else [],
                               id=f"{topology}-cc{cc_op_ms:g}-{loop}-{name}")


class ReshardAfter(EngineObserver):
    """Stages the reshard after a number of waves, as an operator would."""

    def __init__(self, waves):
        self.waves = waves

    def on_wave(self, engine, results):
        self.waves -= 1
        if self.waves == 0:
            engine.reshard(ReshardPlan(*RESHARD[1]))


def play(topology, cc_op_ms, loop, source, clients):
    """Run one program stream; returns ``(views, leakage, footprint)``."""
    start = RESHARD[0] if topology == RESHARD else topology
    config = (EngineConfig()
              .with_oram(num_blocks=2 * KEYS, z_real=4, s_dummies=2, evict_rate=3,
                         block_size=64)
              .with_batching(read_batches=2, read_batch_size=8, write_batch_size=8)
              .with_sharding(start[0]).with_storage_servers(start[1])
              .with_proxy_workers(start[2]).with_cc_cost(cc_op_ms)
              .with_backend("server").with_durability(False).with_encryption(False)
              .with_seed(SEED))
    engine = create_engine("obladi", config)
    engine.load_initial_data({f"k{i}": b"v" for i in range(KEYS)})
    for server in engine.storage.servers:
        server.trace.clear()

    epochs = EPOCHS
    if topology == RESHARD:
        engine.attach_observer(ReshardAfter(3))
        epochs *= 2
    if loop == "closed":
        engine.run_closed_loop(source, epochs * clients, clients=clients, max_retries=0)
    else:
        engine.run_open_loop(source, epochs * clients, arrivals=PoissonArrivals(loop, seed=3),
                             clients=clients, max_retries=0)
    stats = engine.stats()
    if len(stats.migrations) != (topology == RESHARD):
        pytest.fail("the reshard must complete within the run")
    written = {key for txn in engine.committed_history for key in txn.write_set}
    return (views(engine.proxy.storage), leakage(config, stats),
            (stats.committed, stats.aborted, len(written)))


@pytest.mark.parametrize("topology, cc_op_ms, loop, sides, known", cells())
def test_real_views_are_indistinguishable_from_simulated(topology, cc_op_ms, loop, sides, known):
    runs = [play(topology, cc_op_ms, loop, source, clients) for source, clients in sides()]
    if runs[0][2] == runs[1][2]:
        pytest.fail("the two streams must differ in the engine's own stats")
    findings = distinguish([real for real, _, _ in runs],
                           [simulate_view(leak, seed=11) for _, leak, _ in runs])
    # A known leak's cell must fail on that leak alone, so that it still
    # guards every other column until its fix lands.
    unknown = [finding for finding in findings if finding.split(":")[0] not in known]
    if unknown:
        pytest.fail(f"findings beyond the known leaks: {unknown}")
    assert findings == []


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=str)
def test_the_profile_names_every_view_the_run_produced(topology):
    """The game's premise: a real run's views are exactly the simulated ones,
    each server's requests fall into its views, and Ring ORAM's invariant
    holds in every view."""
    engine_views, leak, _ = play(topology, 0.0, "closed", *STREAMS[0][1]()[0])
    simulated = simulate_view(leak, seed=11)
    assert sorted(engine_views) == sorted(leak.trees) == sorted(simulated)
    for key, view in engine_views.items():
        assert [b.kind for b in view.batches].count("read") == \
            [b.kind for b in simulated[key].batches].count("read") > 0
        assert check_bucket_invariant(view) == []
    servers = {key[0] for key in engine_views}
    assert servers == set(range(topology[-1][1] if topology == RESHARD else topology[1]))
